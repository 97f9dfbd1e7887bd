"""Simulated-LLM substrate.

The paper's case studies call commercial LLM APIs (gpt-3.5-turbo, Claude,
Claude 2, text-embedding-ada-002).  This package provides a drop-in simulated
substrate with the same surface: a text-in / text-out client with per-token
pricing, context-length limits, temperature, a model registry, a response
cache, a usage tracker, a retrying wrapper, and a deterministic embedding
model.  The simulator reproduces the *error structure* the paper documents
(comparison mistakes, drops/hallucinations on long prompts, low-recall
duplicate judgments, formatting variants in imputed values), which is what
all of the paper's techniques operate on.
"""

from repro.llm.base import (
    LLMClient,
    LLMResponse,
    call_complete_batch,
    sequential_complete_batch,
)
from repro.llm.behaviors import BehaviorConfig
from repro.llm.cache import CachedClient, ResponseCache
from repro.llm.embeddings import HashingEmbedder
from repro.llm.oracle import Oracle
from repro.llm.registry import ModelRegistry, ModelSpec, default_registry
from repro.llm.retry import RetryingClient
from repro.llm.simulated import SimulatedLLM
from repro.llm.tracker import UsageTracker

__all__ = [
    "BehaviorConfig",
    "CachedClient",
    "HashingEmbedder",
    "LLMClient",
    "LLMResponse",
    "ModelRegistry",
    "ModelSpec",
    "Oracle",
    "ResponseCache",
    "RetryingClient",
    "SimulatedLLM",
    "UsageTracker",
    "call_complete_batch",
    "default_registry",
    "sequential_complete_batch",
]
