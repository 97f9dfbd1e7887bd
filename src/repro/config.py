"""Global configuration defaults for the repro package.

The defaults live in a small frozen dataclass so that callers can construct a
modified copy (``dataclasses.replace``) instead of mutating global state.  The
values are intentionally conservative: temperature 0 (as used for every case
study in the paper), a fixed random seed so experiments are repeatable, and
the default model names that mirror the ones used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any


DEFAULT_SEED = 20240308
DEFAULT_TEMPERATURE = 0.0

# Model-name analogues of the models used in the paper's case studies.
DEFAULT_CHAT_MODEL = "sim-gpt-3.5-turbo"
DEFAULT_LONG_CONTEXT_MODEL = "sim-claude-2"
DEFAULT_CHEAP_MODEL = "sim-small"
DEFAULT_EMBEDDING_MODEL = "sim-embedding-ada-002"


@dataclass(frozen=True)
class ReproConfig:
    """Bundle of defaults used when an explicit value is not supplied.

    Attributes:
        seed: Random seed used by simulated LLM behaviours and data generators.
        temperature: Sampling temperature; the paper sets 0 for all case studies.
        chat_model: Default chat model for unit tasks.
        long_context_model: Default model for long single-prompt tasks.
        cheap_model: Default low-cost model.
        embedding_model: Default embedding model for blocking / k-NN neighbors.
        max_retries: How often a failed/ill-formed response is retried.
        extras: Free-form per-experiment overrides.
    """

    seed: int = DEFAULT_SEED
    temperature: float = DEFAULT_TEMPERATURE
    chat_model: str = DEFAULT_CHAT_MODEL
    long_context_model: str = DEFAULT_LONG_CONTEXT_MODEL
    cheap_model: str = DEFAULT_CHEAP_MODEL
    embedding_model: str = DEFAULT_EMBEDDING_MODEL
    max_retries: int = 2
    extras: dict[str, Any] = field(default_factory=dict)

    def with_overrides(self, **kwargs: Any) -> "ReproConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


#: Module-level default configuration.  Treat as read-only; derive copies with
#: :meth:`ReproConfig.with_overrides` when an experiment needs different values.
DEFAULT_CONFIG = ReproConfig()
