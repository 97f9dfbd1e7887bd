"""The simulated LLM client.

:class:`SimulatedLLM` implements the :class:`~repro.llm.base.LLMClient`
protocol.  It parses the structured prompt, looks up the ground truth in its
:class:`~repro.llm.oracle.Oracle`, corrupts it according to the behaviour
models, counts tokens, enforces the model's context length, and reports usage
— the same observable contract a commercial chat-completion API provides.

Determinism: at temperature 0 the same (model, prompt) pair always yields the
same response, because the per-call random generator is seeded from a stable
hash of the prompt.  At temperature > 0 a per-client call counter is folded
into the seed so repeated calls differ, which is what lets self-consistency
voting (Section 3.5) draw independent samples.
"""

from __future__ import annotations

import hashlib
import random
import threading

from repro.config import DEFAULT_CHAT_MODEL, DEFAULT_SEED
from repro.exceptions import ConfigurationError, ContextLengthExceededError, ResponseParseError
from repro.llm.base import BaseClient, LLMResponse
from repro.llm.behaviors import BEHAVIORS, BehaviorConfig
from repro.llm.oracle import Oracle
from repro.llm.prompts import parse_structured_prompt
from repro.llm.registry import ModelRegistry, default_registry
from repro.tokenizer.cost import Usage
from repro.tokenizer.simple import SimpleTokenizer


def _stable_seed(*parts: object) -> int:
    """Derive a reproducible 64-bit seed from arbitrary string-able parts."""
    digest = hashlib.sha256("||".join(str(part) for part in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SimulatedLLM(BaseClient):
    """Noisy-oracle simulation of a text-completion LLM endpoint.

    Args:
        oracle: ground truth for the experiment's domain.
        registry: model catalogue; defaults to :func:`default_registry`.
        behavior: error-rate configuration; defaults to the paper-calibrated
            :class:`BehaviorConfig`.
        default_model: model used when a call does not name one.
        seed: global seed folded into every per-call seed.
    """

    waits = False  # computes its answers: no call waits (see BackendGate)

    def __init__(
        self,
        oracle: Oracle,
        *,
        registry: ModelRegistry | None = None,
        behavior: BehaviorConfig | None = None,
        default_model: str = DEFAULT_CHAT_MODEL,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.oracle = oracle
        self.registry = registry or default_registry()
        self.behavior = behavior or BehaviorConfig()
        self.default_model = default_model
        self.seed = seed
        self.tokenizer = SimpleTokenizer()
        self._call_counter = 0
        # complete() may be called from the BatchExecutor's worker threads;
        # the counter increment must not lose updates under that load.
        self._counter_lock = threading.Lock()

    # -- LLMClient protocol --------------------------------------------------

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        """Run one simulated completion call.

        ``max_tokens=0`` is legal (empty text, ``finish_reason="length"``); a
        negative one is refused before anything is counted or billed, as a
        provider answers 400 — it would bill negative completion tokens.
        """
        if max_tokens is not None and max_tokens < 0:
            raise ConfigurationError(f"max_tokens must be non-negative, got {max_tokens!r}")
        model_name = model or self.default_model
        spec = self.registry.get(model_name)
        if spec.kind != "chat":
            raise ResponseParseError(
                f"model {model_name!r} is an embedding model and cannot complete prompts"
            )
        prompt_tokens = self.tokenizer.count(prompt)
        if prompt_tokens > spec.context_length:
            raise ContextLengthExceededError(prompt_tokens, spec.context_length, model_name)

        with self._counter_lock:
            self._call_counter += 1
            sample_index = self._call_counter if temperature > 0 else 0
        rng = random.Random(_stable_seed(self.seed, model_name, prompt, sample_index))

        text, confidence = self._generate(prompt, rng, spec.quality)

        completion_tokens = self.tokenizer.count(text)
        finish_reason = "stop"
        if max_tokens is not None and completion_tokens > max_tokens:
            tokens = self.tokenizer.tokenize(text)[:max_tokens]
            text = " ".join(tokens)
            completion_tokens = max_tokens
            finish_reason = "length"
        if prompt_tokens + completion_tokens > spec.context_length:
            # The completion itself ran into the window; truncate like real APIs.
            allowed = max(0, spec.context_length - prompt_tokens)
            tokens = self.tokenizer.tokenize(text)[:allowed]
            text = " ".join(tokens)
            completion_tokens = allowed
            finish_reason = "length"

        return LLMResponse(
            text=text,
            model=model_name,
            usage=Usage(prompt_tokens=prompt_tokens, completion_tokens=completion_tokens, calls=1),
            finish_reason=finish_reason,
            confidence=confidence,
            metadata={"temperature": temperature},
        )

    # -- internals ------------------------------------------------------------

    def _generate(self, prompt: str, rng: random.Random, quality: float) -> tuple[str, float]:
        """Produce the response text for a structured prompt."""
        try:
            task = parse_structured_prompt(prompt)
        except ResponseParseError:
            # Free-form prompt the simulator has no grounding for: echo a
            # generic acknowledgement, as a weak model would.
            return "I am not sure how to help with that request.", 0.1
        behavior = BEHAVIORS.get(task.task)
        if behavior is None:
            return f"I do not recognise the task '{task.task}'.", 0.1
        return behavior(task, self.oracle, rng, quality, self.behavior)

    def reset(self) -> None:
        """Reset the sampling counter (affects temperature > 0 calls only)."""
        with self._counter_lock:
            self._call_counter = 0
