"""Retry wrapper: re-ask when a response fails validation.

Section 3.5 notes that the prevailing quality-control practice is to check an
LLM answer against syntactic constraints and retry the query.  The
:class:`RetryingClient` makes that pattern a composable wrapper: the caller
supplies a validator (usually one of the :mod:`repro.llm.parsing` extractors),
failed responses are retried — optionally at a slightly higher temperature so
a deterministic failure is not simply repeated — and the usage of every
attempt is accumulated so cost accounting stays honest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import ConfigurationError, ResponseParseError
from repro.llm.base import BaseClient, Call, LLMClient, LLMResponse
from repro.tokenizer.cost import Usage


@dataclass
class RetryStats:
    """Counters describing the retry behaviour of one client."""

    attempts: int = 0
    retries: int = 0
    failures: int = 0


class RetryingClient(BaseClient):
    """LLM client wrapper that retries responses rejected by a validator.

    Args:
        client: the wrapped client.
        validator: callable applied to the response text; it must raise
            :class:`ResponseParseError` (or return False) to reject a
            response.  ``None`` disables validation and makes the wrapper a
            pass-through.
        max_retries: additional attempts after the first one.
        retry_temperature: temperature used for retry attempts, so a
            deterministic temperature-0 failure is not repeated verbatim.
    """

    def __init__(
        self,
        client: LLMClient,
        *,
        validator: Callable[[str], Any] | None = None,
        max_retries: int = 2,
        retry_temperature: float = 0.7,
    ) -> None:
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if retry_temperature < 0:
            raise ConfigurationError("retry_temperature must be non-negative")
        self._client = client
        self.validator = validator
        self.max_retries = max_retries
        self.retry_temperature = retry_temperature
        self.stats = RetryStats()
        # Stats are bumped from the BatchExecutor's worker threads too.
        self._stats_lock = threading.Lock()

    def _accepted(self, text: str) -> bool:
        if self.validator is None:
            return True
        try:
            return self.validator(text) is not False
        except ResponseParseError:
            return False

    def _call(self, call: Call) -> list[LLMResponse]:
        """Make the first attempts as one inner call, then retry each rejection.

        The first attempt for every prompt goes to the inner client together
        (so native batch optimisations like cache dedup apply); only the
        prompts whose response the validator rejects are re-asked, one call
        at a time.  Each returned response is the first accepted one (or the
        last attempt if none was accepted), with the usage of *all* its
        attempts accumulated onto it and retry metadata attached.

        The first attempts go down under a copy of the prompt list: answers
        made before a failure are unvalidated, not this wrapper's, so what
        the failure carries must not pass for this call's answered prefix
        (:func:`~repro.llm.base.carry_answered`).
        """
        first_attempts = call.to(self._client, list(call.prompts)).run()
        retry_temperature = max(call.temperature, self.retry_temperature)
        results: list[LLMResponse] = []
        for prompt, response in zip(call.prompts, first_attempts):
            accumulated = Usage()
            for attempt in range(self.max_retries + 1):
                with self._stats_lock:
                    self.stats.attempts += 1
                if attempt > 0:
                    (response,) = call.to(
                        self._client, [prompt], temperature=retry_temperature, single=True
                    ).run()
                if self._settle_attempt(response, accumulated, attempt):
                    break
            response.usage = accumulated
            response.metadata = {**response.metadata, "attempts": attempt + 1}
            results.append(response)
        return results

    def _settle_attempt(self, response: LLMResponse, accumulated: Usage, attempt: int) -> bool:
        """Account one attempt (usage, stats, trace); True when it was accepted."""
        accumulated.add(response.usage)
        accepted = self._accepted(response.text)
        self._annotate_trace(response, attempt, accepted)
        if not accepted:
            with self._stats_lock:
                if attempt < self.max_retries:
                    self.stats.retries += 1
                else:
                    self.stats.failures += 1
        return accepted

    def _annotate_trace(
        self, response: LLMResponse, attempt: int, accepted: bool
    ) -> None:
        """Stamp the attempt index and validator outcome onto the call's trace.

        Duck-typed: a session-bound client exposes its ``spans`` ring and
        stamps every response with its trace call id; any other wrapped
        client (a bare simulator, a plain cache) makes this a no-op, so the
        retry wrapper keeps working outside sessions without importing the
        observability layer.
        """
        spans = getattr(self._client, "spans", None)
        if spans is None:
            return
        call_id = response.metadata.get("trace_call_id")
        if call_id is None:
            return
        spans.annotate(call_id, attempt=attempt, parse_ok=accepted)
