"""Trace replay: turn a recorded run into a deterministic LLM fixture.

:func:`replay_trace` builds a :class:`ReplayLLM` from a sequence of
:class:`~repro.trace.tracer.TraceRecord` objects.  The fixture implements
the :class:`~repro.llm.base.LLMClient` protocol — ``complete``,
``complete_batch``, ``default_model`` — so it drops in anywhere a
:class:`~repro.llm.simulated.SimulatedLLM` does: hand it to a fresh
:class:`~repro.core.session.PromptSession` and re-run the recorded
pipeline, and every call is answered from the trace with **zero live LLM
calls**.  A prompt the trace never answered raises
:class:`~repro.exceptions.TraceError` instead of silently inventing an
answer, which is exactly the property that turns a captured incident into
a regression test: if the replayed code path diverges from the recorded
one, the replay fails loudly at the first unrecorded call.

Repeated calls of the same ``(model, prompt)`` key replay in recorded
order (retry attempts at temperature > 0 produce distinct responses), and
the last recorded response is then repeated for any surplus lookups — a
replayed run whose caching behaves *better* than the recorded one (e.g. a
pre-warmed store) must not fail on the missing repetition.  Calls that
were recorded as raising re-raise the same exception class from the
:class:`~repro.exceptions.ReproError` taxonomy.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Sequence

from repro import exceptions
from repro.exceptions import ContextLengthExceededError, ReproError, TraceError
from repro.llm.base import BaseClient, LLMResponse
from repro.tokenizer.cost import Usage
from repro.trace.tracer import TraceRecord


def _raise_recorded(record: TraceRecord) -> None:
    """Re-raise the exception class a recorded call raised."""
    name = record.error or "ReproError"
    if name == "ContextLengthExceededError":
        raise ContextLengthExceededError(
            record.prompt_tokens, record.prompt_tokens, record.model
        )
    cls = getattr(exceptions, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            raise cls(f"replayed {name} for call {record.call_id}")
        except TypeError:  # constructors with required structured arguments
            raise ReproError(f"replayed {name} for call {record.call_id}") from None
    raise TraceError(
        f"recorded call {record.call_id} raised non-taxonomy error {name!r}"
    )


class ReplayLLM(BaseClient):
    """An LLM client that answers every call from a recorded trace.

    Attributes:
        default_model: carried from the recorded calls (the session default
            resolution and the cache's key derivation both read it).
        served: how many calls have been answered from the trace so far.
    """

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        self._responses: dict[tuple[str, str], deque[TraceRecord]] = {}
        self._lock = threading.Lock()
        self.served = 0
        self.default_model = records[0].model if records else "default"
        for record in records:
            self._responses.setdefault((record.model, record.prompt), deque()).append(
                record
            )

    @property
    def recorded_calls(self) -> int:
        """How many records the fixture was built from."""
        return sum(len(queue) for queue in self._responses.values())

    # -- LLMClient protocol --------------------------------------------------

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        model_name = model or self.default_model
        with self._lock:
            queue = self._responses.get((model_name, prompt))
            if not queue:
                raise TraceError(
                    f"no recorded response for model {model_name!r} and prompt "
                    f"{prompt[:80]!r}...; the replayed run diverged from the "
                    "recorded one (this would have been a live LLM call)"
                )
            # Replay repeated identical calls in recorded order, but keep the
            # final response available forever: a replayed run may look a
            # prompt up more often than the recorded one did.
            record = queue.popleft() if len(queue) > 1 else queue[0]
            self.served += 1
        if record.error is not None:
            _raise_recorded(record)
        return LLMResponse(
            text=record.response_text or "",
            model=record.model,
            usage=Usage(
                prompt_tokens=record.prompt_tokens,
                completion_tokens=record.completion_tokens,
                calls=1,
            ),
            finish_reason=record.finish_reason,
            confidence=record.confidence,
            metadata={"temperature": temperature, "replayed_call_id": record.call_id},
        )


def replay_trace(records: Iterable[TraceRecord]) -> ReplayLLM:
    """Build a replay fixture from recorded trace records.

    Cache-hit records are included: the recorded response text is the same
    whether the recorded call hit the cache or the model, and a replayed
    run with a cold cache needs the answer either way.
    """
    materialized = [record for record in records if record is not None]
    if not materialized:
        raise TraceError("cannot build a replay fixture from an empty trace")
    return ReplayLLM(sorted(materialized, key=lambda record: record.call_id))
