"""Structured per-call tracing: the audit log of every LLM "worker response".

The paper's declarative-crowdsourcing framing treats each LLM call as one
crowd worker's answer; this module is the corresponding audit trail.  Every
call issued through a :class:`~repro.core.session.PromptSession` is recorded
once, as a ``call`` span in the session's :class:`~repro.obs.SpanTracker` —
whoever triggered it (an operator's unit task, a retry attempt, a
validation-sample probe) and whatever happened to it (cache hit, parse
failure, taxonomy exception).  A :class:`TraceRecord` is the typed view of
one such span, built on read; the :class:`Tracer` hanging off the session is
the record-shaped face of that ring and owns no state of its own, so
capacity, eviction and the best-effort flush into the durable
:class:`~repro.store.Store` (``spans`` table) are the tracker's.

Attribution works through a :mod:`contextvars` label: the engine wraps each
operator run in :func:`trace_label` (``operator="sort:pairwise"``) and each
pipeline step in ``step=<name>``, and the :class:`~repro.core.executor.
BatchExecutor` propagates the ambient context into its worker threads, so a
record knows which step and strategy it served no matter which thread issued
the call.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Any, Iterator, Sequence

from repro.obs.spans import Span, SpanTracker, current_span_id


@dataclass(frozen=True)
class TraceLabels:
    """The ambient attribution labels a call is recorded under."""

    step: str | None = None
    operator: str | None = None
    job: str | None = None


_LABELS: contextvars.ContextVar[TraceLabels] = contextvars.ContextVar(
    "repro_trace_labels", default=TraceLabels()
)


def current_labels() -> TraceLabels:
    """The labels calls issued from this context are attributed to."""
    return _LABELS.get()


@contextmanager
def trace_label(
    *, step: str | None = None, operator: str | None = None, job: str | None = None
) -> Iterator[TraceLabels]:
    """Attribute calls made inside the block to ``step``/``operator``/``job``.

    Unset fields inherit the enclosing label, so a pipeline step label set
    by the scheduler survives the engine nesting an operator label inside.
    ``job`` (the service's job id) reaches the ``repro.calls`` log lines only.
    """
    current = _LABELS.get()
    merged = TraceLabels(
        step=step if step is not None else current.step,
        operator=operator if operator is not None else current.operator,
        job=job if job is not None else current.job,
    )
    token = _LABELS.set(merged)
    try:
        yield merged
    finally:
        _LABELS.reset(token)


@dataclass
class TraceRecord:
    """One structured record of one LLM call issued through a session.

    Attributes:
        call_id: the id of the call's span (one sequence per session,
            shared with the pipeline / step / operator spans).
        step: pipeline step name the call served, when known.
        operator: ``"<operation>:<strategy>"`` label of the operator run the
            call served, when known (the same label the planner's call
            ratios and latency percentiles are keyed by).
        model: model the call was issued against.
        temperature: sampling temperature of the call.
        prompt: the full prompt text (what makes traces replayable).
        response_text: the full response text; ``None`` when the call raised.
        prompt_tokens / completion_tokens: token counts of the call.
        cost: dollars charged for the call under the session's cost model.
        duration_ms: wall-clock duration via ``time.perf_counter`` (batch
            dispatches record the per-response share of the batch duration).
        cache_hit: whether the response came from the response cache.
        attempt: retry attempt index (0 = first try); annotated post-hoc by
            the retry wrapper.
        parse_ok: validator/parse outcome when one applied (``None`` = no
            validator saw the response).
        error: exception class name (the :class:`~repro.exceptions.ReproError`
            taxonomy, normally) when the call raised; ``None`` on success.
        finish_reason / confidence: carried from the response for replay
            fidelity (confidence drives ensemble voting).
        span_id: the same id, under the name that links the flat trace log
            into the pipeline→wave→step hierarchy.
    """

    call_id: int
    step: str | None = None
    operator: str | None = None
    model: str = ""
    temperature: float = 0.0
    prompt: str = ""
    response_text: str | None = None
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost: float = 0.0
    duration_ms: float = 0.0
    cache_hit: bool = False
    attempt: int = 0
    parse_ok: bool | None = None
    error: str | None = None
    finish_reason: str = "stop"
    confidence: float = 1.0
    span_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict view (JSON-shaped; what the store persists)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    @classmethod
    def from_span(cls, span: Span) -> "TraceRecord":
        """The record a ``call`` span holds: id and model from the span
        itself, everything else from its attributes (defaults where absent)."""
        attributes = span.attributes
        return cls(
            call_id=span.span_id,
            model=span.label,
            span_id=span.span_id,
            **{name: attributes[name] for name in _ATTRIBUTES if name in attributes},
        )


#: The fields a call span carries as attributes, under the same names.
_ATTRIBUTES = tuple(
    f.name for f in fields(TraceRecord) if f.name not in ("call_id", "model", "span_id")
)


class Tracer:
    """The call records of a :class:`~repro.obs.SpanTracker`, as records.

    Args:
        spans: the ring to view (a session passes its own); a private one
            by default.
    """

    def __init__(self, spans: SpanTracker | None = None) -> None:
        self.spans = spans if spans is not None else SpanTracker()

    # -- recording ----------------------------------------------------------------

    def record(self, *, model: str = "", **traced: Any) -> TraceRecord:
        """Append one record; labels default from the ambient trace context."""
        labels = current_labels()
        traced.setdefault("step", labels.step)
        traced.setdefault("operator", labels.operator)
        end = perf_counter()
        start = end - max(0.0, traced.get("duration_ms", 0.0)) / 1000.0
        (span,) = self.spans.record_calls(
            [(model, "ok" if traced.get("error") is None else "error", traced)],
            settled=[(current_span_id(self.spans), start, end, 1)],
        )
        return TraceRecord.from_span(span)

    def annotate(self, call_id: int, **updates: Any) -> bool:
        """Amend a record post-hoc (retry attempt index, parse outcome).

        Returns whether the record was still in the buffer.  Amended records
        are re-flushed on the next :meth:`flush` (the store upserts by id).
        """
        return self.spans.annotate(call_id, **updates)

    # -- inspection ---------------------------------------------------------------

    def records(self) -> list[TraceRecord]:
        """A snapshot (copies) of the buffered records, oldest first."""
        return [TraceRecord.from_span(span) for span in self.spans.spans() if span.kind == "call"]

    def __len__(self) -> int:
        return sum(span.kind == "call" for span in self.spans.spans())

    @property
    def origin(self) -> str:
        """Distinguishes this session's rows from others sharing a store file."""
        return self.spans.origin

    @property
    def dropped(self) -> int:
        """How many call records the ring has evicted so far."""
        return self.spans.dropped_calls

    @property
    def on_drop(self) -> Any | None:
        """The ring's eviction callback."""
        return self.spans.on_drop

    def summarize_records(self) -> dict[str, Any]:
        """An aggregate of the buffered records, from one snapshot of the ring.

        A record is complete before it enters the ring and only a retry
        annotation ever amends it, so a concurrent request handler (the
        service's usage endpoint) can call this while worker threads keep
        recording.  The shape matches the module-level
        :func:`summarize_records`, plus the ring's ``dropped`` count so an
        aggregate over an overflowing buffer is recognisable as partial.
        """
        summary = _aggregate(self.records())
        summary["dropped"] = self.dropped
        return summary

    # -- persistence --------------------------------------------------------------

    def flush(self) -> int:
        """Best-effort write of the ring's unflushed spans; how many were written."""
        return self.spans.flush()


def _aggregate(records: Any) -> dict[str, Any]:
    """Single-pass aggregation over an iterable of records."""
    total = 0
    hits = 0
    errors = 0
    cost = 0.0
    duration_ms = 0.0
    for record in records:
        total += 1
        if record.cache_hit:
            hits += 1
        if record.error is not None:
            errors += 1
        cost += record.cost
        duration_ms += record.duration_ms
    return {
        "calls": total,
        "cache_hits": hits,
        "cache_hit_rate": hits / total if total else 0.0,
        "errors": errors,
        "cost": cost,
        "duration_ms": duration_ms,
    }


def summarize_records(records: Sequence[TraceRecord]) -> dict[str, Any]:
    """Aggregate view of a batch of records (used by docs/examples/tests)."""
    return _aggregate(records)
