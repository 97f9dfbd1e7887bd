"""Hierarchical span tracing for pipeline runs, and the per-call audit log.

A :class:`Span` marks one timed region of work — a pipeline run, a
scheduler wave, a step, an operator strategy, a batch execution, an index
build, or a single model call.  Spans form a tree: each records the
``span_id`` of the span that was ambient when it started.  The ambient
span travels in a :class:`contextvars.ContextVar`, as do the attribution
labels of :func:`trace_label`, so parentage and labels survive both the
batch executor's threads (it runs every unit task under
``contextvars.copy_context().run``) and asyncio tasks (which copy the
context at creation time).

:class:`SpanTracker` is the per-session collector, and the session's only
telemetry ring.  The paper's declarative-crowdsourcing framing treats each
LLM call as one crowd worker's answer; the ring is the audit trail of those
answers.  Every call issued through a
:class:`~repro.core.session.PromptSession` is recorded once, as a ``call``
span whose attributes are the call's audit record — whoever triggered it
and whatever happened to it (cache hit, parse failure, taxonomy
exception).  :class:`TraceRecord` is the typed view of one, built on read
(:meth:`SpanTracker.records`).  The ring holds a bounded FIFO of spans,
counts evictions instead of raising, and flushes to the store best-effort —
observability must never sink the run it is watching.
"""

from __future__ import annotations

import contextvars
import json
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING, Any
from uuid import uuid4

from repro.exceptions import BudgetExceededError
from repro.tokenizer.cost import to_dollars, to_nanos

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store import Store

__all__ = [
    "Span",
    "SpanTracker",
    "TraceLabels",
    "TraceRecord",
    "current_labels",
    "current_span_id",
    "summarize_records",
    "trace_label",
]

# The ambient entry is ``(tracker, span_id)`` so that two sessions
# interleaving on one thread cannot adopt each other's span ids.
_CURRENT: contextvars.ContextVar[tuple[Any, int] | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)


def current_span_id(tracker: object | None = None) -> int | None:
    """Return the ambient span id, or ``None`` outside any span.

    When *tracker* is given, only an ambient span opened by that tracker
    counts; spans belonging to a different session are ignored.
    """

    entry = _CURRENT.get()
    if entry is None:
        return None
    owner, span_id = entry
    if tracker is not None and owner is not tracker:
        return None
    return span_id


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

    The engine wraps each operator run in ``operator="sort:pairwise"`` and
    each pipeline step in ``step=<name>``.  Unset fields inherit the
    enclosing label, so a pipeline step label set by the scheduler survives
    the engine nesting an operator label inside.  ``job`` (the service's job
    id) reaches the ``repro.calls`` log lines only.
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
class Span:
    """One timed region in the span tree.

    ``start`` and ``end`` are ``perf_counter`` readings — monotonic and
    comparable only within a process, which is all a waterfall needs.
    ``end`` is ``None`` while the span is open.
    """

    span_id: int
    parent_id: int | None
    kind: str
    label: str
    start: float
    end: float | None = None
    status: str = "running"
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float | None:
        if self.end is None:
            return None
        return max(0.0, self.end - self.start)


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

    @classmethod
    def from_span(cls, span: Span) -> TraceRecord:
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


def summarize_records(records: Iterable[TraceRecord]) -> dict[str, Any]:
    """Calls, cache hits, errors, dollars and milliseconds over *records*."""
    total = hits = errors = nanos = 0
    duration_ms = 0.0
    for record in records:
        total += 1
        hits += record.cache_hit
        errors += record.error is not None
        nanos += to_nanos(record.cost)
        duration_ms += record.duration_ms
    return {
        "calls": total,
        "cache_hits": hits,
        "cache_hit_rate": hits / total if total else 0.0,
        "errors": errors,
        "cost": to_dollars(nanos),
        "duration_ms": duration_ms,
    }


#: Exact types ``json.dumps`` always accepts (NaN and infinities included).
_JSON_PRIMITIVES = frozenset({str, int, float, bool, type(None)})


def _json_safe(value: Any) -> Any:
    """Coerce an attribute value to something json.dumps accepts."""

    if type(value) in _JSON_PRIMITIVES:
        return value
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


class SpanTracker:
    """Thread-safe bounded collector for a session's span tree.

    Spans are kept in insertion order, evicted FIFO past *capacity*
    (counting drops rather than failing), and persisted to the store's
    ``spans`` table under a per-tracker ``origin``.  Ids come from one
    sequence, assigned as a span is admitted: a call's ``call_id`` is its
    ``span_id``.

    *on_drop* is called with the number of ``call`` spans among those a
    crossing evicted (the session wires it to
    ``repro_trace_records_dropped_total``), outside the lock; its failures
    are swallowed.  ``dropped`` counts every evicted span, ``dropped_calls``
    the call records among them.

    Dirty spans are flushed once *flush_every* have accumulated — unless
    the store has a pipeline step open, whose settle writes them with the
    step's other rows (``StoreDB.defers``, up to its own larger bound).
    *flush_every* is also the longest run of settled calls an executor's bag
    holds back from the ring (see :meth:`record_calls`), which keeps that
    bound whole: a run that arrives is at once counted against it.
    """

    def __init__(
        self,
        *,
        capacity: int = 8192,
        store: Store | None = None,
        flush_every: int = 128,
        on_drop: Callable[[int], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.store = store
        self.flush_every = max(1, flush_every)
        self.on_drop = on_drop
        self.origin = uuid4().hex
        self._lock = threading.Lock()
        self._spans: OrderedDict[int, Span] = OrderedDict()
        self._dirty: set[int] = set()
        self._dropped = 0
        self._dropped_calls = 0
        self._next_id = 1

    # -- recording ---------------------------------------------------

    @contextmanager
    def span(self, kind: str, label: str = "", **attributes: Any) -> Iterator[Span]:
        """Open a span, make it ambient, and close it on exit.

        Exit status is ``ok`` on normal return, ``stopped`` when a
        :class:`BudgetExceededError` escapes (the run was halted, not
        broken), and ``error`` otherwise — with the exception class name
        attached as the ``error`` attribute.  Exceptions always
        propagate.
        """

        sp = Span(
            span_id=0,
            parent_id=current_span_id(self),
            kind=kind,
            label=label,
            start=perf_counter(),
            attributes={key: _json_safe(value) for key, value in attributes.items()},
        )
        self._admit((sp,))
        token = _CURRENT.set((self, sp.span_id))
        try:
            yield sp
        except BudgetExceededError:
            self._close(sp, status="stopped")
            raise
        except BaseException as exc:
            self._close(sp, status="error", error=type(exc).__name__)
            raise
        else:
            self._close(sp, status="ok")
        finally:
            _CURRENT.reset(token)

    def record_span(
        self,
        kind: str,
        label: str = "",
        *,
        duration_seconds: float = 0.0,
        status: str = "ok",
        parent_id: int | None = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-finished region as a leaf span.

        The span is backdated by *duration_seconds* and parented to the
        ambient span (or an explicit *parent_id*).
        """

        now = perf_counter()
        sp = Span(
            span_id=0,
            parent_id=parent_id if parent_id is not None else current_span_id(self),
            kind=kind,
            label=label,
            start=now - max(0.0, duration_seconds),
            end=now,
            status=status,
            attributes={key: _json_safe(value) for key, value in attributes.items()},
        )
        self._admit((sp,))
        return sp

    def record_calls(
        self,
        calls: Iterable[tuple[str, str, dict[str, Any]]],
        *,
        settled: Iterable[tuple[int | None, float, float, int]] | None = None,
    ) -> list[Span]:
        """Record a run of settled model calls, one ``call`` span each.

        *calls* holds one ``(model, status, attributes)`` per call, in
        settle order; the spans get consecutive ids under one crossing of
        the lock.  *settled* says when: one ``(parent_id, start, end,
        count)`` per dispatch, as read when it settled, for the next
        *count* calls — a run may be recorded later, and from another
        thread.  Without it the calls ended just now, under the ambient
        span.  The attribute dicts are kept as given — the caller passes
        JSON primitives under :class:`TraceRecord`'s field names.
        """

        if settled is None:
            calls = list(calls)
            now = perf_counter()
            settled = [(current_span_id(self), now, now, len(calls))]
        remaining = iter(calls)
        spans = [
            Span(0, parent_id, "call", model, start, end, status, attributes)
            for parent_id, start, end, count in settled
            for model, status, attributes in islice(remaining, count)
        ]
        self._admit(spans)
        return spans

    def annotate(self, span_id: int | None, **attributes: Any) -> bool:
        """Merge attributes into a recorded span; whether it was still retained."""

        if span_id is None:
            return False
        with self._lock:
            sp = self._spans.get(span_id)
            if sp is None:
                return False
            for key, value in attributes.items():
                sp.attributes[key] = _json_safe(value)
            self._dirty.add(span_id)
            return True

    def _close(self, sp: Span, *, status: str, error: str | None = None) -> None:
        with self._lock:
            sp.end = perf_counter()
            sp.status = status
            if error is not None:
                sp.attributes["error"] = error
            if sp.span_id in self._spans:
                self._dirty.add(sp.span_id)
            pending = len(self._dirty)
        self._flush_if_due(pending)

    def _admit(self, spans: Sequence[Span]) -> None:
        """Number *spans* and take them into the ring, evicting the oldest."""

        ring, dirty = self._spans, self._dirty
        evicted = calls = 0
        with self._lock:
            span_id = self._next_id
            for sp in spans:
                sp.span_id = span_id
                ring[span_id] = sp
                dirty.add(span_id)
                span_id += 1
            self._next_id = span_id
            while len(ring) > self.capacity:
                old_id, old = ring.popitem(last=False)
                dirty.discard(old_id)
                evicted += 1
                calls += old.kind == "call"
            self._dropped += evicted
            self._dropped_calls += calls
            pending = len(dirty)
        if calls and self.on_drop is not None:
            try:
                self.on_drop(calls)
            except Exception:
                pass
        self._flush_if_due(pending)

    def _flush_if_due(self, pending: int) -> None:
        if self.store is not None and pending >= self.flush_every:
            db = getattr(self.store, "db", None)
            if db is None or not db.defers(pending):
                self.flush()

    # -- reading -----------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of retained spans in creation order."""

        with self._lock:
            return list(self._spans.values())

    def records(self) -> list[TraceRecord]:
        """The retained ``call`` spans as :class:`TraceRecord` copies, oldest first."""

        return [TraceRecord.from_span(sp) for sp in self.spans() if sp.kind == "call"]

    def get(self, span_id: int) -> Span | None:
        with self._lock:
            return self._spans.get(span_id)

    def subtree(self, root_id: int) -> list[Span]:
        """The span with *root_id* plus all transitive children, in creation order."""

        keep = {root_id}
        collected: list[Span] = []
        # Spans are created parent-first, so one pass in creation order
        # sees every parent before its children.
        for sp in self.spans():
            if sp.span_id in keep or sp.parent_id in keep:
                keep.add(sp.span_id)
                collected.append(sp)
        return collected

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    @property
    def dropped_calls(self) -> int:
        with self._lock:
            return self._dropped_calls

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- persistence -------------------------------------------------

    def flush(self) -> int:
        """Persist dirty spans best-effort; returns how many were written."""

        if self.store is None:
            return 0
        # The ids leave the dirty set before their spans are read, so an
        # amendment racing the write marks its span dirty again.
        with self._lock:
            pending = [self._spans[sid] for sid in sorted(self._dirty)]
            self._dirty.clear()
        if not pending:
            return 0
        try:
            self.store.save_spans(pending, origin=self.origin)
        except Exception:
            # A failing store must not take the pipeline down with it; the
            # spans stay dirty for the next try.
            with self._lock:
                self._dirty.update(sp.span_id for sp in pending if sp.span_id in self._spans)
            return 0
        return len(pending)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dirty.clear()
            self._dropped = self._dropped_calls = 0
