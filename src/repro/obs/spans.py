"""Hierarchical span tracing for pipeline runs.

A :class:`Span` marks one timed region of work — a pipeline run, a
scheduler wave, a step, an operator strategy, a batch execution, or a
single model call.  Spans form a tree: each records the ``span_id`` of
the span that was ambient when it started.  The ambient span travels in
a :class:`contextvars.ContextVar`, the same mechanism the tracer uses
for labels, so parentage survives both the batch executor's threads (it
runs every unit task under ``contextvars.copy_context().run``) and
asyncio tasks (which copy the context at creation time).

:class:`SpanTracker` is the per-session collector, and the session's only
telemetry ring: a model call is a ``call`` span whose attributes are the
call's audit record (:class:`~repro.trace.TraceRecord` is the typed view
of one).  It holds a bounded FIFO of spans, counts evictions instead of
raising, and flushes to the store best-effort — observability must never
sink the run it is watching.
"""

from __future__ import annotations

import contextvars
import json
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING, Any
from uuid import uuid4

from repro.exceptions import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store import Store

__all__ = ["Span", "SpanTracker", "current_span_id"]

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

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Span:
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            kind=str(payload.get("kind", "")),
            label=str(payload.get("label", "")),
            start=float(payload.get("start", 0.0)),
            end=payload.get("end"),
            status=str(payload.get("status", "ok")),
            attributes=dict(payload.get("attributes") or {}),
        )


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
        JSON primitives under :class:`~repro.trace.TraceRecord`'s field
        names.
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
