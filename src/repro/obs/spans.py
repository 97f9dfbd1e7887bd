"""Hierarchical span tracing for pipeline runs.

A :class:`Span` marks one timed region of work — a pipeline run, a
scheduler wave, a step, an operator strategy, a batch execution, or a
single model call.  Spans form a tree: each records the ``span_id`` of
the span that was ambient when it started.  The ambient span travels in
a :class:`contextvars.ContextVar`, the same mechanism the tracer uses
for labels, so parentage survives both the batch executor's threads (it
runs every unit task under ``contextvars.copy_context().run``) and
asyncio tasks (which copy the context at creation time).

:class:`SpanTracker` is the per-session collector.  Like the trace ring
it holds a bounded FIFO of spans, counts evictions instead of raising,
and flushes to the store best-effort — observability must never sink the
run it is watching.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
from collections import OrderedDict
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    ``spans`` table under a per-tracker ``origin`` — mirroring the trace
    ring's contract so the two can be joined by ``TraceRecord.span_id``.

    Setting ``enabled`` to ``False`` turns every entry point into a
    near-no-op: :meth:`span` yields ``None`` without touching the
    contextvar or the lock, which is what the overhead benchmark pins.
    """

    def __init__(
        self,
        *,
        capacity: int = 8192,
        store: Store | None = None,
        flush_every: int = 128,
        enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.store = store
        self.flush_every = max(1, flush_every)
        self.enabled = enabled
        self.origin = uuid4().hex
        self._lock = threading.Lock()
        self._spans: OrderedDict[int, Span] = OrderedDict()
        self._dirty: set[int] = set()
        self._dropped = 0
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------

    @contextmanager
    def span(self, kind: str, label: str = "", **attributes: Any) -> Iterator[Span | None]:
        """Open a span, make it ambient, and close it on exit.

        Exit status is ``ok`` on normal return, ``stopped`` when a
        :class:`BudgetExceededError` escapes (the run was halted, not
        broken), and ``error`` otherwise — with the exception class name
        attached as the ``error`` attribute.  Exceptions always
        propagate.
        """

        if not self.enabled:
            yield None
            return
        sp = self._open(kind, label, attributes)
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
    ) -> Span | None:
        """Record an already-finished region as a leaf span.

        Used for model calls, whose duration is only known after the
        fact: the span is backdated by *duration_seconds* and parented
        to the ambient span (or an explicit *parent_id*).
        """

        if not self.enabled:
            return None
        now = perf_counter()
        if parent_id is None:
            parent_id = current_span_id(self)
        sp = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            kind=kind,
            label=label,
            start=now - max(0.0, duration_seconds),
            end=now,
            status=status,
            attributes={key: _json_safe(value) for key, value in attributes.items()},
        )
        self._admit(sp)
        return sp

    def annotate(self, span_id: int | None, **attributes: Any) -> None:
        """Merge attributes into a recorded span; unknown ids are ignored."""

        if span_id is None or not self.enabled:
            return
        with self._lock:
            sp = self._spans.get(span_id)
            if sp is None:
                return
            for key, value in attributes.items():
                sp.attributes[key] = _json_safe(value)
            self._dirty.add(span_id)

    def _open(self, kind: str, label: str, attributes: Mapping[str, Any]) -> Span:
        sp = Span(
            span_id=next(self._ids),
            parent_id=current_span_id(self),
            kind=kind,
            label=label,
            start=perf_counter(),
            attributes={key: _json_safe(value) for key, value in attributes.items()},
        )
        self._admit(sp)
        return sp

    def _close(self, sp: Span, *, status: str, error: str | None = None) -> None:
        with self._lock:
            sp.end = perf_counter()
            sp.status = status
            if error is not None:
                sp.attributes["error"] = error
            if sp.span_id in self._spans:
                self._dirty.add(sp.span_id)
            pending = len(self._dirty)
        if self.store is not None and pending >= self.flush_every:
            self.flush()

    def _admit(self, sp: Span) -> None:
        with self._lock:
            self._spans[sp.span_id] = sp
            self._dirty.add(sp.span_id)
            while len(self._spans) > self.capacity:
                evicted_id, _ = self._spans.popitem(last=False)
                self._dirty.discard(evicted_id)
                self._dropped += 1

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

        with self._lock:
            snapshot = list(self._spans.values())
        keep = {root_id}
        collected: list[Span] = []
        # Spans are created parent-first, so one pass in creation order
        # sees every parent before its children.
        for sp in snapshot:
            if sp.span_id in keep or sp.parent_id in keep:
                keep.add(sp.span_id)
                collected.append(sp)
        return collected

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- persistence -------------------------------------------------

    def flush(self) -> int:
        """Persist dirty spans best-effort; returns how many were written."""

        if self.store is None:
            return 0
        with self._lock:
            pending = [self._spans[sid] for sid in sorted(self._dirty) if sid in self._spans]
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
            self._dropped = 0
