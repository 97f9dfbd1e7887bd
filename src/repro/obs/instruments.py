"""Operational instruments for one session/tenant.

Every metric family the engine emits is declared here, once, as data
(:data:`FAMILIES`), with a ``tenant`` label so a shared
:class:`MetricsRegistry` (as used by the multi-tenant service) keeps
tenants' series apart.  A standalone session uses the empty-string tenant.
A session declares its tenant against the table and binds each child on its
first ``note_*``; the registry builds what is still unbound before a read,
so a session that only quotes builds no metric object.

The ``note_*`` methods are the only surface the rest of the codebase
touches, so the family names and label sets stay consistent across the
governor, executors, span ring, workflow scheduler, and job manager.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any, NamedTuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.tokenizer.cost import NANOS_PER_DOLLAR

__all__ = ["SessionInstruments"]

_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0)


class _Family(NamedTuple):
    name: str
    kind: type
    help_text: str
    labelnames: tuple[str, ...]
    #: :class:`SessionInstruments` attribute -> label values after ``tenant`` of
    #: its pre-bound child (rendered at zero before a note), or ``None``: the family.
    attrs: Mapping[str, tuple[str, ...] | None]
    options: Mapping[str, Any] = {}

    @property
    def prebound(self) -> tuple[tuple[str, ...], ...]:
        return tuple(values for values in self.attrs.values() if values is not None)


def _tenant(attr: str, name: str, kind: type, help_text: str, **options: Any) -> _Family:
    """A family labelled by tenant alone, its one child pre-bound."""
    return _Family(name, kind, help_text, ("tenant",), {attr: ()}, options)


#: The standard families, in registration order.
FAMILIES = (
    _Family("repro_llm_calls_total", Counter,
            "Model calls settled through a session, by response-cache outcome.",
            ("tenant", "cache"), {"_calls_hit": ("hit",), "_calls_miss": ("miss",)}),
    _Family("repro_llm_call_errors_total", Counter, "Model calls that raised, by exception class.",
            ("tenant", "error"), {"_call_errors": None}),
    _tenant("_cost", "repro_llm_cost_dollars_total", Counter,
            "Accumulated model spend in dollars.", per_unit=NANOS_PER_DOLLAR),
    _tenant("_budget_spent", "repro_budget_spent_dollars", Gauge,
            "Current budget spend in dollars."),
    _tenant("_call_seconds", "repro_call_duration_seconds", Histogram,
            "Wall-clock duration of settled model calls.", buckets=_LATENCY_BUCKETS),
    _tenant("_trace_dropped", "repro_trace_records_dropped_total", Counter,
            "Trace records evicted from the ring buffer before flushing."),
    _tenant("_observer_errors", "repro_step_observer_errors_total", Counter,
            "Exceptions raised by on_step observers and absorbed by the scheduler."),
    _tenant("_gov_admitted", "repro_governor_admitted_total", Counter,
            "Backend calls admitted by the concurrency governor."),
    _tenant("_gov_throttled", "repro_governor_throttled_total", Counter,
            "Dispatches the governor made wait for a slot or pacing."),
    _tenant("_gov_wait", "repro_governor_wait_seconds_total", Counter,
            "Total seconds dispatches spent waiting on the governor."),
    _tenant("_gov_rate_limited", "repro_governor_rate_limit_events_total", Counter,
            "Rate-limit failures reported to the governor."),
    _tenant("_gov_in_flight", "repro_governor_in_flight", Gauge,
            "Calls currently holding a governor slot."),
    _tenant("_exec_in_flight", "repro_executor_tasks_in_flight", Gauge,
            "Batch-executor tasks currently executing."),
    _tenant("_exec_queue", "repro_executor_queue_depth", Gauge,
            "Batch-executor tasks submitted but not yet finished."),
    _Family("repro_jobs_total", Counter, "Job lifecycle transitions, by resulting status.",
            ("tenant", "status"), {"_jobs": None}),
    _tenant("_jobs_active", "repro_jobs_active", Gauge, "Jobs currently running."),
)

#: Attribute -> (family name, label values after ``tenant``, or ``None``).
_BINDINGS = {attr: (f.name, values) for f in FAMILIES for attr, values in f.attrs.items()}


class SessionInstruments:
    """Labelled children of the standard metric families, bound to one tenant."""

    def __init__(self, registry: MetricsRegistry, *, tenant: str = "") -> None:
        self.registry = registry
        self.tenant = tenant
        registry._declare(FAMILIES, (tenant,))
        for attr in _BINDINGS:  # bound by its first note, a plain attribute from then on
            setattr(self, attr, None)

    def _bind(self, attr: str) -> Any:
        """The child (or family) ``attr`` holds, bound now: on its first note."""
        name, values = _BINDINGS[attr]
        bound = self.registry._bind(name, None if values is None else (self.tenant, *values))
        setattr(self, attr, bound)
        return bound

    # -- calls and budget --------------------------------------------

    def note_calls(
        self, *, hits: int, misses: int, cost: int, durations_ms: Iterable[tuple[float, int]]
    ) -> None:
        """A run of settled calls: its cache outcomes, summed cost in n$, and
        its durations as ``(milliseconds, calls booked at it)`` pairs."""
        if hits:
            (self._calls_hit or self._bind("_calls_hit")).inc(hits)
        if misses:
            (self._calls_miss or self._bind("_calls_miss")).inc(misses)
        if cost > 0:
            (self._cost or self._bind("_cost")).inc(cost)
        (self._call_seconds or self._bind("_call_seconds")).observe_many(
            [(max(0.0, ms) / 1000.0, count) for ms, count in durations_ms]
        )

    def note_call_error(self, error: str) -> None:
        family = self._call_errors or self._bind("_call_errors")
        family.labels(tenant=self.tenant, error=error).inc()

    def note_budget_spent(self, spent: float) -> None:
        (self._budget_spent or self._bind("_budget_spent")).set(spent)

    # -- tracing and scheduling --------------------------------------

    def note_trace_dropped(self, count: int = 1) -> None:
        if count > 0:
            (self._trace_dropped or self._bind("_trace_dropped")).inc(count)

    def note_observer_error(self) -> None:
        (self._observer_errors or self._bind("_observer_errors")).inc()

    # -- governor ----------------------------------------------------

    def note_admission(self, wait: float, in_flight: int) -> None:
        (self._gov_admitted or self._bind("_gov_admitted")).inc()
        if wait > 0:
            (self._gov_throttled or self._bind("_gov_throttled")).inc()
            (self._gov_wait or self._bind("_gov_wait")).inc(wait)
        (self._gov_in_flight or self._bind("_gov_in_flight")).set(in_flight)

    def note_release(self, in_flight: int) -> None:
        (self._gov_in_flight or self._bind("_gov_in_flight")).set(in_flight)

    def note_rate_limit(self) -> None:
        (self._gov_rate_limited or self._bind("_gov_rate_limited")).inc()

    # -- executors ---------------------------------------------------

    def note_enqueued(self, count: int) -> None:
        (self._exec_queue or self._bind("_exec_queue")).inc(count)

    def note_dequeued(self, count: int) -> None:
        (self._exec_queue or self._bind("_exec_queue")).dec(count)

    def note_task_started(self, count: int = 1) -> None:
        (self._exec_in_flight or self._bind("_exec_in_flight")).inc(count)

    def note_task_done(self, count: int = 1) -> None:
        (self._exec_in_flight or self._bind("_exec_in_flight")).dec(count)

    # -- jobs --------------------------------------------------------

    def note_job(self, status: str) -> None:
        (self._jobs or self._bind("_jobs")).labels(tenant=self.tenant, status=status).inc()

    def note_job_started(self) -> None:
        (self._jobs_active or self._bind("_jobs_active")).inc()

    def note_job_finished(self) -> None:
        (self._jobs_active or self._bind("_jobs_active")).dec()
