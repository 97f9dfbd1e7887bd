"""Pre-bound operational instruments for one session/tenant.

Every metric family the engine emits is declared here, once, with a
``tenant`` label so a shared :class:`MetricsRegistry` (as used by the
multi-tenant service) keeps tenants' series apart.  A standalone
session uses the empty-string tenant.

The ``note_*`` methods are the only surface the rest of the codebase
touches, so the family names and label sets stay consistent across the
governor, executors, tracer, workflow scheduler, and job manager.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.obs.metrics import MetricsRegistry

__all__ = ["SessionInstruments"]

_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0)


class SessionInstruments:
    """Labelled children of the standard metric families, bound to one tenant."""

    def __init__(self, registry: MetricsRegistry, *, tenant: str = "") -> None:
        self.registry = registry
        self.tenant = tenant

        calls = registry.counter(
            "repro_llm_calls_total",
            "Model calls settled through a session, by response-cache outcome.",
            ("tenant", "cache"),
        )
        self._calls_hit = calls.labels(tenant=tenant, cache="hit")
        self._calls_miss = calls.labels(tenant=tenant, cache="miss")
        self._call_errors = registry.counter(
            "repro_llm_call_errors_total",
            "Model calls that raised, by exception class.",
            ("tenant", "error"),
        )
        self._cost = registry.counter(
            "repro_llm_cost_dollars_total",
            "Accumulated model spend in dollars.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._budget_spent = registry.gauge(
            "repro_budget_spent_dollars",
            "Current budget spend in dollars.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._call_seconds = registry.histogram(
            "repro_call_duration_seconds",
            "Wall-clock duration of settled model calls.",
            ("tenant",),
            buckets=_LATENCY_BUCKETS,
        ).labels(tenant=tenant)

        self._trace_dropped = registry.counter(
            "repro_trace_records_dropped_total",
            "Trace records evicted from the ring buffer before flushing.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._observer_errors = registry.counter(
            "repro_step_observer_errors_total",
            "Exceptions raised by on_step observers and absorbed by the scheduler.",
            ("tenant",),
        ).labels(tenant=tenant)

        self._gov_admitted = registry.counter(
            "repro_governor_admitted_total",
            "Dispatches admitted by the concurrency governor.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._gov_throttled = registry.counter(
            "repro_governor_throttled_total",
            "Dispatches the governor made wait for a slot or pacing.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._gov_wait = registry.counter(
            "repro_governor_wait_seconds_total",
            "Total seconds dispatches spent waiting on the governor.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._gov_rate_limited = registry.counter(
            "repro_governor_rate_limit_events_total",
            "Rate-limit failures reported to the governor.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._gov_in_flight = registry.gauge(
            "repro_governor_in_flight",
            "Calls currently holding a governor slot.",
            ("tenant",),
        ).labels(tenant=tenant)

        self._exec_in_flight = registry.gauge(
            "repro_executor_tasks_in_flight",
            "Batch-executor tasks currently executing.",
            ("tenant",),
        ).labels(tenant=tenant)
        self._exec_queue = registry.gauge(
            "repro_executor_queue_depth",
            "Batch-executor tasks submitted but not yet finished.",
            ("tenant",),
        ).labels(tenant=tenant)

        self._jobs = registry.counter(
            "repro_jobs_total",
            "Job lifecycle transitions, by resulting status.",
            ("tenant", "status"),
        )
        self._jobs_active = registry.gauge(
            "repro_jobs_active",
            "Jobs currently running.",
            ("tenant",),
        ).labels(tenant=tenant)

    # -- calls and budget --------------------------------------------

    def note_calls(
        self, *, hits: int, misses: int, cost: float, durations_ms: Iterable[tuple[float, int]]
    ) -> None:
        """A run of settled calls: its cache outcomes, summed cost, and its
        durations as ``(milliseconds, calls booked at it)`` pairs."""
        if hits:
            self._calls_hit.inc(hits)
        if misses:
            self._calls_miss.inc(misses)
        if cost > 0:
            self._cost.inc(cost)
        self._call_seconds.observe_many(
            [(max(0.0, ms) / 1000.0, count) for ms, count in durations_ms]
        )

    def note_call_error(self, error: str) -> None:
        self._call_errors.labels(tenant=self.tenant, error=error).inc()

    def note_budget_spent(self, spent: float) -> None:
        self._budget_spent.set(spent)

    # -- tracing and scheduling --------------------------------------

    def note_trace_dropped(self, count: int = 1) -> None:
        if count > 0:
            self._trace_dropped.inc(count)

    def note_observer_error(self) -> None:
        self._observer_errors.inc()

    # -- governor ----------------------------------------------------

    def note_admission(self, wait: float, in_flight: int) -> None:
        self._gov_admitted.inc()
        if wait > 0:
            self._gov_throttled.inc()
            self._gov_wait.inc(wait)
        self._gov_in_flight.set(in_flight)

    def note_release(self, in_flight: int) -> None:
        self._gov_in_flight.set(in_flight)

    def note_rate_limit(self) -> None:
        self._gov_rate_limited.inc()

    # -- executors ---------------------------------------------------

    def note_enqueued(self, count: int) -> None:
        self._exec_queue.inc(count)

    def note_dequeued(self, count: int) -> None:
        self._exec_queue.dec(count)

    def note_task_started(self) -> None:
        self._exec_in_flight.inc()

    def note_task_done(self) -> None:
        self._exec_in_flight.dec()

    # -- jobs --------------------------------------------------------

    def note_job(self, status: str) -> None:
        self._jobs.labels(tenant=self.tenant, status=status).inc()

    def note_job_started(self) -> None:
        self._jobs_active.inc()

    def note_job_finished(self) -> None:
        self._jobs_active.dec()
