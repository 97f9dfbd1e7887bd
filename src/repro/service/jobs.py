"""The job manager: accepted pipelines as durable, observable jobs.

Submission returns immediately with a job id; each job is one
:meth:`~repro.core.engine.DeclarativeEngine.run_pipeline` call on a worker
thread (``asyncio.to_thread``), bounded by a service-wide slot semaphore so a
burst of submissions queues instead of oversubscribing the process.  Every
lifecycle transition — accepted, started, each settled step, the outcome — is
persisted to the store's ``jobs`` table *as it happens*, which is what makes
the service crash-honest:

* a killed process leaves its in-flight jobs marked ``stopped`` +
  ``resumable`` (the cancellation handler persists before the loop dies,
  and sets the run's ``stop`` event so its thread starts no further wave),
  or at worst ``running`` — never silently lost;
* :meth:`JobManager.recover` (called at startup) re-enqueues every
  non-terminal job from the table, and the engine's content-addressed
  checkpoints guarantee the re-run restores finished steps instead of
  re-paying for them — kill/restart costs zero doubled LLM calls.

Step events reach pollers through a per-job event list plus an
``asyncio.Event`` pulse (replaced on every notify), so any number of
streaming readers can wait without polling loops; the engine's ``on_step``
callback crosses from the run's thread onto the loop via
``call_soon_threadsafe``, which queues it ahead of the run's result, so every
step event precedes ``done``.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, AsyncIterator
from uuid import uuid4

from repro.core.planner import PipelineQuote
from repro.core.spec import PipelineSpec
from repro.core.spec_codec import pipeline_from_json, pipeline_to_json
from repro.obs import trace_label
from repro.store.jobs import JobRecord
from repro.wire import to_wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workflow import StepReport
    from repro.service.tenants import Tenant, TenantRegistry

_LOG = logging.getLogger("repro.service")


@dataclass
class _LiveJob:
    """In-memory state of a job this process is (or was) running."""

    record: JobRecord
    events: list[dict[str, Any]] = field(default_factory=list)
    signal: asyncio.Event = field(default_factory=asyncio.Event)
    done: bool = False


class JobManager:
    """Runs accepted pipelines as jobs (see module docstring).

    Args:
        registry: the tenant registry; supplies each job's engine and the
            shared store the job table lives in.
        max_active: service-wide cap on concurrently *executing* jobs
            (additional accepted jobs wait in ``queued``).
    """

    def __init__(self, registry: "TenantRegistry", *, max_active: int = 4) -> None:
        if max_active <= 0:
            raise ValueError("max_active must be positive")
        self.registry = registry
        self.store = registry.store
        self._slots = asyncio.Semaphore(max_active)
        self._jobs: dict[str, _LiveJob] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._draining = False

    # -- submission ---------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (new submissions must be refused)."""
        return self._draining

    def submit(
        self,
        tenant: "Tenant",
        pipeline: PipelineSpec,
        *,
        quote: PipelineQuote | None = None,
    ) -> JobRecord:
        """Accept one pipeline as a new job; returns the queued record.

        Admission has already happened — the manager never refuses work
        except while draining (callers check :attr:`draining` first).
        """
        if self._draining:
            raise RuntimeError("job manager is draining; not accepting submissions")
        record = JobRecord(
            job_id=uuid4().hex,
            tenant=tenant.tenant_id,
            status="queued",
            pipeline_json=pipeline_to_json(pipeline),
            quote=None if quote is None else quote.to_dict(),
        )
        self._enqueue(record, tenant, pipeline, quote)
        return record

    def _enqueue(
        self,
        record: JobRecord,
        tenant: "Tenant",
        pipeline: PipelineSpec,
        quote: PipelineQuote | None,
    ) -> None:
        live = _LiveJob(record=record)
        self._jobs[record.job_id] = live
        self._persist(record)
        tenant.session.instruments.note_job("queued")
        self._notify(live, {"event": "status", "status": record.status})
        task = asyncio.get_running_loop().create_task(
            self._run(live, tenant, pipeline, quote), name=f"job-{record.job_id}"
        )
        self._tasks[record.job_id] = task
        task.add_done_callback(lambda _t: self._tasks.pop(record.job_id, None))

    # -- execution ----------------------------------------------------------------

    async def _run(
        self,
        live: _LiveJob,
        tenant: "Tenant",
        pipeline: PipelineSpec,
        quote: PipelineQuote | None,
    ) -> None:
        record = live.record
        started = False
        stop = threading.Event()
        try:
            async with self._slots:
                record.status = "running"
                self._persist(record)
                tenant.session.instruments.note_job("running")
                tenant.session.instruments.note_job_started()
                started = True
                self._notify(live, {"event": "status", "status": "running"})
                loop = asyncio.get_running_loop()

                def on_step(step_report: "StepReport") -> None:
                    # Fired on the run's thread.
                    loop.call_soon_threadsafe(self._note_step, live, to_wire(step_report))

                # The job id rides the trace labels into every call's log
                # line: to_thread copies the context into the run's thread.
                with trace_label(job=record.job_id):
                    report = await asyncio.to_thread(
                        tenant.engine.run_pipeline,
                        pipeline,
                        quote=quote,
                        max_concurrency=tenant.config.max_concurrency,
                        on_step=on_step,
                        stop=stop,
                    )
                record.report = report.to_dict()
                for name, step in record.report["step_reports"].items():
                    record.steps[name] = step
                if report.stopped_early:
                    # A clean budget stop: completed results are kept, the
                    # reason is on the report.  Not resumable — re-running
                    # cannot help until the tenant's budget grows.
                    record.status = "stopped"
                    record.resumable = False
                    record.error = report.stop_reason
                else:
                    record.status = "succeeded"
        except asyncio.CancelledError:
            # Shutdown (or a dying event loop) cancelled us mid-run.  The
            # run's thread cannot be cancelled: it finishes the wave in
            # flight and starts no other.  Every completed step is already
            # checkpointed; say so durably.
            stop.set()
            record.status = "stopped"
            record.resumable = True
            record.error = "service stopped mid-run; checkpoints preserved"
            self._persist(record)
            self._settle(tenant, record.status, started)
            self._finish(live)
            raise
        except Exception as exc:  # noqa: BLE001 - the job row carries the error
            record.status = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
        self._persist(record)
        self._settle(tenant, record.status, started)
        self._finish(live)

    @staticmethod
    def _settle(tenant: "Tenant", status: str, started: bool) -> None:
        """Record a job's terminal transition and release the active gauge."""
        tenant.session.instruments.note_job(status)
        if started:
            tenant.session.instruments.note_job_finished()

    def _note_step(self, live: _LiveJob, step: dict[str, Any]) -> None:
        if live.done:
            return  # a wave that outlived its job's fast shutdown: the row is final
        live.record.steps[str(step.get("name"))] = step
        self._persist(live.record)
        self._notify(live, {"event": "step", "step": step})

    def _notify(self, live: _LiveJob, event: dict[str, Any]) -> None:
        live.events.append(event)
        signal = live.signal
        live.signal = asyncio.Event()
        signal.set()

    def _finish(self, live: _LiveJob) -> None:
        live.done = True
        self._notify(live, _done_event(live.record))

    def _persist(self, record: JobRecord) -> None:
        if self.store is None:
            return
        try:
            self.store.save_job(record)
        except Exception as exc:
            # Persistence is the crash story, not the request path; a
            # locked database must not fail the job that is running fine.
            _LOG.warning("job %s: its %s row was not written (%s)", record.job_id,
                         record.status, type(exc).__name__, exc_info=True)

    # -- observation --------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        """The job's current record: live memory first, then the store."""
        live = self._jobs.get(job_id)
        if live is not None:
            return live.record
        return None if self.store is None else self.store.load_job(job_id)

    def queue_depth(self) -> int:
        """Accepted jobs, of every tenant, still waiting for a run slot."""
        return sum(1 for live in self._jobs.values() if live.record.status == "queued")

    def active_count(self, tenant_id: str) -> int:
        """Queued-plus-running jobs of one tenant (the admission input)."""
        return sum(
            1
            for live in self._jobs.values()
            if live.record.tenant == tenant_id
            and live.record.status in ("queued", "running")
        )

    async def stream_events(self, job_id: str) -> AsyncIterator[dict[str, Any]]:
        """Yield a job's events from the beginning until it settles.

        For a job finished in a previous process (store row only), yields
        its persisted steps and a final ``done`` event.
        """
        live = self._jobs.get(job_id)
        if live is None:
            record = None if self.store is None else self.store.load_job(job_id)
            if record is None:
                return
            for step in record.steps.values():
                yield {"event": "step", "step": step}
            yield _done_event(record)
            return
        index = 0
        while True:
            signal = live.signal
            if index < len(live.events):
                event = live.events[index]
                index += 1
                yield event
                if event.get("event") == "done":
                    return
                continue
            if live.done:
                return
            await signal.wait()

    # -- lifecycle ----------------------------------------------------------------

    def recover(self) -> list[str]:
        """Re-enqueue every resumable job left behind by a previous process.

        Anything ``queued``/``running`` (the process died without even a
        cancellation handler) or ``stopped`` + ``resumable`` (a graceful
        drain marked it) is re-submitted under its original job id; the
        tenant's checkpoints restore finished steps with zero LLM calls.
        Budget-stopped and terminal jobs stay as they are.  Returns the
        re-enqueued job ids.
        """
        if self.store is None:
            return []
        resumed: list[str] = []
        for record in self.store.list_jobs():
            if record.job_id in self._jobs or record.terminal:
                continue
            if record.status == "stopped" and not record.resumable:
                continue
            tenant = self.registry.get(record.tenant)
            if tenant is None:
                record.status = "failed"
                record.error = f"tenant {record.tenant!r} is no longer configured"
                self._persist(record)
                continue
            try:
                pipeline = pipeline_from_json(record.pipeline_json)
                pipeline.validate()
            except Exception as exc:  # noqa: BLE001 - recorded on the job row
                record.status = "failed"
                record.error = f"stored pipeline unreadable: {exc}"
                self._persist(record)
                continue
            record.status = "queued"
            record.resumable = False
            record.error = None
            self._enqueue(record, tenant, pipeline, None)
            resumed.append(record.job_id)
        return resumed

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting work; finish or cleanly stop what is in flight.

        With ``drain=True`` (the default) in-flight jobs run to completion.
        Without it they are cancelled, which routes each through the
        ``stopped`` + ``resumable`` persistence path — the fast shutdown
        loses no work, only defers it to the next process's recover().
        """
        self._draining = True
        tasks = list(self._tasks.values())
        if not drain:
            for task in tasks:
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


def _done_event(record: JobRecord) -> dict[str, Any]:
    """The terminal SSE event, with the run's root span as correlation id.

    ``span_id`` lets a client join the job's outcome against the persisted
    ``spans`` table (and any step events it collected, which carry their
    own ``span_id``); ``notes`` surfaces the report's operational warnings.
    """
    report = record.report or {}
    return {
        "event": "done",
        "status": record.status,
        "resumable": record.resumable,
        "error": record.error,
        "span_id": report.get("span_id"),
        "notes": list(report.get("notes", ())),
    }


__all__ = ["JobManager"]
