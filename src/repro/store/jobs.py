"""Durable job rows: the service layer's submitted-pipeline ledger.

A :class:`JobRecord` is one submitted pipeline's lifecycle, persisted in the
store's ``jobs`` table so a killed service process can account for — and
resume — every job it had accepted.  The record holds the *wire forms* only
(the pipeline's JSON, the quote's dict, the report's dict): jobs must be
readable by an operator with ``sqlite3`` and re-runnable by a process that
shares none of the original's memory.

States (see :class:`~repro.service.jobs.JobManager` for the transitions):

``queued``
    accepted by admission, waiting for a worker slot.
``running``
    executing on the scheduler.
``succeeded`` / ``failed``
    terminal; ``report`` (or ``error``) carries the outcome.
``stopped``
    did not finish, but *cleanly*: a drained shutdown or a budget stop.
    ``resumable`` distinguishes "re-submit me and my checkpoints finish the
    work" (shutdown/kill) from "the tenant's money ran out" (not resumable
    until the budget grows).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

#: Every state a job row may carry.
JOB_STATUSES = ("queued", "running", "succeeded", "failed", "stopped")

#: States with nothing left to run.
TERMINAL_STATUSES = ("succeeded", "failed")

#: The quote and report columns' one encoder (``json.dumps`` builds one per call).
_PAYLOAD = json.JSONEncoder(sort_keys=True)


@dataclass
class JobRecord:
    """One submitted pipeline's durable lifecycle row.

    Attributes:
        job_id: opaque unique id (the service mints a UUID hex).
        tenant: owning tenant id — every job query is tenant-scoped.
        status: one of :data:`JOB_STATUSES`.
        pipeline_json: the submitted pipeline's JSON wire form (see
            :func:`~repro.core.spec_codec.pipeline_to_json`) — what a
            resume re-parses and re-runs.  Runtime-only: not in the job view.
        quote: the admission-time quote dict, when one was computed.
        report: the finished run's report dict
            (:meth:`~repro.core.workflow.WorkflowReport.to_dict`).
        error: exception text for ``failed`` jobs.
        resumable: a ``stopped`` job that a restart should re-enqueue.
        submitted_seq / updated_seq: store sequence ordinals (deterministic
            ordering without wall clocks, like every other table).
    """

    job_id: str
    tenant: str
    status: str = "queued"
    pipeline_json: str = field(default="", compare=False)
    quote: dict[str, Any] | None = None
    report: dict[str, Any] | None = None
    error: str | None = None
    resumable: bool = False
    submitted_seq: int = 0
    updated_seq: int = 0
    #: Settled step reports streamed so far (name -> StepReport dict);
    #: persisted with the row so a restart reports partial progress.
    steps: dict[str, Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES


def _loads(payload: Any) -> dict[str, Any] | None:
    if payload is None:
        return None
    data = json.loads(payload)
    return data if isinstance(data, dict) else None


def job_from_row(row: tuple) -> JobRecord:
    """Rebuild a record from a ``jobs`` table row (column order fixed)."""
    report_data = _loads(row[5]) or {}
    return JobRecord(
        job_id=str(row[0]),
        tenant=str(row[1]),
        status=str(row[2]),
        pipeline_json=str(row[3]),
        quote=_loads(row[4]),
        report=report_data.get("report"),
        steps=dict(report_data.get("steps", {})),
        error=row[6],
        resumable=bool(row[7]),
        submitted_seq=int(row[8]),
        updated_seq=int(row[9]),
    )


def job_report_payload(job: JobRecord) -> str:
    """The ``report`` column's JSON: final report plus streamed steps."""
    return _PAYLOAD.encode({"report": job.report, "steps": job.steps})


def job_quote_payload(job: JobRecord) -> str | None:
    return None if job.quote is None else _PAYLOAD.encode(job.quote)


def validate_status(status: str) -> str:
    if status not in JOB_STATUSES:
        raise ValueError(f"unknown job status {status!r} (expected one of {JOB_STATUSES})")
    return status


__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "JobRecord",
    "job_from_row",
    "job_report_payload",
    "job_quote_payload",
    "validate_status",
]
