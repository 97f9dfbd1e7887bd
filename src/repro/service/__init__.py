"""The multi-tenant HTTP service layer: sessions and pipelines as jobs.

This package puts the whole declarative engine behind a versioned HTTP API
without adding a single hard dependency: :class:`ServiceApp` is a plain
ASGI callable (stdlib only), :class:`~repro.service.testing.ServiceClient`
drives it fully in-process for tests and examples, and
:func:`~repro.service.runner.serve` wires up uvicorn when the optional
``serve`` extra is installed.

The moving parts, bottom-up:

* :class:`TenantConfig` / :class:`TenantRegistry` — one API key, one
  isolated universe: own budget, own governor envelope, own store
  namespace, own cache/spans/stats (:mod:`repro.service.tenants`).
* :class:`AdmissionController` — prices submissions with the cost planner
  and rejects over-budget or over-queue work *before any LLM call*
  (:mod:`repro.service.admission`).
* :class:`JobManager` — runs each accepted pipeline on a worker thread,
  persists every lifecycle transition to the store's job table, streams
  step events, drains gracefully, and resumes interrupted jobs from
  checkpoints at startup (:mod:`repro.service.jobs`).
* :class:`ServiceApp` — the ASGI routing/auth/serialisation shell over all
  of the above (:mod:`repro.service.app`).

See ``docs/api.md`` ("The HTTP service layer") and
``examples/serve_pipelines.py`` for the guided tour.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.app import ServiceApp
from repro.service.jobs import JobManager
from repro.service.runner import serve
from repro.service.tenants import Tenant, TenantConfig, TenantRegistry
from repro.service.testing import ClientResponse, ServiceClient

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ClientResponse",
    "JobManager",
    "ServiceApp",
    "ServiceClient",
    "Tenant",
    "TenantConfig",
    "TenantRegistry",
    "serve",
]
