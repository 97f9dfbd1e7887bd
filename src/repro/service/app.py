"""The ASGI application: the engine's versioned HTTP surface.

Stdlib-only by design — the app is a plain callable implementing the ASGI
protocol (``scope``/``receive``/``send``), so the tier-1 test suite drives
it fully in-process through :class:`~repro.service.testing.ServiceClient`,
and production deployments point any ASGI server at it
(:mod:`repro.service.runner` wires uvicorn when that extra is installed).

Endpoints (all JSON; authentication is the ``x-api-key`` header):

========  =============================  ==========================================
method    path                           semantics
========  =============================  ==========================================
POST      ``/v1/pipelines``              submit a pipeline (JSON wire form) as a
                                         job; admission-checked, returns ``202``
                                         with the job id and the quote
POST      ``/v1/pipelines/quote``        price a pipeline without running it
GET       ``/v1/jobs/{id}``              the job's status, settled steps, report
GET       ``/v1/jobs/{id}/events``       SSE stream of lifecycle + step events
GET       ``/v1/tenants/{id}/usage``     the tenant's spend / governor / traces
GET       ``/metrics``                   Prometheus text exposition of every
                                         tenant's operational series
                                         (unauthenticated: scrapers carry no
                                         tenant key, and the exposition holds
                                         counts, never payloads)
GET       ``/healthz``                   liveness: ``200`` whenever the process
                                         answers (unauthenticated)
GET       ``/readyz``                    readiness (unauthenticated): ``200``
                                         with the queue depth once the store
                                         answers ``SELECT 1`` and job recovery
                                         has finished, else ``503`` naming the
                                         failing checks
========  =============================  ==========================================

Tenancy rules: a job is visible only to the tenant that submitted it (other
tenants get ``404``, not ``403`` — existence is not leaked), and a tenant
may read only its own usage.  Admission answers ``402`` (over budget, quote
attached) or ``429`` (queue full) before any LLM call is made; a draining
app answers ``503``.
"""

from __future__ import annotations

import json
from typing import Any, Awaitable, Callable

from repro.core.spec_codec import pipeline_from_dict
from repro.exceptions import ReproError, SpecError
from repro.service.admission import AdmissionController
from repro.service.jobs import JobManager
from repro.service.tenants import Tenant, TenantRegistry

Scope = dict[str, Any]
Receive = Callable[[], Awaitable[dict[str, Any]]]
Send = Callable[[dict[str, Any]], Awaitable[None]]

_JSON_HEADERS = [(b"content-type", b"application/json")]
_SSE_HEADERS = [
    (b"content-type", b"text/event-stream"),
    (b"cache-control", b"no-cache"),
]
_METRICS_HEADERS = [
    (b"content-type", b"text/plain; version=0.0.4; charset=utf-8"),
]


class ServiceApp:
    """The multi-tenant pipeline service as one ASGI callable.

    Args:
        registry: the tenant registry (authentication + per-tenant engines).
        max_active_jobs: service-wide cap on concurrently executing jobs.
        admission: override the admission controller (tests inject one).
    """

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        max_active_jobs: int = 4,
        admission: AdmissionController | None = None,
    ) -> None:
        self.registry = registry
        self.admission = admission or AdmissionController()
        self.jobs = JobManager(registry, max_active=max_active_jobs)
        self._recovered = False

    # -- lifecycle ----------------------------------------------------------------

    def startup(self) -> list[str]:
        """Recover jobs a previous process left unfinished (see JobManager).

        Called by the lifespan handler; in-process harnesses that skip the
        lifespan protocol call it directly.  Requires a running event loop.
        ``/readyz`` answers 503 until this has returned.
        """
        resumed = self.jobs.recover()
        self._recovered = True
        return resumed

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: refuse new work, then drain (or cleanly cancel)."""
        await self.jobs.shutdown(drain=drain)

    # -- ASGI entry ---------------------------------------------------------------

    async def __call__(self, scope: Scope, receive: Receive, send: Send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        await self._http(scope, receive, send)

    async def _lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                try:
                    self.startup()
                except Exception as exc:  # noqa: BLE001 - reported to the server
                    await send(
                        {"type": "lifespan.startup.failed", "message": str(exc)}
                    )
                    return
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await self.shutdown()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- http ---------------------------------------------------------------------

    async def _http(self, scope: Scope, receive: Receive, send: Send) -> None:
        method = scope["method"].upper()
        path = scope["path"]
        headers = {
            name.decode("latin-1").lower(): value.decode("latin-1")
            for name, value in scope.get("headers", [])
        }
        # Prometheus scrapers and orchestrator probes carry no tenant
        # credential; what they read is operational (counts and durations,
        # no payloads), so these are matched before authentication.
        if method == "GET" and path == "/metrics":
            await self._metrics(send)
            return
        if method == "GET" and path == "/healthz":
            await _respond(send, 200, {"status": "ok"})
            return
        if method == "GET" and path == "/readyz":
            await self._ready(send)
            return

        tenant = self.registry.authenticate(headers.get("x-api-key"))
        if tenant is None:
            await _respond(
                send, 401, _error("unauthorized", "missing or unknown x-api-key")
            )
            return

        if method == "POST" and path == "/v1/pipelines":
            await self._submit(tenant, receive, send)
        elif method == "POST" and path == "/v1/pipelines/quote":
            await self._quote(tenant, receive, send)
        elif method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/events"):
                await self._events(tenant, rest[: -len("/events")], send)
            else:
                await self._job_status(tenant, rest, send)
        elif method == "GET" and path.startswith("/v1/tenants/") and path.endswith(
            "/usage"
        ):
            tenant_id = path[len("/v1/tenants/") : -len("/usage")]
            await self._usage(tenant, tenant_id, send)
        else:
            await _respond(send, 404, _error("not_found", f"no route for {method} {path}"))

    async def _submit(self, tenant: Tenant, receive: Receive, send: Send) -> None:
        pipeline = await self._parse_pipeline(receive, send)
        if pipeline is None:
            return
        if self.jobs.draining:
            await _respond(
                send, 503, _error("draining", "service is shutting down; retry later")
            )
            return
        try:
            decision, quote = self.admission.review(
                tenant,
                pipeline,
                active_jobs=self.jobs.active_count(tenant.tenant_id),
            )
        except ReproError as exc:
            await _respond(send, 400, _error("unquotable", str(exc)))
            return
        if not decision.admitted:
            body = _error("rejected", decision.reason)
            body["quote"] = decision.quote
            await _respond(send, decision.status_code, body)
            return
        record = self.jobs.submit(tenant, pipeline, quote=quote)
        await _respond(
            send,
            202,
            {"job_id": record.job_id, "status": record.status, "quote": decision.quote},
        )

    async def _quote(self, tenant: Tenant, receive: Receive, send: Send) -> None:
        pipeline = await self._parse_pipeline(receive, send)
        if pipeline is None:
            return
        try:
            quote = tenant.engine.quote_pipeline(pipeline)
        except ReproError as exc:
            await _respond(send, 400, _error("unquotable", str(exc)))
            return
        await _respond(send, 200, {"pipeline": pipeline.name, "quote": quote.to_dict()})

    async def _job_status(self, tenant: Tenant, job_id: str, send: Send) -> None:
        record = self.jobs.get(job_id)
        if record is None or record.tenant != tenant.tenant_id:
            # The same 404 for "does not exist" and "not yours": job ids
            # must not be probeable across tenants.
            await _respond(send, 404, _error("not_found", f"no job {job_id!r}"))
            return
        await _respond(send, 200, record.to_dict())

    async def _events(self, tenant: Tenant, job_id: str, send: Send) -> None:
        record = self.jobs.get(job_id)
        if record is None or record.tenant != tenant.tenant_id:
            await _respond(send, 404, _error("not_found", f"no job {job_id!r}"))
            return
        await send(
            {"type": "http.response.start", "status": 200, "headers": _SSE_HEADERS}
        )
        async for event in self.jobs.stream_events(job_id):
            payload = f"data: {json.dumps(event, sort_keys=True)}\n\n"
            await send(
                {
                    "type": "http.response.body",
                    "body": payload.encode("utf-8"),
                    "more_body": True,
                }
            )
        await send({"type": "http.response.body", "body": b"", "more_body": False})

    async def _usage(self, tenant: Tenant, tenant_id: str, send: Send) -> None:
        if tenant_id != tenant.tenant_id:
            await _respond(
                send,
                403,
                _error("forbidden", "a tenant may only read its own usage"),
            )
            return
        snapshot = tenant.usage_snapshot()
        snapshot["jobs"] = {"active": self.jobs.active_count(tenant.tenant_id)}
        await _respond(send, 200, snapshot)

    async def _metrics(self, send: Send) -> None:
        """Prometheus text exposition of the shared metrics registry."""
        body = self.registry.metrics.render().encode("utf-8")
        await send(
            {
                "type": "http.response.start",
                "status": 200,
                "headers": _METRICS_HEADERS,
            }
        )
        await send({"type": "http.response.body", "body": body, "more_body": False})

    async def _ready(self, send: Send) -> None:
        """Whether this process should be sent work: each failing check by name."""
        failing: list[str] = []
        store = self.registry.store
        if store is not None:
            try:
                store.db.execute("SELECT 1")
            except Exception:  # noqa: BLE001 - any store failure is "not ready"
                failing.append("store")
        if not self._recovered:
            failing.append("recovery")
        body = {
            "status": "unready" if failing else "ready",
            "failing": failing,
            "queue_depth": self.jobs.queue_depth(),
        }
        await _respond(send, 503 if failing else 200, body)

    async def _parse_pipeline(self, receive: Receive, send: Send):
        body = await _read_body(receive)
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await _respond(send, 400, _error("malformed_json", str(exc)))
            return None
        try:
            pipeline = pipeline_from_dict(data)
            pipeline.validate()
        except SpecError as exc:
            await _respond(send, 400, _error("invalid_pipeline", str(exc)))
            return None
        return pipeline


def _error(code: str, message: str) -> dict[str, Any]:
    return {"error": {"code": code, "message": message}}


async def _read_body(receive: Receive) -> bytes:
    chunks: list[bytes] = []
    while True:
        message = await receive()
        if message["type"] != "http.request":
            continue
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            return b"".join(chunks)


async def _respond(send: Send, status: int, body: dict[str, Any]) -> None:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    await send(
        {"type": "http.response.start", "status": status, "headers": _JSON_HEADERS}
    )
    await send({"type": "http.response.body", "body": payload, "more_body": False})


__all__ = ["ServiceApp"]
