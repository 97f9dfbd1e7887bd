"""End-to-end service tests: the full HTTP lifecycle, fully in-process.

The anchor test submits a pipeline over the ASGI surface, polls the job to
completion, and asserts the results are *identical* to running the same
pipeline directly on an engine with an identically-seeded client — the
service is a transport, not a different execution semantics.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.workflow import WorkflowReport
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry
from repro.store import Store

from _service_helpers import MODEL, demo_pipeline, make_client

ACME_KEY = "key-acme"
BETA_KEY = "key-beta"


def build_app(tmp_path, *, budget=10.0, store=None, **tenant_overrides):
    client = make_client()
    store = store if store is not None else Store(tmp_path / "svc.db")
    registry = TenantRegistry(
        client,
        [
            TenantConfig(
                tenant_id="acme",
                api_key=ACME_KEY,
                budget_dollars=budget,
                default_model=MODEL,
                **tenant_overrides,
            ),
            TenantConfig(
                tenant_id="beta",
                api_key=BETA_KEY,
                budget_dollars=budget,
                default_model=MODEL,
            ),
        ],
        store=store,
    )
    return ServiceApp(registry), client, store


async def poll_to_terminal(client, job_id, *, timeout=30.0):
    """GET the job until it reaches a settled status."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        response = await client.get(f"/v1/jobs/{job_id}")
        assert response.status == 200
        record = response.json()
        if record["status"] in ("succeeded", "failed", "stopped"):
            return record
        assert asyncio.get_running_loop().time() < deadline, "job never settled"
        await asyncio.sleep(0.01)


def pipeline_wire(**kwargs):
    from repro.core.spec_codec import pipeline_to_dict

    return pipeline_to_dict(demo_pipeline(**kwargs))


class TestSubmitAndPoll:
    def test_e2e_results_match_a_direct_run(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            assert submitted.status == 202
            body = submitted.json()
            assert body["status"] == "queued"
            assert body["quote"]["total_dollars"] > 0
            record = await poll_to_terminal(client, body["job_id"])
            await app.shutdown()
            return body, record

        body, record = asyncio.run(scenario())
        store.close()
        assert record["status"] == "succeeded"
        assert record["error"] is None
        # Streamed step reports settled alongside the final report.
        assert set(record["steps"]) == {"filter", "sort"}
        assert all(s["status"] == "completed" for s in record["steps"].values())

        # The ground truth: the same pipeline on a direct engine over an
        # identically-seeded client.
        direct_engine = DeclarativeEngine(
            session=PromptSession(make_client()), default_model=MODEL
        )
        direct = direct_engine.run_pipeline(demo_pipeline())
        served = WorkflowReport.from_dict(record["report"])
        assert served.results["sort"].order == direct.results["sort"].order
        assert served.results["filter"].kept == direct.results["filter"].kept
        assert served.step_order == direct.step_order
        assert served.total_calls == direct.total_calls

    def test_job_row_is_durable(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            record = await poll_to_terminal(client, submitted.json()["job_id"])
            await app.shutdown()
            return record

        record = asyncio.run(scenario())
        store.close()
        with Store(tmp_path / "svc.db") as reopened:
            row = reopened.load_job(record["job_id"])
            assert row is not None
            assert row.status == "succeeded"
            assert row.tenant == "acme"
            assert row.report is not None

    def test_over_budget_submission_rejected_with_quote_and_zero_calls(self, tmp_path):
        app, counting, store = build_app(tmp_path, budget=0.000001)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            response = await client.post("/v1/pipelines", json_body=pipeline_wire())
            await app.shutdown()
            return response

        response = asyncio.run(scenario())
        store.close()
        assert response.status == 402
        body = response.json()
        assert body["error"]["code"] == "rejected"
        assert body["quote"]["total_dollars"] > 0  # the price is in the error body
        assert counting.calls == 0  # and not one LLM call was spent

    def test_queue_depth_rejection_is_429(self, tmp_path):
        app, _, store = build_app(tmp_path, max_queue_depth=1)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            first = await client.post("/v1/pipelines", json_body=pipeline_wire())
            assert first.status == 202
            second = await client.post("/v1/pipelines", json_body=pipeline_wire())
            await poll_to_terminal(client, first.json()["job_id"])
            await app.shutdown()
            return second

        second = asyncio.run(scenario())
        store.close()
        assert second.status == 429
        assert second.json()["error"]["code"] == "rejected"


class TestEventsStream:
    def test_stream_replays_lifecycle_and_steps(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            job_id = submitted.json()["job_id"]
            record = await poll_to_terminal(client, job_id)
            events = await client.get(f"/v1/jobs/{job_id}/events")
            await app.shutdown()
            return record, events

        record, events = asyncio.run(scenario())
        store.close()
        assert record["status"] == "succeeded"
        assert events.status == 200
        assert events.headers["content-type"] == "text/event-stream"
        payloads = events.sse_events()
        assert payloads[-1]["event"] == "done"
        assert payloads[-1]["status"] == "succeeded"
        step_events = [p for p in payloads if p["event"] == "step"]
        names = {p["step"]["name"] for p in step_events}
        assert names == {"filter", "sort"}
        assert all(p["step"]["status"] == "completed" for p in step_events)

    def test_stream_for_unknown_job_is_404(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            response = await client.get("/v1/jobs/nope/events")
            await app.shutdown()
            return response

        response = asyncio.run(scenario())
        store.close()
        assert response.status == 404


class TestQuoteEndpoint:
    def test_quote_prices_without_running(self, tmp_path):
        app, counting, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            response = await client.post(
                "/v1/pipelines/quote", json_body=pipeline_wire()
            )
            await app.shutdown()
            return response

        response = asyncio.run(scenario())
        store.close()
        assert response.status == 200
        body = response.json()
        assert body["pipeline"] == "demo"
        assert body["quote"]["total_dollars"] > 0
        assert counting.calls == 0


class TestAuthAndTenancy:
    def test_missing_or_unknown_key_is_401(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app)

        async def scenario():
            anonymous = await client.get("/v1/jobs/x")
            wrong = await client.get("/v1/jobs/x", api_key="key-mallory")
            await app.shutdown()
            return anonymous, wrong

        anonymous, wrong = asyncio.run(scenario())
        store.close()
        assert anonymous.status == 401
        assert wrong.status == 401

    def test_foreign_jobs_are_indistinguishable_from_absent(self, tmp_path):
        app, _, store = build_app(tmp_path)
        acme = ServiceClient(app, api_key=ACME_KEY)
        beta = ServiceClient(app, api_key=BETA_KEY)

        async def scenario():
            submitted = await acme.post("/v1/pipelines", json_body=pipeline_wire())
            job_id = submitted.json()["job_id"]
            await poll_to_terminal(acme, job_id)
            as_beta = await beta.get(f"/v1/jobs/{job_id}")
            as_nobody = await beta.get("/v1/jobs/does-not-exist")
            await app.shutdown()
            return as_beta, as_nobody

        as_beta, as_nobody = asyncio.run(scenario())
        store.close()
        assert as_beta.status == 404
        # Byte-identical apart from the id: existence is not leaked.
        assert as_beta.json()["error"]["code"] == as_nobody.json()["error"]["code"]

    def test_usage_is_own_tenant_only(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            await poll_to_terminal(client, submitted.json()["job_id"])
            own = await client.get("/v1/tenants/acme/usage")
            foreign = await client.get("/v1/tenants/beta/usage")
            await app.shutdown()
            return own, foreign

        own, foreign = asyncio.run(scenario())
        store.close()
        assert foreign.status == 403
        assert own.status == 200
        usage = own.json()
        assert usage["tenant"] == "acme"
        assert usage["budget"]["limit"] == 10.0
        assert usage["budget"]["spent"] > 0
        assert usage["budget"]["remaining"] == pytest.approx(
            10.0 - usage["budget"]["spent"]
        )
        assert usage["traces"]["calls"] > 0
        assert usage["jobs"]["active"] == 0


class TestBadRequests:
    @pytest.mark.parametrize(
        ("payload", "code"),
        [
            (None, "invalid_pipeline"),
            ({"not": "a pipeline"}, "invalid_pipeline"),
            ({"name": "x", "steps": []}, "invalid_pipeline"),
        ],
    )
    def test_invalid_bodies_are_400(self, tmp_path, payload, code):
        app, counting, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            response = await client.post("/v1/pipelines", json_body=payload)
            await app.shutdown()
            return response

        response = asyncio.run(scenario())
        store.close()
        assert response.status == 400
        assert response.json()["error"]["code"] == code
        assert counting.calls == 0

    def test_malformed_json_is_400(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            response = await client.request(
                "POST",
                "/v1/pipelines",
                headers={"content-type": "application/json"},
            )
            # An empty body decodes as null -> invalid pipeline; send raw junk
            # through a custom scope for the truly malformed case.
            scope_junk = await client.post("/v1/pipelines", json_body="{nope")
            await app.shutdown()
            return response, scope_junk

        response, junk = asyncio.run(scenario())
        store.close()
        assert response.status == 400
        assert junk.status == 400

    def test_unknown_route_is_404(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            response = await client.get("/v1/nope")
            await app.shutdown()
            return response

        response = asyncio.run(scenario())
        store.close()
        assert response.status == 404


class TestLifespan:
    def test_lifespan_startup_and_shutdown(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            await client.lifespan_startup()
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            record = await poll_to_terminal(client, submitted.json()["job_id"])
            await client.lifespan_shutdown()
            after = await client.post("/v1/pipelines", json_body=pipeline_wire())
            return record, after

        record, after = asyncio.run(scenario())
        store.close()
        assert record["status"] == "succeeded"
        assert after.status == 503  # draining after shutdown


class TestProbes:
    def test_healthz_and_readyz_need_no_key(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=None)

        async def scenario():
            await client.lifespan_startup()
            live = await client.get("/healthz")
            ready = await client.get("/readyz")
            await client.lifespan_shutdown()
            return live, ready

        live, ready = asyncio.run(scenario())
        store.close()
        assert (live.status, live.json()) == (200, {"status": "ok"})
        assert ready.status == 200
        assert ready.json() == {"status": "ready", "failing": [], "queue_depth": 0}

    def test_readyz_names_recovery_until_startup_has_run(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=None)

        async def scenario():
            before = await client.get("/readyz")
            live = await client.get("/healthz")
            app.startup()
            after = await client.get("/readyz")
            await app.shutdown()
            return before, live, after

        before, live, after = asyncio.run(scenario())
        store.close()
        assert before.status == 503
        assert before.json()["failing"] == ["recovery"]
        assert live.status == 200  # alive, just not ready
        assert after.status == 200

    def test_readyz_names_a_store_that_does_not_answer(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=None)

        async def scenario():
            app.startup()
            store.close()
            response = await client.get("/readyz")
            await app.shutdown()
            return response

        response = asyncio.run(scenario())
        assert response.status == 503
        assert response.json() == {"status": "unready", "failing": ["store"], "queue_depth": 0}

    def test_readyz_reports_jobs_waiting_for_a_slot(self, tmp_path):
        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            app.startup()
            # Accepted, not yet scheduled: the job's task has not run.
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            ready = await client.get("/readyz")
            await poll_to_terminal(client, submitted.json()["job_id"])
            idle = await client.get("/readyz")
            await app.shutdown()
            return ready, idle

        ready, idle = asyncio.run(scenario())
        store.close()
        assert (ready.status, ready.json()["queue_depth"]) == (200, 1)
        assert idle.json()["queue_depth"] == 0


class TestJobCorrelation:
    def test_a_jobs_call_log_lines_carry_its_id_tenant_and_span_ids(self, tmp_path, caplog):
        import logging

        app, _, store = build_app(tmp_path)
        client = ServiceClient(app, api_key=ACME_KEY)

        async def scenario():
            submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
            record = await poll_to_terminal(client, submitted.json()["job_id"])
            await app.shutdown()
            return record

        with caplog.at_level(logging.DEBUG, logger="repro.calls"):
            record = asyncio.run(scenario())
        lines = [entry for entry in caplog.records if entry.name == "repro.calls"]
        assert lines and len(lines) == record["report"]["total_calls"]
        assert {(line.tenant, line.job) for line in lines} == {("acme", record["job_id"])}
        # Every line's span hangs off the job's root span (the report's id),
        # and is one of the call records the usage endpoint summarises.
        tracker = app.registry.get("acme").session.spans
        subtree = {span.span_id for span in tracker.subtree(record["report"]["span_id"])}
        assert {line.span_id for line in lines} <= subtree
        assert all(tracker.get(line.span_id).kind == "call" for line in lines)
        store.close()
