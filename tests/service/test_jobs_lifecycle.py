"""Job lifecycle under shutdown: drain, kill, and checkpointed resume.

The crash-honesty contract: a killed service leaves every accepted job as a
durable ``stopped`` + ``resumable`` row, and the next process's
``recover()`` re-enqueues it — with the engine's content-addressed
checkpoints restoring already-finished steps for **zero** additional LLM
calls.  The kill test here cancels mid-pipeline (after the first step has
checkpointed, while the second is gated mid-flight) and then restarts
against the same store file.
"""

from __future__ import annotations

import asyncio
import threading

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.llm.faulty import FaultyLLM
from repro.llm.simulated import SimulatedLLM
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry
from repro.store import Store

from _service_helpers import MODEL, corpus_oracle, demo_pipeline, make_client

ACME_KEY = "key-acme"


def held_at_a_gate(calls: range) -> tuple[FaultyLLM, threading.Event]:
    """The simulator, with the ``calls`` (by index) held at a gate until it is set.

    This freezes a pipeline at an exact call boundary — between a step that
    checkpointed and one mid-flight — so a kill test is deterministic instead
    of racing a timer.
    """
    gate = threading.Event()

    def hold() -> None:
        assert gate.wait(timeout=30), "gate never released"

    return FaultyLLM(SimulatedLLM(corpus_oracle(), seed=11), dict.fromkeys(calls, hold)), gate


def tenant_configs():
    return [
        TenantConfig(
            tenant_id="acme",
            api_key=ACME_KEY,
            budget_dollars=10.0,
            default_model=MODEL,
        )
    ]


def pipeline_wire():
    from repro.core.spec_codec import pipeline_to_dict

    return pipeline_to_dict(demo_pipeline())


def direct_baseline():
    """One clean direct run: ground-truth results and per-step call counts."""
    engine = DeclarativeEngine(session=PromptSession(make_client()), default_model=MODEL)
    return engine.run_pipeline(demo_pipeline())


async def poll_to_terminal(client, job_id, *, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        record = (await client.get(f"/v1/jobs/{job_id}")).json()
        if record["status"] in ("succeeded", "failed", "stopped"):
            return record
        assert asyncio.get_running_loop().time() < deadline, "job never settled"
        await asyncio.sleep(0.01)


class TestGracefulDrain:
    def test_drain_finishes_inflight_work_and_refuses_new(self, tmp_path):
        with Store(tmp_path / "svc.db") as store:
            registry = TenantRegistry(make_client(), tenant_configs(), store=store)
            app = ServiceApp(registry)
            client = ServiceClient(app, api_key=ACME_KEY)

            async def scenario():
                submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
                job_id = submitted.json()["job_id"]
                # Drain immediately: the in-flight job must still finish.
                await app.shutdown(drain=True)
                record = (await client.get(f"/v1/jobs/{job_id}")).json()
                refused = await client.post("/v1/pipelines", json_body=pipeline_wire())
                return record, refused

            record, refused = asyncio.run(scenario())
            assert record["status"] == "succeeded"
            assert refused.status == 503
            # The drain persisted the terminal row.
            assert store.load_job(record["job_id"]).status == "succeeded"


class TestKillAndResume:
    def test_kill_midrun_resumes_from_checkpoints_without_doubled_calls(self, tmp_path):
        baseline = direct_baseline()
        filter_calls = baseline.step_reports["filter"].calls
        sort_calls = baseline.step_reports["sort"].calls
        assert filter_calls > 0 and sort_calls > 0

        # ---- process 1: run until filter is checkpointed, then kill -------
        gated, gate = held_at_a_gate(range(filter_calls, filter_calls + sort_calls))
        store1 = Store(tmp_path / "svc.db")
        registry1 = TenantRegistry(gated, tenant_configs(), store=store1)
        app1 = ServiceApp(registry1)
        client1 = ServiceClient(app1, api_key=ACME_KEY)

        async def process_one():
            submitted = await client1.post("/v1/pipelines", json_body=pipeline_wire())
            job_id = submitted.json()["job_id"]
            deadline = asyncio.get_running_loop().time() + 30
            while True:
                record = (await client1.get(f"/v1/jobs/{job_id}")).json()
                if record["steps"].get("filter", {}).get("status") == "completed":
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            # The fast shutdown is the in-process stand-in for SIGKILL: it
            # cancels the job task, whose handler persists stopped+resumable.
            await app1.shutdown(drain=False)
            record = (await client1.get(f"/v1/jobs/{job_id}")).json()
            gate.set()  # unblock the stranded sort workers
            return job_id, record

        job_id, killed = asyncio.run(process_one())
        store1.close()
        assert killed["status"] == "stopped"
        assert killed["resumable"] is True
        assert killed["error"] is not None
        assert killed["steps"]["filter"]["status"] == "completed"

        # ---- process 2: fresh everything but the store file ---------------
        client2 = make_client()
        store2 = Store(tmp_path / "svc.db")
        registry2 = TenantRegistry(client2, tenant_configs(), store=store2)
        app2 = ServiceApp(registry2)
        service2 = ServiceClient(app2, api_key=ACME_KEY)

        async def process_two():
            await service2.lifespan_startup()  # recover() re-enqueues the job
            record = await poll_to_terminal(service2, job_id)
            events = await service2.get(f"/v1/jobs/{job_id}/events")
            await service2.lifespan_shutdown()
            return record, events

        record, events = asyncio.run(process_two())
        assert record["status"] == "succeeded"
        assert record["job_id"] == job_id  # resumed under its original id

        # The filter step came back from its checkpoint, not from the LLM.
        # (The sort may be restored too: the kill's stranded worker thread
        # finishes its step during executor shutdown and checkpoints it —
        # crash recovery then pays nothing at all for it.)
        assert record["steps"]["filter"]["restored"] is True
        assert record["steps"]["sort"]["status"] == "completed"
        assert record["report"]["step_reports"]["filter"]["restored"] is True
        # No doubled work: the restart re-pays at most the interrupted sort,
        # and the combined spend of kill + resume never exceeds one clean
        # uninterrupted run.
        assert client2.calls <= sort_calls
        assert gated.calls + client2.calls <= filter_calls + sort_calls

        # No doubled steps: each step settled exactly once in the stream.
        step_events = [e for e in events.sse_events() if e["event"] == "step"]
        assert sorted(e["step"]["name"] for e in step_events) == ["filter", "sort"]

        # And the resumed results match a clean uninterrupted run.
        from repro.core.workflow import WorkflowReport

        resumed = WorkflowReport.from_dict(record["report"])
        assert resumed.results["sort"].order == baseline.results["sort"].order
        assert resumed.results["filter"].kept == baseline.results["filter"].kept

        row = store2.load_job(job_id)
        assert row.status == "succeeded"
        store2.close()

    def test_recover_skips_budget_stops_and_terminal_rows(self, tmp_path):
        from repro.store import JobRecord

        with Store(tmp_path / "svc.db") as store:
            from repro.core.spec_codec import pipeline_to_json

            wire = pipeline_to_json(demo_pipeline())
            store.save_job(
                JobRecord(job_id="budget", tenant="acme", status="stopped",
                          resumable=False, pipeline_json=wire)
            )
            store.save_job(
                JobRecord(job_id="done", tenant="acme", status="succeeded",
                          pipeline_json=wire)
            )
            store.save_job(
                JobRecord(job_id="orphan", tenant="ghost", status="running",
                          pipeline_json=wire)
            )
            store.save_job(
                JobRecord(job_id="garbled", tenant="acme", status="running",
                          pipeline_json="{not json")
            )
            registry = TenantRegistry(make_client(), tenant_configs(), store=store)
            app = ServiceApp(registry)

            async def scenario():
                resumed = app.startup()
                await app.shutdown()
                return resumed

            resumed = asyncio.run(scenario())
            assert resumed == []
            assert store.load_job("budget").status == "stopped"
            assert store.load_job("done").status == "succeeded"
            orphan = store.load_job("orphan")
            assert orphan.status == "failed"
            assert "no longer configured" in orphan.error
            garbled = store.load_job("garbled")
            assert garbled.status == "failed"
            assert "unreadable" in garbled.error

    def test_queued_and_running_rows_are_recovered(self, tmp_path):
        from repro.core.spec_codec import pipeline_to_json
        from repro.store import JobRecord

        with Store(tmp_path / "svc.db") as store:
            wire = pipeline_to_json(demo_pipeline())
            store.save_job(
                JobRecord(job_id="hardkill", tenant="acme", status="running",
                          pipeline_json=wire)
            )
            registry = TenantRegistry(make_client(), tenant_configs(), store=store)
            app = ServiceApp(registry)
            client = ServiceClient(app, api_key=ACME_KEY)

            async def scenario():
                resumed = app.startup()
                record = await poll_to_terminal(client, "hardkill")
                await app.shutdown()
                return resumed, record

            resumed, record = asyncio.run(scenario())
            assert resumed == ["hardkill"]
            assert record["status"] == "succeeded"


class TestAJobRowThatCannotBeWritten:
    def test_is_logged_and_the_job_runs_on(self, tmp_path, caplog, monkeypatch):
        import sqlite3

        def locked(record):
            raise sqlite3.OperationalError("database is locked")

        with Store(tmp_path / "svc.db") as store:
            monkeypatch.setattr(store, "save_job", locked)
            app = ServiceApp(TenantRegistry(make_client(), tenant_configs(), store=store))
            client = ServiceClient(app, api_key=ACME_KEY)

            async def scenario():
                submitted = await client.post("/v1/pipelines", json_body=pipeline_wire())
                record = await poll_to_terminal(client, submitted.json()["job_id"])
                await app.shutdown()
                return record

            with caplog.at_level("WARNING", logger="repro.service"):
                record = asyncio.run(scenario())
        assert record["status"] == "succeeded"
        warnings = [r for r in caplog.records if r.name == "repro.service"]
        assert {r.levelname for r in warnings} == {"WARNING"}
        # One line per lost write: accepted, started, each step, the outcome.
        assert len(warnings) >= 3
        for status in ("queued", "running", "succeeded"):
            assert any(
                record["job_id"] in r.getMessage() and f" {status} " in r.getMessage()
                and "OperationalError" in r.getMessage()
                for r in warnings
            ), status
