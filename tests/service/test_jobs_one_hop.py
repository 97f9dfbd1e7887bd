"""A service job is one thread hop into ``run_pipeline``.

Each job's run happens on one worker thread, which a fast shutdown cannot
cancel: the job sets the run's stop event instead, so the wave in flight
finishes and no further wave starts, and what the thread reports afterwards
leaves the job's final row and event stream alone.  Two jobs of one tenant
run side by side on the tenant's one session without mixing their results.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import replace

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.core.spec_codec import pipeline_to_dict
from repro.llm.simulated import SimulatedLLM
from repro.service import ServiceApp, ServiceClient, TenantRegistry
from repro.store import Store
from repro.tokenizer.cost import to_nanos

from _service_helpers import CRITERION, MODEL, PREDICATE, WORDS, corpus_oracle, make_client
from test_jobs_lifecycle import ACME_KEY, held_at_a_gate, poll_to_terminal, tenant_configs

OTHER_WORDS = ["avocado", "blueberry", "coconut", "date", "guava", "kiwi"]


def chain(words: list[str]) -> PipelineSpec:
    """filter -> pairwise sort -> rating sort, each step after the one before."""
    return PipelineSpec(
        name="chain",
        steps=[
            PipelineStep(
                "filter", task=FilterSpec(items=words, predicate=PREDICATE, strategy="per_item")
            ),
            PipelineStep(
                "sort",
                task=SortSpec(items=words, criterion=CRITERION, strategy="pairwise"),
                depends_on=("filter",),
            ),
            PipelineStep(
                "rate",
                task=SortSpec(items=words, criterion=CRITERION, strategy="rating"),
                depends_on=("sort",),
            ),
        ],
    )


def solo(pipeline: PipelineSpec):
    engine = DeclarativeEngine(session=PromptSession(make_client()), default_model=MODEL)
    return engine.run_pipeline(pipeline)


async def wait_until(condition) -> None:
    deadline = asyncio.get_running_loop().time() + 30
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "the run never got there"
        await asyncio.sleep(0.01)


class OverlapClient:
    """The simulator; every call waits until calls have come from two threads.

    At ``max_concurrency=1`` a job makes its calls on its run's thread, so
    once any call returns, two jobs were in flight at once.
    """

    waits = True

    def __init__(self, inner: SimulatedLLM) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self._threads: set[int] = set()
        self.calls = 0
        self.overlapped = threading.Event()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.calls += 1
            self._threads.add(threading.get_ident())
            if len(self._threads) == 2:
                self.overlapped.set()
        assert self.overlapped.wait(timeout=30), "the other job never made a call"
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )

    def complete_batch(self, prompts, *, model=None, temperature=0.0, max_tokens=None):
        return [
            self.complete(p, model=model, temperature=temperature, max_tokens=max_tokens)
            for p in prompts
        ]


class TestAFastShutdownMidChain:
    def test_the_abandoned_run_starts_no_step_and_leaves_the_job_alone(self, tmp_path):
        baseline = solo(chain(WORDS))
        filter_calls = baseline.step_reports["filter"].calls
        sort_calls = baseline.step_reports["sort"].calls
        assert baseline.step_reports["rate"].calls > 0
        gated, gate = held_at_a_gate(range(filter_calls, filter_calls + sort_calls))
        with Store(tmp_path / "svc.db") as store:
            app = ServiceApp(TenantRegistry(gated, tenant_configs(), store=store))
            client = ServiceClient(app, api_key=ACME_KEY)

            async def scenario():
                submitted = await client.post(
                    "/v1/pipelines", json_body=pipeline_to_dict(chain(WORDS))
                )
                job_id = submitted.json()["job_id"]
                # The filter has settled and the sort's first call is at the gate.
                await wait_until(
                    lambda: "filter" in app.jobs.get(job_id).steps and gated.calls > filter_calls
                )
                await app.shutdown(drain=False)
                row = store.load_job(job_id)
                gate.set()  # the sort's calls return on the run's thread
                return job_id, row

            # asyncio.run returns once the run's thread has finished.
            job_id, stopped = asyncio.run(scenario())
            after = store.load_job(job_id)
        assert (stopped.status, stopped.resumable) == ("stopped", True)
        assert list(stopped.steps) == ["filter"]
        # The sort in flight finished; the step after it made no call.
        assert gated.calls == filter_calls + sort_calls
        # The sort's settling reached the job after its row was final: ignored.
        assert after.updated_seq == stopped.updated_seq
        assert after.steps == stopped.steps
        events = app.jobs._jobs[job_id].events
        assert (events[-1]["event"], events[-1]["status"]) == ("done", "stopped")
        assert [e["step"]["name"] for e in events if e["event"] == "step"] == ["filter"]


class TestTwoJobsOfOneTenant:
    def test_run_side_by_side_as_each_runs_alone(self, tmp_path):
        pipelines = {"first": chain(WORDS), "second": chain(OTHER_WORDS)}
        alone = {name: solo(pipeline) for name, pipeline in pipelines.items()}
        overlap = OverlapClient(SimulatedLLM(corpus_oracle(), seed=11))
        configs = [replace(config, max_concurrency=1) for config in tenant_configs()]
        with Store(tmp_path / "svc.db") as store:
            registry = TenantRegistry(overlap, configs, store=store)
            app = ServiceApp(registry)
            client = ServiceClient(app, api_key=ACME_KEY)

            async def scenario():
                jobs = {}
                for name, pipeline in pipelines.items():
                    submitted = await client.post(
                        "/v1/pipelines", json_body=pipeline_to_dict(pipeline)
                    )
                    jobs[name] = submitted.json()["job_id"]
                records = {name: await poll_to_terminal(client, job) for name, job in jobs.items()}
                await app.shutdown()
                return records

            records = asyncio.run(scenario())
        assert overlap.overlapped.is_set()
        for name, record in records.items():
            assert record["status"] == "succeeded"
            expected = alone[name].to_dict()
            assert record["report"]["results"] == expected["results"]
            totals = ("total_calls", "total_cost", "total_prompt_tokens", "total_completion_tokens")
            assert [record["report"][key] for key in totals] == [expected[key] for key in totals]
            assert record["report"]["step_order"] == expected["step_order"]
            for step, report in record["report"]["step_reports"].items():
                solo_step = expected["step_reports"][step]
                assert (report["status"], report["cost"], report["calls"]) == (
                    solo_step["status"],
                    solo_step["cost"],
                    solo_step["calls"],
                )
        tracker = registry.get("acme").session.tracker
        assert overlap.calls == tracker.usage.calls == sum(r.total_calls for r in alone.values())
        assert tracker.cost() == sum(to_nanos(r.total_cost) for r in alone.values())
