"""Issue acceptance criteria, end to end.

Three claims are pinned here:

1. A two-branch pipeline's :attr:`PipelineQuote.total_seconds` is the
   quoted critical path over the dependency DAG — strictly less than the
   sum of per-step seconds when branches can overlap.
2. A traced run's report renders a nested pipeline→wave→step→call
   waterfall whose call span ids resolve in the persisted ``spans``
   table after the store is reopened.
3. ``GET /metrics`` on the service returns parseable Prometheus text
   exposition with per-tenant governor, cache, and job series — and
   needs no API key, unlike the rest of the surface.
"""

from __future__ import annotations

import asyncio
import logging
import re

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec, PipelineStep, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import critical_path, render_timeline, trace_label
from repro.store import Store
from tests.doubles import hop

MODEL = "sim-gpt-3.5-turbo"


def _two_branch_pipeline() -> PipelineSpec:
    """Two independent sort branches of different sizes feeding a merge."""
    return PipelineSpec(
        name="two-branch",
        steps=[
            PipelineStep(
                "left",
                task=SortSpec(items=list(FLAVORS[:8]), criterion=CHOCOLATEY, strategy="rating"),
            ),
            PipelineStep(
                "right",
                task=SortSpec(items=list(FLAVORS[8:12]), criterion=CHOCOLATEY, strategy="rating"),
            ),
            PipelineStep(
                "merge",
                run=lambda session, inputs: list(inputs["left"].order)
                + list(inputs["right"].order),
                depends_on=("left", "right"),
            ),
        ],
    )


def _engine(**kwargs) -> DeclarativeEngine:
    return DeclarativeEngine(
        SimulatedLLM(flavor_oracle(), seed=21), default_model=MODEL, **kwargs
    )


class TestQuoteCriticalPath:
    def test_total_seconds_is_the_dag_critical_path_not_the_sum(self):
        engine = _engine()
        # Seed observed latency so every sort step carries a seconds estimate.
        engine.session.stats.record_latency("sort:rating", 120.0)
        quote = engine.quote_pipeline(_two_branch_pipeline())

        assert quote.dependencies == {
            "left": (),
            "right": (),
            "merge": ("left", "right"),
        }
        seconds = {name: quote.steps[name].seconds for name in ("left", "right")}
        assert all(value is not None and value > 0 for value in seconds.values())
        # The branches overlap, so the quote is the slower branch alone —
        # strictly less than running them back to back.
        assert quote.total_seconds == pytest.approx(max(seconds.values()))
        assert quote.total_seconds < sum(seconds.values())

    def test_chained_steps_still_add_up(self):
        engine = _engine()
        engine.session.stats.record_latency("sort:rating", 120.0)
        chain = PipelineSpec(
            name="chain",
            steps=[
                PipelineStep(
                    "first",
                    task=SortSpec(
                        items=list(FLAVORS[:4]), criterion=CHOCOLATEY, strategy="rating"
                    ),
                ),
                PipelineStep(
                    "second",
                    task=SortSpec(
                        items=list(FLAVORS[4:8]), criterion=CHOCOLATEY, strategy="rating"
                    ),
                    depends_on=("first",),
                ),
            ],
        )
        quote = engine.quote_pipeline(chain)
        assert quote.total_seconds == pytest.approx(
            quote.steps["first"].seconds + quote.steps["second"].seconds
        )


class TestTracedRunPersistence:
    def test_waterfall_nests_and_call_spans_survive_store_reopen(self, tmp_path):
        path = tmp_path / "run.db"
        store = Store(path)
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=21), store=store)
        engine = DeclarativeEngine(session=session, default_model=MODEL)

        report = engine.run_pipeline(_two_branch_pipeline(), max_concurrency=4)
        assert report.results["merge"]
        assert report.span_id is not None
        assert report.spans, "engine should attach the run's span subtree"

        kinds = {sp.kind for sp in report.spans}
        assert {"pipeline", "wave", "step", "call"} <= kinds

        # The rendered waterfall nests pipeline -> wave -> step -> call.
        text = render_timeline(report)
        lines = text.splitlines()
        assert lines[0].startswith("pipeline:two-branch")
        assert any(line.startswith("  wave:") for line in lines)
        assert any(line.startswith("    step:left") for line in lines)
        assert any(line.startswith("      operator:sort:rating") for line in lines)
        assert any(line.startswith("        call:") for line in lines)

        # The observed critical path runs through a sort branch to merge.
        observed = critical_path(report.spans)
        assert observed.steps[-1] == "merge"
        assert 0 < observed.seconds <= observed.sum_seconds
        assert session.stats.critical_path_seconds("two-branch") == pytest.approx(
            observed.seconds
        )

        # Call spans resolve in the spans table after a cold reopen.
        call_ids = {sp.span_id for sp in report.spans if sp.kind == "call"}
        assert call_ids
        origin = session.spans.origin
        store.close()
        with Store(path) as reopened:
            persisted = {sp.span_id: sp for sp in reopened.load_spans(origin=origin)}
        assert call_ids <= set(persisted)
        assert all(persisted[sid].kind == "call" for sid in call_ids)
        assert persisted[report.span_id].kind == "pipeline"

    def test_a_concurrent_run_produces_one_tree(self):
        engine = _engine()
        report = engine.run_pipeline(_two_branch_pipeline(), max_concurrency=4)
        tracker = engine.session.spans
        roots = [sp for sp in report.spans if sp.parent_id is None]
        assert [sp.span_id for sp in roots] == [report.span_id]
        for sp in report.spans:
            if sp.parent_id is not None:
                assert tracker.get(sp.parent_id) is not None

    def test_a_run_from_an_event_loop_is_one_tree_under_the_loops_labels(self, caplog):
        engine = _engine()
        with caplog.at_level(logging.DEBUG, logger="repro.calls"), trace_label(job="j1"):
            report = hop(engine.run_pipeline, _two_branch_pipeline(), max_concurrency=4)
        tracker = engine.session.spans
        roots = [sp for sp in report.spans if sp.parent_id is None]
        assert [sp.span_id for sp in roots] == [report.span_id]
        for sp in report.spans:
            if sp.parent_id is not None:
                assert tracker.get(sp.parent_id) is not None
        # The hop copies the loop's context: its job label reaches every call.
        lines = [entry for entry in caplog.records if entry.name == "repro.calls"]
        assert len(lines) == sum(sp.kind == "call" for sp in report.spans) > 0
        assert {line.job for line in lines} == {"j1"}


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)


class TestMetricsEndpoint:
    def _build_app(self, tmp_path):
        from repro.service import ServiceApp, TenantConfig, TenantRegistry

        oracle = flavor_oracle()
        registry = TenantRegistry(
            SimulatedLLM(oracle, seed=21),
            [
                TenantConfig(
                    tenant_id="acme",
                    api_key="key-acme",
                    budget_dollars=10.0,
                    default_model=MODEL,
                    max_in_flight=2,
                ),
                TenantConfig(
                    tenant_id="beta",
                    api_key="key-beta",
                    budget_dollars=10.0,
                    default_model=MODEL,
                ),
            ],
            store=Store(tmp_path / "svc.db"),
        )
        return ServiceApp(registry)

    def test_exposition_carries_per_tenant_series(self, tmp_path):
        from repro.core.spec_codec import pipeline_to_dict
        from repro.service import ServiceClient

        app = self._build_app(tmp_path)
        client = ServiceClient(app, api_key="key-acme")
        # run= callables are code, not data, so the wire pipeline uses
        # task steps only — two independent sort branches.
        wire = pipeline_to_dict(
            PipelineSpec(
                name="branches",
                steps=[
                    PipelineStep(
                        "left",
                        task=SortSpec(
                            items=list(FLAVORS[:6]),
                            criterion=CHOCOLATEY,
                            strategy="rating",
                        ),
                    ),
                    PipelineStep(
                        "right",
                        task=SortSpec(
                            items=list(FLAVORS[6:12]),
                            criterion=CHOCOLATEY,
                            strategy="rating",
                        ),
                    ),
                ],
            )
        )

        async def scenario():
            submitted = await client.post("/v1/pipelines", json_body=wire)
            assert submitted.status == 202
            job_id = submitted.json()["job_id"]
            deadline = asyncio.get_running_loop().time() + 30.0
            while True:
                record = (await client.get(f"/v1/jobs/{job_id}")).json()
                if record["status"] in ("succeeded", "failed", "stopped"):
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert record["status"] == "succeeded"
            # span_id correlation: the job's report carries the root span id.
            assert record["report"]["span_id"] is not None

            # The scrape endpoint needs no credential.
            return await client.request("GET", "/metrics", api_key=None)

        response = asyncio.run(scenario())
        assert response.status == 200
        assert response.headers.get("content-type", "").startswith(
            "text/plain; version=0.0.4"
        )

        body = response.text
        for line in body.splitlines():
            assert line.startswith("# ") or _SAMPLE_RE.match(line), line

        # Per-tenant job lifecycle series.
        assert 'repro_jobs_total{tenant="acme",status="queued"} 1' in body
        assert 'repro_jobs_total{tenant="acme",status="running"} 1' in body
        assert 'repro_jobs_total{tenant="acme",status="succeeded"} 1' in body
        assert 'repro_jobs_active{tenant="acme"} 0' in body
        # Cache-outcome call series and the governor envelope, acme only.
        assert 'repro_llm_calls_total{tenant="acme",cache="miss"}' in body
        assert 'repro_governor_admitted_total{tenant="acme"}' in body
        assert 'repro_governor_in_flight{tenant="acme"} 0' in body
        # The idle tenant emits no job series.
        assert 'repro_jobs_total{tenant="beta"' not in body

    def test_other_routes_still_require_a_key(self, tmp_path):
        from repro.service import ServiceClient

        app = self._build_app(tmp_path)
        client = ServiceClient(app, api_key=None)

        async def scenario():
            metrics = await client.request("GET", "/metrics")
            jobs = await client.request("GET", "/v1/jobs/unknown")
            return metrics, jobs

        metrics, jobs = asyncio.run(scenario())
        assert metrics.status == 200
        assert jobs.status == 401
