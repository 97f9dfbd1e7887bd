"""JSON round-trips for specs, pipelines, quotes, and reports.

The service's wire forms must be *faithful*: a pipeline that crosses HTTP,
lands in the job table, and is re-parsed by a resuming process has to be
semantically identical to the object the client built — and anything that
cannot round-trip (callables, factories, live objects) must be refused
loudly, never smuggled or silently dropped.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
    TopKSpec,
)
from repro.core.spec_codec import (
    pipeline_from_dict,
    pipeline_from_json,
    pipeline_to_dict,
    pipeline_to_json,
    spec_from_dict,
    spec_to_dict,
    step_to_dict,
)
from repro.core.workflow import StepReport, WorkflowReport
from repro.data.products import generate_restaurant_dataset
from repro.exceptions import SpecError
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry

from _service_helpers import CRITERION, MODEL, PREDICATE, WORDS, demo_pipeline, make_client


def roundtrip(spec):
    return spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))


class TestSpecCodec:
    @pytest.mark.parametrize(
        "spec",
        [
            SortSpec(items=WORDS, criterion=CRITERION, strategy="pairwise"),
            SortSpec(
                items=WORDS,
                criterion=CRITERION,
                strategy="auto",
                validation_order=["apple", "banana"],
                strategy_options={"k": 3},
            ),
            ResolveSpec(
                records=WORDS,
                pairs=[("apple", "banana"), ("cherry", "damson")],
                validation_labels={("apple", "banana"): False},
                neighbors_k=2,
            ),
            FilterSpec(
                items=WORDS,
                predicate=PREDICATE,
                validation_labels={"apple": True, "fig": False},
            ),
            FilterSpec(
                items=WORDS,
                predicates=[PREDICATE, "is a fruit"],
                expected_selectivities=[0.5, 0.9],
            ),
            CategorizeSpec(
                items=WORDS,
                categories=["early", "late"],
                validation_labels={"apple": "early"},
            ),
            TopKSpec(items=WORDS, criterion=CRITERION, k=3),
            JoinSpec(left=WORDS[:3], right=WORDS[3:]),
            ClusterSpec(items=WORDS),
        ],
    )
    def test_specs_roundtrip_exactly(self, spec):
        assert roundtrip(spec) == spec

    def test_impute_spec_roundtrips_with_dataset(self):
        data = generate_restaurant_dataset(12, seed=23)
        spec = ImputeSpec(data=data, n_examples=2, validation_size=3)
        restored = roundtrip(spec)
        assert restored.n_examples == 2
        assert restored.data.target_attribute == data.target_attribute
        assert restored.data.ground_truth == data.ground_truth
        assert [r.record_id for r in restored.data.queries.records] == [
            r.record_id for r in data.queries.records
        ]
        assert [r.attributes for r in restored.data.reference.records] == [
            r.attributes for r in data.reference.records
        ]

    def test_unknown_type_and_fields_are_refused(self):
        with pytest.raises(SpecError, match="unknown spec type"):
            spec_from_dict({"type": "EvalSpec", "version": 1, "fields": {}})
        payload = spec_to_dict(TopKSpec(items=WORDS, criterion=CRITERION, k=2))
        payload["fields"]["surprise"] = 1
        with pytest.raises(SpecError, match="unknown fields"):
            spec_from_dict(payload)

    def test_newer_versions_are_refused(self):
        payload = spec_to_dict(ClusterSpec(items=WORDS))
        payload["version"] = 99
        with pytest.raises(SpecError, match="newer"):
            spec_from_dict(payload)

    def test_non_json_strategy_options_are_refused(self):
        spec = SortSpec(
            items=WORDS, criterion=CRITERION, strategy_options={"hook": object()}
        )
        with pytest.raises(SpecError, match="not JSON-serialisable"):
            spec_to_dict(spec)


class TestPipelineCodec:
    def test_pipeline_roundtrips_through_json(self):
        pipeline = demo_pipeline(budget_dollars=2.5)
        restored = pipeline_from_json(pipeline_to_json(pipeline))
        assert restored.name == pipeline.name
        assert restored.budget_dollars == 2.5
        assert [s.name for s in restored.steps] == ["filter", "sort"]
        assert restored.steps[1].depends_on == ("filter",)
        assert restored.steps[0].task == pipeline.steps[0].task
        restored.validate()

    def test_callable_steps_refuse_to_encode(self):
        step = PipelineStep(name="hook", run=lambda session, inputs: 1)
        with pytest.raises(SpecError, match="run= callable"):
            step_to_dict(step)

    def test_factory_steps_refuse_to_encode(self):
        step = PipelineStep(
            name="built",
            task=lambda inputs: SortSpec(items=WORDS, criterion=CRITERION),
        )
        with pytest.raises(SpecError, match="factory"):
            step_to_dict(step)

    def test_malformed_json_is_a_spec_error(self):
        with pytest.raises(SpecError, match="malformed pipeline JSON"):
            pipeline_from_json("{nope")


def _one_step(task: dict, **step) -> dict:
    return {"steps": [{"name": "a", "task": task, **step}]}


def _sort_fields(**fields) -> dict:
    return {"type": "SortSpec", "fields": {"items": ["a", "b"], "criterion": "c", **fields}}


#: Well-formed JSON, malformed pipelines: each used to escape the codec as a
#: TypeError / ValueError / IndexError / KeyError instead of a SpecError.
MALFORMED_PAYLOADS = {
    "steps-not-a-list": {"steps": 5},
    "pipeline-version-not-a-number": {"version": "abc", **_one_step(_sort_fields())},
    "short-pair": _one_step({"type": "ResolveSpec", "fields": {"pairs": [["a"]]}}),
    "fields-not-an-object": _one_step({"type": "SortSpec", "fields": [1, 2]}),
    "spec-version-not-a-number": _one_step({**_sort_fields(), "version": "x"}),
    "resolve-labels-not-pairs": _one_step(
        {"type": "ResolveSpec", "fields": {"records": ["a"], "validation_labels": [1]}}
    ),
    "filter-labels-not-an-object": _one_step(
        {
            "type": "FilterSpec",
            "fields": {"items": ["a"], "predicate": "p", "validation_labels": [1, 2]},
        }
    ),
    "budget-not-a-number": {"budget_dollars": "lots", **_one_step(_sort_fields())},
    "spec-budget-not-a-number": _one_step(_sort_fields(budget_dollars="lots")),
    "dataset-without-target": _one_step(
        {"type": "ImputeSpec", "fields": {"data": {"name": "d"}}}
    ),
    "items-not-a-list": _one_step(_sort_fields(items=5)),
    "type-not-a-string": _one_step({"type": ["SortSpec"], "fields": {}}),
    "depends-on-not-a-list": _one_step(_sort_fields(), depends_on=3),
}


def _service_client() -> ServiceClient:
    registry = TenantRegistry(
        make_client(),
        [TenantConfig(tenant_id="acme", api_key="key-acme", budget_dollars=10.0, default_model=MODEL)],
    )
    return ServiceClient(ServiceApp(registry), api_key="key-acme")


class TestMalformedPayloads:
    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS)
    def test_every_malformed_payload_is_a_spec_error_and_a_400(self, payload):
        with pytest.raises(SpecError):
            pipeline_from_dict(payload)
        for path in ("/v1/pipelines", "/v1/pipelines/quote"):
            response = asyncio.run(_service_client().post(path, json_body=payload))
            assert response.status == 400
            assert response.json()["error"]["code"] == "invalid_pipeline"

    def test_an_unknown_strategy_is_refused_at_submit_not_mid_run(self):
        pipeline = demo_pipeline()
        pipeline.steps[1].task.strategy = "pairwize"
        client = make_client()
        registry = TenantRegistry(
            client,
            [TenantConfig(tenant_id="acme", api_key="k", budget_dollars=10.0, default_model=MODEL)],
        )
        response = asyncio.run(
            ServiceClient(ServiceApp(registry), api_key="k").post(
                "/v1/pipelines", json_body=pipeline_to_dict(pipeline)
            )
        )
        assert response.status == 400
        message = response.json()["error"]["message"]
        assert "'pairwize'" in message and "'sort'" in message and "pairwise" in message
        assert client.calls == 0


class TestQuoteAndReportCodecs:
    def _engine(self):
        return DeclarativeEngine(
            session=PromptSession(make_client()), default_model=MODEL
        )

    def test_quote_roundtrips_with_totals(self):
        engine = self._engine()
        quote = engine.quote_pipeline(demo_pipeline())
        data = json.loads(json.dumps(quote.to_dict()))
        assert data["total_calls"] == quote.total_calls
        assert data["total_dollars"] == pytest.approx(quote.total_dollars)
        restored = type(quote).from_dict(data)
        assert restored.total_calls == quote.total_calls
        assert restored.total_dollars == pytest.approx(quote.total_dollars)
        assert set(restored.steps) == set(quote.steps)

    def test_step_report_roundtrip(self):
        report = StepReport(
            name="sort", status="completed", cost=0.25, calls=7, allocation=1.0,
            description="sorts", restored=True,
        )
        assert StepReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report

    def test_workflow_report_roundtrips_results(self):
        engine = self._engine()
        report = engine.run_pipeline(demo_pipeline())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["unserialized_results"] == []
        restored = WorkflowReport.from_dict(data)
        assert restored.step_order == report.step_order
        assert restored.total_calls == report.total_calls
        assert restored.results["sort"].order == report.results["sort"].order
        assert restored.results["filter"].kept == report.results["filter"].kept
        assert restored.step_reports["sort"].cost == pytest.approx(
            report.step_reports["sort"].cost
        )
        assert restored.quote is not None
