"""Tests for the fluent Dataset builder: laziness, execution, results."""

from __future__ import annotations

import pytest

from repro.core.planner import CostPlanner
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    FilterSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
)
from repro.data.products import generate_buy_dataset
from repro.exceptions import SpecError
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset
from tests.query.support import clean_behavior, clean_engine


class TestLaziness:
    def test_chaining_builds_a_plan_without_llm_calls(self, products):
        items, oracle = products
        engine = clean_engine(oracle)
        query = (
            Dataset(items, name="products")
            .filter("keeps everything")
            .resolve()
            .sort("important")
            .top_k("important", k=2)
        )
        assert engine.session.tracker.usage.calls == 0
        assert [node.op for node in query.logical_plan().nodes()] == [
            "source", "filter", "resolve", "sort", "top_k",
        ]

    def test_builders_are_immutable_and_branchable(self, products):
        items, _ = products
        base = Dataset(items, name="products")
        filtered = base.filter("keeps everything")
        sorted_ = base.sort("important")
        assert [n.op for n in base.logical_plan().nodes()] == ["source"]
        assert filtered.logical_plan().root.op == "filter"
        assert sorted_.logical_plan().root.op == "sort"
        # Both branches share the same source node object.
        assert filtered.logical_plan().root.inputs[0] is sorted_.logical_plan().root.inputs[0]

    def test_empty_source_rejected(self):
        with pytest.raises(SpecError, match="at least one item"):
            Dataset([])

    def test_invalid_arguments_rejected_eagerly(self, products):
        items, _ = products
        dataset = Dataset(items)
        with pytest.raises(SpecError, match="predicate"):
            dataset.filter("")
        with pytest.raises(SpecError, match="criterion"):
            dataset.sort("")
        with pytest.raises(SpecError, match="at least 1"):
            dataset.top_k("important", k=0)
        with pytest.raises(SpecError, match="expected_selectivity"):
            dataset.filter("x", expected_selectivity=0.0)
        with pytest.raises(SpecError, match="non-negative"):
            dataset.with_budget(-1.0)


class TestExecution:
    def test_filter_resolve_topk_chain(self, products):
        items, oracle = products
        result = (
            Dataset(items, name="products")
            .filter("keeps everything")
            .resolve()
            .top_k("important", k=2, strategy="pairwise_tournament")
            .run(clean_engine(oracle))
        )
        # Dedup keeps one representative per entity; top-2 by the latent
        # importance scores are the first two entity representatives.
        assert result.items == ["laptop device", "monitor device"]
        assert result.total_calls > 0
        assert result.total_cost > 0.0

    def test_annotators_pass_items_through(self, products):
        items, oracle = products
        result = (
            Dataset(items, name="products")
            .categorize(["early", "late"])
            .cluster(strategy="single_prompt")
            .run(clean_engine(oracle))
        )
        assert result.items == items
        assignments = result.step_result("categorize").assignments
        assert set(assignments) == set(items)
        clusters = result.step_result("cluster").clusters
        assert sorted(index for group in clusters for index in group) == list(
            range(len(items))
        )

    def test_sort_orders_by_criterion(self, products):
        items, oracle = products
        result = (
            Dataset(items, name="products")
            .sort("important", strategy="pairwise")
            .run(clean_engine(oracle))
        )
        assert result.items == items  # registered scores are descending in input order

    def test_join_keeps_left_items_with_matches(self, products):
        items, oracle = products
        left = [item for item in items if "(refurb" not in item][:4]
        right = [f"{word} device (refurb 1)" for word in ["laptop", "monitor"]]
        result = (
            Dataset(left, name="left")
            .join(Dataset(right, name="right"), strategy="all_pairs")
            .run(clean_engine(oracle))
        )
        assert result.items == ["laptop device", "monitor device"]
        matches = result.step_result("join").matches
        assert len(matches) == 2

    def test_impute_runs_off_the_item_chain(self, products):
        items, oracle = products
        data = generate_buy_dataset(n_records=20, seed=4)
        for record in data.queries:
            oracle.register_value(
                data.serialized_query(record),
                data.target_attribute,
                data.ground_truth[record.record_id],
            )
        result = (
            Dataset(items[:4], name="products")
            .impute(data, strategy="llm_only")
            .run(clean_engine(oracle))
        )
        assert result.items == items[:4]
        predictions = result.step_result("impute").predictions
        assert data.accuracy(predictions) == 1.0

    def test_run_accepts_session_and_raw_client(self, products):
        items, oracle = products
        query = Dataset(items[:4], name="products").filter("keeps everything")
        session = PromptSession(
            SimulatedLLM(oracle, seed=11, behavior=clean_behavior())
        )
        via_session = query.run(session)
        assert via_session.items == items[:4]
        assert session.tracker.usage.calls > 0
        via_client = query.run(SimulatedLLM(oracle, seed=11, behavior=clean_behavior()))
        assert via_client.items == via_session.items

    def test_budget_cap_stops_cleanly(self, products):
        items, oracle = products
        result = (
            Dataset(items, name="products")
            .resolve()
            .sort("important")
            .with_budget(1e-07)
            .run(clean_engine(oracle))
        )
        assert result.report.stopped_early
        assert result.report.stop_reason
        assert result.items == []  # unknowable mid-pipeline; partials in report

    def test_concurrent_scheduling_matches_sequential(self, products):
        """Lineage-parallel steps give identical results at any pool size."""
        import os

        items, oracle = products
        threads = int(os.environ.get("REPRO_TEST_THREADS", "4"))
        query = (
            Dataset(items, name="products")
            .categorize(["early", "late"])
            .sort("important", strategy="rating")
            .top_k("important", k=3, strategy="rating_only")
        )
        sequential = query.run(clean_engine(oracle), max_concurrency=1)
        concurrent = query.run(clean_engine(oracle), max_concurrency=threads)
        assert concurrent.items == sequential.items
        assert (
            concurrent.step_result("categorize").assignments
            == sequential.step_result("categorize").assignments
        )
        assert concurrent.total_calls == sequential.total_calls

    def test_explain_attached_to_result(self, products):
        items, oracle = products
        result = Dataset(items[:4], name="products").sort("important").run(
            clean_engine(oracle)
        )
        assert "Query plan: products" in result.explain
        assert "s1_sort" in result.explain

    def test_step_result_unknown_name(self, products):
        items, oracle = products
        result = Dataset(items[:4], name="products").sort("important").run(
            clean_engine(oracle)
        )
        with pytest.raises(KeyError):
            result.step_result("join")


class TestCompileValidation:
    def test_empty_items_spec_rejected_at_compile_time_with_step_name(self):
        pipeline = PipelineSpec(
            name="broken",
            steps=[
                PipelineStep(
                    name="empty-filter",
                    task=FilterSpec(items=[], predicate="keeps everything"),
                )
            ],
        )
        with pytest.raises(SpecError, match="'empty-filter'.*at least one item"):
            pipeline.validate()

    def test_runtime_factory_error_names_the_step(self, products):
        items, oracle = products
        oracle.register_predicate("keeps nothing", lambda text: False)
        query = (
            Dataset(items, name="products").filter("keeps nothing").sort("important")
        )
        with pytest.raises(SpecError, match="s2_sort"):
            query.run(clean_engine(oracle))

    def test_compiled_pipeline_validates(self, products):
        items, oracle = products
        spec = (
            Dataset(items, name="products")
            .filter("keeps everything")
            .resolve()
            .to_pipeline()
        )
        assert isinstance(spec, PipelineSpec)
        spec.validate()
        assert [step.name for step in spec.steps][0] == "s1_filter"


class TestOneQuoteAssembler:
    """Query quotes are the planner's: same totals, same edges, one pricing."""

    def test_query_quote_wall_clock_is_the_critical_path(self, products):
        """Regression: ``compile_plan`` assembled its own quote without the
        spec's edges, so two independent steps were quoted at the *sum* of
        their seconds while ``engine.quote_pipeline`` said the maximum."""
        items, oracle = products
        engine = clean_engine(oracle)
        query = (
            Dataset(items, name="products")
            .categorize(["early", "late"])
            .categorize(["late", "early", "neither"])
        )
        query.run(engine)  # records the per-call latency quotes are timed from
        planner = engine.planner()
        spec = query.to_pipeline(planner=planner)
        assert [tuple(step.depends_on) for step in spec.steps] == [(), ()]
        quote = query.quote(planner=planner)
        seconds = [estimate.seconds for estimate in quote.steps.values()]
        assert len(seconds) == 2 and all(value is not None for value in seconds)
        assert quote.total_seconds == engine.quote_pipeline(spec).total_seconds
        assert quote.total_seconds == max(seconds)

    def test_query_quote_carries_the_specs_edges(self, products):
        items, oracle = products
        planner = clean_engine(oracle).planner()
        compiled = (
            Dataset(items, name="products")
            .filter("keeps everything")
            .categorize(["early", "late"])
            .top_k("important", k=2)
            .compile(planner=planner)
        )
        assert any(step.depends_on for step in compiled.spec.steps)
        assert compiled.quote.dependencies == {
            step.name: tuple(step.depends_on) for step in compiled.spec.steps
        }

    def test_each_step_is_priced_exactly_once(self, products, monkeypatch):
        """The counts measured on the two-assembler design: handing the
        compiler's estimates to the planner must not price anything twice."""
        priced: list[str] = []
        estimate_spec = CostPlanner.estimate_spec

        def counting(self, spec):
            priced.append(type(spec).__name__)
            return estimate_spec(self, spec)

        monkeypatch.setattr(CostPlanner, "estimate_spec", counting)
        items, oracle = products
        engine = clean_engine(oracle)
        query = (
            Dataset(items, name="products")
            .filter("is a short name")
            .resolve()
            .top_k("important", k=3, strategy="pairwise_tournament")
        )
        quote = query.quote(planner=engine.planner())
        assert sorted(priced) == ["FilterSpec", "ResolveSpec", "TopKSpec"]
        assert set(quote.steps) == {"s1_filter", "s2_resolve", "s3_top_k"}

        priced.clear()
        tasks = [
            FilterSpec(items=items, predicate="is a short name", strategy="per_item"),
            SortSpec(items=items, criterion="important", strategy="rating"),
            ResolveSpec(records=items, strategy="auto"),
            CategorizeSpec(items=items, categories=("early", "late"), strategy="per_item"),
        ]
        many = PipelineSpec(
            name="many",
            steps=[
                PipelineStep(
                    f"step{index:02d}",
                    task=tasks[index % 4],
                    depends_on=(f"step{index - 4:02d}",) if index >= 4 else (),
                )
                for index in range(20)
            ],
        )
        assert len(engine.quote_pipeline(many).steps) == 20
        assert len(priced) == 20


class TestTopLevelExports:
    def test_dataset_importable_from_repro_and_core(self):
        import repro
        import repro.core

        assert repro.Dataset is Dataset
        assert repro.core.Dataset is Dataset
        assert repro.optimize is repro.core.optimize
