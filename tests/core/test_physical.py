"""Tests for the physical-planning layer (PR 4).

Three contracts:

* **Result identity** — routing every operator's strategy resolution
  through the :class:`~repro.core.physical.PhysicalPlanner` changes
  nothing at fixed strategies, and an unconstrained ``"auto"`` resolves to
  exactly the default each engine method used to hard-code.
* **Cost-based selection** — a binding budget walks the candidate list
  down to something affordable instead of refusing or overspending.
* **Adaptive feedback** — the engine records observed selectivities,
  dedup ratios, and call counts into :class:`~repro.core.physical.
  RuntimeStats`, and planners fed by the store price later quotes from
  the observations.
"""

from __future__ import annotations

import math

import pytest

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.physical import PhysicalPlanner, RuntimeStats
from repro.core.planner import CostPlanner
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
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import generate_restaurant_dataset
from repro.llm.prompts import GROUP_RECORDS, PAIRWISE_COMPARISON, RATING
from repro.llm.simulated import SimulatedLLM
from repro.query.plan import LogicalNode, estimated_items, source
from tests.query.support import MODEL, clean_engine, product_corpus

MODEL_NAME = MODEL


def _flavor_engine(budget: Budget | None = None, seed: int = 7) -> DeclarativeEngine:
    return DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=seed), budget=budget)


class TestFixedStrategiesPassThrough:
    def test_explicit_strategy_is_untouched(self):
        engine = _flavor_engine()
        resolved = engine.physical.resolve(
            SortSpec(items=list(FLAVORS[:5]), criterion=CHOCOLATEY, strategy="rating")
        )
        assert resolved.strategy == "rating"
        assert resolved.decided_by == "fixed"

    def test_fixed_options_are_preserved(self):
        engine = _flavor_engine()
        resolved = engine.physical.resolve(
            ClusterSpec(items=["a", "b", "c"], strategy="two_phase",
                        strategy_options={"seed_size": 2})
        )
        assert resolved.options == {"seed_size": 2}

    def test_fixed_strategy_results_identical_to_direct_run(self):
        """The planner-routed engine behaves exactly like the seed engine."""
        items, oracle = product_corpus(n_entities=6, variants=2)
        direct = clean_engine(oracle).sort(
            SortSpec(items=items, criterion="important", strategy="pairwise")
        )
        routed = clean_engine(oracle).sort(
            SortSpec(items=items, criterion="important", strategy="pairwise")
        )
        assert direct.order == routed.order


class TestCostBasedDefaults:
    """Unconstrained ``auto`` must reproduce the old fixed defaults."""

    EXPECTED_DEFAULTS = {
        "sort": "pairwise",
        "resolve_records": "pairwise",
        "resolve_pairs": "transitive",
        "impute": "hybrid",
        "filter": "per_item",
        "categorize": "per_item",
        "top_k": "hybrid_rating_comparison",
        "join": "blocked",
        "cluster": "two_phase",
    }

    def _specs(self):
        items, _ = product_corpus(n_entities=5, variants=2)
        data = generate_restaurant_dataset(30, seed=5)
        return {
            "sort": SortSpec(items=items, criterion="important"),
            "resolve_records": ResolveSpec(records=items),
            "resolve_pairs": ResolveSpec(pairs=[(items[0], items[1]), (items[2], items[3])]),
            "impute": ImputeSpec(data=data, validation_size=0),
            "filter": FilterSpec(items=items, predicate="is a short name"),
            "categorize": CategorizeSpec(items=items, categories=["early", "late"]),
            "top_k": TopKSpec(items=items, criterion="important", k=2),
            "join": JoinSpec(left=items[:4], right=items[4:8]),
            "cluster": ClusterSpec(items=items),
        }

    def test_auto_resolves_to_the_historical_default(self):
        engine = _flavor_engine()
        for name, spec in self._specs().items():
            resolved = engine.physical.resolve(spec)
            assert resolved.decided_by == "cost", name
            assert resolved.strategy == self.EXPECTED_DEFAULTS[name], name

    def test_resolve_pairs_default_keeps_neighbors_k(self):
        engine = _flavor_engine()
        spec = ResolveSpec(pairs=[("a1", "a2")], neighbors_k=2)
        resolved = engine.physical.resolve(spec)
        assert resolved.strategy == "transitive"
        assert resolved.options == {"neighbors_k": 2}

    def test_auto_run_results_match_the_default_strategy_run(self):
        """Engine behavior at auto is unchanged from the old fixed mapping."""
        items, oracle = product_corpus(n_entities=6, variants=2)
        auto = clean_engine(oracle).filter(FilterSpec(items=items, predicate="is a short name"))
        fixed = clean_engine(oracle).filter(
            FilterSpec(items=items, predicate="is a short name", strategy="per_item")
        )
        assert auto.kept == fixed.kept
        auto_k = clean_engine(oracle).top_k(
            TopKSpec(items=items, criterion="important", k=3)
        )
        fixed_k = clean_engine(oracle).top_k(
            TopKSpec(
                items=items, criterion="important", k=3,
                strategy="hybrid_rating_comparison",
            )
        )
        assert auto_k.top_items == fixed_k.top_items


class TestCostBasedBudgetFallback:
    def test_sort_downgrades_to_rating_under_a_binding_budget(self):
        engine = _flavor_engine()
        items = list(FLAVORS[:8])
        planner = engine.planner()
        rating_dollars = planner.per_item(items, RATING, CHOCOLATEY).dollars
        pairwise_dollars = planner.pairwise(items, PAIRWISE_COMPARISON, CHOCOLATEY).dollars
        assert rating_dollars < pairwise_dollars
        spec = SortSpec(
            items=items, criterion=CHOCOLATEY, budget_dollars=rating_dollars * 1.05
        )
        resolved = engine.physical.resolve(spec)
        assert resolved.strategy == "rating"
        assert resolved.decided_by == "cost"
        result = engine.sort(spec)
        assert result.strategy == "rating"

    def test_cluster_downgrades_to_single_prompt(self):
        engine = _flavor_engine()
        items = [f"item number {index}" for index in range(30)]
        single_dollars = engine.planner().single_prompt(items, GROUP_RECORDS).dollars
        resolved = engine.physical.resolve(
            ClusterSpec(items=items, budget_dollars=single_dollars * 1.05)
        )
        assert resolved.strategy == "single_prompt"

    def test_impute_falls_back_to_the_free_proxy(self):
        data = generate_restaurant_dataset(30, seed=6)
        engine = DeclarativeEngine(SimulatedLLM(data.oracle(), seed=6))
        resolved = engine.physical.resolve(
            ImputeSpec(data=data, validation_size=0, budget_dollars=0.0)
        )
        assert resolved.strategy == "knn"

    def test_nothing_affordable_picks_the_cheapest(self):
        engine = _flavor_engine()
        spec = SortSpec(
            items=list(FLAVORS[:8]), criterion=CHOCOLATEY, budget_dollars=1e-12
        )
        resolved = engine.physical.resolve(spec)
        estimates = {
            name: engine.physical._try_estimate(spec, name, {}).dollars
            for name in ("pairwise", "rating", "single_prompt")
        }
        assert resolved.strategy == min(estimates, key=estimates.get)

    def test_session_budget_remaining_binds_auto_selection(self):
        items = list(FLAVORS[:8])
        planner = CostPlanner(MODEL_NAME)
        rating_dollars = planner.per_item(items, RATING, CHOCOLATEY).dollars
        engine = _flavor_engine(budget=Budget(limit=rating_dollars * 1.05))
        resolved = engine.physical.resolve(
            SortSpec(items=items, criterion=CHOCOLATEY),
            budget=engine.session.budget,
        )
        assert resolved.strategy == "rating"


class TestValidationDrivenSelection:
    def test_sort_with_validation_uses_the_selector(self):
        engine = _flavor_engine()
        spec = SortSpec(
            items=list(FLAVORS),
            criterion=CHOCOLATEY,
            validation_order=list(FLAVORS[:6]),
            budget_dollars=0.0005,
        )
        resolved = engine.physical.resolve(spec)
        assert resolved.decided_by == "validation"
        assert resolved.strategy in {"single_prompt", "rating"}

    def test_small_validation_sample_falls_back_to_cost(self):
        engine = _flavor_engine()
        spec = SortSpec(
            items=list(FLAVORS[:8]),
            criterion=CHOCOLATEY,
            validation_order=list(FLAVORS[:2]),  # below the minimum of 3
        )
        resolved = engine.physical.resolve(spec)
        assert resolved.decided_by == "cost"
        assert resolved.strategy == "pairwise"


class TestRuntimeStats:
    def test_empty_store_returns_none(self):
        stats = RuntimeStats()
        assert stats.filter_selectivity("anything") is None
        assert stats.dedup_survivor_ratio() is None
        assert stats.join_selectivity() is None
        assert stats.blocked_pair_rate() is None
        assert stats.call_ratio("sort:pairwise") is None
        assert stats.completion_tokens_per_call("sort:pairwise") is None
        assert stats.cache_hit_rate() is None
        assert stats.critical_path_seconds("pipeline") is None
        assert stats.latency_p50("sort:pairwise") is None

    def test_filter_selectivity_aggregates_across_runs(self):
        stats = RuntimeStats()
        stats.record_filter("p", evaluated=10, kept=5)
        stats.record_filter("p", evaluated=10, kept=10)
        assert stats.filter_selectivity("p") == pytest.approx(0.75)

    def test_call_ratio_and_counts(self):
        stats = RuntimeStats()
        stats.record_calls("resolve:auto", estimated=100, actual=25)
        stats.record_calls("resolve:auto", estimated=100, actual=35)
        assert stats.call_ratio("resolve:auto") == pytest.approx(0.30)
        assert stats.export_state()["calls"] == {"resolve:auto": [60.0, 200.0]}

    def test_zero_denominators_are_ignored(self):
        stats = RuntimeStats()
        stats.record_filter("p", evaluated=0, kept=0)
        stats.record_dedup(inputs=0, survivors=0)
        stats.record_calls("x", estimated=0, actual=5)
        assert stats.filter_selectivity("p") is None
        assert stats.dedup_survivor_ratio() is None
        assert stats.call_ratio("x") is None
        assert stats.export_state()["calls"] == {}


class TestEngineFeedsStats:
    def test_filter_run_records_observed_selectivity(self):
        items, oracle = product_corpus(n_entities=6, variants=2)
        engine = clean_engine(oracle)
        engine.filter(FilterSpec(items=items, predicate="keeps everything"))
        assert engine.stats.filter_selectivity("keeps everything") == pytest.approx(1.0)

    def test_resolve_records_dedup_ratio(self):
        items, oracle = product_corpus(n_entities=6, variants=2)
        engine = clean_engine(oracle)
        result = engine.resolve(ResolveSpec(records=items, strategy="pairwise"))
        observed = engine.stats.dedup_survivor_ratio()
        assert observed == pytest.approx(len(result.clusters) / len(items))

    def test_join_records_match_selectivity(self):
        items, oracle = product_corpus(n_entities=6, variants=2)
        engine = clean_engine(oracle)
        left = [item for item in items if "(refurb" not in item][:4]
        right = ["laptop device (refurb 1)"]
        engine.join(JoinSpec(left=left, right=right, strategy="all_pairs"))
        assert engine.stats.join_selectivity() == pytest.approx(0.25)

    def test_sort_records_exact_call_ratio(self):
        items, oracle = product_corpus(n_entities=5, variants=1)
        engine = clean_engine(oracle)
        engine.sort(SortSpec(items=items, criterion="important", strategy="pairwise"))
        # Pairwise executes exactly the quoted C(n, 2) comparisons.
        assert engine.stats.call_ratio("sort:pairwise") == pytest.approx(1.0)

    def test_downgraded_run_never_poisons_the_default_strategy_ratio(self):
        """A budget-downgraded auto run records its ratio under the strategy
        that executed; a later quote of the default strategy is untouched."""
        items, oracle = product_corpus(n_entities=6, variants=2)
        engine = clean_engine(oracle)
        single_dollars = engine.planner().single_prompt(items, GROUP_RECORDS).dollars
        spec = ResolveSpec(records=items, budget_dollars=single_dollars * 1.05)
        result = engine.resolve(spec)
        assert result.strategy == "single_prompt"  # the downgrade happened
        labels = engine.stats.export_state()["calls"]
        assert "resolve:single_prompt" in labels
        assert "resolve:pairwise" not in labels
        explicit = ResolveSpec(records=items, strategy="pairwise")
        structural = CostPlanner(MODEL_NAME).estimate_spec(explicit)
        assert engine.planner().estimate_spec(explicit).calls == structural.calls

    def test_resolve_modes_never_share_a_call_ratio_key(self):
        """Records-path dedups (pairwise n^2) and pairs-path judgments
        (transitive expansion bound) have unrelated cost shapes; blending
        their ratios under one "resolve:auto" key would corrupt both."""
        items, oracle = product_corpus(n_entities=6, variants=2)
        engine = clean_engine(oracle)
        engine.resolve(ResolveSpec(records=items))
        engine.resolve(
            ResolveSpec(pairs=[(items[0], items[1])], records=items, neighbors_k=1)
        )
        labels = engine.stats.export_state()["calls"]
        assert "resolve:pairwise" in labels and "resolve:transitive" in labels
        assert "resolve:auto" not in labels

    def test_transitive_resolve_ratio_corrects_the_upper_bound(self):
        items, oracle = product_corpus(n_entities=6, variants=2)
        engine = clean_engine(oracle)
        pairs = [(items[0], items[1]), (items[2], items[3]), (items[4], items[5])]
        engine.resolve(ResolveSpec(pairs=pairs, records=items, neighbors_k=1))
        # Pairs-path auto is labelled at its priced default ("transitive"),
        # keeping its ratio apart from records-path dedups.
        ratio = engine.stats.call_ratio("resolve:transitive")
        # The quote prices the C(2k+2, 2) expansion upper bound; real runs
        # dedup overlapping comparisons, so the observed ratio must be < 1.
        assert ratio is not None and ratio < 1.0


class TestPlannerConsumesStats:
    def test_filter_estimate_uses_observed_selectivity(self):
        items, _ = product_corpus(n_entities=8, variants=2)
        spec = FilterSpec(
            items=items,
            predicates=("p1", "p2"),
            expected_selectivities=(0.5, 0.5),
            strategy="per_item",
        )
        prior = CostPlanner(MODEL_NAME).estimate_spec(spec)
        stats = RuntimeStats()
        stats.record_filter("p1", evaluated=100, kept=100)  # everything survives
        adaptive = CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec)
        # p2 now re-checks every survivor of p1, not half of them.
        assert adaptive.calls > prior.calls

    def test_call_ratio_scales_structural_estimates(self):
        items, _ = product_corpus(n_entities=6, variants=2)
        spec = ResolveSpec(pairs=[(items[0], items[1])] * 4, neighbors_k=1)
        stats = RuntimeStats()
        stats.record_calls("resolve:transitive", estimated=100, actual=50)
        structural = CostPlanner(MODEL_NAME).estimate_spec(spec)
        adaptive = CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec)
        assert adaptive.calls == round(structural.calls * 0.5)
        assert adaptive.dollars < structural.dollars

    def test_auto_quote_finds_the_default_strategys_observed_ratio(self):
        """Ratios are keyed by executed strategy; an auto-labelled quote
        maps to the default strategy's key when it looks one up."""
        items, _ = product_corpus(n_entities=6, variants=2)
        spec = SortSpec(items=items, criterion="important")  # auto
        stats = RuntimeStats()
        stats.record_calls("sort:pairwise", estimated=100, actual=50)
        structural = CostPlanner(MODEL_NAME).estimate_spec(spec)
        adaptive = CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec)
        assert adaptive.calls == round(structural.calls * 0.5)

    def test_declared_join_selectivity_of_one_is_pinned(self):
        """An explicit expected_selectivity=1.0 must not be overridden by
        the session-global observed match rate."""
        from repro.query import Dataset

        items, _ = product_corpus(n_entities=6, variants=2)
        stats = RuntimeStats()
        stats.record_join(left=10, matched=2)  # global observed 0.2
        declared = (
            Dataset(items, name="l")
            .join(Dataset(items[:4], name="r"), expected_selectivity=1.0)
            .logical_plan()
        )
        undeclared = (
            Dataset(items, name="l")
            .join(Dataset(items[:4], name="r"))
            .logical_plan()
        )
        assert len(estimated_items(declared.root, stats)) == len(items)
        assert len(estimated_items(undeclared.root, stats)) == math.ceil(len(items) * 0.2)

    def test_estimated_items_shrinks_with_observed_stats(self):
        items, _ = product_corpus(n_entities=8, variants=2)
        resolve = LogicalNode(op="resolve", params={}, inputs=(source(items),))
        assert len(estimated_items(resolve)) == len(items)
        stats = RuntimeStats()
        stats.record_dedup(inputs=16, survivors=8)
        assert len(estimated_items(resolve, stats)) == len(items) // 2


class TestPhysicalPipelinePlan:
    def test_plan_pipeline_resolves_static_steps_and_defers_factories(self):
        items, oracle = product_corpus(n_entities=5, variants=1)
        pipeline = PipelineSpec(
            name="p",
            steps=[
                PipelineStep("filter", task=FilterSpec(items=items, predicate="x")),
                PipelineStep(
                    "sorted",
                    task=lambda inputs: SortSpec(
                        items=list(inputs["filter"].kept), criterion="important"
                    ),
                    depends_on=("filter",),
                ),
            ],
        )
        plan = clean_engine(oracle).plan_physical(pipeline)
        assert [step.name for step in plan.steps] == ["filter"]
        assert plan.steps[0].resolved.strategy == "per_item"
        assert plan.deferred == ("sorted",)
        rendering = plan.describe()
        assert "filter: per_item [cost]" in rendering
        assert "resolved at run time" in rendering

    def test_plan_pipeline_is_free_and_defers_validation_specs(self):
        """A pre-flight physical plan must never spend money: validation-
        driven specs are deferred, not resolved by running candidates."""
        engine = _flavor_engine()
        pipeline = PipelineSpec(
            name="p",
            steps=[
                PipelineStep(
                    "validated",
                    task=SortSpec(
                        items=list(FLAVORS),
                        criterion=CHOCOLATEY,
                        validation_order=list(FLAVORS[:6]),
                    ),
                ),
                PipelineStep(
                    "costed",
                    task=SortSpec(items=list(FLAVORS[:5]), criterion=CHOCOLATEY),
                ),
            ],
        )
        plan = engine.plan_physical(pipeline)
        assert engine.spent_dollars == 0.0
        assert engine.session.tracker.usage.calls == 0
        assert plan.deferred == ("validated",)
        assert [step.name for step in plan.steps] == ["costed"]

    def test_call_ratio_corrections_are_clamped(self):
        """A fluke ratio never zeroes an estimate or explodes it unboundedly."""
        items, _ = product_corpus(n_entities=6, variants=2)
        spec = ResolveSpec(pairs=[(items[0], items[1])] * 4, neighbors_k=1)
        structural = CostPlanner(MODEL_NAME).estimate_spec(spec)
        stats = RuntimeStats()
        stats.record_calls("resolve:transitive", estimated=10_000, actual=1)  # ratio 1e-4
        adaptive = CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec)
        assert adaptive.calls == max(1, round(structural.calls * 0.05))

    def test_planner_is_shared_with_the_session_stats(self):
        items, oracle = product_corpus(n_entities=5, variants=1)
        engine = clean_engine(oracle)
        assert engine.physical.stats is engine.session.stats
        assert engine.planner().stats is engine.session.stats


def _predicate_engine(seed: int = 61) -> DeclarativeEngine:
    from repro.llm.oracle import Oracle

    animals = ("cat", "dog", "elephant", "geese", "horse")
    oracle = Oracle()
    oracle.register_predicate(
        "mentions an animal", lambda item: any(animal in item for animal in animals)
    )
    oracle.register_categories(
        {
            item: ("animal" if any(animal in item for animal in animals) else "other")
            for item in _ANIMAL_ITEMS
        }
    )
    return DeclarativeEngine(SimulatedLLM(oracle, seed=seed))


_ANIMAL_ITEMS = [
    "the cat sat on the mat",
    "stock markets rallied today",
    "a dog barked all night",
    "the committee approved the budget",
    "elephants migrate across the savanna",
    "the recipe needs two cups of flour",
    "a flock of geese flew south",
    "the printer is out of toner",
    "wild horses roam the plains",
    "quarterly earnings beat expectations",
]

_FILTER_LABELS = {
    _ANIMAL_ITEMS[0]: True,
    _ANIMAL_ITEMS[1]: False,
    _ANIMAL_ITEMS[2]: True,
    _ANIMAL_ITEMS[3]: False,
    _ANIMAL_ITEMS[4]: True,
}

_CATEGORY_LABELS = {
    _ANIMAL_ITEMS[0]: "animal",
    _ANIMAL_ITEMS[1]: "other",
    _ANIMAL_ITEMS[2]: "animal",
    _ANIMAL_ITEMS[3]: "other",
    _ANIMAL_ITEMS[4]: "animal",
}


class TestFilterCategorizeValidationSelection:
    """validation_labels on FilterSpec/CategorizeSpec drive ensemble choice."""

    def test_labelled_filter_resolves_by_validation(self):
        engine = _predicate_engine()
        spec = FilterSpec(
            items=_ANIMAL_ITEMS,
            predicate="mentions an animal",
            validation_labels=_FILTER_LABELS,
        )
        resolved = engine.physical.resolve(spec)
        assert resolved.decided_by == "validation"
        assert resolved.strategy in {"per_item", "ensemble_vote", "adaptive"}
        if resolved.strategy != "per_item":
            assert len(resolved.options["models"]) >= 2

    def test_labelled_filter_executes_end_to_end(self):
        engine = _predicate_engine()
        spec = FilterSpec(
            items=_ANIMAL_ITEMS,
            predicate="mentions an animal",
            validation_labels=_FILTER_LABELS,
        )
        result = engine.filter(spec)
        assert set(result.kept) <= set(_ANIMAL_ITEMS)
        assert result.usage.calls > 0

    def test_labelled_categorize_resolves_by_validation(self):
        engine = _predicate_engine()
        spec = CategorizeSpec(
            items=_ANIMAL_ITEMS,
            categories=("animal", "other"),
            validation_labels=_CATEGORY_LABELS,
        )
        resolved = engine.physical.resolve(spec)
        assert resolved.decided_by == "validation"
        assert resolved.strategy in {"per_item", "self_consistency", "ensemble_vote"}
        result = engine.categorize(spec)
        assert set(result.assignments.values()) <= {"animal", "other"}

    def test_small_label_sample_falls_back_to_cost(self):
        engine = _predicate_engine()
        spec = FilterSpec(
            items=_ANIMAL_ITEMS,
            predicate="mentions an animal",
            validation_labels={_ANIMAL_ITEMS[0]: True},  # below the minimum of 5
        )
        resolved = engine.physical.resolve(spec)
        assert resolved.decided_by == "cost"
        assert resolved.strategy == "per_item"

    def test_explicit_models_option_wins_over_registry_default(self):
        engine = _predicate_engine()
        spec = FilterSpec(
            items=_ANIMAL_ITEMS,
            predicate="mentions an animal",
            validation_labels=_FILTER_LABELS,
            strategy_options={"models": ["sim-gpt-3.5-turbo", "sim-claude"]},
        )
        assert engine.physical._ensemble_models(spec) == [
            "sim-gpt-3.5-turbo",
            "sim-claude",
        ]

    def test_labelled_specs_are_deferred_in_physical_plans(self):
        engine = _predicate_engine()
        pipeline = PipelineSpec(
            name="deferred",
            steps=[
                PipelineStep(
                    name="screen",
                    task=FilterSpec(
                        items=_ANIMAL_ITEMS,
                        predicate="mentions an animal",
                        validation_labels=_FILTER_LABELS,
                    ),
                )
            ],
        )
        plan = engine.plan_physical(pipeline)
        assert plan.deferred == ("screen",)
        assert engine.session.tracker.usage.calls == 0  # planning spends nothing

    def test_validation_label_consistency_is_enforced(self):
        with pytest.raises(Exception, match="not present"):
            FilterSpec(
                items=("a", "b"), predicate="p", validation_labels={"zz": True}
            ).validate()
        with pytest.raises(Exception, match="not present"):
            CategorizeSpec(
                items=("a", "b"),
                categories=("x", "y"),
                validation_labels={"zz": "x"},
            ).validate()
        with pytest.raises(Exception, match="outside the category set"):
            CategorizeSpec(
                items=("a", "b"),
                categories=("x", "y"),
                validation_labels={"a": "nope"},
            ).validate()


class TestBlockedPairRateQuotes:
    """The blocked-pair quote uses the observed mutual-neighbor rate."""

    def test_blocked_pairwise_estimate_shrinks_with_observed_rate(self):
        records = [f"record number {index} with some text" for index in range(20)]
        spec = ResolveSpec(records=records, strategy="blocked_pairwise")
        structural = CostPlanner(MODEL_NAME).estimate_spec(spec)
        stats = RuntimeStats()
        stats.record_blocked_pairs(candidates=60, upper_bound=100)
        adaptive = CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec)
        assert structural.calls == 20 * 5  # the k*n upper bound
        assert adaptive.calls == round(structural.calls * 0.6)
        assert adaptive.dollars < structural.dollars

    def test_rate_correction_suppresses_double_counting_by_call_ratio(self):
        records = [f"record number {index} with some text" for index in range(20)]
        spec = ResolveSpec(records=records, strategy="blocked_pairwise")
        stats = RuntimeStats()
        stats.record_blocked_pairs(candidates=60, upper_bound=100)
        # A recorded call ratio for the same label must NOT stack on top of
        # the blocked-pair correction (it encodes the same shrinkage).
        stats.record_calls("resolve:blocked_pairwise", estimated=100, actual=60)
        adaptive = CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec)
        assert adaptive.calls == round(20 * 5 * 0.6)

    def test_other_strategies_unaffected_by_blocked_rate(self):
        records = [f"record number {index} with some text" for index in range(10)]
        spec = ResolveSpec(records=records, strategy="pairwise")
        stats = RuntimeStats()
        stats.record_blocked_pairs(candidates=10, upper_bound=100)
        assert (
            CostPlanner(MODEL_NAME, stats=stats).estimate_spec(spec).calls
            == CostPlanner(MODEL_NAME).estimate_spec(spec).calls
        )
