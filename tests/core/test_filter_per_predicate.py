"""Per-predicate strategy resolution for fused multi-predicate filters.

The planner measures each candidate strategy on each predicate separately,
so a fused filter can run a cheap ``per_item`` pass for an easy predicate
ahead of an ensemble for a hard one instead of paying the ensemble price
for the whole conjunction.
"""

from __future__ import annotations

import pytest

import repro.core.engine as engine_module
from repro.core.declarations import DECLARATIONS
from repro.core.physical import PhysicalPlanner
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec
from repro.data.flavors import flavor_oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators.filter import FilterResult

ITEMS = ["i1", "i2", "i3", "i4", "i5", "i6"]

EASY_TRUTH = {"i1": True, "i2": True, "i3": False, "i4": True, "i5": False, "i6": True}
HARD_TRUTH = {"i1": True, "i2": False, "i3": True, "i4": True, "i5": True, "i6": False}
CONJUNCTION = {item: EASY_TRUTH[item] and HARD_TRUTH[item] for item in ITEMS}

# Every strategy nails the easy predicate; only the ensemble nails the hard
# one (per_item/adaptive flip two items there).
_FLIPPED_HARD = {**HARD_TRUTH, "i2": True, "i4": False}
DECISIONS = {
    "is easy": {
        "per_item": EASY_TRUTH,
        "ensemble_vote": EASY_TRUTH,
        "adaptive": EASY_TRUTH,
    },
    "is hard": {
        "per_item": _FLIPPED_HARD,
        "ensemble_vote": HARD_TRUTH,
        "adaptive": _FLIPPED_HARD,
    },
}
COSTS = {"per_item": 1.0, "ensemble_vote": 3.0, "adaptive": 2.0}


class StubFilterOperator:
    """Deterministic stand-in: decisions come from the tables above."""

    operation = "filter"

    def __init__(self, client, predicate, **kwargs):
        self.predicate = predicate

    def run(self, items, *, strategy, **options):
        table = DECISIONS[self.predicate][strategy]
        decisions = {item: table.get(item, False) for item in items}
        return FilterResult(
            strategy=strategy,
            cost=COSTS[strategy],
            decisions=decisions,
            kept=[item for item in items if decisions[item]],
        )


@pytest.fixture
def stubbed(monkeypatch):
    # The planner and the engine both build filter operators through the
    # declaration, so that is the one place to put the stub.
    monkeypatch.setattr(DECLARATIONS[FilterSpec], "operator", StubFilterOperator, raising=False)


def _planner() -> PhysicalPlanner:
    return PhysicalPlanner(PromptSession(SimulatedLLM(flavor_oracle(), seed=7)))


def _resolve_predicates(spec: FilterSpec):
    return DECLARATIONS[FilterSpec].resolve_predicates(_planner(), spec)


def _spec(**overrides) -> FilterSpec:
    base = dict(
        items=ITEMS,
        predicates=["is easy", "is hard"],
        strategy="auto",
        validation_labels=CONJUNCTION,
    )
    base.update(overrides)
    return FilterSpec(**base)


class TestPerPredicateResolution:
    def test_mixed_combo_pairs_cheap_and_accurate_strategies(self, stubbed):
        plans = _resolve_predicates(_spec())
        by_predicate = {predicate: resolved for predicate, resolved in plans}
        assert by_predicate["is easy"].strategy == "per_item"
        assert by_predicate["is hard"].strategy == "ensemble_vote"
        assert all(resolved.decided_by == "validation" for _, resolved in plans)
        assert "per_item" in by_predicate["is easy"].considered
        assert "ensemble_vote" in by_predicate["is easy"].considered

    def test_predicate_order_is_preserved(self, stubbed):
        plans = _resolve_predicates(_spec())
        assert [predicate for predicate, _ in plans] == ["is easy", "is hard"]

    def test_accuracy_target_picks_the_cheapest_sufficient_combo(self, stubbed):
        # All-per_item misclassifies two items on the hard predicate but
        # still clears a loose target, and it is the cheapest combination.
        plans = _resolve_predicates(_spec(accuracy_target=0.5))
        assert [resolved.strategy for _, resolved in plans] == ["per_item", "per_item"]

    def test_fixed_strategy_applies_uniformly(self, stubbed):
        plans = _resolve_predicates(_spec(strategy="ensemble_vote"))
        assert [resolved.strategy for _, resolved in plans] == [
            "ensemble_vote",
            "ensemble_vote",
        ]
        assert all(resolved.decided_by == "fixed" for _, resolved in plans)

    def test_unlabelled_spec_shares_one_cost_based_resolution(self, stubbed):
        plans = _resolve_predicates(_spec(validation_labels={}))
        strategies = {resolved.strategy for _, resolved in plans}
        assert len(strategies) == 1  # no labels -> no per-predicate search
        assert all(resolved.decided_by != "validation" for _, resolved in plans)

    def test_too_many_predicates_fall_back_to_shared_validation(self, stubbed):
        predicates = ["is easy"] * 4 + ["is hard"]
        plans = _resolve_predicates(_spec(predicates=predicates))
        assert len(plans) == 5
        assert len({resolved.strategy for _, resolved in plans}) == 1


class TestEngineIntegration:
    def test_engine_reports_and_executes_per_predicate_strategies(self, stubbed):
        engine = engine_module.DeclarativeEngine.from_session(
            PromptSession(SimulatedLLM(flavor_oracle(), seed=7))
        )
        result = engine.filter(_spec())
        assert result.metadata["predicate_strategies"] == {
            "is easy": "per_item",
            "is hard": "ensemble_vote",
        }
        assert result.strategy == "per_item+ensemble_vote"
        assert result.kept == [item for item in ITEMS if CONJUNCTION[item]]
        assert all(
            result.decisions[item] == CONJUNCTION[item] for item in ITEMS
        )
