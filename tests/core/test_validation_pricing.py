"""A labelled ``"auto"`` spec is priced the way the planner quotes it.

Selection measures accuracy on the labelled sample but prices each candidate
with the planner's estimate of the *full* spec, under whatever budget remains
once the sample has spent.  The sample's own spend is no price: a cached
sample costs nothing, and a whole-list prompt that fits a small sample may
not fit the model's context at full size.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.budget import Budget
from repro.core.declarations import DECLARATIONS
from repro.core.engine import DeclarativeEngine
from repro.core.spec import FilterSpec, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from tests.core.test_selection_golden import ANIMAL, NIGHT, _filter
from tests.core.test_selection_golden import _engine as _noisy_engine


def _flavor_sort(**fields) -> SortSpec:
    return SortSpec(
        items=list(FLAVORS), criterion=CHOCOLATEY, validation_order=FLAVORS[::3], **fields
    )


def _engine(oracle: Oracle, budget: Budget | None = None) -> DeclarativeEngine:
    return DeclarativeEngine(SimulatedLLM(oracle, seed=0), budget=budget)


def test_resolving_a_spec_twice_keeps_the_choice_and_the_cap():
    engine = _engine(flavor_oracle())
    spec = _flavor_sort(budget_dollars=0.001)
    first = engine.physical.resolve(spec, budget=engine.session.budget)
    # The sample's answers are cached now, so measuring it again spends nothing.
    second = engine.physical.resolve(spec, budget=engine.session.budget)
    assert second.strategy == first.strategy
    assert first.estimate.dollars <= 0.001
    assert second.estimate.dollars <= 0.001


def test_a_sample_that_feeds_the_cache_hit_rate_does_not_cheapen_a_candidate():
    # At $0.02, pairwise ($0.031 for 20 flavors) does not fit.  Once a first
    # resolve has cached the sample, half the session's calls are hits; a
    # quote discounted by that rate would put pairwise at $0.0157 and pick it.
    engine = _engine(flavor_oracle())
    spec = _flavor_sort(budget_dollars=0.02)
    first = engine.physical.resolve(spec, budget=engine.session.budget)
    second = engine.physical.resolve(spec, budget=engine.session.budget)
    assert engine.physical.stats.cache_hit_rate() == 0.5
    assert first.strategy == second.strategy == "rating"
    assert second.estimate.dollars == first.estimate.dollars
    spent = engine.spent_dollars
    assert engine.sort(spec).strategy == "rating"
    assert engine.spent_dollars - spent <= 0.02


def test_a_filter_combination_is_priced_without_the_hit_rate_its_sample_fed():
    # ``adaptive`` re-reads ``ensemble_vote``'s answers, so the per-predicate
    # search's own sample leaves half the session's calls hits.  Discounted by
    # that rate, per_item + ensemble_vote ($0.0066 in full) would quote $0.0032.
    oracle, spec = _filter(ANIMAL, NIGHT)
    spec = replace(spec, budget_dollars=0.005)
    engine = _noisy_engine(oracle)
    plans = DECLARATIONS[FilterSpec].resolve_predicates(engine.physical, spec)
    assert engine.physical.stats.cache_hit_rate() > 0.5
    assert [plan.strategy for _, plan in plans] == ["per_item", "per_item"]
    assert sum(plan.estimate.dollars for _, plan in plans) <= 0.005


def test_a_labelled_auto_sort_completes_under_a_session_budget():
    engine = _engine(flavor_oracle(), Budget(0.02))
    result = engine.sort(_flavor_sort())
    assert result.strategy != "pairwise"  # quoted at about $0.031 for 20 flavors
    assert engine.spent_dollars <= 0.02


def test_a_whole_list_prompt_over_the_context_is_neither_measured_nor_chosen():
    items = [f"a long descriptive label for catalogue entry number {n:03d}" for n in range(400)]
    oracle = Oracle()
    oracle.register_key("catalogue order", str.lower)
    engine = _engine(oracle)
    spec = SortSpec(
        items=items,
        criterion="catalogue order",
        validation_order=items[::40],
        budget_dollars=0.002,
    )
    by_cost = engine.physical.resolve(replace(spec, validation_order=()))
    measured = engine.physical.resolve(spec)
    assert by_cost.strategy == "rating"
    assert measured.strategy == by_cost.strategy
    # No whole-list prompt went out, not even over the ten-item sample.
    prompts = [record.prompt for record in engine.session.spans.records()]
    assert max(prompt.count("catalogue entry") for prompt in prompts) == 2


def test_a_validated_decision_names_its_candidates():
    resolved = _engine(flavor_oracle()).physical.resolve(_flavor_sort())
    assert resolved.decided_by == "validation"
    assert resolved.considered == ("single_prompt", "rating", "pairwise")
