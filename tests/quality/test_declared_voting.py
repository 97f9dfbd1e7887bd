"""Voting: the aggregators and the declared strategies that vote through them.

Quality control is declared on the operators — filter and categorize
``ensemble_vote``, categorize ``self_consistency`` — and every one of them
aggregates its ballots with :mod:`repro.quality.voting`.  The tables pin the
aggregators; the operator cases pin that a declared vote over agreeing
ballots reduces to the single-ballot strategy it generalises.
"""

from __future__ import annotations

import pytest

from repro.exceptions import QualityControlError
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators.categorize import CategorizeOperator
from repro.operators.filter import FilterOperator
from repro.quality.validation import wilson_interval
from repro.quality.voting import majority_vote, weighted_vote

MODELS = ("sim-small", "sim-gpt-3.5-turbo", "sim-claude")

CATEGORIES = ("fruit", "vegetable", "dairy")
ITEM_CATEGORIES = {
    "crisp red apple": "fruit",
    "ripe yellow banana": "fruit",
    "fresh green broccoli": "vegetable",
    "raw sliced carrot": "vegetable",
    "aged cheddar cheese": "dairy",
    "plain greek yogurt": "dairy",
}

PREDICATE = "mentions an animal"
ANIMALS = ("cat", "dog", "elephant", "geese", "horse")
ITEMS = [
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


@pytest.mark.parametrize(
    ("votes", "winner", "support"),
    [
        (["yes"], "yes", 1.0),
        (["no", "yes", "no"], "no", 2 / 3),
        (["a", "b", "c"], "a", 1 / 3),
        (["c", "b", "b", "c", "a"], "c", 2 / 5),
        ([True, False, True, True], True, 3 / 4),
        ([3, 1, 3, 1, 1], 1, 3 / 5),
    ],
    ids=["single", "two-of-three", "three-way-tie", "tie-first-seen", "booleans", "integers"],
)
def test_majority_vote(votes, winner, support):
    result = majority_vote(votes)
    assert result.winner == winner
    assert result.support == pytest.approx(support)
    assert sum(result.counts.values()) == len(votes)


@pytest.mark.parametrize(
    ("votes", "weights", "winner", "support"),
    [
        ({"a": "yes", "b": "no", "c": "no"}, {}, "no", 2 / 3),
        ({"a": "yes", "b": "no", "c": "no"}, {"a": 3.0}, "yes", 3 / 5),
        ({"a": "yes", "b": "no"}, {"a": 0.5, "b": 0.5}, "yes", 1 / 2),
        ({"a": "yes", "b": "no"}, {"a": 0.0, "b": 0.0}, "yes", 0.0),
        ({"a": "x", "b": "y", "c": "x"}, {"a": 0.2, "b": 0.9, "c": 0.2}, "y", 0.9 / 1.3),
    ],
    ids=["unweighted-default", "heavy-voter", "tie-first-voter", "zero-mass", "accuracy-weights"],
)
def test_weighted_vote(votes, weights, winner, support):
    result = weighted_vote(votes, weights)
    assert result.winner == winner
    assert result.support == pytest.approx(support)
    assert sum(result.counts.values()) == pytest.approx(
        sum(weights.get(voter, 1.0) for voter in votes)
    )


def test_weighted_vote_over_no_voters_raises():
    with pytest.raises(QualityControlError):
        weighted_vote({}, {"a": 1.0})


@pytest.mark.parametrize(("successes", "trials"), [(0, 5), (1, 10), (7, 20), (50, 100), (99, 100)])
def test_wilson_interval_is_symmetric_in_the_outcome(successes, trials):
    lower, upper = wilson_interval(successes, trials)
    mirror_lower, mirror_upper = wilson_interval(trials - successes, trials)
    assert lower == pytest.approx(1.0 - mirror_upper)
    assert upper == pytest.approx(1.0 - mirror_lower)


def _categorizer() -> CategorizeOperator:
    oracle = Oracle()
    oracle.register_categories(ITEM_CATEGORIES)
    return CategorizeOperator(
        SimulatedLLM(oracle, seed=201), CATEGORIES, model="sim-gpt-3.5-turbo"
    )


def _filter(model: str | None = None) -> FilterOperator:
    oracle = Oracle()
    oracle.register_predicate(PREDICATE, lambda item: any(animal in item for animal in ANIMALS))
    return FilterOperator(SimulatedLLM(oracle, seed=61), PREDICATE, model=model)


@pytest.mark.parametrize("n_samples", [1, 2, 3, 5])
def test_self_consistency_at_temperature_zero_is_per_item(n_samples):
    items = list(ITEM_CATEGORIES)
    per_item = _categorizer().run(items, strategy="per_item")
    voted = _categorizer().run(
        items, strategy="self_consistency", n_samples=n_samples, temperature=0.0
    )
    assert voted.assignments == per_item.assignments
    assert voted.votes_used == n_samples * len(items)


@pytest.mark.parametrize("n_voters", [2, 3, 4])
def test_categorize_ensemble_of_one_model_is_per_item(n_voters):
    items = list(ITEM_CATEGORIES)
    per_item = _categorizer().run(items, strategy="per_item")
    voted = _categorizer().run(
        items, strategy="ensemble_vote", models=["sim-gpt-3.5-turbo"] * n_voters
    )
    assert voted.assignments == per_item.assignments
    assert voted.votes_used == n_voters * len(items)


def test_the_filter_models_disagree():
    """What makes the dominant-weight case below a test of the weights."""
    decisions = {
        model: tuple(_filter(model).run(ITEMS, strategy="per_item").decisions.values())
        for model in MODELS
    }
    assert len(set(decisions.values())) == len(MODELS)


@pytest.mark.parametrize("dominant", MODELS)
def test_filter_ensemble_follows_a_dominant_weight(dominant):
    expected = _filter(dominant).run(ITEMS, strategy="per_item").decisions
    weights = {model: (10.0 if model == dominant else 1.0) for model in MODELS}
    voted = _filter().run(ITEMS, strategy="ensemble_vote", models=list(MODELS), weights=weights)
    assert voted.decisions == expected
    assert voted.votes_used == len(MODELS) * len(ITEMS)
