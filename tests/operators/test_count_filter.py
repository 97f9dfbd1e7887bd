"""Tests for the filter operator."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, DatasetError
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators.filter import FilterOperator

PREDICATE = "mentions an animal"
ANIMAL_ITEMS = [
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


def animal_oracle() -> Oracle:
    animals = ("cat", "dog", "elephant", "geese", "horse")
    oracle = Oracle()
    oracle.register_predicate(
        PREDICATE, lambda item: any(animal in item for animal in animals)
    )
    return oracle


@pytest.fixture()
def predicate_llm() -> SimulatedLLM:
    return SimulatedLLM(animal_oracle(), seed=61)


class TestFilterOperator:
    def test_per_item_filter_keeps_mostly_correct_items(self, predicate_llm):
        operator = FilterOperator(predicate_llm, PREDICATE, model="sim-gpt-3.5-turbo")
        result = operator.run(ANIMAL_ITEMS, strategy="per_item")
        expected = {item for item in ANIMAL_ITEMS if animal_oracle().satisfies(item, PREDICATE)}
        overlap = len(set(result.kept) & expected)
        assert overlap >= len(expected) - 2
        assert result.votes_used == len(ANIMAL_ITEMS)

    def test_ensemble_vote_requires_multiple_models(self, predicate_llm):
        operator = FilterOperator(predicate_llm, PREDICATE, model="sim-gpt-3.5-turbo")
        with pytest.raises(ConfigurationError):
            operator.run(ANIMAL_ITEMS, strategy="ensemble_vote", models=["sim-gpt-3.5-turbo"])

    def test_ensemble_vote_uses_every_model_per_item(self, predicate_llm):
        operator = FilterOperator(predicate_llm, PREDICATE, model="sim-gpt-3.5-turbo")
        models = ["sim-gpt-3.5-turbo", "sim-claude", "sim-small"]
        result = operator.run(ANIMAL_ITEMS, strategy="ensemble_vote", models=models)
        assert result.votes_used == len(ANIMAL_ITEMS) * len(models)

    def test_ensemble_vote_accuracy_not_worse_than_cheapest_model(self, predicate_llm):
        truth_oracle = animal_oracle()
        expected = {item: truth_oracle.satisfies(item, PREDICATE) for item in ANIMAL_ITEMS}
        ensemble_operator = FilterOperator(predicate_llm, PREDICATE, model="sim-small")
        ensemble = ensemble_operator.run(
            ANIMAL_ITEMS,
            strategy="ensemble_vote",
            models=["sim-gpt-3.5-turbo", "sim-claude", "sim-small"],
        )
        small_only = FilterOperator(predicate_llm, PREDICATE, model="sim-small").run(
            ANIMAL_ITEMS, strategy="per_item"
        )
        ensemble_correct = sum(
            1 for item in ANIMAL_ITEMS if ensemble.decisions[item] == expected[item]
        )
        small_correct = sum(
            1 for item in ANIMAL_ITEMS if small_only.decisions[item] == expected[item]
        )
        assert ensemble_correct >= small_correct

    def test_adaptive_uses_no_more_votes_than_full_ensemble(self, predicate_llm):
        operator = FilterOperator(predicate_llm, PREDICATE, model="sim-gpt-3.5-turbo")
        models = ["sim-gpt-3.5-turbo", "sim-claude", "sim-small"]
        adaptive = operator.run(
            ANIMAL_ITEMS, strategy="adaptive", models=models, agreement_margin=2
        )
        full = operator.run(ANIMAL_ITEMS, strategy="ensemble_vote", models=models)
        assert adaptive.votes_used <= full.votes_used

    def test_adaptive_parameter_validation(self, predicate_llm):
        operator = FilterOperator(predicate_llm, PREDICATE, model="sim-gpt-3.5-turbo")
        with pytest.raises(ConfigurationError):
            operator.run(ANIMAL_ITEMS, strategy="adaptive", models=["one"])
        with pytest.raises(ConfigurationError):
            operator.run(
                ANIMAL_ITEMS,
                strategy="adaptive",
                models=["sim-claude", "sim-small"],
                agreement_margin=0,
            )
