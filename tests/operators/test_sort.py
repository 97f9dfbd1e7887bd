"""Tests for the sort operator and its strategies."""

from __future__ import annotations

import pytest

from repro.data.flavors import CHOCOLATEY, FLAVORS
from repro.data.words import random_words
from repro.exceptions import DatasetError, UnknownStrategyError
from repro.llm.registry import default_registry
from repro.metrics.ranking import kendall_tau_b
from repro.operators.sort import SortOperator
from tests.conftest import ALPHABETICAL
from tests.doubles import tokens


@pytest.fixture()
def flavor_sorter(flavor_llm):
    return SortOperator(
        flavor_llm,
        CHOCOLATEY,
        model="sim-gpt-3.5-turbo",
        cost_model=default_registry().cost_model(),
    )


@pytest.fixture()
def word_sorter(alphabetical_llm):
    return SortOperator(alphabetical_llm, ALPHABETICAL, model="sim-claude-2")


class TestSortOperatorBasics:
    def test_registered_strategies(self, flavor_sorter):
        assert set(flavor_sorter.strategies) == {
            "single_prompt",
            "rating",
            "pairwise",
            "hybrid_sort_insert",
            "pairwise_consistent",
        }

    def test_unknown_strategy_raises(self, flavor_sorter, flavors):
        with pytest.raises(UnknownStrategyError):
            flavor_sorter.run(flavors, strategy="mystery")

    def test_duplicate_items_rejected(self, flavor_sorter):
        with pytest.raises(DatasetError):
            flavor_sorter.run(["a", "a", "b"])

    def test_fewer_than_two_items_is_a_noop(self, flavor_sorter):
        result = flavor_sorter.run(["only"], strategy="pairwise")
        assert result.order == ["only"]
        assert result.usage.calls == 0


class TestSingleShotStrategies:
    def test_single_prompt_returns_all_items_for_short_lists(self, flavor_sorter, flavors):
        result = flavor_sorter.run(flavors, strategy="single_prompt")
        assert set(result.order) == set(flavors)
        assert result.missing == []
        assert result.usage.calls == 1
        assert result.cost > 0.0

    def test_rating_produces_scores_within_scale(self, flavor_sorter, flavors):
        result = flavor_sorter.run(flavors, strategy="rating")
        assert set(result.order) == set(flavors)
        assert all(1 <= score <= 7 for score in result.scores.values())
        assert result.usage.calls == len(flavors)

    def test_rating_batched_uses_fewer_calls(self, flavor_sorter, flavors):
        batched = flavor_sorter.run(flavors, strategy="rating", batch_size=5)
        assert batched.usage.calls == len(flavors) // 5
        assert set(batched.order) == set(flavors)

    def test_rating_invalid_batch_size(self, flavor_sorter, flavors):
        with pytest.raises(DatasetError):
            flavor_sorter.run(flavors, strategy="rating", batch_size=0)

    def test_pairwise_uses_quadratic_calls(self, flavor_sorter):
        subset = list(FLAVORS[:8])
        result = flavor_sorter.run(subset, strategy="pairwise")
        assert result.usage.calls == len(subset) * (len(subset) - 1) // 2
        assert set(result.order) == set(subset)

    def test_pairwise_beats_single_prompt_on_accuracy(self, flavor_sorter, flavors):
        single = flavor_sorter.run(flavors, strategy="single_prompt")
        pairwise = flavor_sorter.run(flavors, strategy="pairwise")
        truth = list(FLAVORS)
        tau_single = kendall_tau_b(single.order + single.missing, truth)
        tau_pairwise = kendall_tau_b(pairwise.order, truth)
        assert tau_pairwise > tau_single

    def test_pairwise_costs_more_than_single_prompt(self, flavor_sorter, flavors):
        single = flavor_sorter.run(flavors, strategy="single_prompt")
        pairwise = flavor_sorter.run(flavors, strategy="pairwise")
        assert tokens(pairwise.usage) > tokens(single.usage)


class TestHybridSortInsert:
    def test_long_list_baseline_drops_items_hybrid_recovers_them(self, word_sorter):
        words = random_words(80, seed=21)
        baseline = word_sorter.run(words, strategy="single_prompt")
        hybrid = word_sorter.run(words, strategy="hybrid_sort_insert")
        assert len(baseline.missing) >= 1
        assert set(hybrid.order) == set(words)

    def test_hybrid_order_is_nearly_alphabetical(self, word_sorter):
        words = random_words(80, seed=22)
        hybrid = word_sorter.run(words, strategy="hybrid_sort_insert")
        truth = sorted(words, key=str.lower)
        assert kendall_tau_b(hybrid.order, truth) > 0.95

    def test_pairwise_consistent_close_to_pairwise(self, flavor_sorter):
        # The consistency repair optimises agreement with the *comparisons*,
        # which tracks (but does not dominate) agreement with the ground truth;
        # it must stay in the same accuracy band as the plain pairwise sort.
        subset = list(FLAVORS[:10])
        plain = flavor_sorter.run(subset, strategy="pairwise")
        repaired = flavor_sorter.run(subset, strategy="pairwise_consistent")
        truth = [flavor for flavor in FLAVORS if flavor in set(subset)]
        assert kendall_tau_b(repaired.order, truth) >= kendall_tau_b(plain.order, truth) - 0.2
        assert set(repaired.order) == set(subset)
