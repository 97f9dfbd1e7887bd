"""Tests for quality control: validation and voting."""

from __future__ import annotations

import pytest

from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import QualityControlError
from repro.llm.parsing import extract_choice
from repro.llm.prompts import PAIRWISE_COMPARISON
from repro.llm.simulated import SimulatedLLM
from repro.quality.validation import estimate_accuracy, wilson_interval
from repro.quality.voting import majority_vote, weighted_vote


class TestWilsonInterval:
    def test_interval_contains_point_estimate(self):
        lower, upper = wilson_interval(80, 100)
        assert lower < 0.8 < upper

    def test_small_samples_have_wide_intervals(self):
        small = wilson_interval(4, 5)
        large = wilson_interval(80, 100)
        assert (small[1] - small[0]) > (large[1] - large[0])

    def test_bounds_clamped_to_unit_interval(self):
        lower, upper = wilson_interval(0, 10)
        assert lower == 0.0
        assert 0.0 <= upper <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(QualityControlError):
            wilson_interval(1, 0)
        with pytest.raises(QualityControlError):
            wilson_interval(5, 3)


class TestEstimateAccuracy:
    def test_perfect_answers(self):
        estimate = estimate_accuracy(
            range(20), answer=lambda item: item, ground_truth=lambda item: item
        )
        assert estimate.accuracy == 1.0
        assert estimate.sample_size == 20

    def test_custom_equality(self):
        estimate = estimate_accuracy(
            ["A", "B"],
            answer=lambda item: item.lower(),
            ground_truth=lambda item: item,
            equal=lambda left, right: left.upper() == right.upper(),
        )
        assert estimate.accuracy == 1.0

    def test_empty_validation_set_raises(self):
        with pytest.raises(QualityControlError):
            estimate_accuracy([], answer=lambda item: item, ground_truth=lambda item: item)

    def test_llm_comparison_accuracy_estimate(self):
        llm = SimulatedLLM(flavor_oracle(), seed=3)
        pairs = [(FLAVORS[i], FLAVORS[j]) for i in range(5) for j in range(15, 20)]
        estimate = estimate_accuracy(
            pairs,
            answer=lambda pair: extract_choice(
                llm.complete(PAIRWISE_COMPARISON.render([pair[0], pair[1]], (CHOCOLATEY,))).text,
                ["A", "B"],
            ),
            ground_truth=lambda pair: "A",
        )
        assert estimate.accuracy >= 0.75
        assert estimate.lower <= estimate.accuracy <= estimate.upper


class TestVoting:
    def test_majority_vote(self):
        result = majority_vote(["yes", "yes", "no"])
        assert result.winner == "yes"
        assert result.support == pytest.approx(2 / 3)

    def test_majority_vote_tie_broken_by_first_appearance(self):
        assert majority_vote(["b", "a", "a", "b"]).winner == "b"

    def test_empty_vote_raises(self):
        with pytest.raises(QualityControlError):
            majority_vote([])

    def test_weighted_vote_prefers_accurate_voters(self):
        votes = {"weak1": "no", "weak2": "no", "strong": "yes"}
        weights = {"weak1": 0.3, "weak2": 0.3, "strong": 0.9}
        assert weighted_vote(votes, weights).winner == "yes"
