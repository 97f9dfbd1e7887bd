"""Tests for the simulated LLM behaviour (error) models.

These tests exercise the behaviours through the public SimulatedLLM surface by
building structured prompts, so they cover the full prompt → parse → answer
path, and assert *statistical* properties (error rates within expected bands)
rather than exact responses.
"""

from __future__ import annotations

import random

import pytest

from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.words import random_words
from repro.llm.behaviors import BehaviorConfig, quality_multiplier
from repro.llm.oracle import Oracle, prefix_margin
from repro.llm.parsing import (
    extract_choice,
    extract_integer,
    extract_list,
    extract_value,
    extract_yes_no,
)
from repro.llm.prompts import (
    DUPLICATE_CHECK,
    GROUP_RECORDS,
    IMPUTE,
    PAIRWISE_COMPARISON,
    RATING,
    SORT_LIST,
    predicate_check_prompt,
)
from repro.llm.simulated import SimulatedLLM


class TestQualityMultiplier:
    def test_reference_quality_keeps_error_rates(self):
        assert quality_multiplier(0.8) == pytest.approx(1.0)

    def test_lower_quality_is_noisier(self):
        assert quality_multiplier(0.5) > quality_multiplier(0.8)

    def test_higher_quality_is_cleaner(self):
        assert quality_multiplier(0.95) < quality_multiplier(0.8)

    def test_multiplier_is_bounded(self):
        assert 0.25 <= quality_multiplier(0.0) <= 3.0
        assert 0.25 <= quality_multiplier(1.0) <= 3.0


class TestPairwiseComparisonBehavior:
    def test_easy_comparisons_are_mostly_correct(self, flavor_llm):
        top, bottom = FLAVORS[0], FLAVORS[-1]
        correct = 0
        for seed in range(40):
            llm = SimulatedLLM(flavor_oracle(), seed=seed)
            response = llm.complete(PAIRWISE_COMPARISON.render([top, bottom], (CHOCOLATEY,)))
            if extract_choice(response.text, ["A", "B"]) == "A":
                correct += 1
        assert correct >= 36  # easy pair: error rate well under 10%

    def test_hard_comparisons_are_noisier_than_easy_ones(self):
        adjacent_errors = 0
        extreme_errors = 0
        for seed in range(60):
            llm = SimulatedLLM(flavor_oracle(), seed=seed)
            hard = llm.complete(PAIRWISE_COMPARISON.render([FLAVORS[8], FLAVORS[9]], (CHOCOLATEY,)))
            easy = llm.complete(
                PAIRWISE_COMPARISON.render([FLAVORS[0], FLAVORS[19]], (CHOCOLATEY,))
            )
            if extract_choice(hard.text, ["A", "B"]) != "A":
                adjacent_errors += 1
            if extract_choice(easy.text, ["A", "B"]) != "A":
                extreme_errors += 1
        assert adjacent_errors > extreme_errors

    def test_deterministic_at_temperature_zero(self, flavor_llm):
        prompt = PAIRWISE_COMPARISON.render([FLAVORS[3], FLAVORS[4]], (CHOCOLATEY,))
        first = flavor_llm.complete(prompt)
        second = flavor_llm.complete(prompt)
        assert first.text == second.text


class TestRatingBehavior:
    def test_rating_within_scale(self, flavor_llm):
        for flavor in FLAVORS[:5]:
            response = flavor_llm.complete(RATING.render([flavor], (CHOCOLATEY,)))
            assert 1 <= extract_integer(response.text) <= 7

    def test_top_items_rate_higher_on_average(self):
        top_total = 0
        bottom_total = 0
        for seed in range(25):
            llm = SimulatedLLM(flavor_oracle(), seed=seed)
            top_total += extract_integer(
                llm.complete(RATING.render([FLAVORS[0]], (CHOCOLATEY,))).text
            )
            bottom_total += extract_integer(
                llm.complete(RATING.render([FLAVORS[-1]], (CHOCOLATEY,))).text
            )
        assert top_total > bottom_total + 25  # at least one point apart on average


class TestSortListBehavior:
    def test_short_subjective_list_keeps_all_items(self, flavor_llm):
        response = flavor_llm.complete(SORT_LIST.render(list(FLAVORS), (CHOCOLATEY,)))
        items = extract_list(response.text)
        assert set(items) == set(FLAVORS)

    def test_long_list_drops_some_items(self, alphabetical_llm):
        words = random_words(100, seed=3)
        response = alphabetical_llm.complete(
            SORT_LIST.render(words, ("alphabetical order",)), model="sim-claude-2"
        )
        returned = extract_list(response.text)
        missing = set(words) - set(returned)
        assert 1 <= len(missing) <= 15

    def test_objective_ordering_is_nearly_correct(self, alphabetical_llm):
        words = random_words(60, seed=5)
        response = alphabetical_llm.complete(
            SORT_LIST.render(words, ("alphabetical order",)), model="sim-claude-2"
        )
        returned = [word for word in extract_list(response.text) if word in set(words)]
        truth = sorted(words, key=str.lower)
        positions = {word: index for index, word in enumerate(truth)}
        inversions = sum(
            1
            for i in range(len(returned))
            for j in range(i + 1, len(returned))
            if positions[returned[i]] > positions[returned[j]]
        )
        total_pairs = len(returned) * (len(returned) - 1) / 2
        assert inversions / total_pairs < 0.05


class TestDuplicateCheckBehavior:
    def test_non_duplicates_rarely_marked_yes(self, citation_corpus):
        llm = SimulatedLLM(citation_corpus.oracle(), seed=1)
        false_positives = 0
        negatives = [pair for pair in citation_corpus.pairs if not pair.is_duplicate]
        for pair in negatives:
            response = llm.complete(DUPLICATE_CHECK.render([pair.left_text, pair.right_text]))
            if extract_yes_no(response.text):
                false_positives += 1
        assert false_positives <= max(1, len(negatives) // 10)

    def test_duplicates_missed_at_a_substantial_rate(self, citation_corpus):
        llm = SimulatedLLM(citation_corpus.oracle(), seed=1)
        hits = 0
        positives = [pair for pair in citation_corpus.pairs if pair.is_duplicate]
        for pair in positives:
            response = llm.complete(DUPLICATE_CHECK.render([pair.left_text, pair.right_text]))
            if extract_yes_no(response.text):
                hits += 1
        recall = hits / len(positives)
        assert 0.2 <= recall <= 0.9  # low-ish recall, as the paper observed


class TestImputeBehavior:
    def test_examples_improve_accuracy(self, restaurant_data):
        def run(n_examples):
            llm = SimulatedLLM(restaurant_data.oracle(), seed=2)
            correct = 0
            for record in restaurant_data.queries.records[:30]:
                serialized = restaurant_data.serialized_query(record)
                examples = (
                    [{"input": "name is Example", "output": "Austin"}] * n_examples
                    if n_examples
                    else None
                )
                response = llm.complete(IMPUTE.render([serialized], ("city",), examples))
                if (
                    extract_value(response.text).lower()
                    == restaurant_data.ground_truth[record.record_id].lower()
                ):
                    correct += 1
            return correct

        assert run(3) >= run(0)


class TestPredicateBehavior:
    def _oracle(self):
        oracle = Oracle()
        oracle.register_predicate("is long", lambda item: len(item) > 6)
        return oracle

    def test_predicate_check_mostly_correct(self):
        oracle = self._oracle()
        items = ["cat", "dog", "elephant", "hippopotamus", "ox", "crocodile"] * 5
        correct = 0
        llm = SimulatedLLM(oracle, seed=3)
        for item in items:
            response = llm.complete(predicate_check_prompt(item, "is long"))
            if extract_yes_no(response.text) == (len(item) > 6):
                correct += 1
        assert correct / len(items) > 0.8


class TestGroupRecordsBehavior:
    def test_groups_cover_valid_indices(self, citation_corpus):
        llm = SimulatedLLM(citation_corpus.oracle(), seed=5)
        texts = citation_corpus.texts()[:15]
        response = llm.complete(GROUP_RECORDS.render(texts))
        from repro.llm.parsing import extract_groups

        groups = extract_groups(response.text)
        flattened = [index for group in groups for index in group]
        assert all(0 <= index < len(texts) for index in flattened)


class TestBehaviorConfig:
    def test_config_is_frozen(self):
        config = BehaviorConfig()
        with pytest.raises(AttributeError):
            config.comparison_base_error = 0.5  # type: ignore[misc]

    def test_corrupt_word_changes_word(self):
        from repro.llm.behaviors import _corrupt_word

        rng = random.Random(0)
        assert _corrupt_word("chocolate", rng) != "chocolate"
