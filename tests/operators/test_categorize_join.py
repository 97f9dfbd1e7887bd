"""Tests for the categorize and fuzzy-join operators."""

from __future__ import annotations

import pytest

from repro.data.citations import generate_citation_corpus, render_citation
from repro.exceptions import ConfigurationError
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators.categorize import CategorizeOperator
from repro.operators.join import JoinOperator

CATEGORIES = ("fruit", "vegetable", "dairy")
ITEM_CATEGORIES = {
    "crisp red apple": "fruit",
    "ripe yellow banana": "fruit",
    "juicy orange segment": "fruit",
    "fresh green broccoli": "vegetable",
    "raw sliced carrot": "vegetable",
    "leafy spinach bunch": "vegetable",
    "aged cheddar cheese": "dairy",
    "plain greek yogurt": "dairy",
    "cold whole milk": "dairy",
}


def category_oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_categories(ITEM_CATEGORIES)
    return oracle


@pytest.fixture()
def categorizer() -> CategorizeOperator:
    return CategorizeOperator(
        SimulatedLLM(category_oracle(), seed=201), CATEGORIES, model="sim-gpt-3.5-turbo"
    )


class TestCategorizeOperator:
    def test_needs_at_least_two_distinct_categories(self):
        client = SimulatedLLM(category_oracle(), seed=202)
        with pytest.raises(ConfigurationError):
            CategorizeOperator(client, ["only-one"])
        with pytest.raises(ConfigurationError):
            CategorizeOperator(client, ["a", "a"])

    def test_per_item_assigns_every_item_a_valid_category(self, categorizer):
        items = list(ITEM_CATEGORIES)
        result = categorizer.run(items, strategy="per_item")
        assert set(result.assignments) == set(items)
        assert set(result.assignments.values()).issubset(set(CATEGORIES))
        assert result.votes_used == len(items)

    def test_per_item_is_mostly_correct(self, categorizer):
        items = list(ITEM_CATEGORIES)
        result = categorizer.run(items, strategy="per_item")
        correct = sum(
            1 for item, label in result.assignments.items() if label == ITEM_CATEGORIES[item]
        )
        assert correct >= len(items) - 2

    def test_self_consistency_uses_n_samples_votes(self, categorizer):
        items = list(ITEM_CATEGORIES)[:4]
        result = categorizer.run(items, strategy="self_consistency", n_samples=3)
        assert result.votes_used == 3 * len(items)
        assert set(result.assignments.values()).issubset(set(CATEGORIES))

    def test_self_consistency_invalid_samples(self, categorizer):
        with pytest.raises(ConfigurationError):
            categorizer.run(list(ITEM_CATEGORIES)[:2], strategy="self_consistency", n_samples=0)

    def test_ensemble_vote_requires_two_models(self, categorizer):
        with pytest.raises(ConfigurationError):
            categorizer.run(list(ITEM_CATEGORIES)[:2], strategy="ensemble_vote", models=["one"])

    def test_ensemble_vote_not_less_accurate_than_cheap_model(self):
        items = list(ITEM_CATEGORIES)
        client = SimulatedLLM(category_oracle(), seed=203)
        small_only = CategorizeOperator(client, CATEGORIES, model="sim-small").run(
            items, strategy="per_item"
        )
        ensemble = CategorizeOperator(client, CATEGORIES, model="sim-small").run(
            items,
            strategy="ensemble_vote",
            models=["sim-small", "sim-gpt-3.5-turbo", "sim-claude"],
        )
        small_correct = sum(
            1 for item in items if small_only.assignments[item] == ITEM_CATEGORIES[item]
        )
        ensemble_correct = sum(
            1 for item in items if ensemble.assignments[item] == ITEM_CATEGORIES[item]
        )
        assert ensemble_correct >= small_correct


class TestJoinOperator:
    @pytest.fixture()
    def corpus_sides(self):
        corpus = generate_citation_corpus(
            n_entities=10, duplicates_per_entity=(2, 2), n_pairs=10, seed=211
        )
        by_entity: dict[str, list[str]] = {}
        for record in corpus.dataset:
            by_entity.setdefault(corpus.entity_of[record.record_id], []).append(
                render_citation(record)
            )
        left = [texts[0] for texts in by_entity.values()]
        right = [texts[1] for texts in by_entity.values()]
        return corpus, left, right

    def test_empty_side_rejected(self, corpus_sides):
        corpus, left, _ = corpus_sides
        operator = JoinOperator(SimulatedLLM(corpus.oracle(), seed=212))
        with pytest.raises(ConfigurationError):
            operator.run(left, [])

    def test_all_pairs_considers_the_cross_product(self, corpus_sides):
        corpus, left, right = corpus_sides
        operator = JoinOperator(SimulatedLLM(corpus.oracle(), seed=213))
        result = operator.run(left, right, strategy="all_pairs")
        assert result.candidate_pairs == len(left) * len(right)
        assert result.llm_pairs == result.candidate_pairs
        # Matches must be valid index pairs.
        assert all(0 <= i < len(left) and 0 <= j < len(right) for i, j in result.matches)

    def test_blocked_join_is_cheaper_and_finds_true_matches(self, corpus_sides):
        corpus, left, right = corpus_sides
        operator = JoinOperator(SimulatedLLM(corpus.oracle(), seed=214))
        all_pairs = operator.run(left, right, strategy="all_pairs")
        blocked = JoinOperator(SimulatedLLM(corpus.oracle(), seed=214)).run(
            left, right, strategy="blocked", block_k=2
        )
        assert blocked.candidate_pairs < all_pairs.candidate_pairs
        # The diagonal (same entity on both sides) should be mostly recovered.
        true_matches = {(index, index) for index in range(len(left))}
        found = set(blocked.matches) & true_matches
        assert len(found) >= len(left) // 3

    def test_proxy_blocked_uses_fewer_llm_calls_than_blocked(self, corpus_sides):
        corpus, left, right = corpus_sides
        blocked = JoinOperator(SimulatedLLM(corpus.oracle(), seed=215)).run(
            left, right, strategy="blocked", block_k=2
        )
        proxy = JoinOperator(SimulatedLLM(corpus.oracle(), seed=215)).run(
            left, right, strategy="proxy_blocked", block_k=2
        )
        assert proxy.llm_pairs <= blocked.llm_pairs
        assert proxy.candidate_pairs == blocked.candidate_pairs

    def test_invalid_block_k(self, corpus_sides):
        corpus, left, right = corpus_sides
        operator = JoinOperator(SimulatedLLM(corpus.oracle(), seed=216))
        with pytest.raises(ConfigurationError):
            operator.run(left, right, strategy="blocked", block_k=0)
