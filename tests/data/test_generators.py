"""Tests for the word list, flavors, citation corpus, and imputation datasets."""

from __future__ import annotations

import pytest

from repro.data.citations import generate_citation_corpus, render_citation
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import generate_buy_dataset, generate_restaurant_dataset
from repro.data.words import WORDS, random_words
from repro.exceptions import DatasetError


class TestWords:
    def test_dictionary_is_large_and_sorted(self):
        assert len(WORDS) >= 500
        assert list(WORDS) == sorted(WORDS)
        assert len(set(WORDS)) == len(WORDS)

    def test_random_words_reproducible_and_distinct(self):
        first = random_words(100, seed=1)
        second = random_words(100, seed=1)
        assert first == second
        assert len(set(first)) == 100

    def test_random_words_not_sorted(self):
        words = random_words(100, seed=2)
        assert words != sorted(words)

    def test_oversampling_raises(self):
        with pytest.raises(DatasetError):
            random_words(len(WORDS) + 1)


class TestFlavors:
    def test_twenty_flavors(self):
        assert len(FLAVORS) == 20
        assert len(set(FLAVORS)) == 20

    def test_chocolate_flavors_at_top_fruit_at_bottom(self):
        assert "chocolate" in FLAVORS[0]
        assert FLAVORS[-1] == "lemon sorbet"

    def test_oracle_knows_criterion(self):
        oracle = flavor_oracle()
        assert oracle.knows_criterion(CHOCOLATEY)
        assert oracle.compare(FLAVORS[0], FLAVORS[-1], CHOCOLATEY) == 1


class TestCitationCorpus:
    def test_corpus_structure(self):
        corpus = generate_citation_corpus(n_entities=10, n_pairs=30, seed=1)
        assert len(corpus.dataset) >= 20  # at least two records per entity
        assert len(corpus.pairs) == 30
        assert set(corpus.entity_of) == {record.record_id for record in corpus.dataset}

    def test_reproducibility(self):
        first = generate_citation_corpus(n_entities=8, n_pairs=20, seed=4)
        second = generate_citation_corpus(n_entities=8, n_pairs=20, seed=4)
        assert first.texts() == second.texts()
        assert [pair.is_duplicate for pair in first.pairs] == [
            pair.is_duplicate for pair in second.pairs
        ]

    def test_positive_fraction_respected(self):
        corpus = generate_citation_corpus(
            n_entities=30, n_pairs=100, positive_fraction=0.3, seed=2
        )
        duplicates = sum(pair.is_duplicate for pair in corpus.pairs)
        assert duplicates / len(corpus.pairs) == pytest.approx(0.3, abs=0.05)

    def test_pair_labels_consistent_with_entities(self):
        corpus = generate_citation_corpus(n_entities=15, n_pairs=40, seed=3)
        for pair in corpus.pairs:
            same = corpus.entity_of[pair.left_id] == corpus.entity_of[pair.right_id]
            assert same == pair.is_duplicate

    def test_oracle_grounds_citation_texts(self):
        corpus = generate_citation_corpus(n_entities=10, n_pairs=20, seed=5)
        oracle = corpus.oracle()
        record = corpus.dataset[0]
        assert oracle.knows_entity(render_citation(record))

    def test_duplicates_are_textually_varied(self):
        corpus = generate_citation_corpus(n_entities=10, n_pairs=20, seed=6)
        by_entity: dict[str, list[str]] = {}
        for record in corpus.dataset:
            by_entity.setdefault(corpus.entity_of[record.record_id], []).append(
                render_citation(record)
            )
        varied_clusters = [
            texts for texts in by_entity.values() if len(texts) > 1 and len(set(texts)) > 1
        ]
        assert varied_clusters  # corruption produced distinct variants

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            generate_citation_corpus(n_entities=1)
        with pytest.raises(DatasetError):
            generate_citation_corpus(duplicates_per_entity=(0, 2))


class TestImputationDatasets:
    @pytest.mark.parametrize("generator", [generate_restaurant_dataset, generate_buy_dataset])
    def test_structure(self, generator):
        data = generator(80, seed=7)
        assert len(data.queries) + len(data.reference) == 80
        assert set(data.ground_truth) == {record.record_id for record in data.queries}
        for record in data.queries:
            assert data.target_attribute not in record

    def test_restaurant_target_is_city(self):
        assert generate_restaurant_dataset(50, seed=1).target_attribute == "city"

    def test_buy_target_is_manufacturer(self):
        assert generate_buy_dataset(50, seed=1).target_attribute == "manufacturer"

    def test_oracle_knows_every_query(self):
        data = generate_restaurant_dataset(60, seed=8)
        oracle = data.oracle()
        for record in data.queries:
            serialized = data.serialized_query(record)
            assert oracle.true_value(serialized, "city") == data.ground_truth[record.record_id]

    def test_accuracy_scoring(self):
        data = generate_restaurant_dataset(60, seed=9)
        perfect = dict(data.ground_truth)
        assert data.accuracy(perfect) == 1.0
        assert data.accuracy({}) == 0.0
        # Case-insensitive comparison.
        lowered = {key: value.lower() for key, value in data.ground_truth.items()}
        assert data.accuracy(lowered) == 1.0

    def test_too_small_dataset_rejected(self):
        with pytest.raises(DatasetError):
            generate_restaurant_dataset(5)

    def test_reproducibility(self):
        first = generate_buy_dataset(60, seed=10)
        second = generate_buy_dataset(60, seed=10)
        assert first.ground_truth == second.ground_truth
