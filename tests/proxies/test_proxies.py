"""Tests for the non-LLM proxies: similarity, k-NN imputer, blocking, classifier."""

from __future__ import annotations

import pytest

from repro.data.products import generate_restaurant_dataset
from repro.data.record import Dataset, Record
from repro.exceptions import ConfigurationError, DatasetError
from repro.proxies.blocking import EmbeddingBlocker
from repro.proxies.classifier import SimilarityMatchProxy
from repro.proxies.knn import KNNImputer
from repro.proxies.similarity import jaccard_similarity, token_cosine


class TestSimilarity:
    def test_jaccard_identical(self):
        assert jaccard_similarity("a b c", "a b c") == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity("a b", "x y") == 0.0

    def test_jaccard_empty_strings(self):
        assert jaccard_similarity("", "") == 1.0
        assert jaccard_similarity("a", "") == 0.0

    def test_token_cosine_bounds(self):
        assert token_cosine("a b c", "a b c") == pytest.approx(1.0)
        assert token_cosine("a b", "x y") == 0.0

class TestKNNImputer:
    def _reference(self) -> Dataset:
        rows = []
        for index in range(9):
            city = ["Austin", "Chicago", "Boston"][index % 3]
            rows.append(
                Record(
                    f"ref-{index}",
                    {"street": f"{city} Main St", "area": f"{city} area", "city": city},
                )
            )
        return Dataset(rows, name="reference")

    def test_unanimous_neighbors(self):
        imputer = KNNImputer(self._reference(), "city", k=3)
        query = Record("q", {"street": "Austin Main St", "area": "Austin area"})
        vote = imputer.vote(query)
        assert vote.prediction == "Austin"
        assert vote.unanimous is True
        assert len(vote.neighbors) == 3

    def test_impute_returns_mode(self):
        imputer = KNNImputer(self._reference(), "city", k=3)
        query = Record("q", {"street": "Chicago Main St", "area": "Chicago area"})
        assert imputer.impute(query) == "Chicago"

    def test_examples_for_query(self):
        imputer = KNNImputer(self._reference(), "city", k=3)
        query = Record("q", {"street": "Boston Main St", "area": "Boston area"})
        examples = imputer.examples_for(query, 2)
        assert len(examples) == 2
        assert all("city is" not in example["input"] for example in examples)
        assert all(example["output"] in {"Austin", "Chicago", "Boston"} for example in examples)

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            KNNImputer(self._reference(), "city", k=0)
        with pytest.raises(DatasetError):
            KNNImputer(Dataset([Record("a", {"city": "X"})]), "city", k=3)

    def test_on_generated_restaurants_is_reasonably_accurate(self):
        data = generate_restaurant_dataset(120, seed=3)
        imputer = KNNImputer(data.reference, data.target_attribute, k=3)
        predictions = {record.record_id: imputer.impute(record) for record in data.queries}
        assert data.accuracy(predictions) > 0.5


class TestEmbeddingBlocker:
    def test_blocking_reduces_pairs(self):
        texts = [f"record number {index} about topic {index % 4}" for index in range(20)]
        result = EmbeddingBlocker(k=3).block(texts)
        assert result.n_candidates < len(texts) * (len(texts) - 1) // 2
        assert all(i < j for i, j in result.candidate_pairs)

    def test_neighbor_pairs_for_anchors(self):
        texts = ["alpha beta", "alpha beta gamma", "delta epsilon", "delta epsilon zeta"]
        pairs = EmbeddingBlocker(k=1).neighbor_pairs_for(texts, (0, 2), k=1)
        flattened = {index for pair in pairs for index in pair}
        assert {0, 2}.issubset(flattened)
        assert all(i < j for i, j in pairs)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            EmbeddingBlocker(k=0)


class TestSimilarityMatchProxy:
    def test_decisions_across_the_bands(self):
        proxy = SimilarityMatchProxy(accept_threshold=0.8, reject_threshold=0.2)
        accept = proxy.decide("indexing moving objects sigmod", "indexing moving objects sigmod")
        reject = proxy.decide("totally different text", "unrelated words entirely")
        abstain = proxy.decide("indexing moving objects", "indexing static objects quickly now")
        assert accept.label is True
        assert reject.label is False
        assert abstain.abstained is True

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            SimilarityMatchProxy(accept_threshold=0.2, reject_threshold=0.8)
