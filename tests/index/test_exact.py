"""Tests for the brute-force exact vector index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.index import ExactIndex
from repro.llm.embeddings import HashingEmbedder


def _unit_rows(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    matrix = rng.standard_normal((n, dims))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


class TestExactIndexBasics:
    def test_add_assigns_consecutive_ids(self):
        index = ExactIndex(4)
        assigned = index.add(_unit_rows(np.random.default_rng(0), 3, 4))
        assert assigned == [0, 1, 2]
        assert index.ids == [0, 1, 2]
        assert len(index) == 3

    def test_add_continues_ids_across_batches(self):
        index = ExactIndex(4)
        rng = np.random.default_rng(0)
        index.add(_unit_rows(rng, 2, 4))
        assigned = index.add(_unit_rows(rng, 2, 4))
        assert assigned == [2, 3]

    def test_explicit_ids_round_trip_through_vector(self):
        index = ExactIndex(4)
        vectors = _unit_rows(np.random.default_rng(1), 2, 4)
        index.add(vectors, ids=[10, 20])
        assert np.allclose(index.vector(20), vectors[1])

    def test_duplicate_id_rejected(self):
        index = ExactIndex(4)
        index.add(_unit_rows(np.random.default_rng(2), 1, 4), ids=[7])
        with pytest.raises(ConfigurationError, match="already indexed"):
            index.add(_unit_rows(np.random.default_rng(3), 1, 4), ids=[7])

    def test_dimension_mismatch_rejected(self):
        index = ExactIndex(4)
        with pytest.raises(ConfigurationError, match="dimension"):
            index.add(np.zeros((2, 5)))
        index.add(_unit_rows(np.random.default_rng(4), 2, 4))
        with pytest.raises(ConfigurationError, match="dimension"):
            index.search(np.zeros(5), 1)

    def test_search_returns_nearest_first(self):
        index = ExactIndex(2)
        index.add(np.asarray([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]))
        hits = index.search(np.asarray([0.9, 0.1]), 2)
        assert [row_id for row_id, _ in hits] == [0, 2]
        assert hits[0][1] < hits[1][1]

    def test_search_k_larger_than_corpus(self):
        index = ExactIndex(2)
        index.add(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
        assert len(index.search(np.asarray([1.0, 0.0]), 10)) == 2

    def test_empty_index_searches_empty(self):
        assert ExactIndex(3).search(np.zeros(3), 5) == []


class TestExactIndexGraph:
    def test_knn_graph_matches_legacy_scan(self):
        """The index path must be candidate-for-candidate equal to the scan."""
        embedder = HashingEmbedder()
        texts = [f"product {word} listing" for word in ["aa", "ab", "ba", "bb", "cc", "cd"]]
        index = ExactIndex(embedder.dimensions)
        index.add(embedder.embed_batch(texts))
        assert index.knn_graph(2) == embedder.nearest_neighbors(texts, 2)

    def test_knn_graph_excludes_self(self):
        index = ExactIndex(3)
        index.add(_unit_rows(np.random.default_rng(5), 6, 3))
        graph = index.knn_graph(3)
        for row_id, neighbor_ids in graph.items():
            assert row_id not in neighbor_ids
            assert len(neighbor_ids) == 3

    def test_knn_graph_zero_k(self):
        index = ExactIndex(3)
        index.add(_unit_rows(np.random.default_rng(6), 4, 3))
        assert index.knn_graph(0) == {0: [], 1: [], 2: [], 3: []}


class TestExactIndexPersistence:
    def test_payload_round_trip_is_exact(self):
        index = ExactIndex(8)
        vectors = _unit_rows(np.random.default_rng(7), 12, 8)
        index.add(vectors, ids=list(range(100, 112)))
        restored = ExactIndex.from_payload(index.to_payload())
        assert restored.ids == index.ids
        assert restored.dimensions == index.dimensions
        query = vectors[3] + 0.01
        assert restored.search(query, 5) == index.search(query, 5)
        assert restored.knn_graph(3) == index.knn_graph(3)

    def test_empty_index_round_trips(self):
        restored = ExactIndex.from_payload(ExactIndex(5).to_payload())
        assert len(restored) == 0
        assert restored.dimensions == 5

