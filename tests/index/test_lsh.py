"""Tests for the multi-table random-hyperplane LSH index.

The recall property runs the LSH index against the exact index on clustered
corpora across sizes and dimensionalities; the LSH answer must recover at
least 90% of the exact nearest neighbors at every configuration.  Everything
is seeded, so the measured recalls are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.index import ExactIndex, LSHIndex
from repro.llm.embeddings import HashingEmbedder


def clustered_corpus(
    rng: np.random.Generator, n_clusters: int, per_cluster: int, dims: int
) -> np.ndarray:
    """Unit-norm vectors in tight clusters, mimicking near-duplicate text.

    A shared non-negative offset reproduces the hashing embedder's common
    component — the exact trap the index's corpus centering exists for.
    """
    centers = np.abs(rng.standard_normal((n_clusters, dims))) + 0.5
    points = np.repeat(centers, per_cluster, axis=0)
    points = points + 0.01 * rng.standard_normal(points.shape)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def graph_recall(exact: dict[int, list[int]], approx: dict[int, list[int]]) -> float:
    hits = sum(len(set(exact[key]) & set(approx[key])) for key in exact)
    total = sum(len(exact[key]) for key in exact)
    return hits / total if total else 1.0


class TestLSHRecall:
    @pytest.mark.parametrize(
        ("n_clusters", "per_cluster", "dims"),
        [
            (25, 4, 32),
            (50, 4, 64),
            (100, 4, 128),
            (150, 4, 256),
            (60, 5, 64),
        ],
    )
    def test_recall_at_least_090_on_clustered_corpora(self, n_clusters, per_cluster, dims):
        rng = np.random.default_rng(n_clusters * 1000 + dims)
        vectors = clustered_corpus(rng, n_clusters, per_cluster, dims)
        k = per_cluster - 1
        exact = ExactIndex(dims)
        exact.add(vectors)
        lsh = LSHIndex.for_corpus(dims, len(vectors), seed=0)
        lsh.add(vectors)
        recall = graph_recall(exact.knn_graph(k), lsh.knn_graph(k))
        assert recall >= 0.9, f"recall {recall:.3f} below 0.9"

    def test_recall_on_hashing_embedder_variants(self):
        """Near-duplicate text variants through the real embedder."""
        embedder = HashingEmbedder()
        texts = []
        for i in range(120):
            base = f"vendor {i % 7} product line {i} with a reasonably long description"
            texts.extend([base, base + ".", base + " "])
        matrix = embedder.embed_batch(texts)
        exact = ExactIndex(embedder.dimensions)
        exact.add(matrix)
        lsh = LSHIndex.for_corpus(embedder.dimensions, len(texts), seed=0)
        lsh.add(matrix)
        recall = graph_recall(exact.knn_graph(2), lsh.knn_graph(2))
        assert recall >= 0.9

    def test_single_query_search_finds_planted_neighbor(self):
        rng = np.random.default_rng(17)
        vectors = clustered_corpus(rng, 64, 4, 64)
        lsh = LSHIndex.for_corpus(64, len(vectors), seed=0)
        lsh.add(vectors)
        # Probe with a jittered copy of row 10; its cluster (rows 8-11) must
        # surface thanks to the multi-probe floor.
        query = vectors[10] + 0.001 * rng.standard_normal(64)
        hits = {row_id for row_id, _ in lsh.search(query, 3)}
        assert hits & {8, 9, 10, 11}


class TestLSHDeterminism:
    def test_same_seed_same_answers(self):
        rng = np.random.default_rng(3)
        vectors = clustered_corpus(rng, 40, 4, 32)
        first = LSHIndex.for_corpus(32, len(vectors), seed=5)
        second = LSHIndex.for_corpus(32, len(vectors), seed=5)
        first.add(vectors)
        second.add(vectors)
        assert first.knn_graph(3) == second.knn_graph(3)
        assert first.search(vectors[7], 4) == second.search(vectors[7], 4)

    def test_different_seeds_differ_somewhere(self):
        rng = np.random.default_rng(4)
        vectors = clustered_corpus(rng, 40, 4, 32)
        first = LSHIndex(32, n_tables=2, n_bits=8, seed=0)
        second = LSHIndex(32, n_tables=2, n_bits=8, seed=99)
        first.add(vectors)
        second.add(vectors)
        assert not np.array_equal(first._signatures, second._signatures)


class TestLSHPersistence:
    def test_payload_round_trip_preserves_answers(self):
        rng = np.random.default_rng(6)
        vectors = clustered_corpus(rng, 50, 4, 64)
        index = LSHIndex.for_corpus(64, len(vectors), seed=2)
        index.add(vectors, ids=list(range(500, 500 + len(vectors))))
        restored = LSHIndex.from_payload(index.to_payload())
        assert restored.ids == index.ids
        assert restored.n_tables == index.n_tables
        assert restored.n_bits == index.n_bits
        assert restored.seed == index.seed
        assert restored.knn_graph(3) == index.knn_graph(3)
        query = vectors[13] + 0.002
        assert restored.search(query, 5) == index.search(query, 5)

    def test_round_trip_restores_the_center(self):
        """Signatures must recompute against the saved center, not a fresh one."""
        rng = np.random.default_rng(8)
        vectors = clustered_corpus(rng, 30, 4, 32)
        index = LSHIndex.for_corpus(32, len(vectors), seed=1)
        index.add(vectors)
        restored = LSHIndex.from_payload(index.to_payload())
        assert np.allclose(restored._center, index._center)
        assert np.array_equal(restored._signatures, index._signatures)

    def test_empty_index_round_trips(self):
        restored = LSHIndex.from_payload(LSHIndex(16, seed=3).to_payload())
        assert len(restored) == 0
        assert restored._center is None


class TestLSHConfiguration:
    def test_for_corpus_scales_bits_with_size(self):
        small = LSHIndex.for_corpus(32, 100)
        large = LSHIndex.for_corpus(32, 100_000)
        assert small.n_bits < large.n_bits
        assert 2 <= small.n_bits <= 24
        assert 2 <= large.n_bits <= 24

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LSHIndex(0)
        with pytest.raises(ConfigurationError):
            LSHIndex(8, n_tables=0)
        with pytest.raises(ConfigurationError):
            LSHIndex(8, n_bits=0)
        with pytest.raises(ConfigurationError):
            LSHIndex(8, n_bits=61)
        with pytest.raises(ConfigurationError):
            LSHIndex(8, probe_floor=-1)
        with pytest.raises(ConfigurationError):
            LSHIndex.for_corpus(8, 0)

    def test_knn_graph_edge_cases(self):
        index = LSHIndex(4, seed=0)
        assert index.knn_graph(3) == {}
        index.add(np.asarray([[1.0, 0.0, 0.0, 0.0]]))
        assert index.knn_graph(3) == {0: []}
        with pytest.raises(ConfigurationError):
            index.knn_graph(-1)


class TestKnnGraphIsTheNearestBucketMates:
    """A row's graph neighbors are its k nearest among every bucket it shares.

    Each table ranks within buckets and the tables' picks merge per row, so
    the whole must equal a brute-force top-k over the union of a row's
    bucket-mates — whether its buckets rank batched, in row chunks (more
    than 32 members at 256 dims) or as one oversized bucket.
    """

    @pytest.mark.parametrize(
        ("rows", "dims", "n_tables", "n_bits", "k"),
        [(600, 16, 4, 4, 3), (400, 256, 3, 2, 4), (4500, 8, 2, 1, 2)],
        ids=["small-buckets", "chunked-buckets", "oversized-bucket"],
    )
    def test_against_brute_force(self, rows, dims, n_tables, n_bits, k):
        rng = np.random.default_rng(rows)
        vectors = rng.standard_normal((rows, dims))
        ids = [7 * row + 3 for row in range(rows)]
        index = LSHIndex(dims, n_tables=n_tables, n_bits=n_bits, seed=1)
        index.add(vectors, ids=ids)
        signatures = index._signatures
        expected = {}
        for row in range(rows):
            mates = np.flatnonzero((signatures == signatures[:, [row]]).any(axis=0))
            mates = mates[mates != row]
            distances = np.linalg.norm(vectors[mates] - vectors[row], axis=1)
            expected[ids[row]] = [ids[mate] for mate in mates[np.argsort(distances)][:k]]
        assert index.knn_graph(k) == expected


class TestLSHCounters:
    def test_search_counts_examined_candidates(self):
        rng = np.random.default_rng(9)
        vectors = clustered_corpus(rng, 30, 4, 32)
        index = LSHIndex.for_corpus(32, len(vectors), seed=0)
        index.add(vectors)
        index.search(vectors[0], 3)
        # A probe examines a fraction of the corpus, not all of it.
        assert 0 < index.candidates_examined < len(vectors)

    def test_knn_graph_counts_unique_pairs(self):
        rng = np.random.default_rng(10)
        vectors = clustered_corpus(rng, 30, 4, 32)
        index = LSHIndex.for_corpus(32, len(vectors), seed=0)
        index.add(vectors)
        index.knn_graph(3)
        # Every distance ranked: each row against the rest of its bucket, per table.
        ranked = sum(
            len(rows) * (len(rows) - 1) for table in index._bucket_maps() for rows in table.values()
        )
        assert index.candidates_examined == ranked > 0
