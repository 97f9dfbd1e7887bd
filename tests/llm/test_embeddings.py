"""Tests for the hashing embedder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.llm.embeddings import HashingEmbedder


class TestHashingEmbedder:
    def test_embedding_is_unit_norm(self):
        vector = HashingEmbedder().embed("indexing the positions of continuous queries")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_embedding_is_deterministic(self):
        embedder = HashingEmbedder()
        first = embedder.embed("declarative crowdsourcing")
        second = embedder.embed("declarative crowdsourcing")
        assert np.allclose(first, second)

    def test_similar_strings_are_closer_than_dissimilar(self):
        embedder = HashingEmbedder()
        base = embedder.embed("Indexing the Positions of Continuously Moving Objects. SIGMOD")
        near = embedder.embed("indexing the positions of continuously moving objects. sigmod 2000")
        far = embedder.embed("A Completely Different Paper About Neural Networks. NeurIPS")
        assert np.linalg.norm(base - near) < np.linalg.norm(base - far)

    def test_batch_shape(self):
        matrix = HashingEmbedder(dimensions=64).embed_batch(["a b c", "d e f"])
        assert matrix.shape == (2, 64)

    def test_empty_batch(self):
        assert HashingEmbedder().embed_batch([]).shape[0] == 0

    def test_nearest_neighbors_exclude_self_and_respect_k(self):
        texts = ["alpha beta", "alpha beta gamma", "zeta omega", "zeta omega psi"]
        neighbors = HashingEmbedder().nearest_neighbors(texts, k=1)
        assert neighbors[0] == [1]
        assert neighbors[2] == [3]
        assert all(len(v) == 1 for v in neighbors.values())

    def test_nearest_neighbors_k_zero(self):
        neighbors = HashingEmbedder().nearest_neighbors(["a", "b"], k=0)
        assert neighbors == {0: [], 1: []}

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HashingEmbedder(dimensions=0)
        with pytest.raises(ConfigurationError):
            HashingEmbedder(ngram_sizes=())
        with pytest.raises(ConfigurationError):
            HashingEmbedder().nearest_neighbors(["a"], k=-1)

    def test_usage_is_tracked(self):
        embedder = HashingEmbedder()
        embedder.embed("some text to embed")
        assert embedder.usage.calls == 1
        assert embedder.usage.prompt_tokens > 0

    @pytest.mark.parametrize("dimensions", [8, 64, 256, 1000])
    def test_batch_rows_are_the_single_embeddings_in_input_order(self, dimensions):
        texts = ["sort these words", "by how chocolatey", "they are", "sort these words"]
        embedder = HashingEmbedder(dimensions=dimensions)
        matrix = embedder.embed_batch(texts)
        assert matrix.shape == (len(texts), dimensions)
        for row, text in enumerate(texts):
            assert np.array_equal(matrix[row], embedder.embed(text))
        assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_text_without_an_ngram_embeds_to_zero(self):
        vector = HashingEmbedder().embed("")
        assert not np.isnan(vector).any()
        assert not vector.any()

    def test_case_and_whitespace_are_normalised(self):
        embedder = HashingEmbedder()
        assert np.array_equal(
            embedder.embed("Declarative   Crowdsourcing"), embedder.embed("declarative crowdsourcing")
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_nearest_neighbors_are_nearest_first_and_capped(self, k):
        texts = ["alpha beta", "alpha beta gamma", "alpha beta gamma delta", "zeta omega"]
        embedder = HashingEmbedder()
        matrix = embedder.embed_batch(texts)
        neighbors = embedder.nearest_neighbors(texts, k=k)
        for index, others in neighbors.items():
            assert len(others) == min(k, len(texts) - 1)
            assert index not in others
            distances = [float(np.linalg.norm(matrix[index] - matrix[j])) for j in others]
            assert distances == sorted(distances)
