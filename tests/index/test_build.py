"""Tests for index construction, naming, and store persistence.

The acceptance properties pinned here: a second run over an unchanged corpus
recomputes zero embeddings (store hit counters), and a persisted index
survives a store reopen without rebuilding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.index import (
    AUTO_LSH_THRESHOLD,
    CachedEmbedder,
    ExactIndex,
    LSHIndex,
    build_index,
    corpus_index_name,
    create_index,
    index_from_payload,
    resolve_embedder,
)
from repro.llm.embeddings import HashingEmbedder
from repro.store import Store

TEXTS = [f"catalog item {word} in stock" for word in ["alpha", "beta", "gamma", "delta", "epsilon"]]


class TestCreateIndex:
    def test_auto_picks_exact_below_threshold(self):
        assert create_index("auto", 8, expected_size=10).kind == "exact"

    def test_auto_picks_lsh_at_threshold(self):
        assert create_index("auto", 8, expected_size=AUTO_LSH_THRESHOLD).kind == "lsh"

    def test_explicit_kinds(self):
        assert isinstance(create_index("exact", 8), ExactIndex)
        assert isinstance(create_index("lsh", 8), LSHIndex)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown vector-index kind"):
            create_index("faiss", 8)

    def test_unknown_payload_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown vector-index kind"):
            index_from_payload("faiss", b"{}")


class TestCorpusIndexName:
    def test_name_is_stable(self):
        embedder = HashingEmbedder()
        assert corpus_index_name(TEXTS, embedder) == corpus_index_name(TEXTS, embedder)

    def test_name_changes_with_content(self):
        embedder = HashingEmbedder()
        changed = TEXTS[:-1] + ["catalog item zeta in stock"]
        assert corpus_index_name(TEXTS, embedder) != corpus_index_name(changed, embedder)

    def test_name_changes_with_embedder_configuration(self):
        assert corpus_index_name(TEXTS, HashingEmbedder()) != corpus_index_name(
            TEXTS, HashingEmbedder(dimensions=128)
        )

    def test_prefix_is_honoured(self):
        assert corpus_index_name(TEXTS, HashingEmbedder(), prefix="block").startswith("block:")


class TestResolveEmbedder:
    def test_defaults_to_hashing_embedder(self):
        assert isinstance(resolve_embedder(), HashingEmbedder)

    def test_wraps_in_cached_embedder_with_store(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            embedder = resolve_embedder(store=store)
            assert isinstance(embedder, CachedEmbedder)

    def test_does_not_double_wrap(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            once = resolve_embedder(store=store)
            again = resolve_embedder(once, store=store)
            assert again is once


class TestBuildIndex:
    def test_builds_searchable_index_without_store(self):
        index = build_index(TEXTS)
        embedder = HashingEmbedder()
        hits = index.search(embedder.embed(TEXTS[2]), 1)
        assert hits[0][0] == 2

    def test_empty_corpus_builds_empty_index(self):
        assert len(build_index([])) == 0

    def test_persists_and_reloads_by_name(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            built = build_index(TEXTS, store=store, name="corpus:demo")
            assert store.db.execute(
                "SELECT name, kind, dimensions, size FROM vector_indexes"
            ) == [("corpus:demo", "exact", built.dimensions, len(TEXTS))]
            reloaded = build_index(TEXTS, store=store, name="corpus:demo")
            assert reloaded.ids == built.ids
            assert reloaded.knn_graph(2) == built.knn_graph(2)

    def test_stale_stored_index_is_rebuilt(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            small = ExactIndex(HashingEmbedder().dimensions)
            small.add(np.eye(1, HashingEmbedder().dimensions))
            store.save_vector_index("corpus:demo", small)
            rebuilt = build_index(TEXTS, store=store, name="corpus:demo")
            assert len(rebuilt) == len(TEXTS)
            assert store.db.execute("SELECT size FROM vector_indexes") == [(len(TEXTS),)]

    def test_second_build_recomputes_zero_embeddings(self, tmp_path):
        """The pinned acceptance property: re-runs never re-embed."""
        path = tmp_path / "store.db"
        with Store(path) as store:
            build_index(TEXTS, store=store, name="corpus:demo")
            assert store.embedding_count() == len(TEXTS)
        with Store(path) as reopened:
            cache = reopened.embedding_cache()
            embedder = CachedEmbedder(HashingEmbedder(), cache)
            store_named = corpus_index_name(TEXTS, embedder)
            # Build under a *different* name so the index rebuilds but the
            # embeddings all come from the durable cache.
            build_index(TEXTS, embedder=embedder, store=reopened, name=store_named)
            assert cache.stats.misses == 0
            assert cache.stats.hits == len(TEXTS)
            assert embedder.embedder.usage.calls == 0

    def test_index_survives_store_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        embedder = HashingEmbedder()
        with Store(path) as store:
            built = build_index(TEXTS, store=store, name="corpus:demo")
            expected = built.search(embedder.embed(TEXTS[0]), 3)
        with Store(path) as reopened:
            loaded = reopened.load_vector_index("corpus:demo")
            assert loaded is not None
            assert loaded.search(embedder.embed(TEXTS[0]), 3) == expected

    def test_lsh_index_survives_store_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((40, 16))
        index = LSHIndex.for_corpus(16, 40, seed=4)
        index.add(vectors)
        expected = index.knn_graph(3)
        with Store(path) as store:
            store.save_vector_index("corpus:lsh", index)
        with Store(path) as reopened:
            loaded = reopened.load_vector_index("corpus:lsh")
            assert isinstance(loaded, LSHIndex)
            assert loaded.knn_graph(3) == expected

    def test_unreadable_payload_loads_as_none(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            store.db.execute(
                "INSERT INTO vector_indexes "
                "(name, kind, dimensions, size, payload, updated_seq) "
                "VALUES ('bad', 'exact', 4, 1, ?, 1)",
                (b"not json",),
            )
            assert store.load_vector_index("bad") is None
