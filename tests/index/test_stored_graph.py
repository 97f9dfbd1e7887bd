"""A blocked resolve stores its k-NN graph on the index row it came from.

A re-run of the same workload reads the candidate pairs back from the row:
it loads no index payload and ranks nothing (``knn_graph`` is not called),
yet returns the cold run's result and records the same ``index`` span.  The
graph lives and dies with its index — a re-saved index carries no graph, a
mangled one is a miss that recomputes, and a tenant namespace scopes it
through the index's prefixed name.
"""

from __future__ import annotations

from collections import Counter
from unittest.mock import patch

import pytest

import repro.index
from repro.index import (
    ExactIndex,
    LSHIndex,
    build_index,
    corpus_index_name,
    resolve_embedder,
)
from repro.proxies.blocking import BlockingResult, EmbeddingBlocker
from repro.query import Dataset
from repro.store import Store
from tests.query.support import clean_engine, product_corpus

ITEMS, ORACLE = product_corpus(6, 2)
#: The blocker's k: ``block_k`` 5 over 12 items.
K = 5


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """``knn_graph`` calls and index payloads deserialised, while a test runs."""
    counts: Counter = Counter()
    for cls in (ExactIndex, LSHIndex):

        def knn_graph(self, k, _original=cls.knn_graph):
            counts["knn_graph"] += 1
            return _original(self, k)

        monkeypatch.setattr(cls, "knn_graph", knn_graph)
    from_payload = repro.index.index_from_payload

    def index_from_payload(kind, payload):
        counts["payload_loads"] += 1
        return from_payload(kind, payload)

    monkeypatch.setattr(repro.index, "index_from_payload", index_from_payload)
    return counts


def block_name(store) -> str:
    return corpus_index_name(ITEMS, resolve_embedder(store=store), prefix="block")


def run(store, counts: Counter):
    """One blocked resolve over ``store``: its result, blocking result,
    ``index`` span and the counts it added.

    The run's quote is blind to the stored checkpoints, so the judge is not
    restored before scheduling: the blocker this file is about is
    dispatched, and the judge is looked up after it, by its lineage key.
    """
    counts.clear()
    engine = clean_engine(ORACLE)
    with patch.object(store, "checkpoint_digests", return_value={}):
        result = Dataset(ITEMS, name="p").with_store(store).resolve().run(engine)
    (blocking,) = [
        value for value in result.report.results.values() if isinstance(value, BlockingResult)
    ]
    (span,) = [span for span in engine.session.spans.spans() if span.kind == "index"]
    return result, blocking, span, dict(counts)


def span_fields(span) -> tuple:
    attributes = span.attributes
    return span.label, attributes["texts"], attributes["k"], attributes["candidate_pairs"]


def test_a_warm_run_reads_the_graph_and_loads_no_index(tmp_path, counts):
    with Store(tmp_path / "store.db") as store:
        cold, cold_blocking, cold_span, cold_counts = run(store, counts)
        assert cold_counts == {"knn_graph": 1}
        assert cold_span.attributes["cache_hit"] is False

        warm, warm_blocking, warm_span, warm_counts = run(store, counts)
    assert warm_counts == {}  # no payload deserialised, no graph ranked
    assert warm.items == cold.items
    assert warm_blocking == cold_blocking
    assert warm_span.attributes["cache_hit"] is True
    assert span_fields(warm_span) == span_fields(cold_span)
    assert span_fields(cold_span) == ("exact", 12, K, cold_blocking.n_candidates)
    assert "s1_block" not in warm.report.restored_steps
    assert "s1_resolve" in warm.report.restored_steps
    # The stored pairs are the ones blocking without a store finds.
    embedder = resolve_embedder()
    plain = EmbeddingBlocker(k=K, embedder=embedder, index=ExactIndex(embedder.dimensions))
    assert warm_blocking == plain.block(ITEMS)


def test_an_lsh_index_round_trips_its_graph(tmp_path, counts):
    path = tmp_path / "store.db"
    with Store(path) as store:
        name = block_name(store)
        lsh = build_index(ITEMS, kind="lsh", store=store, name=name)
        assert store.load_knn_graphs(name) == ("lsh", {})
        _, cold_blocking, cold_span, cold_counts = run(store, counts)
        assert cold_counts == {"knn_graph": 1, "payload_loads": 1}
        assert (cold_span.label, cold_span.attributes["cache_hit"]) == ("lsh", True)
        assert cold_blocking == EmbeddingBlocker(k=K, index=lsh).block(ITEMS)
    with Store(path) as store:
        kind, graphs = store.load_knn_graphs(name)
        assert (kind, list(graphs)) == ("lsh", [K])
        assert dict(enumerate(graphs[K])) == cold_blocking.neighbors

        _, warm_blocking, warm_span, warm_counts = run(store, counts)
    assert warm_counts == {}
    assert warm_blocking == cold_blocking
    assert span_fields(warm_span) == span_fields(cold_span)


def test_a_resaved_index_never_serves_a_stale_graph(tmp_path, counts):
    with Store(tmp_path / "store.db") as store:
        _, exact_blocking, _, _ = run(store, counts)
        name = block_name(store)
        lsh = build_index(ITEMS, kind="lsh")
        store.save_vector_index(name, lsh)
        assert store.load_knn_graphs(name) == ("lsh", {})

        _, blocking, span, seen = run(store, counts)
        assert seen == {"knn_graph": 1, "payload_loads": 1}
        assert (span.label, span.attributes["cache_hit"]) == ("lsh", True)
        assert blocking == EmbeddingBlocker(k=K, index=lsh).block(ITEMS)
        assert list(store.load_knn_graphs(name)[1]) == [K]
        # The graph now on the row is the LSH index's, read as such.
        _, again, _, seen = run(store, counts)
    assert seen == {}
    assert again == blocking


@pytest.mark.parametrize(
    "graphs",
    [
        "not json",
        b"\xff",
        7,
        "[]",
        '{"5": "x"}',
        '{"five": []}',
        '{"5": [[1]]}',  # one list for 12 ids
        '{"5": ' + str([[12]] * 12) + "}",  # an id the index does not hold
        '{"5": ' + str([[0]] * 12) + "}",  # id 0 its own neighbour
        '{"5": ' + str([["1"]] * 12).replace("'", '"') + "}",
        '{"5": ' + str([[True]] * 12).replace("True", "true") + "}",
    ],
)
def test_a_mangled_graph_is_a_miss_that_recomputes(tmp_path, counts, graphs):
    with Store(tmp_path / "store.db") as store:
        cold, cold_blocking, _, _ = run(store, counts)
        store.db.execute("UPDATE vector_indexes SET graphs = ?", (graphs,))
        assert store.load_knn_graphs(block_name(store))[1] == {}

        warm, warm_blocking, span, seen = run(store, counts)
        assert seen == {"knn_graph": 1, "payload_loads": 1}
        assert span.attributes["cache_hit"] is True  # the index itself was fine
        assert (warm.items, warm_blocking) == (cold.items, cold_blocking)
        # Recomputing wrote a good graph back.
        _, _, _, seen = run(store, counts)
    assert seen == {}


def test_a_graph_saved_in_one_namespace_is_invisible_from_another(tmp_path, counts):
    with Store(tmp_path / "store.db") as store:
        acme, beta = store.namespace("acme"), store.namespace("beta")
        _, acme_blocking, _, _ = run(acme, counts)
        name = block_name(store)
        assert list(acme.load_knn_graphs(name)[1]) == [K]
        assert beta.load_knn_graphs(name) is None
        assert store.load_knn_graphs(name) is None

        _, beta_blocking, span, seen = run(beta, counts)
        assert seen == {"knn_graph": 1}
        assert span.attributes["cache_hit"] is False
        assert beta_blocking == acme_blocking
