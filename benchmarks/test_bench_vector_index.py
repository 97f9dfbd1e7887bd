"""Benchmark — ANN-indexed blocking at 50k records (ISSUE 9 acceptance).

Two pinned claims:

* **Scale** — building the LSH index and deriving the full kNN candidate
  graph over 50,000 near-duplicate product records ranks under 0.5% of the
  n(n−1) distances of the brute-force pairwise embedding scan the blocker
  used before the index layer existed (a 200x cut in counted work,
  ``LSHIndex.candidates_examined``), while recovering at least 95% of the exact
  mutual-kNN candidate pairs.  The wall-clock speedup is printed, not
  asserted: a loaded host moves it.  The scan is infeasible to run outright
  at 50k (its distance matrix alone is 20 GB), so its wall-clock is measured
  on a 4,000-record subset with the *same arithmetic the legacy
  ``HashingEmbedder.nearest_neighbors`` scan performs* and extrapolated
  quadratically — conservative, since the scan's per-row ``argsort`` makes
  it O(n² log n), not O(n²).
* **Fidelity** — at small n with the exact index, blocking produces
  candidate pairs *identical* to the legacy scan's, so the Table 3
  entity-resolution call counts are unchanged at equal k.

Embedding cost is excluded from both sides of the ratio: scan and index
consume the same vectors, and with a store attached they are embedded once
ever (``tests/index/test_build.py`` pins the zero-re-embed property).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import print_table
from repro.index import ExactIndex, LSHIndex
from repro.llm.embeddings import HashingEmbedder
from repro.proxies.blocking import EmbeddingBlocker
from tests.query.support import product_corpus

N_ENTITIES = 12_500
VARIANTS = 4  # 50,000 records
K = 3
CALIBRATION_SIZE = 4_000
SAMPLE_QUERIES = 300

#: Tuned for this corpus shape: 6 tables x 13 bits keeps buckets small
#: enough that ranking work is a tiny multiple of n, while near-duplicate
#: variants still collide in at least one table with high probability.
N_TABLES = 6
N_BITS = 13

BRANDS = ["acme", "globex", "initech", "umbrella", "stark", "wayne", "tyrell", "soylent"]
LINES = ["widget", "gadget", "fastener", "actuator", "manifold", "bracket", "coupling", "bearing"]
MATERIALS = [
    "stainless steel", "carbon fiber", "anodized aluminum", "titanium alloy",
    "reinforced nylon", "tempered glass", "copper plated", "powder coated",
]
COLORS = ["matte black", "brushed silver", "safety orange", "forest green"]


def catalog_corpus(n_entities: int, variants: int) -> list[str]:
    """Near-duplicate product listings: each entity appears ``variants`` times.

    The variants differ by trailing punctuation/whitespace — the classic
    dirty-catalog shape blocking exists for.  Records are long enough that
    a one-character mutation is an angularly tiny perturbation, exactly as
    with real embeddings of near-identical records.
    """
    rng = np.random.default_rng(7)
    texts: list[str] = []
    for i in range(n_entities):
        brand = BRANDS[int(rng.integers(len(BRANDS)))]
        line = LINES[int(rng.integers(len(LINES)))]
        material = MATERIALS[int(rng.integers(len(MATERIALS)))]
        color = COLORS[int(rng.integers(len(COLORS)))]
        base = (
            f"{brand} {line} series {i % 13}, {material}, {color}, "
            f"sku-{i:06d} rev {i % 97}, warehouse {i % 7}, "
            f"qty {int(rng.integers(1, 500))}, "
            f"listed by vendor {i % 53} under catalog page {i % 211}, "
            f"unit weight {int(rng.integers(1, 900))} g, lead time {i % 21} days"
        )
        texts.extend([base, base + ".", base + " ", base + ","][:variants])
    return texts


def scan_seconds(matrix: np.ndarray) -> float:
    """Wall-clock of the legacy scan's arithmetic over ``matrix`` (median of 3).

    Mirrors ``HashingEmbedder.nearest_neighbors`` exactly: full float64 Gram
    expansion, then a full ``argsort`` per row.
    """
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        squared_norms = np.sum(matrix * matrix, axis=1)
        distances = (
            squared_norms[:, None] + squared_norms[None, :] - 2.0 * (matrix @ matrix.T)
        )
        np.fill_diagonal(distances, np.inf)
        for row in range(len(matrix)):
            np.argsort(distances[row])[:K]
        timings.append(time.perf_counter() - start)
    return sorted(timings)[1]


def exact_neighbors_for(
    matrix: np.ndarray, squared_norms: np.ndarray, rows: np.ndarray
) -> dict[int, list[int]]:
    """Exact top-K neighbors of ``rows`` by direct distance computation."""
    neighbors: dict[int, list[int]] = {}
    for row in rows:
        distances = squared_norms + squared_norms[row] - 2.0 * (matrix @ matrix[row])
        distances[row] = np.inf
        order = np.argpartition(distances, K)[: K + 1]
        order = order[np.argsort(distances[order])][:K]
        neighbors[int(row)] = [int(col) for col in order]
    return neighbors


class TestVectorIndexAtScale:
    def test_lsh_blocking_beats_scan_100x_with_095_recall(self):
        texts = catalog_corpus(N_ENTITIES, VARIANTS)
        n = len(texts)
        assert n == N_ENTITIES * VARIANTS
        matrix = HashingEmbedder().embed_batch(texts)

        # -- baseline: the legacy scan, calibrated then extrapolated --------
        calibration = scan_seconds(matrix[:CALIBRATION_SIZE])
        scan_extrapolated = calibration * (n / CALIBRATION_SIZE) ** 2

        # -- the index path: build + full candidate graph (best of 2) -------
        best = None
        for _ in range(2):
            index = LSHIndex(matrix.shape[1], n_tables=N_TABLES, n_bits=N_BITS, seed=0)
            start = time.perf_counter()
            index.add(matrix)
            build_seconds = time.perf_counter() - start
            start = time.perf_counter()
            graph = index.knn_graph(K)
            graph_seconds = time.perf_counter() - start
            total = build_seconds + graph_seconds
            if best is None or total < best[0]:
                best = (total, build_seconds, graph_seconds, graph)
        total_seconds, build_seconds, graph_seconds, graph = best
        ratio = scan_extrapolated / total_seconds

        # -- sampled mutual-pair recall against exact ground truth ----------
        rng = np.random.default_rng(1)
        sampled = rng.choice(n, size=SAMPLE_QUERIES, replace=False)
        squared_norms = np.einsum("ij,ij->i", matrix, matrix)
        # Exact neighbors for the sample *and* everything the sample points
        # at, so mutuality is decided from exact lists on both endpoints.
        frontier = set(int(row) for row in sampled)
        exact = exact_neighbors_for(matrix, squared_norms, np.asarray(sorted(frontier)))
        partners = {col for cols in exact.values() for col in cols} - frontier
        exact.update(
            exact_neighbors_for(matrix, squared_norms, np.asarray(sorted(partners)))
        )
        sample_rows = set(int(row) for row in sampled)
        exact_pairs = {
            (min(row, other), max(row, other))
            for row in sample_rows
            for other in exact[row]
            if row in exact[other]
        }
        lsh_pairs = {
            (min(row, other), max(row, other))
            for row, others in graph.items()
            for other in others
            if row in graph.get(other, [])
        }
        recall = len(exact_pairs & lsh_pairs) / len(exact_pairs)

        print_table(
            "ANN-indexed blocking at 50k records (paper: Table 3 machinery at scale)",
            ["metric", "value"],
            [
                ["records", n],
                ["scan (measured @4k, median of 3)", f"{calibration:.2f}s"],
                ["scan (extrapolated @50k)", f"{scan_extrapolated:.1f}s"],
                ["LSH build", f"{build_seconds:.2f}s"],
                ["LSH knn_graph", f"{graph_seconds:.2f}s"],
                ["speedup", f"{ratio:.0f}x"],
                ["mutual-pair recall (sampled)", f"{recall:.3f}"],
                ["distances ranked (scan: n(n-1))", index.candidates_examined],
            ],
        )

        assert recall >= 0.95, f"sampled mutual-pair recall {recall:.3f} below 0.95"
        # The cut is counted work, not seconds (the speedup above is printed
        # only, since a loaded host moves it): the graph ranks under 0.5% of
        # the n(n-1) distances the scan evaluates, a 200x cut.
        ranked = index.candidates_examined
        assert ranked < 0.005 * n * (n - 1), (
            f"LSH ranked {ranked} distances, over 0.5% of the scan's {n * (n - 1)}"
        )


class TestBlockingCallCountsUnchanged:
    def test_exact_index_preserves_table3_call_counts(self):
        """Blocking through the exact index = the scan, pair for pair."""
        items, _ = product_corpus(10, 3)
        embedder = HashingEmbedder()
        rows = []
        for k in (1, 2, 3, 5):
            scan = EmbeddingBlocker(embedder=embedder, k=k).block(items)
            indexed = EmbeddingBlocker(
                embedder=embedder, k=k, index=ExactIndex(embedder.dimensions)
            ).block(items)
            rows.append(
                [k, scan.n_candidates, indexed.n_candidates,
                 "yes" if indexed.candidate_pairs == scan.candidate_pairs else "NO"]
            )
            assert indexed.candidate_pairs == scan.candidate_pairs
        print_table(
            "Blocking call counts: scan vs exact index (equal k)",
            ["k", "scan pairs", "index pairs", "identical"],
            rows,
        )
