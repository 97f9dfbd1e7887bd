"""Multi-table random-hyperplane LSH: approximate kNN with tunable recall.

Each of ``n_tables`` hash tables signs every vector against ``n_bits``
random hyperplanes (sign of the dot product, packed into an integer
signature).  Vectors sharing a signature in *any* table are candidate
neighbors; candidates are then ranked by true L2 distance, so the only
approximation is which vectors make the candidate set.  Recall is tuned by
three knobs:

* ``n_tables`` — more tables, more chances for a true neighbor to collide;
* ``n_bits`` — fewer bits, bigger buckets (higher recall, more ranking work);
* ``probe_floor`` — single-query searches that find fewer candidates than
  this floor widen out to Hamming-distance-1 buckets (multi-probe), which
  bounds how badly an unlucky hash can hurt a single lookup.

Two details matter for real text embeddings:

* **Centering.**  Embeddings of related texts share a large common
  component (hashing embeddings are non-negative; learned embeddings have
  a mean direction).  Hyperplanes through the origin see mostly that
  component, so most bits come out constant and the corpus collapses into
  a few giant buckets — O(n²) again.  Signing therefore happens *after*
  subtracting the corpus center (estimated from the first ``add`` batch
  and serialised with the index), which restores per-bit entropy without
  changing any distance.
* **Batched bucket ranking.**  :meth:`knn_graph` (what blocking uses)
  groups each table's buckets by size and ranks all same-sized buckets in
  one batched matrix product — no per-bucket Python loop — then merges
  each row's picks across tables in one row-wise sort.  Work scales
  with Σ bucket², a small multiple of n for balanced buckets, which is
  where the >100x win over the O(n²) scan at 50k records comes from.

Hyperplanes are derived deterministically from ``seed``, and the seed and
center are serialised with the index, so a saved index reloads to
bit-identical behaviour in a later process (the store is clock- and
randomness-free).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.exceptions import ConfigurationError
from repro.index.base import (
    Neighbor,
    check_vectors,
    decode_matrix,
    dump_payload,
    encode_matrix,
    load_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Default number of hash tables (recall ~0.99 on near-duplicate corpora).
DEFAULT_TABLES = 16

#: Default signature width in bits (buckets of ~n/2^bits vectors).
DEFAULT_BITS = 8

#: Target mean bucket occupancy used by :meth:`LSHIndex.for_corpus`.
_TARGET_BUCKET = 32

#: Buckets larger than this rank their rows in chunks (bounds the size of
#: any one distance block to roughly _HUGE_BUCKET² floats).
_HUGE_BUCKET = 2048

#: Most multiply-adds one bucket product may take.  Products up to this
#: size run on the calling thread in OpenBLAS; a bigger one wakes its
#: thread pool, which costs more than the product and stalls badly when
#: the cores are busy, so bigger buckets multiply in row chunks (unless a
#: single row is already over it).
_SMALL_PRODUCT = 1 << 18


class LSHIndex:
    """Approximate nearest-neighbor index (random-hyperplane LSH)."""

    kind = "lsh"

    def __init__(
        self,
        dimensions: int,
        *,
        n_tables: int = DEFAULT_TABLES,
        n_bits: int = DEFAULT_BITS,
        seed: int = 0,
        probe_floor: int | None = None,
    ) -> None:
        import numpy as np

        if dimensions <= 0:
            raise ConfigurationError("dimensions must be positive")
        if n_tables <= 0:
            raise ConfigurationError("n_tables must be positive")
        if not 0 < n_bits <= 60:
            raise ConfigurationError("n_bits must be between 1 and 60")
        if probe_floor is not None and probe_floor < 0:
            raise ConfigurationError("probe_floor must be non-negative")
        self.dimensions = dimensions
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.seed = seed
        self.probe_floor = probe_floor
        rng = np.random.default_rng(seed)
        #: (tables, bits, dim) hyperplane normals — fully determined by seed.
        self._planes = rng.standard_normal((n_tables, n_bits, dimensions))
        self._bit_values = (1 << np.arange(n_bits, dtype=np.int64))
        self._vectors = np.zeros((0, dimensions), dtype=np.float64)
        self._ids: list[int] = []
        self._id_rows: dict[int, int] = {}
        #: Corpus center subtracted before signing (see module docstring);
        #: estimated from the first ``add`` batch, then frozen.
        self._center: np.ndarray | None = None
        #: (tables, n) packed signatures of the indexed vectors.
        self._signatures = np.zeros((n_tables, 0), dtype=np.int64)
        #: Per table: signature -> row positions (built lazily for search).
        self._buckets: list[dict[int, np.ndarray]] | None = None
        #: Candidates distance-ranked so far: the *approximation* work
        #: actually done — a tiny fraction of the corpus per :meth:`search`
        #: when the hash spreads well; for :meth:`knn_graph`, every distance
        #: its buckets rank (an exact scan ranks n·(n − 1)).  Not persisted.
        self.candidates_examined = 0

    @classmethod
    def for_corpus(
        cls,
        dimensions: int,
        expected_size: int,
        *,
        n_tables: int = DEFAULT_TABLES,
        seed: int = 0,
    ) -> "LSHIndex":
        """An index whose bucket width suits a corpus of ``expected_size``.

        Picks ``n_bits`` so mean bucket occupancy lands near
        ``_TARGET_BUCKET`` vectors: buckets stay small enough that
        within-bucket ranking is cheap, and numerous enough that a probe
        reads a tiny fraction of the corpus.
        """
        import numpy as np

        if expected_size < 1:
            raise ConfigurationError("expected_size must be positive")
        bits = int(np.ceil(np.log2(max(2, expected_size / _TARGET_BUCKET))))
        return cls(
            dimensions,
            n_tables=n_tables,
            n_bits=max(2, min(24, bits)),
            seed=seed,
        )

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[int]:
        return list(self._ids)

    def _shifted(self, vectors: np.ndarray) -> np.ndarray:
        return vectors if self._center is None else vectors - self._center

    def _sign(self, vectors: np.ndarray) -> np.ndarray:
        """Packed signatures of ``vectors`` per table: (tables, len(vectors))."""
        import numpy as np

        # One BLAS call over all tables at once: (tables*bits, dim) @ (dim, n).
        flat = self._planes.reshape(self.n_tables * self.n_bits, self.dimensions)
        projections = (flat @ self._shifted(vectors).T).reshape(
            self.n_tables, self.n_bits, -1
        )
        bits = projections > 0.0
        return np.einsum("tbn,b->tn", bits.astype(np.int64), self._bit_values)

    def add(self, vectors: np.ndarray, ids: Iterable[int] | None = None) -> list[int]:
        import numpy as np

        dense = check_vectors(vectors, self.dimensions)
        if ids is None:
            start = max(self._ids, default=-1) + 1
            assigned = list(range(start, start + len(dense)))
        else:
            assigned = [int(value) for value in ids]
            if len(assigned) != len(dense):
                raise ConfigurationError("ids and vectors must have equal length")
        for row_id in assigned:
            if row_id in self._id_rows:
                raise ConfigurationError(f"id {row_id} is already indexed")
        if self._center is None and len(dense):
            self._center = dense.mean(axis=0)
        base = len(self._ids)
        signatures = self._sign(dense)
        self._vectors = np.vstack([self._vectors, dense]) if base else dense.copy()
        self._signatures = (
            np.hstack([self._signatures, signatures]) if base else signatures
        )
        self._ids.extend(assigned)
        for offset, row_id in enumerate(assigned):
            self._id_rows[row_id] = base + offset
        self._buckets = None  # rebuilt lazily on the next search
        return assigned

    def vector(self, row_id: int) -> np.ndarray:
        try:
            return self._vectors[self._id_rows[row_id]].copy()
        except KeyError:
            raise ConfigurationError(f"id {row_id} is not indexed") from None

    # -- search -------------------------------------------------------------------

    def _bucket_maps(self) -> list[dict[int, np.ndarray]]:
        """Per-table signature -> rows maps, grouped in one sort per table."""
        import numpy as np

        if self._buckets is None:
            maps: list[dict[int, np.ndarray]] = []
            for table in range(self.n_tables):
                signatures = self._signatures[table]
                order = np.argsort(signatures, kind="stable")
                ordered = signatures[order]
                starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
                bounds = np.r_[starts, len(ordered)]
                maps.append(
                    {
                        int(ordered[bounds[i]]): order[bounds[i] : bounds[i + 1]]
                        for i in range(len(starts))
                    }
                )
            self._buckets = maps
        return self._buckets

    def _candidate_rows(self, query: np.ndarray, k: int) -> list[int]:
        """Candidate row positions for ``query``, multi-probing up to the floor."""
        import numpy as np

        buckets = self._bucket_maps()
        projections = np.einsum("tbd,d->tb", self._planes, self._shifted(query))
        signatures = ((projections > 0.0).astype(np.int64) * self._bit_values).sum(axis=1)
        candidates: set[int] = set()
        for table in range(self.n_tables):
            candidates.update(buckets[table].get(int(signatures[table]), ()))
        floor = self.probe_floor if self.probe_floor is not None else max(16, 4 * k)
        if len(candidates) < min(floor, len(self._ids)):
            # Multi-probe: widen to Hamming-distance-1 buckets, flipping the
            # bits whose hyperplane margin is smallest first (those are the
            # likeliest misassignments for a borderline vector).
            for table in range(self.n_tables):
                flip_order = np.argsort(np.abs(projections[table]))
                for bit in flip_order:
                    neighbor_sig = int(signatures[table]) ^ int(self._bit_values[int(bit)])
                    candidates.update(buckets[table].get(neighbor_sig, ()))
                    if len(candidates) >= floor:
                        break
                if len(candidates) >= floor:
                    break
        return sorted(int(row) for row in candidates)

    def search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ~``k`` nearest indexed vectors (approximate), nearest first."""
        import numpy as np

        if k <= 0 or not self._ids:
            return []
        dense = np.asarray(query, dtype=np.float64).reshape(-1)
        if dense.shape[0] != self.dimensions:
            raise ConfigurationError(
                f"expected a query of dimension {self.dimensions}, got {dense.shape[0]}"
            )
        rows = self._candidate_rows(dense, k)
        self.candidates_examined += len(rows)
        if not rows:
            return []
        subset = self._vectors[rows]
        deltas = subset - dense[None, :]
        distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        row_ids = np.asarray([self._ids[row] for row in rows])
        order = np.lexsort((row_ids, distances))[: min(k, len(rows))]
        return [(int(row_ids[int(i)]), float(distances[int(i)])) for i in order]

    def _rank_table(
        self,
        np,
        matrix: np.ndarray,
        squared_norms: np.ndarray,
        table: int,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's top-``k`` neighbors within its bucket of ``table``.

        Rows are regrouped bucket by bucket in order of bucket size, so each
        run of same-sized buckets is one contiguous (buckets, size) block
        that ranks in one batched matrix product — no per-bucket Python
        loop.  Returns the regrouped rows and, per regrouped position, its
        picks (positions in those rows; -1 where a bucket has fewer than
        ``k`` others) and their squared distances.  ``np`` is numpy, bound
        once by :meth:`knn_graph`.
        """
        signatures = self._signatures[table]
        order = np.argsort(signatures, kind="stable")
        ordered = signatures[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        sizes = np.diff(np.r_[starts, len(order)])
        by_size = np.argsort(sizes, kind="stable")
        lengths = sizes[by_size]
        offsets = np.repeat(starts[by_size] - (np.cumsum(lengths) - lengths), lengths)
        rows = order[offsets + np.arange(len(order))]
        picks = np.full((len(rows), k), -1, dtype=np.int64)
        gaps = np.full((len(rows), k), np.inf, dtype=np.float32)
        low = 0
        runs = np.unique(lengths, return_counts=True)
        for size, buckets in zip(runs[0].tolist(), runs[1].tolist()):
            high = low + size * buckets
            self.candidates_examined += buckets * size * (size - 1)
            limit = min(k, size - 1)
            if size > _HUGE_BUCKET:
                # Oversized buckets rank in chunks of rows, which bounds any
                # one distance block to roughly _HUGE_BUCKET² floats.
                for first in range(low, high, size):
                    block = matrix[rows[first : first + size]]
                    norms = squared_norms[rows[first : first + size]]
                    for start in range(0, size, _HUGE_BUCKET):
                        chunk = slice(start, min(start + _HUGE_BUCKET, size))
                        grams = block[chunk] @ block.T
                        distances = norms[chunk, None] + norms[None, :] - 2.0 * grams
                        span = np.arange(chunk.start, chunk.stop)
                        distances[span - chunk.start, span] = np.inf
                        top = np.argpartition(distances, limit - 1, axis=1)[:, :limit]
                        at = slice(first + chunk.start, first + chunk.stop)
                        picks[at, :limit] = first + top
                        gaps[at, :limit] = np.take_along_axis(distances, top, axis=1)
            elif size > 1:
                members = rows[low:high]
                block = matrix[members].reshape(buckets, size, -1)
                norms = squared_norms[members].reshape(buckets, size)
                step = _SMALL_PRODUCT // (size * matrix.shape[1]) or size
                grams = np.concatenate(
                    [
                        block[:, start : start + step] @ block.transpose(0, 2, 1)
                        for start in range(0, size, step)
                    ],
                    axis=1,
                )
                distances = norms[:, :, None] + norms[:, None, :] - 2.0 * grams
                diagonal = np.arange(size)
                distances[:, diagonal, diagonal] = np.inf
                top = np.argpartition(distances, limit - 1, axis=2)[:, :, :limit]
                bases = np.arange(low, high, size)[:, None, None]
                picks[low:high, :limit] = (bases + top).reshape(-1, limit)
                gaps[low:high, :limit] = (
                    np.take_along_axis(distances, top, axis=2).reshape(-1, limit)
                )
            low = high
        return rows, picks, gaps

    def knn_graph(self, k: int) -> dict[int, list[int]]:
        """Approximate per-id kNN among the indexed vectors (self excluded).

        Each table ranks every bucket batched by size (:meth:`_rank_table`)
        and a row's picks from all tables merge in one row-wise sort, so
        total work scales with Σ bucket², not n².
        """
        import numpy as np

        if k < 0:
            raise ConfigurationError("k must be non-negative")
        count = len(self._ids)
        if count == 0 or k == 0:
            return {row_id: [] for row_id in self._ids}
        # Rank in float32: within-bucket distance *ordering* is what matters
        # (the graph is approximate by construction) and halving the memory
        # traffic roughly halves the ranking wall-clock at 50k records.
        matrix = self._vectors.astype(np.float32)
        squared_norms = np.einsum("ij,ij->i", matrix, matrix)
        # Table t fills columns [t*k, t*k + k) of each row (-1: no pick).
        candidates = np.full((count, self.n_tables * k), -1, dtype=np.int64)
        distances = np.full((count, self.n_tables * k), np.inf, dtype=np.float32)
        for table in range(self.n_tables):
            rows, picks, gaps = self._rank_table(np, matrix, squared_norms, table, k)
            columns = slice(table * k, table * k + k)
            candidates[rows, columns] = np.where(picks >= 0, rows[picks], -1)
            distances[rows, columns] = gaps
        # Drop repeats: a pair several tables found keeps the first table's
        # distance — the stable sort on candidate puts a repeat right after
        # that first pick.
        order = np.argsort(candidates, axis=1, kind="stable")
        candidates = np.take_along_axis(candidates, order, axis=1)
        distances = np.take_along_axis(distances, order, axis=1)
        kept = candidates >= 0
        kept[:, 1:] &= candidates[:, 1:] != candidates[:, :-1]
        # Rank each row on the raw bits of the non-negative float32 distance,
        # which order like the float; dropped slots sort last.  The stable
        # sort breaks distance ties on candidate id, so the result is
        # deterministic across table orders.
        key = np.where(
            kept, np.maximum(distances, 0.0).view(np.uint32), np.iinfo(np.uint32).max
        )
        order = np.argsort(key, axis=1, kind="stable")[:, :k]
        candidates = np.take_along_axis(candidates, order, axis=1)
        kept = np.take_along_axis(kept, order, axis=1)
        # One bulk tolist + list slicing: much cheaper than materialising a
        # small ndarray per row.
        flat = np.asarray(self._ids)[candidates[kept]].tolist()
        bounds = np.r_[0, np.cumsum(kept.sum(axis=1))].tolist()
        return {
            row_id: flat[bounds[row] : bounds[row + 1]]
            for row, row_id in enumerate(self._ids)
        }

    # -- persistence --------------------------------------------------------------

    def to_payload(self) -> bytes:
        return dump_payload(
            {
                "kind": self.kind,
                "dimensions": self.dimensions,
                "n_tables": self.n_tables,
                "n_bits": self.n_bits,
                "seed": self.seed,
                "probe_floor": self.probe_floor,
                "ids": list(self._ids),
                "vectors": encode_matrix(self._vectors),
                "center": (
                    None
                    if self._center is None
                    else encode_matrix(self._center.reshape(1, -1))
                ),
            }
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "LSHIndex":
        fields: dict[str, Any] = load_payload(payload)
        index = cls(
            int(fields["dimensions"]),
            n_tables=int(fields["n_tables"]),
            n_bits=int(fields["n_bits"]),
            seed=int(fields["seed"]),
            probe_floor=(
                None if fields.get("probe_floor") is None else int(fields["probe_floor"])
            ),
        )
        if fields.get("center") is not None:
            # Restored *before* add so signatures recompute against the same
            # center the saved index signed with (bit-identical buckets).
            index._center = decode_matrix(fields["center"]).reshape(-1)
        vectors = decode_matrix(fields["vectors"])
        ids = [int(value) for value in fields["ids"]]
        if len(ids):
            # Signatures are recomputed from the seeded hyperplanes — the
            # payload needs no bucket state to round-trip exactly.
            index.add(vectors, ids)
        return index
