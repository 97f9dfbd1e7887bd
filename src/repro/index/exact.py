"""Brute-force exact vector index: the correctness reference.

:class:`ExactIndex` ranks every indexed vector against every query — O(n)
per search, O(n²) for the full :meth:`knn_graph` — using the same
Gram-matrix arithmetic as the legacy ``HashingEmbedder.nearest_neighbors``
scan, so an index-backed blocker produces *identical* candidate pairs to
the scan it replaces (pinned by ``tests/index/test_blocker_index.py``).
It is the ground truth the LSH index's recall is measured against, and the
right choice for small corpora where approximation buys nothing.  Its work
is fixed by the corpus size (n·(n − 1) per graph), so it counts none.
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


class ExactIndex:
    """Exact (brute-force) nearest-neighbor index over L2 distance."""

    kind = "exact"

    def __init__(self, dimensions: int) -> None:
        import numpy as np

        if dimensions <= 0:
            raise ConfigurationError("dimensions must be positive")
        self.dimensions = dimensions
        self._vectors = np.zeros((0, dimensions), dtype=np.float64)
        self._ids: list[int] = []
        self._id_rows: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[int]:
        """The indexed ids, in insertion order."""
        return list(self._ids)

    def add(self, vectors: np.ndarray, ids: Iterable[int] | None = None) -> list[int]:
        """Index ``vectors``; ids default to consecutive integers."""
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
        base = len(self._ids)
        self._vectors = np.vstack([self._vectors, dense]) if base else dense.copy()
        self._ids.extend(assigned)
        for offset, row_id in enumerate(assigned):
            self._id_rows[row_id] = base + offset
        return assigned

    def vector(self, row_id: int) -> np.ndarray:
        """The stored vector for ``row_id``."""
        try:
            return self._vectors[self._id_rows[row_id]].copy()
        except KeyError:
            raise ConfigurationError(f"id {row_id} is not indexed") from None

    def search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ``k`` nearest indexed vectors to ``query``, nearest first."""
        import numpy as np

        if k <= 0 or not self._ids:
            return []
        dense = np.asarray(query, dtype=np.float64).reshape(-1)
        if dense.shape[0] != self.dimensions:
            raise ConfigurationError(
                f"expected a query of dimension {self.dimensions}, got {dense.shape[0]}"
            )
        deltas = self._vectors - dense[None, :]
        distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        order = np.lexsort((np.asarray(self._ids), distances))[: min(k, len(self._ids))]
        return [(self._ids[int(row)], float(distances[int(row)])) for row in order]

    def knn_graph(self, k: int) -> dict[int, list[int]]:
        """Per-id k nearest neighbors among the indexed vectors.

        This reproduces the legacy scan's arithmetic exactly (same Gram
        expansion, same ``argsort`` tie behaviour), so blocking through the
        index is candidate-for-candidate equal to blocking without one.
        """
        import numpy as np

        if k < 0:
            raise ConfigurationError("k must be non-negative")
        count = len(self._ids)
        if count == 0 or k == 0:
            return {row_id: [] for row_id in self._ids}
        matrix = self._vectors
        squared_norms = np.sum(matrix * matrix, axis=1)
        distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (matrix @ matrix.T)
        np.fill_diagonal(distances, np.inf)
        limit = min(k, count - 1)
        neighbors: dict[int, list[int]] = {}
        for row in range(count):
            order = np.argsort(distances[row])
            neighbors[self._ids[row]] = [self._ids[int(col)] for col in order[:limit]]
        return neighbors

    # -- persistence --------------------------------------------------------------

    def to_payload(self) -> bytes:
        return dump_payload(
            {
                "kind": self.kind,
                "dimensions": self.dimensions,
                "ids": list(self._ids),
                "vectors": encode_matrix(self._vectors),
            }
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "ExactIndex":
        fields: dict[str, Any] = load_payload(payload)
        index = cls(int(fields["dimensions"]))
        vectors = decode_matrix(fields["vectors"])
        ids = [int(value) for value in fields["ids"]]
        if len(ids):
            index.add(vectors, ids)
        return index
