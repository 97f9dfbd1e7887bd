"""The :class:`VectorIndex` protocol and payload (de)serialisation helpers.

A vector index holds unit-norm embedding vectors under integer ids and
answers k-nearest-neighbor queries.  Two implementations ship with the
library: :class:`~repro.index.exact.ExactIndex`, a brute-force reference
whose answers are exact (and bit-identical to the legacy
``HashingEmbedder.nearest_neighbors`` scan), and
:class:`~repro.index.lsh.LSHIndex`, a multi-table random-hyperplane LSH
approximation whose recall is tunable through its table/bit/probe
parameters.  Both serialise to a self-contained JSON payload (vectors as
base64-packed float64) so the :class:`~repro.store.Store` can persist an
index and a later process can reload it without re-embedding a single text.
"""

from __future__ import annotations

import base64
import json
from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: A search hit: ``(id, distance)`` with L2 distance, nearest first.
Neighbor = tuple[int, float]


@runtime_checkable
class VectorIndex(Protocol):
    """What every vector index implementation provides.

    The protocol is structural: anything with these methods (``kind``,
    ``dimensions``, ``add``, ``search``, ``knn_graph``, ``to_payload``) can
    back the :class:`~repro.proxies.blocking.EmbeddingBlocker`, the
    :class:`~repro.proxies.knn.KNNImputer`, and ``Dataset.search``.
    """

    #: Registry key of the implementation ("exact", "lsh").
    kind: str
    #: Embedding dimensionality every added vector must match.
    dimensions: int

    def __len__(self) -> int:
        """Number of vectors currently indexed."""
        ...

    def add(self, vectors: np.ndarray, ids: Iterable[int] | None = None) -> list[int]:
        """Index ``vectors`` (rows); returns the assigned ids."""
        ...

    def search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ``k`` nearest indexed vectors to ``query``, nearest first."""
        ...

    def knn_graph(self, k: int) -> dict[int, list[int]]:
        """Per-id nearest-neighbor ids among the indexed vectors (self excluded)."""
        ...

    def to_payload(self) -> bytes:
        """Self-contained serialisation (see :func:`payload_from_index`)."""
        ...


def encode_matrix(matrix: np.ndarray) -> dict[str, Any]:
    """JSON-safe encoding of a 2-D float array (bit-exact round trip)."""
    import numpy as np

    dense = np.ascontiguousarray(matrix, dtype=np.float64)
    return {
        "shape": list(dense.shape),
        "data": base64.b64encode(dense.tobytes()).decode("ascii"),
    }


def decode_matrix(payload: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_matrix`."""
    import numpy as np

    shape = tuple(int(value) for value in payload["shape"])
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()


def dump_payload(fields: dict[str, Any]) -> bytes:
    """Serialise an index's field dict to the stored payload bytes."""
    return json.dumps(fields, sort_keys=True).encode("utf-8")


def load_payload(payload: bytes) -> dict[str, Any]:
    """Parse stored payload bytes back into the field dict."""
    try:
        fields = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"unreadable vector-index payload: {exc}") from exc
    if not isinstance(fields, dict):
        raise ConfigurationError("vector-index payload is not an object")
    return fields


def check_vectors(vectors: np.ndarray, dimensions: int) -> np.ndarray:
    """Validate and normalise the shape of a batch of vectors to add."""
    import numpy as np

    dense = np.asarray(vectors, dtype=np.float64)
    if dense.ndim == 1:
        dense = dense.reshape(1, -1)
    if dense.ndim != 2 or dense.shape[1] != dimensions:
        raise ConfigurationError(
            f"expected vectors of dimension {dimensions}, got shape {dense.shape}"
        )
    return dense
