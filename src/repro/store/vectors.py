"""Durable embedding vectors: the cache that makes re-runs embed nothing.

:class:`EmbeddingCache` stores one unit-norm vector per content
fingerprint (SHA-256 over the text *and* the embedder configuration — see
:func:`~repro.store.fingerprint.fingerprint_embedding`), so a vector is
reused only when both the text and the embedding function are unchanged.
Vectors are raw little-endian float64 blobs — bit-exact round trips, no
JSON inflation — and eviction is LRU by the store's monotonic sequence
numbers, exactly like the response cache (no wall clocks anywhere).

``stats`` counts this *instance's* hits and misses, which is how the
acceptance test pins "a second run over an unchanged corpus recomputes
zero embeddings": open a fresh cache view, run again, assert
``stats.misses == 0``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.llm.cache import CacheStats
from repro.store.db import StoreDB

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: SQLite's default variable limit is 999; batch IN-clauses safely below it.
_SELECT_BATCH = 500


class EmbeddingCache:
    """Durable LRU cache of embedding vectors keyed by content fingerprint.

    Args:
        db: the store database vectors live in.
        max_entries: LRU entry cap (vectors are small; the default allows
            half a million 256-dim float64 vectors in ~1 GB).
    """

    def __init__(self, db: StoreDB, *, max_entries: int = 500_000) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._db = db
        self.max_entries = max_entries
        self.stats = CacheStats()

    #: Same one-statement LRU ordinal trick as the response cache.
    _NEXT_SEQ = "(SELECT COALESCE(MAX(access_seq), 0) + 1 FROM embeddings)"

    def get(self, fingerprint: str) -> np.ndarray | None:
        """The cached vector, or ``None`` (counts one hit or miss)."""
        return self.get_many([fingerprint]).get(fingerprint)

    def get_many(self, fingerprints: Iterable[str]) -> dict[str, np.ndarray]:
        """Cached vectors for ``fingerprints``; absent keys are misses.

        Hit/miss accounting counts each *requested* fingerprint once
        (duplicates in the request count once per occurrence — they would
        each have been an embed call without the cache).
        """
        import numpy as np

        wanted = list(fingerprints)
        if not wanted:
            return {}
        found: dict[str, np.ndarray] = {}
        unique = sorted(set(wanted))
        with self._db.lock:
            for start in range(0, len(unique), _SELECT_BATCH):
                batch = unique[start : start + _SELECT_BATCH]
                placeholders = ",".join("?" for _ in batch)
                rows = self._db.execute(
                    f"SELECT fingerprint, vector FROM embeddings "
                    f"WHERE fingerprint IN ({placeholders})",
                    batch,
                )
                for fingerprint, blob in rows:
                    found[fingerprint] = np.frombuffer(blob, dtype="<f8").astype(np.float64)
                if rows:
                    # LRU touch: every hit batch becomes most recently used.
                    hit_keys = [row[0] for row in rows]
                    hit_placeholders = ",".join("?" for _ in hit_keys)
                    self._db.execute(
                        f"UPDATE embeddings SET access_seq = {self._NEXT_SEQ} "
                        f"WHERE fingerprint IN ({hit_placeholders})",
                        hit_keys,
                    )
        for fingerprint in wanted:
            if fingerprint in found:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        return found

    def put(self, fingerprint: str, vector: np.ndarray, *, model: str, dimensions: int) -> None:
        self.put_many({fingerprint: vector}, model=model, dimensions=dimensions)

    def put_many(
        self, vectors: dict[str, np.ndarray], *, model: str, dimensions: int
    ) -> None:
        """Store vectors under their fingerprints, then enforce the LRU cap."""
        import numpy as np

        if not vectors:
            return
        with self._db.atomic():
            self._db.executemany(
                "INSERT OR REPLACE INTO embeddings "
                "(fingerprint, model, dimensions, vector, access_seq) "
                f"VALUES (?, ?, ?, ?, {self._NEXT_SEQ})",
                [
                    (fingerprint, model, dimensions, np.asarray(vector, dtype="<f8").tobytes())
                    for fingerprint, vector in vectors.items()
                ],
            )
            self._db.evict("embeddings", self.max_entries, "access_seq", len(vectors))

    def __len__(self) -> int:
        return int(self._db.execute("SELECT COUNT(*) FROM embeddings")[0][0])

    def clear(self) -> None:
        self._db.execute("DELETE FROM embeddings")
        self.stats = CacheStats()
