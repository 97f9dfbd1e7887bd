"""A store-backed embedder: never embed the same text twice, across runs.

:class:`CachedEmbedder` wraps a :class:`~repro.llm.embeddings.HashingEmbedder`
(or anything with its surface) and consults a durable
:class:`~repro.store.vectors.EmbeddingCache` before computing: each text's
vector is keyed by a content fingerprint of ``(text, model, dimensions,
ngram_sizes)``, so a re-run or a resumed job over an unchanged corpus
performs **zero** embed recomputation — the cache's hit counter is the
proof (pinned by ``tests/index/test_persistence.py``).  Only the misses
reach the wrapped embedder, so its usage accounting keeps meaning "texts
actually embedded".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.llm.embeddings import HashingEmbedder
    from repro.store.vectors import EmbeddingCache


class CachedEmbedder:
    """Durable read-through cache in front of an embedder.

    Args:
        embedder: the wrapped embedder; computes only cache misses.
        cache: the store-backed vector cache (``store.embedding_cache()``).
    """

    def __init__(self, embedder: "HashingEmbedder", cache: "EmbeddingCache") -> None:
        self.embedder = embedder
        self.cache = cache

    # Consumers read these off whichever embedder they were handed.
    @property
    def dimensions(self) -> int:
        return self.embedder.dimensions

    @property
    def ngram_sizes(self) -> tuple[int, ...]:
        return self.embedder.ngram_sizes

    @property
    def model(self) -> str:
        return self.embedder.model

    @property
    def usage(self):
        return self.embedder.usage

    def _fingerprints(self, texts: list[str]) -> list[str]:
        from repro.store.fingerprint import fingerprint_embedding

        return [
            fingerprint_embedding(
                text,
                model=self.embedder.model,
                dimensions=self.embedder.dimensions,
                ngram_sizes=self.embedder.ngram_sizes,
            )
            for text in texts
        ]

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts``, computing only the fingerprints the cache lacks."""
        import numpy as np

        if not texts:
            return np.zeros((0, self.embedder.dimensions), dtype=np.float64)
        fingerprints = self._fingerprints(texts)
        cached = self.cache.get_many(fingerprints)
        matrix = np.zeros((len(texts), self.embedder.dimensions), dtype=np.float64)
        miss_rows: list[int] = []
        seen_misses: dict[str, int] = {}
        for row, fingerprint in enumerate(fingerprints):
            vector = cached.get(fingerprint)
            if vector is not None:
                if vector.shape[0] != self.embedder.dimensions:
                    raise ConfigurationError(
                        "cached embedding dimensionality "
                        f"{vector.shape[0]} does not match embedder "
                        f"dimensions {self.embedder.dimensions}"
                    )
                matrix[row] = vector
            elif fingerprint in seen_misses:
                # Duplicate text within the batch: embed once, reuse the row.
                miss_rows.append(row)
            else:
                seen_misses[fingerprint] = row
                miss_rows.append(row)
        if seen_misses:
            unique_rows = sorted(seen_misses.values())
            computed = self.embedder.embed_batch([texts[row] for row in unique_rows])
            by_fingerprint = {
                fingerprints[row]: computed[position]
                for position, row in enumerate(unique_rows)
            }
            for row in miss_rows:
                matrix[row] = by_fingerprint[fingerprints[row]]
            self.cache.put_many(
                by_fingerprint, model=self.embedder.model, dimensions=self.embedder.dimensions
            )
        return matrix

    def nearest_neighbors(self, texts: list[str], k: int) -> dict[int, list[int]]:
        """Exact mutual-kNN over cached embeddings (same math as the embedder)."""
        import numpy as np

        if k < 0:
            raise ConfigurationError("k must be non-negative")
        matrix = self.embed_batch(texts)
        if len(texts) == 0 or k == 0:
            return {index: [] for index in range(len(texts))}
        squared_norms = np.sum(matrix * matrix, axis=1)
        distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (matrix @ matrix.T)
        np.fill_diagonal(distances, np.inf)
        neighbors: dict[int, list[int]] = {}
        for index in range(len(texts)):
            order = np.argsort(distances[index])
            neighbors[index] = [int(j) for j in order[: min(k, len(texts) - 1)]]
        return neighbors
