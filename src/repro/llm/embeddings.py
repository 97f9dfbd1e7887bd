"""Deterministic text embeddings.

The paper uses OpenAI's ``text-embedding-ada-002`` to find the k nearest
neighbors of each citation (Table 3).  Offline we substitute a character
n-gram hashing embedder: each n-gram is hashed into one of ``dimensions``
buckets and the bucket counts are L2-normalised.  Near-duplicate strings share
most of their n-grams, so they land close together in L2 distance — the only
property the neighbor-augmentation step needs.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.config import DEFAULT_EMBEDDING_MODEL
from repro.exceptions import ConfigurationError
from repro.tokenizer.cost import Usage
from repro.tokenizer.simple import SimpleTokenizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


#: Upper bound on a memo's entries; a full memo is emptied and starts over.
_BUCKET_MEMO_MAX_ENTRIES = 1_000_000

#: The process's n-gram -> bucket memos, one per ``dimensions``: a bucket is
#: a pure function of the n-gram and the dimensionality, so every embedder of
#: one size shares one.  Corpora repeat n-grams heavily, and an md5 per
#: occurrence is the embedding hot path's dominant cost; with the memo,
#: embedding scales with the *distinct* n-grams a process has met.
_BUCKET_MEMOS: dict[int, dict[str, int]] = {}


def _bucket(ngram: str, dimensions: int) -> int:
    """Stable bucket index of an n-gram (independent of PYTHONHASHSEED)."""
    digest = hashlib.md5(ngram.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % dimensions


class HashingEmbedder:
    """Character n-gram hashing embedder with an embedding-API-like surface.

    Args:
        dimensions: embedding dimensionality.
        ngram_sizes: which character n-gram lengths to hash.
        model: model name reported in usage records.
    """

    def __init__(
        self,
        dimensions: int = 256,
        ngram_sizes: tuple[int, ...] = (3, 4),
        model: str = DEFAULT_EMBEDDING_MODEL,
    ) -> None:
        if dimensions <= 0:
            raise ConfigurationError("dimensions must be positive")
        if not ngram_sizes:
            raise ConfigurationError("ngram_sizes must not be empty")
        self.dimensions = dimensions
        self.ngram_sizes = tuple(ngram_sizes)
        self.model = model
        self.tokenizer = SimpleTokenizer()
        self.usage = Usage()
        self._bucket_cache = _BUCKET_MEMOS.setdefault(dimensions, {})

    def _bucket_indices(self, text: str) -> list[int]:
        """Bucket index of every n-gram occurrence in ``text``."""
        normalised = " ".join(text.lower().split())
        padded = f" {normalised} "
        cache = self._bucket_cache
        if len(cache) > _BUCKET_MEMO_MAX_ENTRIES:
            cache.clear()
        indices: list[int] = []
        for size in self.ngram_sizes:
            if len(padded) < size:
                continue
            for start in range(len(padded) - size + 1):
                ngram = padded[start : start + size]
                bucket = cache.get(ngram)
                if bucket is None:
                    bucket = _bucket(ngram, self.dimensions)
                    cache[ngram] = bucket
                indices.append(bucket)
        return indices

    def embed(self, text: str) -> np.ndarray:
        """Embed a single string into a unit-norm vector."""
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed a batch of strings; rows follow input order.

        Bucket counts via ``bincount`` and one batched usage record.  numpy
        is loaded here, by the first text a process embeds.
        """
        import numpy as np

        matrix = np.zeros((len(texts), self.dimensions), dtype=np.float64)
        if not texts:
            return matrix
        for row, text in enumerate(texts):
            indices = self._bucket_indices(text)
            if indices:
                vector = np.bincount(indices, minlength=self.dimensions).astype(np.float64)
                matrix[row] = vector / np.linalg.norm(vector)
        self.usage.add(
            Usage(
                prompt_tokens=sum(self.tokenizer.count(text) for text in texts),
                calls=len(texts),
            )
        )
        return matrix

    def nearest_neighbors(self, texts: list[str], k: int) -> dict[int, list[int]]:
        """Indices of the ``k`` nearest neighbors (by L2) of every text.

        Returns a mapping from text index to a list of neighbor indices,
        nearest first, excluding the text itself.
        """
        import numpy as np

        if k < 0:
            raise ConfigurationError("k must be non-negative")
        matrix = self.embed_batch(texts)
        if len(texts) == 0 or k == 0:
            return {index: [] for index in range(len(texts))}
        # Pairwise squared distances via the Gram matrix.
        squared_norms = np.sum(matrix * matrix, axis=1)
        distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (matrix @ matrix.T)
        np.fill_diagonal(distances, np.inf)
        neighbors: dict[int, list[int]] = {}
        for index in range(len(texts)):
            order = np.argsort(distances[index])
            neighbors[index] = [int(j) for j in order[: min(k, len(texts) - 1)]]
        return neighbors
