"""Embedding-based blocking for entity resolution.

Comparing every pair of records is O(n²) LLM calls; blocking restricts
comparisons to pairs that are plausibly duplicates.  The paper's Table 3 uses
embedding nearest neighbors to *augment* the labelled pair set with extra
comparisons; the same machinery doubles as a classic blocker that prunes
obvious non-matches before any LLM is consulted.

Two neighbor-finding paths share the same candidate-pair semantics:

* the legacy **scan** (no ``index=``) embeds every text and ranks all n²
  distances — exact, but quadratic in both time and memory;
* the **index** path builds (or reuses) a :class:`~repro.index.base.
  VectorIndex` once and derives each record's neighbors from probe
  results.  With the exact index the candidate pairs are identical to the
  scan's; with the LSH index they are approximate with tunable recall,
  which is what makes blocking tractable at 50k+ records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError
from repro.llm.embeddings import HashingEmbedder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.base import VectorIndex


@dataclass
class BlockingResult:
    """Candidate pairs surviving the blocking step."""

    candidate_pairs: list[tuple[int, int]]
    neighbors: dict[int, list[int]]

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_pairs)

    @classmethod
    def from_neighbors(cls, neighbors: dict[int, list[int]]) -> "BlockingResult":
        """Candidate pairs (i < j) whose members are near neighbours of one another."""
        pairs = {
            (min(own, other), max(own, other))
            for own, row in neighbors.items()
            for other in row
        }
        return cls(candidate_pairs=sorted(pairs), neighbors=neighbors)


class EmbeddingBlocker:
    """Nearest-neighbor blocker over text embeddings.

    Args:
        embedder: the embedding model; defaults to the deterministic
            :class:`HashingEmbedder` analogue of text-embedding-ada-002.
            A :class:`~repro.index.CachedEmbedder` slots in here to make
            blocking re-runs embed nothing.
        k: number of nearest neighbors that form candidate pairs per record.
        index: optional :class:`~repro.index.base.VectorIndex`.  An empty
            index is filled from the blocked texts on first use (build
            once); a pre-built index must already hold ids ``0..n-1``
            matching the text order and is probed as-is — which is how a
            persisted index avoids both re-embedding and rebuilding.
    """

    def __init__(
        self,
        *,
        embedder: "HashingEmbedder | None" = None,
        k: int = 5,
        index: "VectorIndex | None" = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.embedder = embedder or HashingEmbedder()
        self.k = k
        self.index = index

    def block(self, texts: list[str]) -> BlockingResult:
        """Return candidate pairs (i < j) whose members are mutual near neighbors."""
        if self.index is None:
            neighbors = self.embedder.nearest_neighbors(texts, self.k)
        else:
            neighbors = self._index_neighbors(texts, self.k)
        return BlockingResult.from_neighbors(neighbors)

    def _index_neighbors(self, texts: list[str], k: int) -> dict[int, list[int]]:
        """Per-text neighbors from the index (building it when empty)."""
        index = self.index
        assert index is not None
        if len(index) == 0:
            if texts:
                index.add(self.embedder.embed_batch(texts))
        elif len(index) != len(texts):
            raise ConfigurationError(
                f"the supplied index holds {len(index)} vectors but {len(texts)} "
                "texts are being blocked; pass an empty index (it is built from "
                "the texts) or one built from exactly these texts"
            )
        graph = index.knn_graph(min(k, max(0, len(texts) - 1)))
        return {position: graph.get(position, []) for position in range(len(texts))}

    def neighbor_pairs_for(
        self, texts: list[str], anchor_indices: tuple[int, int], k: int
    ) -> list[tuple[int, int]]:
        """All pairs among two anchors and their k nearest neighbors.

        This is the Table 3 augmentation: for a labelled question about records
        A and B, take the k nearest neighbors of each and compare every pair
        within the combined set (the paper's "(2k+2 choose 2) pairs").
        """
        neighbors = self.embedder.nearest_neighbors(texts, k)
        left, right = anchor_indices
        group = {left, right}
        group.update(neighbors.get(left, []))
        group.update(neighbors.get(right, []))
        members = sorted(group)
        return [
            (members[i], members[j])
            for i in range(len(members))
            for j in range(i + 1, len(members))
        ]
