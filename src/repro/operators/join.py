"""The fuzzy-join operator: match records across two collections.

"Join" is another of the paper's Section 3 primitives; entity resolution on a
bipartite graph is a fuzzy join (the paper cites Wang et al.'s
transitivity-based crowdsourced joins).  The operator matches records of a
left collection to records of a right collection:

* ``all_pairs`` — one duplicate-check task per (left, right) pair, O(|L||R|).
* ``blocked`` — embed both sides, only compare pairs whose embeddings are
  near neighbors, O(k·|L|) LLM calls.
* ``proxy_blocked`` — as ``blocked``, but a two-threshold similarity proxy
  answers the obvious matches/non-matches and only the confusing candidates
  reach the LLM (the CrowdER-style hybrid of Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import ConfigurationError, ResponseParseError
from repro.llm.embeddings import HashingEmbedder
from repro.llm.parsing import extract_yes_no
from repro.llm.prompts import duplicate_check_prompt
from repro.operators.base import BaseOperator, OperatorResult
from repro.proxies.classifier import SimilarityMatchProxy


@dataclass
class JoinResult(OperatorResult):
    """Output of a fuzzy join.

    Attributes:
        matches: (left index, right index) pairs judged to co-refer.
        candidate_pairs: how many pairs were considered at all.
        llm_pairs: how many pairs were sent to the LLM.
    """

    matches: list[tuple[int, int]] = field(default_factory=list)
    candidate_pairs: int = 0
    llm_pairs: int = 0


class JoinOperator(BaseOperator):
    """Fuzzy join between two collections of textual records."""

    operation = "join"

    def __init__(self, client, *, embedder: HashingEmbedder | None = None, **kwargs) -> None:
        self.embedder = embedder or HashingEmbedder()
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy(
            "all_pairs",
            self._run_all_pairs,
            description="one duplicate check per (left, right) pair",
            granularity="fine",
        )
        self.register_strategy(
            "blocked",
            self._run_blocked,
            description="duplicate checks only for embedding-near pairs",
            granularity="hybrid",
        )
        self.register_strategy(
            "proxy_blocked",
            self._run_proxy_blocked,
            description="similarity proxy first, LLM only for the confusing band",
            granularity="proxy",
        )

    def run(
        self,
        left: Sequence[str],
        right: Sequence[str],
        *,
        strategy: str = "blocked",
        **kwargs,
    ) -> JoinResult:
        """Join ``left`` against ``right`` with the named strategy."""
        left_list = [str(record) for record in left]
        right_list = [str(record) for record in right]
        if not left_list or not right_list:
            raise ConfigurationError("both sides of a join need at least one record")
        usage_before = self._usage_snapshot()
        result: JoinResult = self._strategy(strategy)(left_list, right_list, **kwargs)
        result.strategy = strategy
        self._finalize(result, usage_before)
        return result

    # -- helpers --------------------------------------------------------------------

    def _ask(self, left: str, right: str) -> bool:
        response = self._complete(duplicate_check_prompt(left, right))
        try:
            return extract_yes_no(response.text)
        except ResponseParseError:
            return False

    def _candidate_pairs(
        self,
        left: list[str],
        right: list[str],
        block_k: int,
        index_kind: str | None = None,
    ) -> list[tuple[int, int]]:
        """Cross-side candidate pairs whose embeddings are near neighbors.

        With ``index_kind`` unset, every (left, right) distance is computed
        in one Gram-matrix pass — exact, O(|L||R|).  With ``index_kind`` set
        (``"exact"``, ``"lsh"``, or ``"auto"``), the right side is loaded
        into a :class:`~repro.index.base.VectorIndex` and each left record
        probes it, so large right sides stop costing a full scan per join.
        """
        left_matrix = self.embedder.embed_batch(left)
        right_matrix = self.embedder.embed_batch(right)
        k = min(block_k, len(right))
        if index_kind is not None:
            from repro.index import create_index

            index = create_index(
                index_kind, self.embedder.dimensions, expected_size=len(right)
            )
            index.add(right_matrix)
            pairs_via_index: set[tuple[int, int]] = set()
            for left_index in range(len(left)):
                for right_index, _ in index.search(left_matrix[left_index], k):
                    pairs_via_index.add((left_index, int(right_index)))
            return sorted(pairs_via_index)
        # Squared L2 distances between every left row and every right row.
        left_norms = (left_matrix * left_matrix).sum(axis=1)
        right_norms = (right_matrix * right_matrix).sum(axis=1)
        distances = (
            left_norms[:, None] + right_norms[None, :] - 2.0 * (left_matrix @ right_matrix.T)
        )
        pairs: set[tuple[int, int]] = set()
        for left_index in range(len(left)):
            nearest = distances[left_index].argsort()[:k]
            pairs.update((left_index, int(right_index)) for right_index in nearest)
        return sorted(pairs)

    # -- strategies ------------------------------------------------------------------

    def _run_all_pairs(self, left: list[str], right: list[str]) -> JoinResult:
        matches = []
        for left_index, left_record in enumerate(left):
            for right_index, right_record in enumerate(right):
                if self._ask(left_record, right_record):
                    matches.append((left_index, right_index))
        total = len(left) * len(right)
        return JoinResult(
            strategy="all_pairs", matches=matches, candidate_pairs=total, llm_pairs=total
        )

    def _run_blocked(
        self,
        left: list[str],
        right: list[str],
        *,
        block_k: int = 3,
        index_kind: str | None = None,
    ) -> JoinResult:
        if block_k < 1:
            raise ConfigurationError("block_k must be at least 1")
        candidates = self._candidate_pairs(left, right, block_k, index_kind)
        matches = [
            (left_index, right_index)
            for left_index, right_index in candidates
            if self._ask(left[left_index], right[right_index])
        ]
        return JoinResult(
            strategy="blocked",
            matches=matches,
            candidate_pairs=len(candidates),
            llm_pairs=len(candidates),
        )

    def _run_proxy_blocked(
        self,
        left: list[str],
        right: list[str],
        *,
        block_k: int = 3,
        proxy: SimilarityMatchProxy | None = None,
        index_kind: str | None = None,
    ) -> JoinResult:
        if block_k < 1:
            raise ConfigurationError("block_k must be at least 1")
        proxy = proxy or SimilarityMatchProxy()
        candidates = self._candidate_pairs(left, right, block_k, index_kind)
        matches = []
        llm_pairs = 0
        for left_index, right_index in candidates:
            decision = proxy.decide(left[left_index], right[right_index])
            if decision.abstained:
                llm_pairs += 1
                if self._ask(left[left_index], right[right_index]):
                    matches.append((left_index, right_index))
            elif decision.label:
                matches.append((left_index, right_index))
        return JoinResult(
            strategy="proxy_blocked",
            matches=matches,
            candidate_pairs=len(candidates),
            llm_pairs=llm_pairs,
        )
