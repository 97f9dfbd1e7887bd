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

Every strategy sends the duplicate checks it needs as one bag through the
operator's executor (see :mod:`repro.core.executor`), in candidate order, so
``max_concurrency`` and a budget's early stop hold for joins as for every
other operator, and every call that reaches the backend crosses the session's
gate (see :mod:`repro.core.governor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import ConfigurationError, ResponseParseError
from repro.llm.embeddings import HashingEmbedder
from repro.llm.prompts import DUPLICATE_CHECK
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
        self.register_strategy("all_pairs", self._run_all_pairs)
        self.register_strategy("blocked", self._run_blocked)
        self.register_strategy("proxy_blocked", self._run_proxy_blocked)

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
        return self._run(strategy, left_list, right_list, **kwargs)

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _parse_duplicate(text: str) -> bool:
        try:
            return DUPLICATE_CHECK.read(text)
        except ResponseParseError:
            return False

    def _matching(
        self, left: list[str], right: list[str], pairs: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """The pairs judged to co-refer: one duplicate check each, sent as one bag."""
        responses = self._complete_batch(
            [DUPLICATE_CHECK.render([left[i], right[j]]) for i, j in pairs]
        )
        return [
            pair
            for pair, response in zip(pairs, responses)
            if self._parse_duplicate(response.text)
        ]

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
        pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
        return JoinResult(
            strategy="all_pairs",
            matches=self._matching(left, right, pairs),
            candidate_pairs=len(pairs),
            llm_pairs=len(pairs),
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
        return JoinResult(
            strategy="blocked",
            matches=self._matching(left, right, candidates),
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
        # The proxy decides every candidate first (no LLM cost); only the
        # pairs it abstains on go out, as one bag.
        decisions = [proxy.decide(left[i], right[j]) for i, j in candidates]
        abstained = [pair for pair, decision in zip(candidates, decisions) if decision.abstained]
        llm_matches = set(self._matching(left, right, abstained))
        matches = [
            pair
            for pair, decision in zip(candidates, decisions)
            if (pair in llm_matches if decision.abstained else decision.label)
        ]
        return JoinResult(
            strategy="proxy_blocked",
            matches=matches,
            candidate_pairs=len(candidates),
            llm_pairs=len(abstained),
        )
