"""The entity-resolution operator (paper Sections 1, 3.3, 3.4).

Two entry points:

* :meth:`ResolveOperator.resolve` — cluster a list of records into duplicate
  groups.  Strategies: the coarse ``single_prompt`` grouping task, the fine
  ``pairwise`` all-pairs approach, and ``blocked_pairwise`` which only asks
  the LLM about embedding-blocked candidate pairs.
* :meth:`ResolveOperator.judge_pairs` — answer a set of labelled duplicate
  questions (the Table 3 setting).  Strategies: the ``pairwise`` baseline, the
  ``transitive`` augmentation that adds k-NN neighbor comparisons and flips
  "No" answers connected through the match graph, and the ``proxy_hybrid``
  scheme that answers easy pairs with a similarity proxy and asks the LLM only
  about the confusing band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.consistency.transitivity import MatchGraph
from repro.exceptions import DatasetError, ResponseParseError, UnknownStrategyError
from repro.llm.embeddings import HashingEmbedder
from repro.llm.prompts import DUPLICATE_CHECK, GROUP_RECORDS
from repro.operators.base import BaseOperator, OperatorResult
from repro.proxies.blocking import EmbeddingBlocker
from repro.proxies.classifier import SimilarityMatchProxy


@dataclass
class ResolveResult(OperatorResult):
    """Output of a full clustering run: groups of record indices."""

    clusters: list[list[int]] = field(default_factory=list)


@dataclass
class PairJudgment:
    """Judgment for one queried pair."""

    left: str
    right: str
    is_duplicate: bool
    source: str  # "llm", "transitivity", or "proxy"


@dataclass
class PairJudgmentResult(OperatorResult):
    """Output of a pair-judgment run."""

    judgments: list[PairJudgment] = field(default_factory=list)

    @property
    def decisions(self) -> list[bool]:
        return [judgment.is_duplicate for judgment in self.judgments]


class ResolveOperator(BaseOperator):
    """Entity resolution over textual records."""

    operation = "resolve"

    def __init__(self, client, *, embedder: HashingEmbedder | None = None, **kwargs) -> None:
        self.embedder = embedder or HashingEmbedder()
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("single_prompt", self._resolve_single_prompt)
        self.register_strategy("pairwise", self._resolve_pairwise)
        self.register_strategy("blocked_pairwise", self._resolve_blocked_pairwise)

    # -- full clustering -----------------------------------------------------------

    def resolve(self, records: Sequence[str], *, strategy: str = "pairwise", **kwargs) -> ResolveResult:
        """Cluster ``records`` into duplicate groups using the named strategy."""
        record_list = [str(record) for record in records]
        if len(record_list) != len(set(record_list)):
            raise DatasetError("records must be unique strings")
        return self._run(strategy, record_list, **kwargs)

    def _resolve_single_prompt(self, records: list[str]) -> ResolveResult:
        response = self._complete(GROUP_RECORDS.render(records))
        try:
            groups = GROUP_RECORDS.read(response.text)
        except ResponseParseError:
            groups = [[index] for index in range(len(records))]
        covered: set[int] = set()
        clusters: list[list[int]] = []
        for group in groups:
            valid = [index for index in group if 0 <= index < len(records) and index not in covered]
            if valid:
                clusters.append(valid)
                covered.update(valid)
        clusters.extend([[index] for index in range(len(records)) if index not in covered])
        return ResolveResult(strategy="single_prompt", clusters=clusters)

    @staticmethod
    def _parse_duplicate(text: str) -> bool:
        try:
            return DUPLICATE_CHECK.read(text)
        except ResponseParseError:
            return False

    def _ask_duplicates(self, pairs: Sequence[tuple[str, str]]) -> list[bool]:
        """Batch the independent duplicate checks; one decision per pair, in order."""
        responses = self._complete_batch([DUPLICATE_CHECK.render(pair) for pair in pairs])
        return [self._parse_duplicate(response.text) for response in responses]

    def _clusters_from_graph(self, records: list[str], graph: MatchGraph) -> list[list[int]]:
        index_of = {record: index for index, record in enumerate(records)}
        clusters = [
            sorted(index_of[record] for record in component) for component in graph.components()
        ]
        return sorted(clusters)

    def _resolve_pairwise(self, records: list[str]) -> ResolveResult:
        graph = MatchGraph()
        for record in records:
            graph.add_node(record)
        pairs = [
            (records[i], records[j])
            for i in range(len(records))
            for j in range(i + 1, len(records))
        ]
        for (left, right), is_duplicate in zip(pairs, self._ask_duplicates(pairs)):
            if is_duplicate:
                graph.add_match(left, right)
            else:
                graph.add_non_match(left, right)
        return ResolveResult(strategy="pairwise", clusters=self._clusters_from_graph(records, graph))

    def _resolve_blocked_pairwise(self, records: list[str], *, block_k: int = 5) -> ResolveResult:
        blocker = EmbeddingBlocker(embedder=self.embedder, k=block_k)
        blocking = blocker.block(records)
        graph = MatchGraph()
        for record in records:
            graph.add_node(record)
        pairs = [(records[i], records[j]) for i, j in blocking.candidate_pairs]
        for (left, right), is_duplicate in zip(pairs, self._ask_duplicates(pairs)):
            if is_duplicate:
                graph.add_match(left, right)
            else:
                graph.add_non_match(left, right)
        result = ResolveResult(
            strategy="blocked_pairwise", clusters=self._clusters_from_graph(records, graph)
        )
        result.metadata["candidate_pairs"] = blocking.n_candidates
        result.metadata["all_pairs"] = len(records) * (len(records) - 1) // 2
        return result

    # -- labelled pair judgments (Table 3) -------------------------------------------

    def judge_pairs(
        self,
        pairs: Sequence[tuple[str, str]],
        *,
        strategy: str = "pairwise",
        corpus: Sequence[str] | None = None,
        neighbors_k: int = 1,
        proxy: SimilarityMatchProxy | None = None,
    ) -> PairJudgmentResult:
        """Judge whether each queried pair is a duplicate.

        Args:
            pairs: the (left, right) record-text pairs to judge.
            strategy: ``"pairwise"``, ``"transitive"``, or ``"proxy_hybrid"``.
            corpus: for ``"transitive"``, the full record collection from which
                embedding nearest neighbors are drawn (defaults to the records
                appearing in ``pairs``).
            neighbors_k: the k of the k-NN augmentation (the paper's k=1, 2).
            proxy: for ``"proxy_hybrid"``, the similarity proxy; a default
                two-threshold Jaccard proxy is used when omitted.
        """
        pair_list = [(str(left), str(right)) for left, right in pairs]
        judges = {
            "pairwise": lambda: self._judge_pairwise(pair_list),
            "transitive": lambda: self._judge_transitive(
                pair_list, corpus=corpus, neighbors_k=neighbors_k
            ),
            "proxy_hybrid": lambda: self._judge_proxy_hybrid(pair_list, proxy=proxy),
        }
        if strategy not in judges:
            raise UnknownStrategyError(self.operation, strategy, list(judges))
        return self._booked(strategy, judges[strategy])

    def _judge_pairwise(self, pairs: list[tuple[str, str]]) -> PairJudgmentResult:
        judgments = [
            PairJudgment(left=left, right=right, is_duplicate=is_duplicate, source="llm")
            for (left, right), is_duplicate in zip(pairs, self._ask_duplicates(pairs))
        ]
        return PairJudgmentResult(strategy="pairwise", judgments=judgments)

    def _judge_transitive(
        self,
        pairs: list[tuple[str, str]],
        *,
        corpus: Sequence[str] | None,
        neighbors_k: int,
    ) -> PairJudgmentResult:
        """The Table 3 strategy: k-NN-augmented comparisons plus transitivity.

        With ``neighbors_k == 0`` this reduces to the plain pairwise baseline.
        """
        if neighbors_k < 0:
            raise DatasetError("neighbors_k must be non-negative")
        corpus_texts = list(corpus) if corpus is not None else sorted(
            {text for pair in pairs for text in pair}
        )
        text_index = {text: position for position, text in enumerate(corpus_texts)}

        neighbor_map: dict[int, list[int]] = {}
        if neighbors_k > 0:
            neighbor_map = self.embedder.nearest_neighbors(corpus_texts, neighbors_k)

        graph = MatchGraph()
        direct_answer: dict[frozenset[str], bool] = {}

        def judge_batch(queried: list[tuple[str, str]]) -> None:
            """Ask every not-yet-judged pair in one batch and record the answers."""
            pending_keys: set[frozenset[str]] = set()
            unseen: list[tuple[str, str]] = []
            for left, right in queried:
                key = frozenset((left, right))
                if key in direct_answer or key in pending_keys:
                    continue
                pending_keys.add(key)
                unseen.append((left, right))
            for (left, right), answer in zip(unseen, self._ask_duplicates(unseen)):
                direct_answer[frozenset((left, right))] = answer
                if answer:
                    graph.add_match(left, right)
                else:
                    graph.add_non_match(left, right)

        judgments: list[PairJudgment] = []
        for left, right in pairs:
            # Build the comparison group: the two anchors plus their k nearest
            # neighbors in the corpus.  The anchor pair comes first, in its
            # original orientation, so the k = 0 configuration reproduces the
            # plain pairwise baseline exactly; the group's remaining pairs are
            # independent of one another and go out in the same batch.
            group = {left, right}
            if neighbors_k > 0:
                for anchor in (left, right):
                    anchor_index = text_index.get(anchor)
                    if anchor_index is None:
                        continue
                    group.update(
                        corpus_texts[neighbor] for neighbor in neighbor_map.get(anchor_index, [])
                    )
            members = sorted(group)
            queried = [(left, right)] + [
                (members[i], members[j])
                for i in range(len(members))
                for j in range(i + 1, len(members))
            ]
            judge_batch(queried)
            direct = direct_answer[frozenset((left, right))]
            if direct:
                judgments.append(
                    PairJudgment(left=left, right=right, is_duplicate=True, source="llm")
                )
            elif graph.connected(left, right):
                # The Section 3.3 flip: a "No" contradicted by a Yes-path.
                judgments.append(
                    PairJudgment(left=left, right=right, is_duplicate=True, source="transitivity")
                )
            else:
                judgments.append(
                    PairJudgment(left=left, right=right, is_duplicate=False, source="llm")
                )
        result = PairJudgmentResult(strategy="transitive", judgments=judgments)
        result.metadata["unique_llm_pairs"] = len(direct_answer)
        result.metadata["flipped"] = sum(
            1 for judgment in judgments if judgment.source == "transitivity"
        )
        return result

    def _judge_proxy_hybrid(
        self, pairs: list[tuple[str, str]], *, proxy: SimilarityMatchProxy | None
    ) -> PairJudgmentResult:
        """Answer easy pairs with a similarity proxy, the rest with the LLM.

        The proxy decides every pair first (no LLM cost); only the pairs it
        abstains on are batched to the LLM.
        """
        proxy = proxy or SimilarityMatchProxy()
        decisions = [proxy.decide(left, right) for left, right in pairs]
        abstained_pairs = [
            pair for pair, decision in zip(pairs, decisions) if decision.abstained
        ]
        llm_answers = iter(self._ask_duplicates(abstained_pairs))
        judgments: list[PairJudgment] = []
        for (left, right), decision in zip(pairs, decisions):
            if decision.abstained:
                judgments.append(
                    PairJudgment(
                        left=left, right=right, is_duplicate=next(llm_answers), source="llm"
                    )
                )
            else:
                judgments.append(
                    PairJudgment(
                        left=left, right=right, is_duplicate=bool(decision.label), source="proxy"
                    )
                )
        llm_pairs = len(abstained_pairs)
        result = PairJudgmentResult(strategy="proxy_hybrid", judgments=judgments)
        result.metadata["llm_pairs"] = llm_pairs
        result.metadata["proxy_pairs"] = len(pairs) - llm_pairs
        return result
