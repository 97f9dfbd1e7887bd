"""The missing-value imputation operator (paper Section 3.4, Table 4).

Strategies:

* ``knn`` — the non-LLM proxy: predict the mode of the k nearest neighbors'
  values.  Zero LLM tokens.
* ``llm_only`` — ask the LLM for every query record, optionally with
  ``n_examples`` neighbor records embedded as in-context examples.
* ``hybrid`` — use the k-NN answer whenever all k neighbors agree, and ask the
  LLM only for the records where they disagree.  This is the paper's hybrid
  scheme that matches LLM-only accuracy at roughly half the token cost.
* ``retrieval`` — the hybrid escalation, grounded: neighbors come from a
  :class:`~repro.index.base.VectorIndex` over the reference embeddings
  (scales past a few thousand reference records), and every escalated
  prompt carries the retrieved neighbors as in-context evidence, so the
  LLM answers *with* the nearest labelled records in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.products import ImputationDataset
from repro.data.record import Record
from repro.exceptions import ResponseParseError
from repro.llm.prompts import IMPUTE
from repro.operators.base import BaseOperator, OperatorResult
from repro.proxies.knn import KNNImputer


@dataclass
class ImputeResult(OperatorResult):
    """Output of an imputation run.

    Attributes:
        predictions: query record id → predicted value.
        llm_queries: how many query records were answered by the LLM.
        proxy_queries: how many were answered by the k-NN proxy.
    """

    predictions: dict[str, str] = field(default_factory=dict)
    llm_queries: int = 0
    proxy_queries: int = 0


class ImputeOperator(BaseOperator):
    """Impute a missing attribute for every query record of a dataset."""

    operation = "impute"

    def __init__(self, client, *, k: int = 3, **kwargs) -> None:
        self.k = k
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("knn", self._run_knn)
        self.register_strategy("llm_only", self._run_llm_only)
        self.register_strategy("hybrid", self._run_hybrid)
        self.register_strategy("retrieval", self._run_retrieval)

    # -- public API -----------------------------------------------------------------

    def run(
        self,
        data: ImputationDataset,
        *,
        strategy: str = "hybrid",
        n_examples: int = 0,
    ) -> ImputeResult:
        """Impute the missing attribute for every query record in ``data``.

        Args:
            data: the imputation dataset (queries, reference set, target).
            strategy: ``"knn"``, ``"llm_only"``, ``"hybrid"``, or
                ``"retrieval"``.
            n_examples: number of nearest-neighbor in-context examples to embed
                into each LLM prompt (0 reproduces the "no examples" rows of
                Table 4, 3 the "3 examples" rows).
        """
        if strategy == "retrieval":
            # Neighbor lookup through a vector index over the reference set:
            # exact for small references, LSH once brute force would hurt.
            from repro.index import create_index

            from repro.llm.embeddings import HashingEmbedder

            embedder = HashingEmbedder()
            imputer = KNNImputer(
                data.reference,
                data.target_attribute,
                k=self.k,
                index=create_index(
                    "auto", embedder.dimensions, expected_size=len(data.reference)
                ),
                embedder=embedder,
            )
        else:
            imputer = KNNImputer(data.reference, data.target_attribute, k=self.k)
        return self._run(strategy, data, imputer, n_examples)

    # -- strategies ------------------------------------------------------------------

    def _impute_prompt(
        self,
        data: ImputationDataset,
        imputer: KNNImputer,
        record: Record,
        n_examples: int,
    ) -> str:
        examples = imputer.examples_for(record, n_examples) if n_examples > 0 else None
        return IMPUTE.render([data.serialized_query(record)], (data.target_attribute,), examples)

    def _ask_llm_batch(
        self,
        data: ImputationDataset,
        imputer: KNNImputer,
        records: list[Record],
        n_examples: int,
    ) -> dict[str, str]:
        """Batch one imputation prompt per record; record id → predicted value."""
        responses = self._complete_batch(
            [self._impute_prompt(data, imputer, record, n_examples) for record in records]
        )
        predictions: dict[str, str] = {}
        for record, response in zip(records, responses):
            try:
                predictions[record.record_id] = IMPUTE.read(response.text)
            except ResponseParseError:
                predictions[record.record_id] = ""
        return predictions

    def _run_knn(
        self, data: ImputationDataset, imputer: KNNImputer, n_examples: int
    ) -> ImputeResult:
        del n_examples  # the proxy does not build prompts
        predictions = {record.record_id: imputer.impute(record) for record in data.queries}
        return ImputeResult(
            strategy="knn", predictions=predictions, proxy_queries=len(predictions)
        )

    def _run_llm_only(
        self, data: ImputationDataset, imputer: KNNImputer, n_examples: int
    ) -> ImputeResult:
        predictions = self._ask_llm_batch(data, imputer, list(data.queries), n_examples)
        return ImputeResult(
            strategy="llm_only", predictions=predictions, llm_queries=len(predictions)
        )

    def _run_hybrid(
        self, data: ImputationDataset, imputer: KNNImputer, n_examples: int
    ) -> ImputeResult:
        # First pass: the free k-NN vote decides which records need the LLM;
        # those records' prompts then go out as one batch.  Votes are kept
        # positionally (not keyed by record id) so duplicate ids cannot
        # shadow one another's vote.
        query_records = list(data.queries)
        votes = [imputer.vote(record) for record in query_records]
        disagreeing = [
            record for record, vote in zip(query_records, votes) if not vote.unanimous
        ]
        llm_predictions = self._ask_llm_batch(data, imputer, disagreeing, n_examples)
        predictions: dict[str, str] = {}
        for record, vote in zip(query_records, votes):
            if vote.unanimous:
                predictions[record.record_id] = vote.prediction
            else:
                predictions[record.record_id] = llm_predictions[record.record_id]
        return ImputeResult(
            strategy="hybrid",
            predictions=predictions,
            llm_queries=len(disagreeing),
            proxy_queries=len(query_records) - len(disagreeing),
        )

    def _run_retrieval(
        self, data: ImputationDataset, imputer: KNNImputer, n_examples: int
    ) -> ImputeResult:
        """Hybrid escalation with index-retrieved neighbors as prompt evidence.

        Same proxy/escalate split as ``hybrid`` (unanimous neighbors answer
        for free), but each escalated prompt is grounded in the retrieved
        neighbors: the k nearest labelled records ride along as in-context
        examples even when the caller asked for ``n_examples=0``.  The
        imputer handed in by :meth:`run` probes a vector index, so neighbor
        lookup costs a probe, not a reference-set scan.
        """
        del n_examples  # the retrieved neighbors *are* the examples
        query_records = list(data.queries)
        votes = [imputer.vote(record) for record in query_records]
        escalated = [
            (record, vote)
            for record, vote in zip(query_records, votes)
            if not vote.unanimous
        ]
        prompts = []
        for record, vote in escalated:
            evidence = [
                {
                    "input": neighbor.serialize(exclude=(data.target_attribute,)),
                    "output": str(neighbor[data.target_attribute]),
                }
                for neighbor in vote.neighbors
            ]
            prompts.append(
                IMPUTE.render([data.serialized_query(record)], (data.target_attribute,), evidence)
            )
        responses = self._complete_batch(prompts)
        llm_predictions: dict[str, str] = {}
        for (record, _), response in zip(escalated, responses):
            try:
                llm_predictions[record.record_id] = IMPUTE.read(response.text)
            except ResponseParseError:
                llm_predictions[record.record_id] = ""
        predictions: dict[str, str] = {}
        for record, vote in zip(query_records, votes):
            if vote.unanimous:
                predictions[record.record_id] = vote.prediction
            else:
                predictions[record.record_id] = llm_predictions[record.record_id]
        return ImputeResult(
            strategy="retrieval",
            predictions=predictions,
            llm_queries=len(escalated),
            proxy_queries=len(query_records) - len(escalated),
        )
