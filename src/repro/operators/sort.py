"""The sort operator and its prompting strategies (paper Sections 3.1–3.2).

Strategies:

* ``single_prompt`` — put every item into one prompt and ask for the sorted
  list (the paper's baseline).  Cheap, but noisy, and on long lists the
  response drops and hallucinates items.
* ``rating`` — ask for a 1–7 rating per item (O(n) unit tasks) and sort by
  rating, ties broken by input order.  Supports batching several items per
  prompt via ``batch_size`` (the Section 4 "hyperparameter").
* ``pairwise`` — compare every pair (O(n²) unit tasks) and sort by the number
  of comparisons won.  Most expensive, most accurate.
* ``hybrid_sort_insert`` — the Table 2 coarse→fine scheme: one whole-list sort
  first, hallucinations dropped, then every missing item is re-inserted via
  pairwise comparisons against the partially sorted list (both operand orders)
  at the position that minimises inverted comparisons.
* ``pairwise_consistent`` — ``pairwise`` followed by the Section 3.3
  consistency repair (local search for the order violating fewest comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.consistency.ranking_repair import alignment_insert_position, best_consistent_order
from repro.exceptions import DatasetError, ResponseParseError
from repro.llm.prompts import PAIRWISE_COMPARISON, RATING, RATING_BATCH, SORT_LIST
from repro.operators.base import BaseOperator, OperatorResult


@dataclass
class SortResult(OperatorResult):
    """Output of a sort run.

    Attributes:
        order: the items in predicted order, best rank first.  Only items from
            the input appear here; hallucinated items are reported separately.
        missing: input items absent from the LLM's response (before any
            re-insertion the strategy may have performed).
        hallucinated: response items that were not in the input.
        scores: per-item scores when the strategy produces them (ratings or
            pairwise win counts).
    """

    order: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    hallucinated: list[str] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)


class SortOperator(BaseOperator):
    """Sort a list of items by a textual criterion using an LLM."""

    operation = "sort"

    def __init__(self, client, criterion: str, **kwargs) -> None:
        self.criterion = criterion
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("single_prompt", self._run_single_prompt)
        self.register_strategy("rating", self._run_rating)
        self.register_strategy("pairwise", self._run_pairwise)
        self.register_strategy("hybrid_sort_insert", self._run_hybrid_sort_insert)
        self.register_strategy("pairwise_consistent", self._run_pairwise_consistent)

    # -- public API ---------------------------------------------------------------

    def run(self, items: Sequence[str], *, strategy: str = "single_prompt", **kwargs) -> SortResult:
        """Sort ``items`` with the named strategy."""
        item_list = [str(item) for item in items]
        if len(item_list) != len(set(item_list)):
            raise DatasetError("sort items must be unique strings")
        if len(item_list) < 2:
            return SortResult(strategy=strategy, order=list(item_list))
        return self._run(strategy, item_list, **kwargs)

    # -- strategies ---------------------------------------------------------------

    def _run_single_prompt(self, items: list[str]) -> SortResult:
        """Baseline: the entire list in one prompt."""
        response = self._complete(SORT_LIST.render(items, (self.criterion,)))
        try:
            raw_order = SORT_LIST.read(response.text)
        except ResponseParseError:
            raw_order = []
        known = set(items)
        order = [item for item in raw_order if item in known]
        # Preserve the first occurrence only, in case the response repeats items.
        seen: set[str] = set()
        order = [item for item in order if not (item in seen or seen.add(item))]
        missing = [item for item in items if item not in set(order)]
        hallucinated = [item for item in raw_order if item not in known]
        return SortResult(
            strategy="single_prompt", order=order, missing=missing, hallucinated=hallucinated
        )

    def _run_rating(self, items: list[str], *, batch_size: int = 1) -> SortResult:
        """O(n) rating tasks, sorted by rating (descending), ties by input order.

        All rating prompts are independent, so they are dispatched as one
        batch through the operator's executor.
        """
        if batch_size < 1:
            raise DatasetError("batch_size must be at least 1")
        fields = (self.criterion,)
        ratings: dict[str, float] = {}
        if batch_size == 1:
            responses = self._complete_batch([RATING.render([item], fields) for item in items])
            for item, response in zip(items, responses):
                ratings[item] = float(RATING.read(response.text))
        else:
            chunks = [items[start : start + batch_size] for start in range(0, len(items), batch_size)]
            prompts = [RATING_BATCH.render(chunk, fields) for chunk in chunks]
            responses = self._complete_batch(prompts)
            for chunk, response in zip(chunks, responses):
                for item, value in zip(chunk, RATING_BATCH.read(response.text, chunk)):
                    ratings[item] = float(value)
        order = sorted(items, key=lambda item: -ratings[item])
        return SortResult(strategy="rating", order=order, scores=dict(ratings))

    def _collect_pairwise(self, items: list[str]) -> dict[tuple[str, str], bool]:
        """Ask one comparison per unordered pair; True means first ranks higher.

        The O(n²) comparisons are independent unit tasks and go out as one
        batch — this is the workload where concurrency buys the most.
        """
        pairs = [
            (items[i], items[j])
            for i in range(len(items))
            for j in range(i + 1, len(items))
        ]
        responses = self._complete_batch(
            [PAIRWISE_COMPARISON.render(pair, (self.criterion,)) for pair in pairs]
        )
        comparisons: dict[tuple[str, str], bool] = {}
        for pair, response in zip(pairs, responses):
            comparisons[pair] = PAIRWISE_COMPARISON.read(response.text) == "A"
        return comparisons

    def _run_pairwise(self, items: list[str]) -> SortResult:
        """O(n^2) comparisons, sorted by number of comparisons won."""
        comparisons = self._collect_pairwise(items)
        wins = {item: 0 for item in items}
        for (first, second), first_wins in comparisons.items():
            wins[first if first_wins else second] += 1
        order = sorted(items, key=lambda item: -wins[item])
        return SortResult(
            strategy="pairwise", order=order, scores={item: float(w) for item, w in wins.items()}
        )

    def _run_pairwise_consistent(self, items: list[str]) -> SortResult:
        """Pairwise comparisons plus Section 3.3 consistency repair."""
        comparisons = self._collect_pairwise(items)
        order = best_consistent_order(items, comparisons)
        wins = {item: 0 for item in items}
        for (first, second), first_wins in comparisons.items():
            wins[first if first_wins else second] += 1
        return SortResult(
            strategy="pairwise_consistent",
            order=list(order),
            scores={item: float(w) for item, w in wins.items()},
        )

    def _run_hybrid_sort_insert(self, items: list[str]) -> SortResult:
        """Table 2's coarse-to-fine scheme: whole-list sort, then re-insert misses."""
        coarse = self._run_single_prompt(items)
        order = list(coarse.order)
        fields = (self.criterion,)
        for missing_item in coarse.missing:
            # Each insertion depends on the order produced by the previous one,
            # so insertions stay sequential — but within one insertion the
            # comparisons against every placed item (both operand orders, to
            # cancel position bias) are independent and run as one batch.
            prompts: list[str] = []
            for other in order:
                prompts.append(PAIRWISE_COMPARISON.render([missing_item, other], fields))
                prompts.append(PAIRWISE_COMPARISON.render([other, missing_item], fields))
            responses = self._complete_batch(prompts)
            judged_before: dict[str, bool] = {}
            for position_index, other in enumerate(order):
                first_response = responses[2 * position_index]
                second_response = responses[2 * position_index + 1]
                first_says_before = PAIRWISE_COMPARISON.read(first_response.text) == "A"
                second_says_before = PAIRWISE_COMPARISON.read(second_response.text) == "B"
                if first_says_before == second_says_before:
                    judged_before[other] = first_says_before
                else:
                    # The two orderings disagree; trust the first phrasing.
                    judged_before[other] = first_says_before
            position = alignment_insert_position(order, judged_before)
            order.insert(position, missing_item)
        return SortResult(
            strategy="hybrid_sort_insert",
            order=order,
            missing=list(coarse.missing),
            hallucinated=list(coarse.hallucinated),
        )
