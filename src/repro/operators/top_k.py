"""The top-k / max-finding operator (paper Section 3.2, citing Khan's hybrid).

Finding the best item(s) under a criterion admits the same hybrid structure as
sorting: a cheap coarse pass narrows the field, and expensive fine-grained
comparisons decide among the finalists.

* ``rating_only`` — rate every item and take the top-k ratings.
* ``pairwise_tournament`` — compare all pairs and take the items with the most
  wins (accurate, O(n²) calls).
* ``hybrid_rating_comparison`` — Khan-style: rate every item (O(n) calls),
  keep the highest-rated bucket, then run pairwise comparisons only among
  those finalists.  Higher accuracy than ratings alone, far cheaper than a
  full tournament.

The ratings and the comparisons of a tournament are independent unit tasks:
each set goes out as one bag through the operator's executor (see
:mod:`repro.core.executor`), so ``max_concurrency`` and a budget's early stop
hold for every strategy, and every call that reaches the backend crosses the
session's gate (see :mod:`repro.core.governor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import DatasetError
from repro.llm.prompts import PAIRWISE_COMPARISON, RATING
from repro.operators.base import BaseOperator, OperatorResult


@dataclass
class TopKResult(OperatorResult):
    """Output of a top-k run."""

    top_items: list[str] = field(default_factory=list)
    ratings: dict[str, int] = field(default_factory=dict)
    finalists: list[str] = field(default_factory=list)


class TopKOperator(BaseOperator):
    """Find the top-k items under a textual criterion."""

    operation = "top_k"

    def __init__(self, client, criterion: str, **kwargs) -> None:
        self.criterion = criterion
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("rating_only", self._run_rating_only)
        self.register_strategy("pairwise_tournament", self._run_pairwise_tournament)
        self.register_strategy("hybrid_rating_comparison", self._run_hybrid)

    def run(self, items: Sequence[str], *, k: int = 1, strategy: str = "hybrid_rating_comparison", **kwargs) -> TopKResult:
        """Return the top ``k`` items of ``items`` under the operator's criterion."""
        item_list = [str(item) for item in items]
        if k < 1:
            raise DatasetError("k must be at least 1")
        if k > len(item_list):
            raise DatasetError(f"k={k} exceeds the number of items ({len(item_list)})")
        return self._run(strategy, item_list, k, **kwargs)

    # -- helpers --------------------------------------------------------------------

    def _rate_all(self, items: list[str]) -> dict[str, int]:
        """One rating task per item, sent as one bag."""
        fields = (self.criterion,)
        responses = self._complete_batch([RATING.render([item], fields) for item in items])
        return {item: RATING.read(response.text) for item, response in zip(items, responses)}

    def _tournament(self, items: list[str]) -> dict[str, int]:
        """One comparison task per pair ``i < j``, sent as one bag; wins per item."""
        pairs = [
            (items[i], items[j]) for i in range(len(items)) for j in range(i + 1, len(items))
        ]
        responses = self._complete_batch(
            [PAIRWISE_COMPARISON.render(pair, (self.criterion,)) for pair in pairs]
        )
        wins = {item: 0 for item in items}
        for (first, second), response in zip(pairs, responses):
            wins[first if PAIRWISE_COMPARISON.read(response.text) == "A" else second] += 1
        return wins

    # -- strategies -------------------------------------------------------------------

    def _run_rating_only(self, items: list[str], k: int) -> TopKResult:
        ratings = self._rate_all(items)
        ranked = sorted(items, key=lambda item: -ratings[item])
        return TopKResult(strategy="rating_only", top_items=ranked[:k], ratings=ratings)

    def _run_pairwise_tournament(self, items: list[str], k: int) -> TopKResult:
        wins = self._tournament(items)
        ranked = sorted(items, key=lambda item: -wins[item])
        return TopKResult(strategy="pairwise_tournament", top_items=ranked[:k], finalists=items)

    def _run_hybrid(self, items: list[str], k: int, *, shortlist_factor: int = 3) -> TopKResult:
        """Rate everything, shortlist, then run the tournament on the shortlist."""
        if shortlist_factor < 1:
            raise DatasetError("shortlist_factor must be at least 1")
        ratings = self._rate_all(items)
        shortlist_size = min(len(items), max(k, k * shortlist_factor))
        shortlist = sorted(items, key=lambda item: -ratings[item])[:shortlist_size]
        wins = self._tournament(shortlist)
        ranked = sorted(shortlist, key=lambda item: -wins[item])
        return TopKResult(
            strategy="hybrid_rating_comparison",
            top_items=ranked[:k],
            ratings=ratings,
            finalists=shortlist,
        )
