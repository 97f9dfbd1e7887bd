"""The filter operator (paper Section 3.5, citing CrowdScreen).

Filtering asks, per item, whether it satisfies a predicate.  Quality control
matters here: a single noisy answer mislabels the item, so the operator offers
ensemble strategies in addition to the plain per-item one.

* ``per_item`` — one predicate check per item with a single model.
* ``ensemble_vote`` — ask several models and take a (optionally weighted)
  majority vote per item.
* ``adaptive`` — CrowdScreen-style sequential querying: keep asking additional
  models only while the answers disagree, up to a budgeted maximum, finalising
  early for items with clear agreement.

``per_item`` and ``ensemble_vote`` dispatch their independent checks through
the operator's batch executor (see :mod:`repro.core.executor`) as one bag, so
they honour ``max_concurrency``; ``adaptive`` is inherently sequential per
item — each extra vote depends on the tally so far — and sends its votes
through the same executor one at a time, admitted and budget-checked alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.executor import BatchRequest
from repro.exceptions import ConfigurationError, ResponseParseError
from repro.llm.prompts import PREDICATE_CHECK
from repro.operators.base import BaseOperator, OperatorResult
from repro.quality.voting import majority_vote, weighted_vote


@dataclass
class FilterResult(OperatorResult):
    """Output of a filter run."""

    kept: list[str] = field(default_factory=list)
    decisions: dict[str, bool] = field(default_factory=dict)
    votes_used: int = 0


class FilterOperator(BaseOperator):
    """Keep the items satisfying a natural-language predicate."""

    operation = "filter"

    def __init__(self, client, predicate: str, **kwargs) -> None:
        self.predicate = predicate
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("per_item", self._run_per_item)
        self.register_strategy("ensemble_vote", self._run_ensemble_vote)
        self.register_strategy("adaptive", self._run_adaptive)

    def run(self, items: Sequence[str], *, strategy: str = "per_item", **kwargs) -> FilterResult:
        """Filter ``items`` with the named strategy."""
        item_list = [str(item) for item in items]
        result: FilterResult = self._run(strategy, item_list, **kwargs)
        result.kept = [item for item in item_list if result.decisions.get(item, False)]
        return result

    def _check(self, item: str, model: str | None, temperature: float = 0.0) -> bool:
        response = self._complete(
            PREDICATE_CHECK.render([item], (self.predicate,)), model=model, temperature=temperature
        )
        return self._parse_check(response.text)

    @staticmethod
    def _parse_check(text: str) -> bool:
        try:
            return PREDICATE_CHECK.read(text)
        except ResponseParseError:
            return False

    def _check_batch(self, items: Sequence[str], model: str | None) -> list[bool]:
        """Batch the independent predicate checks; one decision per item."""
        responses = self._complete_batch(
            [PREDICATE_CHECK.render([item], (self.predicate,)) for item in items], model=model
        )
        return [self._parse_check(response.text) for response in responses]

    def _run_per_item(self, items: list[str]) -> FilterResult:
        decisions = dict(zip(items, self._check_batch(items, self.model)))
        return FilterResult(strategy="per_item", decisions=decisions, votes_used=len(items))

    def _run_ensemble_vote(
        self,
        items: list[str],
        *,
        models: Sequence[str] | None = None,
        weights: Mapping[str, float] | None = None,
    ) -> FilterResult:
        """Majority (or accuracy-weighted) vote across several models.

        Every (item, model) ballot is an independent unit task, so the whole
        item-major grid goes out as one batch of per-model requests.
        """
        voter_models = list(models or ([self.model] if self.model else []))
        if len(voter_models) < 2:
            raise ConfigurationError("ensemble_vote needs at least two models")
        requests = [
            BatchRequest(prompt=PREDICATE_CHECK.render([item], (self.predicate,)), model=model)
            for item in items
            for model in voter_models
        ]
        responses = iter(self._complete_requests(requests))
        decisions: dict[str, bool] = {}
        votes_used = 0
        for item in items:
            ballots = {model: self._parse_check(next(responses).text) for model in voter_models}
            votes_used += len(ballots)
            if weights:
                outcome = weighted_vote(ballots, weights)
            else:
                outcome = majority_vote(list(ballots.values()))
            decisions[item] = bool(outcome.winner)
        return FilterResult(strategy="ensemble_vote", decisions=decisions, votes_used=votes_used)

    def _run_adaptive(
        self,
        items: list[str],
        *,
        models: Sequence[str] | None = None,
        agreement_margin: int = 2,
        max_votes_per_item: int | None = None,
    ) -> FilterResult:
        """Sequential voting: stop per item once one answer leads by the margin.

        Items with early agreement cost few calls; only contentious items use
        the full model list — the CrowdScreen insight that disagreement, not
        volume, should drive spending.
        """
        voter_models = list(models or ([self.model] if self.model else []))
        if len(voter_models) < 2:
            raise ConfigurationError("adaptive filtering needs at least two models")
        if agreement_margin < 1:
            raise ConfigurationError("agreement_margin must be at least 1")
        limit = max_votes_per_item or len(voter_models)
        decisions: dict[str, bool] = {}
        votes_used = 0
        for item in items:
            yes_votes = 0
            no_votes = 0
            for model in voter_models[:limit]:
                if self._check(item, model):
                    yes_votes += 1
                else:
                    no_votes += 1
                votes_used += 1
                if abs(yes_votes - no_votes) >= agreement_margin:
                    break
            decisions[item] = yes_votes > no_votes
        return FilterResult(strategy="adaptive", decisions=decisions, votes_used=votes_used)
