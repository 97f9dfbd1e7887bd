"""The categorize operator: assign items to a fixed set of categories.

"Categorize" is one of the primitives the paper's Section 3 lists alongside
sort, filter, and resolve.  Unlike :mod:`repro.operators.cluster`, the
category labels are known in advance; the task per item is a multiple-choice
question, so the quality-control machinery (self-consistency sampling and
multi-model voting, Section 3.5) applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.executor import BatchRequest
from repro.exceptions import ConfigurationError, ResponseParseError
from repro.llm.prompts import CATEGORIZE
from repro.operators.base import BaseOperator, OperatorResult
from repro.quality.voting import majority_vote


@dataclass
class CategorizeResult(OperatorResult):
    """Output of a categorization run."""

    assignments: dict[str, str] = field(default_factory=dict)
    votes_used: int = 0


class CategorizeOperator(BaseOperator):
    """Assign each item to one of a fixed set of category labels."""

    operation = "categorize"

    def __init__(self, client, categories: Sequence[str], **kwargs) -> None:
        labels = [str(category) for category in categories]
        if len(labels) < 2:
            raise ConfigurationError("need at least two categories")
        if len(set(labels)) != len(labels):
            raise ConfigurationError("categories must be distinct")
        self.categories = tuple(labels)
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("per_item", self._run_per_item)
        self.register_strategy("self_consistency", self._run_self_consistency)
        self.register_strategy("ensemble_vote", self._run_ensemble_vote)

    def run(self, items: Sequence[str], *, strategy: str = "per_item", **kwargs) -> CategorizeResult:
        """Categorize ``items`` with the named strategy."""
        item_list = [str(item) for item in items]
        return self._run(strategy, item_list, **kwargs)

    # -- helpers --------------------------------------------------------------------

    def _ask(self, item: str, model: str | None = None, temperature: float = 0.0) -> str:
        response = self._complete(
            CATEGORIZE.render([item], (self.categories,)), model=model, temperature=temperature
        )
        return self._parse_choice(response.text)

    def _parse_choice(self, text: str) -> str:
        try:
            return CATEGORIZE.read(text, fields=(self.categories,))
        except ResponseParseError:
            return self.categories[0]

    # -- strategies ------------------------------------------------------------------

    def _run_per_item(self, items: list[str]) -> CategorizeResult:
        # Independent multiple-choice tasks: dispatch the lot as one batch.
        responses = self._complete_batch(
            [CATEGORIZE.render([item], (self.categories,)) for item in items], model=self.model
        )
        assignments = {
            item: self._parse_choice(response.text) for item, response in zip(items, responses)
        }
        return CategorizeResult(
            strategy="per_item", assignments=assignments, votes_used=len(items)
        )

    def _run_self_consistency(
        self, items: list[str], *, n_samples: int = 3, temperature: float = 0.7
    ) -> CategorizeResult:
        if n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
        # Temperature > 0 sampling stays sequential: the simulated client's
        # sample counter makes draw order part of the observable behaviour.
        assignments: dict[str, str] = {}
        votes_used = 0
        for item in items:
            samples = [
                self._ask(item, self.model, temperature=temperature) for _ in range(n_samples)
            ]
            votes_used += n_samples
            assignments[item] = str(majority_vote(samples).winner)
        return CategorizeResult(
            strategy="self_consistency", assignments=assignments, votes_used=votes_used
        )

    def _run_ensemble_vote(
        self, items: list[str], *, models: Sequence[str] | None = None
    ) -> CategorizeResult:
        voter_models = list(models or ([self.model] if self.model else []))
        if len(voter_models) < 2:
            raise ConfigurationError("ensemble_vote needs at least two models")
        # Every (item, model) ballot is independent: one item-major batch.
        requests = [
            BatchRequest(prompt=CATEGORIZE.render([item], (self.categories,)), model=model)
            for item in items
            for model in voter_models
        ]
        responses = iter(self._complete_requests(requests))
        assignments: dict[str, str] = {}
        votes_used = 0
        for item in items:
            samples = [self._parse_choice(next(responses).text) for _ in voter_models]
            votes_used += len(samples)
            assignments[item] = str(majority_vote(samples).winner)
        return CategorizeResult(
            strategy="ensemble_vote", assignments=assignments, votes_used=votes_used
        )
