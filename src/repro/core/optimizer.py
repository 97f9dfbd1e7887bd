"""Automatic strategy selection (paper Section 4).

"Similar to AutoML, a declarative prompt engineering toolkit can shoulder the
burden of evaluating all strategies and recommend a strategy to apply to the
entire dataset, given a user-defined budget."  The :class:`StrategySelector`
does exactly that: it runs every candidate strategy on a small labelled
validation sample, measures accuracy and cost, extrapolates the cost to the
full dataset size, and picks the best strategy under the constraints.  It is
invoked by the :class:`~repro.core.physical.PhysicalPlanner` whenever an
``"auto"`` spec carries a labelled sample; specs without one are resolved
from :class:`~repro.core.planner.CostPlanner` estimates instead.

Selection rule:

1. discard candidates whose extrapolated full-run cost exceeds the budget;
2. among the survivors, if an accuracy target is given, pick the *cheapest*
   candidate that meets it; otherwise (or if none meets it) pick the most
   accurate one, breaking ties by cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import SpecError
from repro.operators.base import OperatorResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import CostEstimate


@dataclass
class StrategyCandidate:
    """One candidate strategy the selector may evaluate.

    Attributes:
        name: strategy name passed to the operator.
        options: strategy-specific keyword arguments.
        cost_scaling: how the cost grows with the number of data items:
            ``"linear"`` (O(n) unit tasks), ``"quadratic"`` (O(n²) pairs), or
            ``"constant"`` (a single prompt).  Used to extrapolate the
            validation-sample cost to the full dataset.
    """

    name: str
    options: dict[str, Any] = field(default_factory=dict)
    cost_scaling: str = "linear"

    def extrapolate_cost(self, validation_cost: float, validation_size: int, full_size: int) -> float:
        """Estimate the full-run cost from the validation-run cost."""
        if validation_size <= 0:
            return validation_cost
        ratio = full_size / validation_size
        if self.cost_scaling == "constant":
            return validation_cost
        if self.cost_scaling == "quadratic":
            return validation_cost * ratio * ratio
        return validation_cost * ratio


@dataclass
class StrategyEvaluation:
    """Measured performance of one candidate on the validation sample."""

    candidate: StrategyCandidate
    accuracy: float
    validation_cost: float
    estimated_full_cost: float
    result: OperatorResult | None = None

    @property
    def name(self) -> str:
        return self.candidate.name


class StrategySelector:
    """Evaluate candidate strategies on a validation sample and pick one.

    Args:
        run_candidate: callable that executes one candidate on the validation
            sample and returns an :class:`OperatorResult` (or subclass).
        score: callable mapping that result to an accuracy in [0, 1].
        validation_size: number of items in the validation sample.
        full_size: number of items in the full dataset.
    """

    def __init__(
        self,
        *,
        run_candidate: Callable[[StrategyCandidate], OperatorResult],
        score: Callable[[OperatorResult], float],
        validation_size: int,
        full_size: int,
    ) -> None:
        if validation_size <= 0 or full_size <= 0:
            raise SpecError("validation_size and full_size must be positive")
        self._run_candidate = run_candidate
        self._score = score
        self.validation_size = validation_size
        self.full_size = full_size

    def evaluate(self, candidates: list[StrategyCandidate]) -> list[StrategyEvaluation]:
        """Run every candidate on the validation sample and measure it."""
        if not candidates:
            raise SpecError("no candidate strategies supplied")
        evaluations = []
        for candidate in candidates:
            result = self._run_candidate(candidate)
            accuracy = self._score(result)
            validation_cost = result.cost
            evaluations.append(
                StrategyEvaluation(
                    candidate=candidate,
                    accuracy=accuracy,
                    validation_cost=validation_cost,
                    estimated_full_cost=candidate.extrapolate_cost(
                        validation_cost, self.validation_size, self.full_size
                    ),
                    result=result,
                )
            )
        return evaluations

    def select(
        self,
        candidates: list[StrategyCandidate],
        *,
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
    ) -> StrategyEvaluation:
        """Evaluate the candidates and pick the best one under the constraints."""
        evaluations = self.evaluate(candidates)
        affordable = [
            evaluation
            for evaluation in evaluations
            if budget_dollars is None or evaluation.estimated_full_cost <= budget_dollars
        ]
        pool = affordable or evaluations
        if accuracy_target is not None:
            meeting = [evaluation for evaluation in pool if evaluation.accuracy >= accuracy_target]
            if meeting:
                return min(meeting, key=lambda evaluation: evaluation.estimated_full_cost)
        return max(pool, key=lambda evaluation: (evaluation.accuracy, -evaluation.estimated_full_cost))


@dataclass(frozen=True)
class ResolvedStrategy:
    """The physical planner's decision for one spec.

    Attributes:
        strategy: the strategy the engine will execute.
        options: keyword arguments for the strategy.
        decided_by: ``"fixed"`` (explicit in the spec), ``"validation"``
            (measured on a labelled sample), or ``"cost"`` (picked from the
            planner's estimates under the remaining budget).
        estimate: the planner's cost estimate for the chosen strategy, when
            one could be computed.
        considered: the candidate strategy names that were in the running.
    """

    strategy: str
    options: dict[str, Any] = field(default_factory=dict)
    decided_by: str = "fixed"
    estimate: CostEstimate | None = None
    considered: tuple[str, ...] = ()
