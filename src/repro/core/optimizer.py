"""Automatic strategy selection on a labelled sample (paper Section 4).

"Similar to AutoML, a declarative prompt engineering toolkit can shoulder the
burden of evaluating all strategies and recommend a strategy to apply to the
entire dataset, given a user-defined budget."  Each operator declaration
(:mod:`repro.core.declarations`) states what that takes as data: its labelled
sample (the spec narrowed to the labelled items, plus their truth), the
:mod:`repro.metrics` function scoring a run against the truth, and its
candidates as ``(strategy, options)``.  :func:`select_on_sample` measures each
candidate's accuracy on the sample and prices it at the
:class:`~repro.core.planner.CostPlanner`'s quote of the *full* spec, with no
discount for the cache hit rate the sample itself feeds (a cached sample costs
nothing, so its own spend is no price).  A ``single_prompt`` candidate whose
one prompt does not fit the model's context is neither measured nor chosen.
:func:`choose` is the rule:

1. keep the candidates that fit the remaining budget (the spec's
   ``budget_dollars`` or the session's or step's budget left after the
   sample, whichever is tighter); when none fits, the cheapest wins;
2. with an accuracy target, pick the *cheapest* candidate meeting it;
   otherwise (or if none does) the most accurate, breaking ties by price.

A multi-predicate filter scores and prices its per-predicate combinations
and calls :func:`choose` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import Budget
    from repro.core.declarations import OperatorDeclaration
    from repro.core.physical import PhysicalPlanner
    from repro.core.planner import CostEstimate


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


class Measured(NamedTuple):
    """One candidate as the rule sees it: what it scored and what it costs."""

    #: What the caller picks among (a candidate's index, a filter's combination).
    key: Any
    accuracy: float
    dollars: float


def choose(
    measured: Sequence[Measured], *, remaining: float | None, accuracy_target: float | None
) -> Measured:
    """The selection rule (see the module docstring).

    Equal prices go to the more accurate entry, and full ties to the earlier.
    """
    affordable = [entry for entry in measured if remaining is None or entry.dollars <= remaining]
    if not affordable:
        return min(measured, key=lambda entry: (entry.dollars, -entry.accuracy))
    if accuracy_target is not None:
        meeting = [entry for entry in affordable if entry.accuracy >= accuracy_target]
        if meeting:
            return min(meeting, key=lambda entry: (entry.dollars, -entry.accuracy))
    return max(affordable, key=lambda entry: (entry.accuracy, -entry.dollars))


def dollars(estimate: "CostEstimate | None") -> float:
    """A candidate's price; one the planner cannot price fits no budget."""
    return math.inf if estimate is None else estimate.dollars


def select_on_sample(
    planner: "PhysicalPlanner",
    declaration: "OperatorDeclaration",
    spec: Any,
    budget: "Budget | None",
) -> ResolvedStrategy:
    """Measure the declaration's candidates on ``spec``'s labelled sample and pick one."""
    sample, truth = declaration.labelled(spec)
    considered = declaration.measured(planner, spec)
    candidates = [
        (name, options)
        for name, options in considered
        if planner._fits_context(declaration, spec, name)
    ]
    scores = []
    for name, options in candidates:
        result = declaration.measure(planner, sample, name, options, budget)
        scores.append(declaration.metric(declaration.predicted(result, sample), truth))
    # Undiscounted by the hit rate the sample just fed (see the module docstring).
    estimates = [planner._try_estimate(spec, *c, observed_hits=False) for c in candidates]
    measured = [
        Measured(index, score, dollars(estimate))
        for index, (score, estimate) in enumerate(zip(scores, estimates))
    ]
    remaining = planner._remaining_dollars(spec, budget)
    chosen = choose(measured, remaining=remaining, accuracy_target=spec.accuracy_target).key
    name, options = candidates[chosen]
    names = tuple(name for name, _ in considered)
    return ResolvedStrategy(name, dict(options), "validation", estimates[chosen], names)
