"""The physical-planning layer: strategy resolution plus runtime feedback.

The declarative contract of the paper is that users state *what* operation
they want and the system decides *how* to execute it.  Historically that
decision lived as ``if strategy == "auto"`` branches inside
:class:`~repro.core.engine.DeclarativeEngine`; this module extracts it into
an explicit layer with two halves:

* :class:`PhysicalPlanner` — for every declarative spec it enumerates the
  candidate strategies, then resolves one:

  1. an explicit ``spec.strategy`` passes through untouched (``"fixed"``);
  2. with a labelled validation sample (sort ``validation_order``, resolve
     ``validation_labels``, impute ground truth) the
     :class:`~repro.core.optimizer.StrategySelector` measures every
     candidate on the sample and extrapolates (``"validation"``);
  3. otherwise candidates are priced by the :class:`~repro.core.planner.
     CostPlanner` and the planner picks the *most preferred candidate whose
     estimated cost fits the remaining budget*, falling back to the
     cheapest when nothing fits (``"cost"``).  With no budget constraint
     this resolves to the paper's default strategy for the operator, so
     unconstrained behaviour is unchanged.

* :class:`~repro.core.stats.RuntimeStats` (re-exported here) — the store of
  *observed* execution statistics the engine records into after every
  operator run; the :class:`~repro.core.planner.CostPlanner` and the query
  optimizer consult it on subsequent quotes so the second quote of a
  workload is priced from what actually happened rather than from static
  priors.

Nothing here knows one operator from another: candidates, validation
samples and scorers, the shape a whole-list prompt must fit in context and
operator construction all come from the spec's
:mod:`declaration <repro.core.declarations>`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.declarations import OperatorDeclaration, declaration_for
from repro.core.optimizer import StrategySelector
from repro.core.planner import CostEstimate, CostPlanner
from repro.core.spec import PipelineSpec, TaskSpec
from repro.core.stats import RuntimeStats
from repro.exceptions import ConfigurationError, SpecError
from repro.metrics.classification import f1_score

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import Budget, BudgetLease
    from repro.core.session import PromptSession
    from repro.operators.base import BaseOperator


# -- resolved strategies ---------------------------------------------------------------


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


@dataclass(frozen=True)
class ResolvedStep:
    """One pipeline step with its strategy resolved ahead of execution."""

    name: str
    spec: TaskSpec
    resolved: ResolvedStrategy


@dataclass(frozen=True)
class PhysicalPlan:
    """A physical plan: per-step resolved strategies for a pipeline.

    ``deferred`` lists steps whose resolution must wait for run time:
    spec factories (their inputs only exist once upstream steps have run)
    and validation-driven ``auto`` specs (resolving them runs candidate
    strategies on the labelled sample — real LLM spend, which a pre-flight
    inspection must not incur).
    """

    pipeline: str
    steps: tuple[ResolvedStep, ...]
    deferred: tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable rendering of the resolved plan."""
        lines = [f"Physical plan: {self.pipeline}"]
        for step in self.steps:
            resolved = step.resolved
            if resolved.estimate is not None:
                cost = f"{resolved.estimate.calls} calls, ${resolved.estimate.dollars:.6f}"
                if resolved.estimate.seconds is not None:
                    cost += f", ~{resolved.estimate.seconds:.1f}s"
            else:
                cost = "unquoted"
            lines.append(
                f"  {step.name}: {resolved.strategy} "
                f"[{resolved.decided_by}] ({cost})"
            )
        for name in self.deferred:
            lines.append(
                f"  {name}: resolved at run time "
                "(spec factory, or validation runs on the labelled sample)"
            )
        return "\n".join(lines)


# -- the planner -----------------------------------------------------------------------

#: How many of the cheapest chat models form the default ensemble when a
#: filter/categorize spec asks for validation-driven selection without
#: naming voter models itself.
_DEFAULT_ENSEMBLE_SIZE = 3

#: Per-predicate strategy search enumerates candidate^predicate combos;
#: beyond this many predicates it falls back to one conjunction-level choice.
_MAX_PER_PREDICATE_SEARCH = 4


class PhysicalPlanner:
    """Resolve declarative specs to concrete strategies (see module docstring).

    Args:
        session: the prompt session validation candidates run against (and
            whose :class:`RuntimeStats` feed the cost estimates).
        default_model: model operators run on; defaults to the session's
            configured chat model.
        stats: override the statistics store (defaults to the session's).
    """

    def __init__(
        self,
        session: "PromptSession",
        *,
        default_model: str | None = None,
        stats: RuntimeStats | None = None,
    ) -> None:
        self.session = session
        self.default_model = default_model
        self.stats = stats if stats is not None else session.stats
        self._planners: dict[tuple[str, bool], CostPlanner] = {}

    # -- planner access --------------------------------------------------------------

    def planner_model(self, model: str | None = None) -> str:
        """The model estimates are priced on."""
        return model or self.default_model or self.session.config.chat_model

    def cost_planner(self, model: str | None = None, *, with_stats: bool = True) -> CostPlanner:
        """A (cached) cost planner, optionally fed by the observed stats."""
        name = self.planner_model(model)
        key = (name, with_stats)
        if key not in self._planners:
            self._planners[key] = CostPlanner(
                name,
                registry=self.session.registry,
                stats=self.stats if with_stats else None,
                # The durable response cache (when the session has one) lets
                # quotes price already-answered prompts at zero; the
                # stats-free planner is the structural baseline for call
                # ratios and must stay undiscounted.
                response_cache=self.session.cache if with_stats else None,
            )
        return self._planners[key]

    def operator_kwargs(self, budget: "Budget | BudgetLease | None" = None) -> dict:
        """Keyword arguments the engine passes to every operator it builds.

        A pipeline step passes its per-step :class:`~repro.core.budget.
        BudgetLease` so a spend limit stops a large batch between unit
        tasks; otherwise the session budget is charged.
        """
        return {
            "model": self.default_model,
            "cost_model": self.session.cost_model,
            "max_concurrency": self.session.max_concurrency,
            "budget": budget if budget is not None else self.session.budget,
            # One admission point for the whole pipeline: every operator the
            # engine builds shares the session's governor (rate limits and
            # in-flight slots are global properties of the backend, not of
            # any single operator).
            "governor": self.session.governor,
        }

    def build_operator(
        self, spec: TaskSpec, budget: "Budget | BudgetLease | None" = None
    ) -> "BaseOperator":
        """The spec's operator over the session client, charged to ``budget``."""
        return declaration_for(spec).build(
            spec, self.session.client(budget), **self.operator_kwargs(budget)
        )

    # -- resolution ------------------------------------------------------------------

    def resolve(
        self,
        spec: TaskSpec,
        *,
        budget: "Budget | BudgetLease | None" = None,
        estimate_fixed: bool = False,
    ) -> ResolvedStrategy:
        """Resolve the strategy one spec will execute (see module docstring).

        ``estimate_fixed`` attaches a cost estimate even to explicitly-fixed
        strategies; the execution hot path leaves it off — an explicit
        strategy needs no pricing to run, and tokenizing the whole corpus
        per call would be pure overhead.  :meth:`plan_pipeline` turns it on
        so physical plans stay informative.
        """
        if spec.strategy != "auto":
            return ResolvedStrategy(
                strategy=spec.strategy,
                options=dict(spec.strategy_options),
                decided_by="fixed",
                estimate=self._try_estimate(spec) if estimate_fixed else None,
                considered=(spec.strategy,),
            )
        validated = self._resolve_by_validation(spec, budget)
        if validated is not None:
            return validated
        return self._resolve_by_cost(spec, budget, want_estimate=estimate_fixed)

    def plan_pipeline(self, pipeline: PipelineSpec) -> PhysicalPlan:
        """Resolve every statically-resolvable step of a pipeline up front.

        This is a *free* inspection: it never issues an LLM call.  Spec
        factories and validation-driven ``auto`` specs (whose resolution
        runs candidate strategies on the labelled sample, spending real
        money) are listed as deferred and resolved when the engine
        executes them.
        """
        pipeline.validate()
        steps: list[ResolvedStep] = []
        deferred: list[str] = []
        for step in pipeline.steps:
            if isinstance(step.task, TaskSpec):
                if step.task.strategy == "auto" and self.would_validate(step.task):
                    deferred.append(step.name)
                else:
                    steps.append(
                        ResolvedStep(
                            name=step.name,
                            spec=step.task,
                            resolved=self.resolve(step.task, estimate_fixed=True),
                        )
                    )
            elif step.task is not None:
                deferred.append(step.name)
        return PhysicalPlan(
            pipeline=pipeline.name, steps=tuple(steps), deferred=tuple(deferred)
        )

    def would_validate(self, spec: TaskSpec) -> bool:
        """Whether an ``"auto"`` spec qualifies for validation-driven selection."""
        declaration = declaration_for(spec)
        return declaration.validation_size(spec) >= declaration.min_validation

    # -- cost-based selection ---------------------------------------------------------

    def _resolve_by_cost(
        self,
        spec: TaskSpec,
        budget: "Budget | BudgetLease | None",
        *,
        want_estimate: bool = False,
    ) -> ResolvedStrategy:
        """Pick the most preferred candidate whose estimate fits the budget.

        Candidates are ordered by the paper's cost/quality preference for
        the operator (the historical ``auto`` default first), so an
        unconstrained resolve reproduces the old fixed mapping exactly; a
        binding budget walks down the list to something affordable, and
        when nothing fits the cheapest estimate wins (the engine would
        rather degrade than refuse).

        With no dollar cap the choice needs no prices at all, so nothing
        is estimated (pricing tokenizes the whole corpus per candidate —
        pure overhead on the execution hot path) unless ``want_estimate``
        asks for the chosen candidate's quote (physical-plan inspection).
        """
        declaration = declaration_for(spec)
        candidates = declaration.candidates(spec)
        considered = tuple(name for name, _ in candidates)
        remaining = self._remaining_dollars(spec, budget)

        if remaining is None:
            for name, options in candidates:
                if self._fits_context(declaration, spec, name):
                    estimate = (
                        self._try_estimate(spec, name, options) if want_estimate else None
                    )
                    return ResolvedStrategy(name, options, "cost", estimate, considered)
            name, options = candidates[0]
            return ResolvedStrategy(name, options, "cost", None, considered)

        priced = [
            (name, options, self._try_estimate(spec, name, options))
            for name, options in candidates
        ]
        eligible = [
            entry
            for entry in priced
            if entry[2] is not None and self._fits_context(declaration, spec, entry[0])
        ]
        for name, options, estimate in eligible:
            if estimate.dollars <= remaining:
                return ResolvedStrategy(name, options, "cost", estimate, considered)
        name, options, estimate = (
            min(eligible, key=lambda entry: entry[2].dollars) if eligible else priced[0]
        )
        return ResolvedStrategy(name, options, "cost", estimate, considered)

    def _remaining_dollars(
        self, spec: TaskSpec, budget: "Budget | BudgetLease | None"
    ) -> float | None:
        """The tightest dollar cap this spec must fit under, or ``None``."""
        caps: list[float] = []
        if spec.budget_dollars is not None:
            caps.append(spec.budget_dollars)
        if budget is not None and not budget.unlimited:
            caps.append(budget.remaining)
        return min(caps) if caps else None

    def _try_estimate(
        self,
        spec: TaskSpec,
        strategy: str | None = None,
        options: Mapping[str, Any] | None = None,
    ) -> CostEstimate | None:
        """Estimate a spec at a candidate strategy; ``None`` when unpriceable."""
        try:
            candidate = spec
            if strategy is not None:
                candidate = replace(
                    spec,
                    strategy=strategy,
                    strategy_options={**spec.strategy_options, **(options or {})},
                )
            return self.cost_planner().estimate_spec(candidate)
        except (SpecError, ConfigurationError):
            return None

    def _fits_context(
        self, declaration: OperatorDeclaration, spec: TaskSpec, strategy: str
    ) -> bool:
        """A whole-list strategy's one prompt must fit the model context to be eligible."""
        if strategy != "single_prompt":
            return True
        planner = self.cost_planner()
        try:
            prompt = declaration.shapes[strategy](planner, spec)
        except ConfigurationError:  # nothing to pack into the prompt
            return True
        return prompt.usage.prompt_tokens <= planner.spec.context_length

    # -- validation-driven selection --------------------------------------------------

    def _resolve_by_validation(
        self, spec: TaskSpec, budget: "Budget | BudgetLease | None"
    ) -> ResolvedStrategy | None:
        """Measure candidates on the spec's labelled sample, when it has one."""
        if not self.would_validate(spec):
            return None
        declaration = declaration_for(spec)
        validation = declaration.validation(self, spec, budget)
        selector = StrategySelector(
            run_candidate=validation.run,
            score=validation.score,
            validation_size=declaration.validation_size(spec),
            full_size=validation.full_size,
        )
        chosen = selector.select(
            validation.candidates,
            budget_dollars=spec.budget_dollars,
            accuracy_target=spec.accuracy_target,
        ).candidate
        return ResolvedStrategy(
            strategy=chosen.name,
            options=dict(chosen.options),
            decided_by="validation",
            estimate=self._try_estimate(spec, chosen.name, chosen.options),
        )

    def _ensemble_models(self, spec: TaskSpec) -> list[str]:
        """Voter models for filter/categorize ensemble candidates.

        An explicit ``strategy_options["models"]`` wins; otherwise the
        cheapest chat models in the session registry form the default panel
        (diverse-but-affordable voters, the quality-control setting of
        paper Section 3.5).  Fewer than two voters disables the ensemble
        candidates — a one-model "ensemble" is just per-item with overhead.
        """
        explicit = spec.strategy_options.get("models")
        if explicit:
            return [str(model) for model in explicit]
        by_cost = self.session.registry.chat_models_by_cost()
        return [model.name for model in by_cost[:_DEFAULT_ENSEMBLE_SIZE]]

    def resolve_filter(
        self,
        spec: TaskSpec,
        *,
        budget: "Budget | BudgetLease | None" = None,
    ) -> list[tuple[str, ResolvedStrategy]]:
        """Resolve a filter spec to one strategy *per predicate*, in order.

        A fixed strategy, a single-predicate spec, or an ``auto`` spec with
        no usable validation sample resolves exactly like :meth:`resolve`
        and applies that one choice to every predicate — unchanged
        behaviour.  A multi-predicate ``auto`` spec *with* validation
        labels searches per-predicate strategy combinations instead: the
        labels score the conjunction, so a cheap ``per_item`` pass on an
        easy predicate can precede an ensemble vote on the hard one
        without giving up conjunction-level accuracy.
        """
        predicates = list(spec.all_predicates)
        if spec.strategy != "auto":
            fixed = ResolvedStrategy(
                strategy=spec.strategy,
                options=dict(spec.strategy_options),
                decided_by="fixed",
                considered=(spec.strategy,),
            )
            return [(predicate, fixed) for predicate in predicates]
        if (
            len(predicates) > 1
            and len(predicates) <= _MAX_PER_PREDICATE_SEARCH
            and self.would_validate(spec)
        ):
            return self._validate_filter_per_predicate(spec, budget)
        shared = self.resolve(spec, budget=budget)
        return [(predicate, shared) for predicate in predicates]

    def _validate_filter_per_predicate(
        self, spec: TaskSpec, budget: "Budget | BudgetLease | None"
    ) -> list[tuple[str, ResolvedStrategy]]:
        """Search per-predicate strategy combinations on the labelled sample.

        Each candidate strategy judges each predicate over the *full*
        sample (not a shrinking survivor set — the search needs every
        predicate's decision on every item to score arbitrary
        combinations), then every candidate^predicate combination is
        scored by the F1 of its AND-ed decisions against the conjunction
        labels.  With an ``accuracy_target`` the cheapest combination
        meeting it wins; otherwise the best-scoring one, with measured
        sample cost as the tie-break so a cheap ``per_item`` pass beats
        an equally-accurate ensemble.
        """
        labels = {str(item): bool(keep) for item, keep in spec.validation_labels.items()}
        sample = list(labels)
        truth = [labels[item] for item in sample]
        declaration = declaration_for(spec)
        candidates = declaration.validation(self, spec, budget).candidates
        predicates = list(spec.all_predicates)
        considered = tuple(candidate.name for candidate in candidates)

        # decisions/cost of candidate ``c`` judging predicate ``p`` alone.
        measured: dict[tuple[int, int], tuple[dict[str, bool], float]] = {}
        for p, predicate in enumerate(predicates):
            for c, candidate in enumerate(candidates):
                operator = declaration.predicate_operator(self, predicate, budget)
                result = operator.run(sample, strategy=candidate.name, **candidate.options)
                measured[(p, c)] = (dict(result.decisions), result.cost)

        best_combo: tuple[int, ...] | None = None
        best_key: tuple[float, float] | None = None
        target_combo: tuple[int, ...] | None = None
        target_cost: float | None = None
        for combo in itertools.product(range(len(candidates)), repeat=len(predicates)):
            predictions = [
                all(measured[(p, c)][0].get(item, False) for p, c in enumerate(combo))
                for item in sample
            ]
            score = f1_score(predictions, truth)
            cost = sum(measured[(p, c)][1] for p, c in enumerate(combo))
            key = (score, -cost)
            if best_key is None or key > best_key:
                best_key, best_combo = key, combo
            if spec.accuracy_target is not None and score >= spec.accuracy_target:
                if target_cost is None or cost < target_cost:
                    target_cost, target_combo = cost, combo
        chosen = target_combo if target_combo is not None else best_combo
        assert chosen is not None  # the product is non-empty
        return [
            (
                predicates[p],
                ResolvedStrategy(
                    strategy=candidates[c].name,
                    options=dict(candidates[c].options),
                    decided_by="validation",
                    considered=considered,
                ),
            )
            for p, c in enumerate(chosen)
        ]

    # -- feedback --------------------------------------------------------------------

    def record_run(self, spec: TaskSpec, resolved: ResolvedStrategy, result: Any) -> None:
        """Record an operator run's call count against its pre-run estimate.

        The baseline is the *stats-free* structural estimate of the spec
        at the strategy that **actually executed** — never the authored
        ``"auto"`` — so a budget-downgraded or validation-selected run can
        only feed the ratio of its own strategy, not poison the default's
        (the planner maps auto-labelled quotes to the default strategy's
        key when it looks ratios up).  Filter specs are excluded — their
        error is explained by predicate selectivity, which is recorded
        separately (applying both would double-correct).

        This prices one structural (stats-free) estimate per run — a local
        tokenizer arithmetic pass.  Unlike the fixed-path estimate
        ``resolve`` skips, this one is *used* (it is the ratio's
        denominator), and it is negligible next to the 1..O(n²) LLM calls
        the operator itself just made.
        """
        try:
            executed = replace(
                spec,
                strategy=resolved.strategy,
                strategy_options={**spec.strategy_options, **resolved.options},
            )
            structural = self.cost_planner(with_stats=False)
            if not declaration_for(executed).call_ratio_applies(structural, executed):
                return
            baseline = structural.estimate_spec(executed)
        except (SpecError, ConfigurationError):
            return
        usage = getattr(result, "usage", None)
        actual = getattr(usage, "calls", None)
        if actual is None:
            return
        self.stats.record_calls(
            baseline.strategy, estimated=baseline.calls, actual=int(actual)
        )
