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

* :class:`RuntimeStats` — a thread-safe store of *observed* execution
  statistics: per-predicate filter selectivities, dedup survivor ratios and
  pair match rates, join match selectivities, and per-strategy call counts
  (estimated vs. actual).  The engine records into it after every operator
  run; the :class:`~repro.core.planner.CostPlanner` and the query
  optimizer consult it on subsequent quotes so the second quote of a
  workload is priced from what actually happened rather than from static
  priors.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.optimizer import StrategyCandidate, StrategySelector
from repro.core.planner import CostEstimate, CostPlanner
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    PipelineSpec,
    ResolveSpec,
    SortSpec,
    TaskSpec,
    TopKSpec,
)
from repro.data.products import ImputationDataset
from repro.data.record import Dataset
from repro.exceptions import ConfigurationError, SpecError
from repro.metrics.classification import accuracy as exact_match_accuracy
from repro.metrics.classification import f1_score
from repro.metrics.ranking import kendall_tau_b
from repro.operators.categorize import CategorizeOperator, CategorizeResult
from repro.operators.filter import FilterOperator, FilterResult
from repro.operators.impute import ImputeOperator, ImputeResult
from repro.operators.resolve import PairJudgmentResult, ResolveOperator
from repro.operators.sort import SortOperator, SortResult
from repro.tokenizer.simple import SimpleTokenizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import Budget, BudgetLease
    from repro.core.session import PromptSession


# -- runtime statistics ----------------------------------------------------------------


@dataclass
class _Ratio:
    """A running numerator/denominator pair (observed fraction)."""

    numerator: float = 0.0
    denominator: float = 0.0

    @property
    def value(self) -> float | None:
        if self.denominator <= 0:
            return None
        return self.numerator / self.denominator


class RuntimeStats:
    """Observed execution statistics, fed back into subsequent quotes.

    All recorders are thread-safe (pipeline steps run concurrently).  Every
    getter returns ``None`` until at least one observation exists, so a
    fresh session quotes exactly from the static priors.
    """

    #: Per-label latency reservoir bound: enough samples for stable p95
    #: estimates while keeping exported profiles small.
    LATENCY_SAMPLE_CAP = 512

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._filter: dict[str, _Ratio] = {}
        self._dedup = _Ratio()
        self._pair_match = _Ratio()
        self._join = _Ratio()
        self._blocked_pairs = _Ratio()
        self._probe_candidates = _Ratio()
        self._calls: dict[str, _Ratio] = {}
        self._call_counts: dict[str, float] = {}
        self._runs: dict[str, float] = {}
        # Per-operator/strategy call durations (ms), most recent last; fed by
        # the session's tracer so quotes can carry wall-clock estimates.
        self._latency: dict[str, list[float]] = {}
        # Session-global cache hits over requests, also fed per traced call;
        # the planner discounts dollar quotes by the observed hit rate.
        self._cache = _Ratio()
        # Per-pipeline critical-path wall-clock seconds (mean over runs),
        # fed by the engine's span tree after each pipeline execution.
        self._critical_path: dict[str, _Ratio] = {}

    # -- recorders -------------------------------------------------------------------

    def record_filter(self, predicate: str, *, evaluated: int, kept: int) -> None:
        """Record one predicate pass: ``kept`` of ``evaluated`` items survived."""
        if evaluated <= 0:
            return
        with self._lock:
            ratio = self._filter.setdefault(predicate, _Ratio())
            ratio.numerator += kept
            ratio.denominator += evaluated

    def record_dedup(self, *, inputs: int, survivors: int) -> None:
        """Record a whole-corpus dedup: ``survivors`` clusters from ``inputs`` records."""
        if inputs <= 0:
            return
        with self._lock:
            self._dedup.numerator += survivors
            self._dedup.denominator += inputs

    def record_pair_match(self, *, judged: int, duplicates: int) -> None:
        """Record a pair-judgment run: ``duplicates`` of ``judged`` pairs matched."""
        if judged <= 0:
            return
        with self._lock:
            self._pair_match.numerator += duplicates
            self._pair_match.denominator += judged

    def record_join(self, *, left: int, matched: int) -> None:
        """Record a semi-join: ``matched`` of ``left`` records found a partner."""
        if left <= 0:
            return
        with self._lock:
            self._join.numerator += matched
            self._join.denominator += left

    def record_blocked_pairs(self, *, candidates: int, upper_bound: int) -> None:
        """Record a blocking run: the mutual-neighbor blocker emitted
        ``candidates`` pairs where the k·n bound allowed ``upper_bound``."""
        if upper_bound <= 0:
            return
        with self._lock:
            self._blocked_pairs.numerator += candidates
            self._blocked_pairs.denominator += upper_bound

    def record_probe_candidates(self, *, candidates: int, probed: int) -> None:
        """Record vector-index probes: ``candidates`` rows were distance-ranked
        across ``probed`` probes.  The rate is a mean candidate count per
        probe (it can exceed 1), which is what prices an LSH probe against
        the exact index's full-corpus rank."""
        if probed <= 0:
            return
        with self._lock:
            self._probe_candidates.numerator += candidates
            self._probe_candidates.denominator += probed

    def record_calls(self, label: str, *, estimated: int, actual: int) -> None:
        """Record a strategy run: the planner quoted ``estimated`` calls, it took ``actual``."""
        with self._lock:
            self._call_counts[label] = self._call_counts.get(label, 0.0) + actual
            self._runs[label] = self._runs.get(label, 0.0) + 1
            if estimated > 0:
                ratio = self._calls.setdefault(label, _Ratio())
                ratio.numerator += actual
                ratio.denominator += estimated

    def record_latency(self, label: str, duration_ms: float) -> None:
        """Record one call's wall-clock duration under a strategy label.

        The session's tracer feeds this for every traced call that carries
        an operator label, so the reservoir blends live-call and cache-hit
        durations in their observed proportions — which is exactly the
        per-call latency a quote should extrapolate from.
        """
        if duration_ms < 0:
            return
        with self._lock:
            samples = self._latency.setdefault(label, [])
            samples.append(float(duration_ms))
            if len(samples) > self.LATENCY_SAMPLE_CAP:
                del samples[: len(samples) - self.LATENCY_SAMPLE_CAP]

    def record_critical_path(self, pipeline: str, seconds: float) -> None:
        """Record one pipeline run's observed critical-path wall-clock.

        The engine measures the longest dependent chain of step spans after
        each run (see :func:`repro.obs.critical_path`), which is the
        wall-clock a concurrency-aware quote should predict — independent
        branches overlap, so the sum of step durations overstates reality.
        """
        if seconds < 0:
            return
        with self._lock:
            ratio = self._critical_path.setdefault(pipeline, _Ratio())
            ratio.numerator += seconds
            ratio.denominator += 1

    def record_cache(self, *, hit: bool, requests: int = 1) -> None:
        """Record cacheable session traffic: ``requests`` calls, hit or missed."""
        if requests <= 0:
            return
        with self._lock:
            self._cache.numerator += requests if hit else 0
            self._cache.denominator += requests

    # -- observations ----------------------------------------------------------------

    def filter_selectivity(self, predicate: str) -> float | None:
        """Observed surviving fraction of ``predicate``, or ``None``."""
        with self._lock:
            ratio = self._filter.get(predicate)
            return ratio.value if ratio is not None else None

    def dedup_survivor_ratio(self) -> float | None:
        """Observed clusters-per-record ratio of whole-corpus dedups."""
        with self._lock:
            return self._dedup.value

    def pair_match_rate(self) -> float | None:
        """Observed duplicate fraction among judged pairs."""
        with self._lock:
            return self._pair_match.value

    def join_selectivity(self) -> float | None:
        """Observed fraction of left records with at least one join match."""
        with self._lock:
            return self._join.value

    def blocked_pair_rate(self) -> float | None:
        """Observed candidate-pair fraction of the blocker's k·n upper bound."""
        with self._lock:
            return self._blocked_pairs.value

    def probe_candidate_rate(self) -> float | None:
        """Observed mean candidates ranked per index probe, or ``None``."""
        with self._lock:
            return self._probe_candidates.value

    def call_ratio(self, label: str) -> float | None:
        """Observed actual/estimated call ratio for a strategy label."""
        with self._lock:
            ratio = self._calls.get(label)
            return ratio.value if ratio is not None else None

    def call_count(self, label: str) -> int:
        """Total observed calls recorded under a strategy label.

        Decay-weighted history merged from a workload profile contributes
        fractionally; the reported count rounds to the nearest whole call.
        """
        with self._lock:
            return int(round(self._call_counts.get(label, 0.0)))

    def run_count(self, label: str) -> int:
        """How many operator runs were recorded under a strategy label."""
        with self._lock:
            return int(round(self._runs.get(label, 0.0)))

    def latency_percentile(self, label: str, quantile: float) -> float | None:
        """The ``quantile`` (in [0, 1]) of observed call durations, in ms.

        Nearest-rank on the retained reservoir; ``None`` until at least one
        duration was recorded under ``label``.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ConfigurationError("quantile must be within [0, 1]")
        with self._lock:
            samples = self._latency.get(label)
            if not samples:
                return None
            ordered = sorted(samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
        return ordered[rank]

    def latency_p50(self, label: str) -> float | None:
        """Median observed call duration (ms) under a strategy label."""
        return self.latency_percentile(label, 0.5)

    def latency_p95(self, label: str) -> float | None:
        """95th-percentile observed call duration (ms) under a strategy label."""
        return self.latency_percentile(label, 0.95)

    def latency_labels(self) -> list[str]:
        """Strategy labels with at least one recorded duration."""
        with self._lock:
            return sorted(label for label, samples in self._latency.items() if samples)

    def cache_hit_rate(self) -> float | None:
        """Observed cache-hit fraction of session traffic, or ``None``."""
        with self._lock:
            return self._cache.value

    def critical_path_seconds(self, pipeline: str) -> float | None:
        """Mean observed critical-path seconds of a pipeline, or ``None``."""
        with self._lock:
            ratio = self._critical_path.get(pipeline)
            return ratio.value if ratio is not None else None

    @property
    def empty(self) -> bool:
        """Whether nothing has been recorded yet."""
        with self._lock:
            return not (
                self._filter
                or self._calls
                or self._call_counts
                or self._latency
                or self._dedup.denominator
                or self._pair_match.denominator
                or self._join.denominator
                or self._blocked_pairs.denominator
                or self._probe_candidates.denominator
                or self._cache.denominator
                or self._critical_path
            )

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every observed statistic (for debugging/explain)."""
        with self._lock:
            return {
                "filter_selectivity": {
                    predicate: ratio.value for predicate, ratio in self._filter.items()
                },
                "dedup_survivor_ratio": self._dedup.value,
                "pair_match_rate": self._pair_match.value,
                "join_selectivity": self._join.value,
                "blocked_pair_rate": self._blocked_pairs.value,
                "probe_candidate_rate": self._probe_candidates.value,
                "call_ratio": {label: ratio.value for label, ratio in self._calls.items()},
                "call_count": {
                    label: int(round(count)) for label, count in self._call_counts.items()
                },
                "cache_hit_rate": self._cache.value,
                "critical_path_seconds": {
                    pipeline: ratio.value
                    for pipeline, ratio in self._critical_path.items()
                },
                "latency_samples": {
                    label: len(samples) for label, samples in self._latency.items()
                },
            }

    # -- durable state (workload profiles) ---------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Every accumulator as plain JSON-shaped data (see ``repro.store``).

        The export carries raw numerator/denominator pairs rather than the
        derived ratios, so merging two states (or decay-scaling one) keeps
        the evidence-weighting exact: a ratio observed over 1000 items
        outweighs one observed over 10.
        """

        def pair(ratio: _Ratio) -> list[float]:
            return [ratio.numerator, ratio.denominator]

        with self._lock:
            return {
                "filter": {predicate: pair(r) for predicate, r in self._filter.items()},
                "dedup": pair(self._dedup),
                "pair_match": pair(self._pair_match),
                "join": pair(self._join),
                "blocked_pairs": pair(self._blocked_pairs),
                "probe_candidates": pair(self._probe_candidates),
                "calls": {label: pair(r) for label, r in self._calls.items()},
                "call_counts": dict(self._call_counts),
                "runs": dict(self._runs),
                "cache": pair(self._cache),
                "critical_path": {
                    pipeline: pair(r) for pipeline, r in self._critical_path.items()
                },
                "latency": {label: list(samples) for label, samples in self._latency.items()},
            }

    def merge_state(self, state: Mapping[str, Any], *, weight: float = 1.0) -> None:
        """Add an exported state's counts into this store, scaled by ``weight``.

        ``weight < 1`` is how workload profiles decay: saved observations
        arrive with reduced evidence mass, so fresh observations of the
        same statistic overtake them instead of being averaged away.
        Scaling numerator and denominator alike leaves the merged *ratios*
        identical to the saved ones until new evidence lands.
        """
        if weight <= 0:
            return

        def add(ratio: _Ratio, pair: Any) -> None:
            numerator, denominator = pair
            ratio.numerator += float(numerator) * weight
            ratio.denominator += float(denominator) * weight

        with self._lock:
            for predicate, pair in dict(state.get("filter", {})).items():
                add(self._filter.setdefault(predicate, _Ratio()), pair)
            add(self._dedup, state.get("dedup", (0, 0)))
            add(self._pair_match, state.get("pair_match", (0, 0)))
            add(self._join, state.get("join", (0, 0)))
            add(self._blocked_pairs, state.get("blocked_pairs", (0, 0)))
            add(self._probe_candidates, state.get("probe_candidates", (0, 0)))
            for label, pair in dict(state.get("calls", {})).items():
                add(self._calls.setdefault(label, _Ratio()), pair)
            for label, count in dict(state.get("call_counts", {})).items():
                self._call_counts[label] = (
                    self._call_counts.get(label, 0.0) + float(count) * weight
                )
            for label, count in dict(state.get("runs", {})).items():
                self._runs[label] = self._runs.get(label, 0.0) + float(count) * weight
            add(self._cache, state.get("cache", (0, 0)))
            for pipeline, pair in dict(state.get("critical_path", {})).items():
                add(self._critical_path.setdefault(pipeline, _Ratio()), pair)
            # Latency samples have no numerator/denominator to scale, so
            # decay keeps a weight-sized share of the *most recent* saved
            # samples — history fades by shrinking its sample mass, and the
            # merged reservoir stays bounded.
            for label, saved in dict(state.get("latency", {})).items():
                saved = [float(value) for value in saved]
                keep = int(round(len(saved) * min(1.0, weight)))
                if keep <= 0:
                    continue
                samples = self._latency.setdefault(label, [])
                samples.extend(saved[-keep:])
                if len(samples) > self.LATENCY_SAMPLE_CAP:
                    del samples[: len(samples) - self.LATENCY_SAMPLE_CAP]


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

#: Minimum labelled sample sizes before validation-driven selection pays.
_MIN_SORT_VALIDATION = 3
_MIN_RESOLVE_VALIDATION = 5
_MIN_IMPUTE_VALIDATION = 5
_MIN_FILTER_VALIDATION = 5
_MIN_CATEGORIZE_VALIDATION = 5

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
        self._tokenizer = SimpleTokenizer()

    # -- planner access --------------------------------------------------------------

    def planner_model(self, model: str | None = None) -> str:
        """The model estimates are priced on."""
        return model or self.default_model or self.session.config.chat_model

    def cost_planner(self, model: str | None = None, *, with_stats: bool = True) -> CostPlanner:
        """A (cached) cost planner, optionally fed by the observed stats."""
        name = self.planner_model(model)
        key = (name, with_stats)
        if key not in self._planners:
            planner = self._planners[key] = CostPlanner(
                name,
                registry=self.session.registry,
                stats=self.stats if with_stats else None,
                # The durable response cache (when the session has one) lets
                # quotes price already-answered prompts at zero; the
                # stats-free planner is the structural baseline for call
                # ratios and must stay undiscounted.
                response_cache=self.session.cache if with_stats else None,
            )
            # One token memo for every planner: the stats-free baseline in
            # ``record_run`` re-prices texts the quote already counted.
            planner.tokenizer = self._tokenizer
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
        if isinstance(spec, SortSpec):
            return len(spec.validation_order) >= _MIN_SORT_VALIDATION
        if isinstance(spec, ResolveSpec):
            return bool(spec.pairs) and len(spec.validation_labels) >= _MIN_RESOLVE_VALIDATION
        if isinstance(spec, ImputeSpec):
            return self._impute_validation_size(spec) >= _MIN_IMPUTE_VALIDATION
        if isinstance(spec, FilterSpec):
            return len(spec.validation_labels) >= _MIN_FILTER_VALIDATION
        if isinstance(spec, CategorizeSpec):
            return len(spec.validation_labels) >= _MIN_CATEGORIZE_VALIDATION
        return False

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
        candidates = self._cost_candidates(spec)
        planner = self.cost_planner()
        remaining = self._remaining_dollars(spec, budget)
        considered = tuple(name for name, _ in candidates)

        if remaining is None:
            for name, candidate_options in candidates:
                if not self._fits_context(spec, name, planner):
                    continue
                options = self._run_options(spec, candidate_options)
                estimate = (
                    self._try_estimate(spec, name, options) if want_estimate else None
                )
                return ResolvedStrategy(name, options, "cost", estimate, considered)
            name, candidate_options = candidates[0]
            return ResolvedStrategy(
                name, self._run_options(spec, candidate_options), "cost", None, considered
            )

        estimated: list[tuple[str, dict, CostEstimate | None]] = []
        for name, candidate_options in candidates:
            options = self._run_options(spec, candidate_options)
            estimated.append((name, options, self._try_estimate(spec, name, options)))

        for name, options, estimate in estimated:
            if estimate is None:
                continue
            if not self._fits_context(spec, name, planner):
                continue
            if estimate.dollars <= remaining:
                return ResolvedStrategy(name, options, "cost", estimate, considered)
        affordable = [
            entry
            for entry in estimated
            if entry[2] is not None and self._fits_context(spec, entry[0], planner)
        ]
        if affordable:
            name, options, estimate = min(affordable, key=lambda entry: entry[2].dollars)
            return ResolvedStrategy(name, options, "cost", estimate, considered)
        name, options, estimate = estimated[0]
        return ResolvedStrategy(name, options, "cost", estimate, considered)

    def _cost_candidates(self, spec: TaskSpec) -> list[tuple[str, dict]]:
        """Quality-preference-ordered candidates per operator (default first)."""
        if isinstance(spec, SortSpec):
            return [("pairwise", {}), ("rating", {}), ("single_prompt", {})]
        if isinstance(spec, ResolveSpec):
            if spec.pairs:
                return [
                    ("transitive", {"neighbors_k": spec.neighbors_k}),
                    ("pairwise", {}),
                ]
            return [("pairwise", {}), ("blocked_pairwise", {}), ("single_prompt", {})]
        if isinstance(spec, ImputeSpec):
            return [("hybrid", {}), ("retrieval", {}), ("llm_only", {}), ("knn", {})]
        if isinstance(spec, FilterSpec):
            return [("per_item", {})]
        if isinstance(spec, CategorizeSpec):
            return [("per_item", {})]
        if isinstance(spec, TopKSpec):
            return [("hybrid_rating_comparison", {}), ("rating_only", {})]
        if isinstance(spec, JoinSpec):
            return [("blocked", {})]
        if isinstance(spec, ClusterSpec):
            return [("two_phase", {}), ("single_prompt", {})]
        raise SpecError(f"cannot plan strategies for spec type {type(spec).__name__}")

    @staticmethod
    def _run_options(spec: TaskSpec, candidate_options: Mapping[str, Any]) -> dict:
        """Options the chosen strategy runs with.

        Sort and pair-judgment resolves take only the candidate's own
        options (their strategy choosers always owned the option set);
        impute takes none (``n_examples`` travels on the spec); the other
        operators keep the author's ``strategy_options`` with the
        candidate's merged over them.
        """
        if isinstance(spec, SortSpec) or (isinstance(spec, ResolveSpec) and spec.pairs):
            return dict(candidate_options)
        if isinstance(spec, ImputeSpec):
            return {}
        return {**spec.strategy_options, **candidate_options}

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

    def _fits_context(self, spec: TaskSpec, strategy: str, planner: CostPlanner) -> bool:
        """Whole-list strategies must fit the model context to be eligible."""
        if strategy != "single_prompt":
            return True
        items = self._context_items(spec)
        if not items:
            return True
        try:
            return planner.fits_context(items)
        except ConfigurationError:
            return True

    @staticmethod
    def _context_items(spec: TaskSpec) -> list[str]:
        if isinstance(spec, SortSpec) or isinstance(spec, ClusterSpec):
            return [str(item) for item in spec.items]
        if isinstance(spec, ResolveSpec):
            return [str(record) for record in spec.records]
        return []

    # -- validation-driven selection --------------------------------------------------

    def _resolve_by_validation(
        self, spec: TaskSpec, budget: "Budget | BudgetLease | None"
    ) -> ResolvedStrategy | None:
        """Measure candidates on the spec's labelled sample, when it has one."""
        if not self.would_validate(spec):
            return None
        if isinstance(spec, SortSpec):
            strategy, options = self._validate_sort(spec, budget)
        elif isinstance(spec, ResolveSpec):
            strategy, options = self._validate_resolve(spec, budget)
        elif isinstance(spec, ImputeSpec):
            strategy, options = self._validate_impute(spec, budget), {}
        elif isinstance(spec, FilterSpec):
            strategy, options = self._validate_filter(spec, budget)
        elif isinstance(spec, CategorizeSpec):
            strategy, options = self._validate_categorize(spec, budget)
        else:  # pragma: no cover - would_validate only matches the types above
            return None
        return ResolvedStrategy(
            strategy=strategy,
            options=dict(options),
            decided_by="validation",
            estimate=self._try_estimate(spec, strategy, options),
        )

    @staticmethod
    def _impute_validation_size(spec: ImputeSpec) -> int:
        if spec.data is None:
            return 0
        return min(spec.validation_size, len(spec.data.queries))

    def _validate_sort(
        self, spec: SortSpec, budget: "Budget | BudgetLease | None"
    ) -> tuple[str, dict]:
        validation_items = list(spec.validation_order)
        candidates = [
            StrategyCandidate(name="single_prompt", cost_scaling="constant"),
            StrategyCandidate(name="rating", cost_scaling="linear"),
            StrategyCandidate(name="pairwise", cost_scaling="quadratic"),
        ]

        def run_candidate(candidate: StrategyCandidate) -> SortResult:
            operator = SortOperator(
                self.session.client(budget), spec.criterion, **self.operator_kwargs(budget)
            )
            return operator.run(validation_items, strategy=candidate.name, **candidate.options)

        def score(result: SortResult) -> float:
            placed = set(result.order)
            order = list(result.order) + [
                item for item in validation_items if item not in placed
            ]
            tau = kendall_tau_b(order, validation_items)
            return (tau + 1.0) / 2.0

        selector = StrategySelector(
            run_candidate=run_candidate,
            score=score,
            validation_size=len(validation_items),
            full_size=len(spec.items),
        )
        chosen = selector.select(
            candidates,
            budget_dollars=spec.budget_dollars,
            accuracy_target=spec.accuracy_target,
        )
        return chosen.candidate.name, dict(chosen.candidate.options)

    def _validate_resolve(
        self, spec: ResolveSpec, budget: "Budget | BudgetLease | None"
    ) -> tuple[str, dict]:
        labels = dict(spec.validation_labels)
        validation_pairs = list(labels)
        candidates = [
            StrategyCandidate(name="pairwise", cost_scaling="linear"),
            StrategyCandidate(
                name="transitive", options={"neighbors_k": spec.neighbors_k}, cost_scaling="linear"
            ),
            StrategyCandidate(name="proxy_hybrid", cost_scaling="linear"),
        ]

        def run_candidate(candidate: StrategyCandidate) -> PairJudgmentResult:
            operator = ResolveOperator(
                self.session.client(budget), **self.operator_kwargs(budget)
            )
            return operator.judge_pairs(
                validation_pairs,
                strategy=candidate.name,
                corpus=list(spec.records) or None,
                **candidate.options,
            )

        def score(result: PairJudgmentResult) -> float:
            predictions = [judgment.is_duplicate for judgment in result.judgments]
            truth = [labels[pair] for pair in validation_pairs]
            return f1_score(predictions, truth)

        selector = StrategySelector(
            run_candidate=run_candidate,
            score=score,
            validation_size=len(validation_pairs),
            full_size=len(spec.pairs),
        )
        chosen = selector.select(
            candidates,
            budget_dollars=spec.budget_dollars,
            accuracy_target=spec.accuracy_target,
        )
        return chosen.candidate.name, dict(chosen.candidate.options)

    def _validate_impute(
        self, spec: ImputeSpec, budget: "Budget | BudgetLease | None"
    ) -> str:
        data = spec.data
        assert data is not None  # caller checked the validation size
        validation_size = self._impute_validation_size(spec)
        validation_records = data.queries.records[:validation_size]
        validation_data = ImputationDataset(
            name=f"{data.name}-validation",
            target_attribute=data.target_attribute,
            queries=Dataset(validation_records, name=f"{data.name}-validation-queries"),
            reference=data.reference,
            ground_truth={
                record.record_id: data.ground_truth[record.record_id]
                for record in validation_records
            },
        )
        candidates = [
            StrategyCandidate(name="knn", cost_scaling="linear"),
            StrategyCandidate(name="hybrid", cost_scaling="linear"),
            StrategyCandidate(name="retrieval", cost_scaling="linear"),
            StrategyCandidate(name="llm_only", cost_scaling="linear"),
        ]

        def run_candidate(candidate: StrategyCandidate) -> ImputeResult:
            operator = ImputeOperator(
                self.session.client(budget), **self.operator_kwargs(budget)
            )
            return operator.run(validation_data, strategy=candidate.name, n_examples=spec.n_examples)

        def score(result: ImputeResult) -> float:
            return exact_match_accuracy(result.predictions, validation_data.ground_truth)

        selector = StrategySelector(
            run_candidate=run_candidate,
            score=score,
            validation_size=validation_size,
            full_size=len(data.queries),
        )
        chosen = selector.select(
            candidates,
            budget_dollars=spec.budget_dollars,
            accuracy_target=spec.accuracy_target,
        )
        return chosen.candidate.name

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

    def _validate_filter(
        self, spec: FilterSpec, budget: "Budget | BudgetLease | None"
    ) -> tuple[str, dict]:
        """Pick a filter strategy by measuring candidates on the labelled items.

        Labels are for the *conjunction* of the spec's predicates, so each
        candidate runs the predicates sequentially over a shrinking survivor
        set — exactly how the engine executes the full spec — and is scored
        by the F1 of its final keep/drop decisions against the labels.
        """
        labels = {str(item): bool(keep) for item, keep in spec.validation_labels.items()}
        sample = list(labels)
        models = self._ensemble_models(spec)
        candidates = [StrategyCandidate(name="per_item", cost_scaling="linear")]
        if len(models) >= 2:
            candidates.append(
                StrategyCandidate(
                    name="ensemble_vote", options={"models": models}, cost_scaling="linear"
                )
            )
            candidates.append(
                StrategyCandidate(
                    name="adaptive", options={"models": models}, cost_scaling="linear"
                )
            )

        def run_candidate(candidate: StrategyCandidate) -> FilterResult:
            decisions = {item: True for item in sample}
            survivors = sample
            merged = FilterResult(strategy=candidate.name, decisions=decisions)
            for predicate in spec.all_predicates:
                if not survivors:
                    break
                operator = FilterOperator(
                    self.session.client(budget), predicate, **self.operator_kwargs(budget)
                )
                result = operator.run(survivors, strategy=candidate.name, **candidate.options)
                for item in survivors:
                    decisions[item] = result.decisions.get(item, False)
                survivors = list(result.kept)
                merged.usage.add(result.usage)
                merged.cost += result.cost
                merged.votes_used += result.votes_used
            merged.kept = [item for item in sample if decisions[item]]
            return merged

        def score(result: FilterResult) -> float:
            predictions = [result.decisions.get(item, False) for item in sample]
            truth = [labels[item] for item in sample]
            return f1_score(predictions, truth)

        selector = StrategySelector(
            run_candidate=run_candidate,
            score=score,
            validation_size=len(sample),
            full_size=len(spec.items),
        )
        chosen = selector.select(
            candidates,
            budget_dollars=spec.budget_dollars,
            accuracy_target=spec.accuracy_target,
        )
        return chosen.candidate.name, dict(chosen.candidate.options)

    def resolve_filter(
        self,
        spec: FilterSpec,
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
        self, spec: FilterSpec, budget: "Budget | BudgetLease | None"
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
        models = self._ensemble_models(spec)
        candidates = [StrategyCandidate(name="per_item", cost_scaling="linear")]
        if len(models) >= 2:
            candidates.append(
                StrategyCandidate(
                    name="ensemble_vote", options={"models": models}, cost_scaling="linear"
                )
            )
            candidates.append(
                StrategyCandidate(
                    name="adaptive", options={"models": models}, cost_scaling="linear"
                )
            )
        predicates = list(spec.all_predicates)
        considered = tuple(candidate.name for candidate in candidates)

        # decisions/cost of candidate ``c`` judging predicate ``p`` alone.
        measured: dict[tuple[int, int], tuple[dict[str, bool], float]] = {}
        for p, predicate in enumerate(predicates):
            for c, candidate in enumerate(candidates):
                operator = FilterOperator(
                    self.session.client(budget), predicate, **self.operator_kwargs(budget)
                )
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

    def _validate_categorize(
        self, spec: CategorizeSpec, budget: "Budget | BudgetLease | None"
    ) -> tuple[str, dict]:
        """Pick a categorize strategy by accuracy on the labelled items."""
        labels = {str(item): str(label) for item, label in spec.validation_labels.items()}
        sample = list(labels)
        models = self._ensemble_models(spec)
        candidates = [
            StrategyCandidate(name="per_item", cost_scaling="linear"),
            StrategyCandidate(
                name="self_consistency", options={"n_samples": 3}, cost_scaling="linear"
            ),
        ]
        if len(models) >= 2:
            candidates.append(
                StrategyCandidate(
                    name="ensemble_vote", options={"models": models}, cost_scaling="linear"
                )
            )

        def run_candidate(candidate: StrategyCandidate) -> CategorizeResult:
            operator = CategorizeOperator(
                self.session.client(budget),
                list(spec.categories),
                **self.operator_kwargs(budget),
            )
            return operator.run(sample, strategy=candidate.name, **candidate.options)

        def score(result: CategorizeResult) -> float:
            return exact_match_accuracy(result.assignments, labels)

        selector = StrategySelector(
            run_candidate=run_candidate,
            score=score,
            validation_size=len(sample),
            full_size=len(spec.items),
        )
        chosen = selector.select(
            candidates,
            budget_dollars=spec.budget_dollars,
            accuracy_target=spec.accuracy_target,
        )
        return chosen.candidate.name, dict(chosen.candidate.options)

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
        if isinstance(spec, FilterSpec):
            return
        try:
            executed = replace(
                spec,
                strategy=resolved.strategy,
                strategy_options={**spec.strategy_options, **resolved.options},
            )
            baseline = self.cost_planner(with_stats=False).estimate_spec(executed)
        except (SpecError, ConfigurationError):
            return
        usage = getattr(result, "usage", None)
        actual = getattr(usage, "calls", None)
        if actual is None:
            return
        self.stats.record_calls(
            baseline.strategy, estimated=baseline.calls, actual=int(actual)
        )
