"""A-priori cost planning for prompting strategies and whole pipelines.

The strategy optimizer (:mod:`repro.core.optimizer`) *measures* cost on a
validation sample; the planner here *predicts* cost before anything runs, from
the number of data items, the average item length, and each strategy's call
structure (one prompt, O(n) unit tasks, O(n²) pairs, ...).  The engine uses
these estimates to discard strategies that obviously cannot fit a budget
without spending a single token on them, and reports them to users as a
pre-flight quote.

Beyond single strategies, :meth:`CostPlanner.estimate_spec` maps a
declarative task spec to the cost shape its strategy will execute, and
:meth:`CostPlanner.quote_pipeline` rolls those per-step estimates up into a
:class:`PipelineQuote` — the pre-flight quote for a whole
:class:`~repro.core.spec.PipelineSpec`, reported per step.  The pipeline
scheduler also uses the per-step dollar estimates as weights when it
apportions the remaining budget across pending steps.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.declarations import declaration_for, default_strategy
from repro.core.spec import PipelineSpec, TaskSpec
from repro.core.stats import RuntimeStats
from repro.exceptions import ConfigurationError, SpecError
from repro.llm.registry import ModelRegistry, default_registry
from repro.tokenizer.cost import Usage
from repro.tokenizer.simple import SimpleTokenizer

#: Rough token overhead of the structured prompt scaffolding per call
#: (task header, instructions, numbering).
_PROMPT_OVERHEAD_TOKENS = 60
#: Expected completion length of a short unit-task answer.
_SHORT_COMPLETION_TOKENS = 15


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of running one strategy over a dataset.

    Attributes:
        strategy: strategy name the estimate is for.
        calls: predicted number of LLM calls.
        usage: predicted token usage.
        dollars: predicted dollar cost under the planner's model/price table.
        seconds: predicted wall-clock time (sequential dispatch), from the
            observed per-call latency of the same strategy label; ``None``
            until the session has recorded durations for it.
        known_cached: ``(hits, probed)`` — how many of the spec's
            statically-known prompts were probed against the durable
            response cache while estimating, and how many were found (their
            share of ``dollars`` is already priced at zero).  A fact about
            the quoting session, not part of the estimate's identity or its
            wire form.
    """

    strategy: str
    calls: int
    usage: Usage
    dollars: float
    seconds: float | None = None
    known_cached: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)

    def to_dict(self) -> dict[str, object]:
        """A JSON-shaped view (what the service layer returns in quotes)."""
        return {
            "strategy": self.strategy,
            "calls": self.calls,
            "usage": {
                "prompt_tokens": self.usage.prompt_tokens,
                "completion_tokens": self.usage.completion_tokens,
                "calls": self.usage.calls,
            },
            "dollars": self.dollars,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CostEstimate":
        usage = data.get("usage") or {}
        if not isinstance(usage, Mapping):
            raise SpecError("cost estimate usage must be an object")
        seconds = data.get("seconds")
        return cls(
            strategy=str(data.get("strategy", "")),
            calls=int(data.get("calls", 0)),  # type: ignore[arg-type]
            usage=Usage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
                calls=int(usage.get("calls", 0)),
            ),
            dollars=float(data.get("dollars", 0.0)),  # type: ignore[arg-type]
            seconds=None if seconds is None else float(seconds),  # type: ignore[arg-type]
        )


def _finish_time(
    name: str,
    active: frozenset[str],
    dependencies: Mapping[str, tuple[str, ...]],
    timed: Mapping[str, float],
    finish: dict[str, float],
) -> float:
    """Finish time of ``name`` after its slowest upstream chain (memoized in ``finish``)."""
    if name in finish:
        return finish[name]
    if name in active:
        return 0.0  # cycle guard
    start = max(
        (
            _finish_time(dep, active | {name}, dependencies, timed, finish)
            for dep in dependencies.get(name, ())
        ),
        default=0.0,
    )
    finish[name] = start + timed.get(name, 0.0)
    return finish[name]


@dataclass(frozen=True)
class PipelineQuote:
    """Pre-flight quote for a whole pipeline, reported per step.

    Attributes:
        pipeline: the pipeline's name.
        steps: step name → that step's cost estimate.
        unquoted: steps that cannot be priced a priori — pure-python steps
            and spec factories whose inputs only exist at run time.
    """

    pipeline: str
    steps: Mapping[str, CostEstimate]
    unquoted: tuple[str, ...] = ()
    #: Pricing annotations (e.g. the observed cache hit-rate discount), in
    #: the same "prior -> observed" style the per-step selectivity notes use.
    notes: tuple[str, ...] = ()
    #: Step name → upstream step names, as declared by the pipeline spec.
    #: When present, :attr:`total_seconds` is the critical path over this
    #: DAG rather than the sum — independent branches overlap in time.
    dependencies: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def total_calls(self) -> int:
        """Predicted LLM calls across every quoted step."""
        return sum(estimate.calls for estimate in self.steps.values())

    @property
    def total_usage(self) -> Usage:
        """Predicted token usage across every quoted step."""
        total = Usage()
        for estimate in self.steps.values():
            total.add(estimate.usage)
        return total

    @property
    def total_dollars(self) -> float:
        """Predicted dollar cost: the sum of the per-step estimates."""
        return sum(estimate.dollars for estimate in self.steps.values())

    @property
    def total_seconds(self) -> float | None:
        """Predicted wall-clock total over the steps that carry one.

        With a :attr:`dependencies` DAG, this is the *critical path*: the
        most expensive chain of dependent steps, because independent
        branches run concurrently and only the longest one shows up on
        the wall clock.  Without dependency information it falls back to
        the sum of per-step estimates (sequential execution).

        ``None`` when no step has a latency-backed estimate yet.  Steps
        without observed latency contribute nothing — a partial total is
        a lower bound, which the renderers flag with a ``>=``.
        """
        timed = {
            name: estimate.seconds
            for name, estimate in self.steps.items()
            if estimate.seconds is not None
        }
        if not timed:
            return None
        if not self.dependencies:
            return sum(timed.values())
        return self._critical_path_seconds(timed)

    def _critical_path_seconds(self, timed: Mapping[str, float]) -> float:
        """Longest weighted finish time over the dependency DAG.

        Untimed and unquoted steps weigh zero but still propagate their
        upstream chain's finish time.  A cycle (impossible for a
        validated spec, possible for a hand-built mapping) degrades to
        treating the offending edge as absent rather than recursing
        forever.
        """
        finish: dict[str, float] = {}
        return max(
            _finish_time(name, frozenset(), self.dependencies, timed, finish)
            for name in set(self.steps) | set(self.dependencies)
        )

    def to_dict(self) -> dict[str, object]:
        """A JSON-shaped view: per-step estimates, notes, and the totals.

        The ``total_*`` entries are derived from the steps and included for
        the convenience of HTTP clients; :meth:`from_dict` recomputes them
        from the steps rather than trusting the payload.
        """
        total_usage = self.total_usage
        return {
            "pipeline": self.pipeline,
            "steps": {name: estimate.to_dict() for name, estimate in self.steps.items()},
            "unquoted": list(self.unquoted),
            "notes": list(self.notes),
            "dependencies": {
                name: list(upstream) for name, upstream in self.dependencies.items()
            },
            "total_calls": self.total_calls,
            "total_dollars": self.total_dollars,
            "total_seconds": self.total_seconds,
            "total_usage": {
                "prompt_tokens": total_usage.prompt_tokens,
                "completion_tokens": total_usage.completion_tokens,
                "calls": total_usage.calls,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PipelineQuote":
        steps = data.get("steps") or {}
        if not isinstance(steps, Mapping):
            raise SpecError("pipeline quote steps must be an object")
        dependencies = data.get("dependencies") or {}
        if not isinstance(dependencies, Mapping):
            raise SpecError("pipeline quote dependencies must be an object")
        return cls(
            pipeline=str(data.get("pipeline", "pipeline")),
            steps={
                str(name): CostEstimate.from_dict(estimate)
                for name, estimate in steps.items()
            },
            unquoted=tuple(str(name) for name in data.get("unquoted", ())),  # type: ignore[union-attr]
            notes=tuple(str(note) for note in data.get("notes", ())),  # type: ignore[union-attr]
            dependencies={
                str(name): tuple(str(dep) for dep in upstream)
                for name, upstream in dependencies.items()
            },
        )


class CostPlanner:
    """Predict calls, tokens, and dollars for the standard strategy shapes.

    Args:
        model: model the work would run on (prices and context come from it).
        registry: model catalogue; defaults to the standard registry.
        stats: optional :class:`~repro.core.physical.RuntimeStats` store of
            observed execution statistics.  When given, estimates prefer
            observed values over static priors: filter predicates are
            priced at their observed selectivity, and strategies with a
            recorded actual/estimated call ratio are scaled by it.  Without
            stats the planner quotes exactly from the priors.
        response_cache: optional response cache with a ``contains(model,
            prompt)`` probe (the store-backed
            :class:`~repro.store.PersistentResponseCache` has one).  When
            given, quoting reconstructs the *statically-known* prompts a
            spec would send and prices the ones already cached at zero —
            so a fresh session quoting a previously-run workload sees the
            durable cache's savings before anything executes.
    """

    def __init__(
        self,
        model: str,
        *,
        registry: ModelRegistry | None = None,
        stats: RuntimeStats | None = None,
        response_cache: object | None = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.spec = self.registry.get(model)
        self.tokenizer = SimpleTokenizer()
        self.stats = stats
        self.response_cache = (
            response_cache if hasattr(response_cache, "contains") else None
        )

    # -- helpers --------------------------------------------------------------------

    def _average_item_tokens(self, items: Sequence[str]) -> float:
        if not items:
            raise ConfigurationError("cannot plan over an empty item list")
        return sum(map(self.tokenizer.count, map(str, items))) / len(items)

    def _estimate(self, strategy: str, calls: int, prompt_tokens: float, completion_tokens: float) -> CostEstimate:
        usage = Usage(
            prompt_tokens=int(round(prompt_tokens)),
            completion_tokens=int(round(completion_tokens)),
            calls=calls,
        )
        return CostEstimate(
            strategy=strategy,
            calls=calls,
            usage=usage,
            dollars=self.spec.prices.cost(usage),
        )

    # -- strategy shapes --------------------------------------------------------------

    def single_prompt(self, items: Sequence[str]) -> CostEstimate:
        """One prompt containing every item; the answer echoes the whole list."""
        item_tokens = self._average_item_tokens(items) * len(items)
        return self._estimate(
            "single_prompt",
            calls=1,
            prompt_tokens=item_tokens + _PROMPT_OVERHEAD_TOKENS,
            completion_tokens=item_tokens,
        )

    def per_item(self, items: Sequence[str], *, batch_size: int = 1) -> CostEstimate:
        """One unit task per item (optionally batched), short answers."""
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        average = self._average_item_tokens(items)
        calls = -(-len(items) // batch_size)  # ceiling division
        prompt_tokens = calls * _PROMPT_OVERHEAD_TOKENS + len(items) * average
        completion_tokens = len(items) * _SHORT_COMPLETION_TOKENS
        return self._estimate("per_item", calls, prompt_tokens, completion_tokens)

    def pairwise(self, items: Sequence[str]) -> CostEstimate:
        """One comparison task per unordered pair of items."""
        average = self._average_item_tokens(items)
        calls = len(items) * (len(items) - 1) // 2
        prompt_tokens = calls * (_PROMPT_OVERHEAD_TOKENS + 2 * average)
        completion_tokens = calls * _SHORT_COMPLETION_TOKENS
        return self._estimate("pairwise", calls, prompt_tokens, completion_tokens)

    def pairwise_against(self, items: Sequence[str], reference_count: int) -> CostEstimate:
        """One comparison of each item against ``reference_count`` fixed references."""
        if reference_count < 0:
            raise ConfigurationError("reference_count must be non-negative")
        average = self._average_item_tokens(items)
        calls = len(items) * reference_count
        prompt_tokens = calls * (_PROMPT_OVERHEAD_TOKENS + 2 * average)
        completion_tokens = calls * _SHORT_COMPLETION_TOKENS
        return self._estimate("pairwise_against", calls, prompt_tokens, completion_tokens)

    def pair_judgments(
        self, pairs: Sequence[tuple[str, str]], *, expansion: int = 1
    ) -> CostEstimate:
        """One duplicate-check task per queried pair.

        ``expansion`` models strategies that ask extra comparisons per
        queried pair — e.g. the k-NN-augmented transitive strategy compares
        every pair among the two anchors and their k neighbors, an upper
        bound of ``C(2k+2, 2)`` calls per question (deduplication across
        overlapping groups makes the real count lower).
        """
        if expansion < 1:
            raise ConfigurationError("expansion must be at least 1")
        if not pairs:
            raise ConfigurationError("cannot plan over an empty pair list")
        # A pair is priced as the prompt text "<left> <right>".  Whitespace
        # never joins tokens, so that text's count is exactly the sum of its
        # two sides' counts; pairs drawn from one item list repeat their
        # sides, so each distinct side is counted once and weighted by its
        # uses instead of tokenizing every joined string.
        sides = Counter(map(str, itertools.chain.from_iterable(pairs)))
        tokens = sum(self.tokenizer.count(text) * uses for text, uses in sides.items())
        average = tokens / len(pairs)
        calls = len(pairs) * expansion
        prompt_tokens = calls * (_PROMPT_OVERHEAD_TOKENS + average)
        completion_tokens = calls * _SHORT_COMPLETION_TOKENS
        return self._estimate("pair_judgments", calls, prompt_tokens, completion_tokens)

    # -- vector-index shapes ----------------------------------------------------------

    #: Candidates an index probe ranks when no rate has been observed yet —
    #: the LSH probe floor at its default k.
    _DEFAULT_PROBE_CANDIDATES = 16.0

    def index_build(self, texts: Sequence[str]) -> CostEstimate:
        """Price building a vector index over ``texts``.

        One *local* embedding call per text and zero LLM dollars: the
        hashing embedder never leaves the process, so an index build spends
        compute, not budget.  The calls/tokens still appear in the estimate
        so ``.quote()`` can show the work the build replaces LLM spend with.
        """
        tokens = sum(self.tokenizer.count(str(text)) for text in texts)
        usage = Usage(prompt_tokens=tokens, calls=len(texts))
        return CostEstimate(
            strategy="index:build", calls=len(texts), usage=usage, dollars=0.0
        )

    def probe_candidate_rate(self) -> float:
        """Expected candidates ranked per probe (observed, or the prior)."""
        if self.stats is not None:
            observed = self.stats.probe_candidate_rate()
            if observed is not None:
                return observed
        return self._DEFAULT_PROBE_CANDIDATES

    # -- declarative specs ------------------------------------------------------------

    def estimate_spec(self, spec: TaskSpec) -> CostEstimate:
        """Pre-flight estimate for one declarative task spec.

        The spec's :mod:`declaration <repro.core.declarations>` maps its
        strategy onto the standard cost shapes above; the ``strategy``
        field of the returned estimate is labelled
        ``"<operation>:<strategy>"`` so per-step quotes read naturally.
        ``"auto"`` strategies are priced at the operator's no-validation
        default, and a strategy the operator does not accept raises
        :class:`SpecError` rather than being priced as something else.

        With a :class:`~repro.core.stats.RuntimeStats` store attached, the
        structural estimate is corrected by the observed actual/estimated
        call ratio recorded for the same strategy label — unless the
        declaration says the error is already priced another way (filters:
        observed predicate selectivities).
        """
        declaration = declaration_for(spec)
        estimate = declaration.estimate(self, spec)
        if declaration.call_ratio_applies(self, spec):
            estimate = self._apply_call_ratio(estimate)
        estimate = self._apply_latency(estimate)
        # Exact knowledge beats extrapolation: when the spec's prompts are
        # statically known and some are already in the durable cache, price
        # those at zero and skip the observed-hit-rate discount for this
        # spec (the rate would re-count the same hits).
        estimate, known = self._apply_known_hits(spec, estimate)
        if known:
            return estimate
        return self._apply_cache_discount(estimate)

    def observed_blocked_pair_rate(self) -> float | None:
        """The observed candidate-pair fraction of the k·n bound, if any."""
        if self.stats is None:
            return None
        return self.stats.blocked_pair_rate()

    #: Observed call ratios outside this band are treated as
    #: workload-specific flukes rather than transferable corrections.
    _CALL_RATIO_BAND = (0.05, 20.0)

    def _apply_call_ratio(self, estimate: CostEstimate) -> CostEstimate:
        """Scale a structural estimate by the observed call ratio, if any.

        The ratio is looked up under :meth:`_stats_label`, clamped to a
        sane band, and a non-empty structural estimate never drops below
        one call: ratios were measured on whatever workload the session
        happened to run, and an estimate rounded to zero would starve the
        step of its quote-weighted budget share entirely.
        """
        if self.stats is None:
            return estimate
        ratio = self.stats.call_ratio(self._stats_label(estimate.strategy))
        if ratio is None or ratio <= 0 or abs(ratio - 1.0) < 1e-9:
            return estimate
        low, high = self._CALL_RATIO_BAND
        ratio = min(high, max(low, ratio))
        floor = 1 if estimate.calls > 0 else 0
        adjusted = self._estimate(
            estimate.strategy,
            calls=max(floor, int(round(estimate.calls * ratio))),
            prompt_tokens=estimate.usage.prompt_tokens * ratio,
            completion_tokens=estimate.usage.completion_tokens * ratio,
        )
        return adjusted

    def _stats_label(self, estimate_strategy: str) -> str:
        """The stats key an estimate's strategy label resolves to.

        Observations are recorded under the strategy that *executed* (never
        ``"auto"``), so an auto-labelled estimate looks its stats up under
        the default strategy it was priced at.
        """
        operation, _, strategy = estimate_strategy.partition(":")
        if strategy == "auto":
            return f"{operation}:{default_strategy(operation) or strategy}"
        return estimate_strategy

    def _apply_latency(self, estimate: CostEstimate) -> CostEstimate:
        """Attach a wall-clock prediction from the observed median latency.

        Sequential extrapolation (calls × per-call p50): the planner cannot
        know the dispatch concurrency a run will use, and the sequential
        figure is the conservative bound the budget-style comparisons need.
        The reservoir blends cache-hit and live durations in observed
        proportions, so a warm workload predicts its own (faster) reality.
        """
        if self.stats is None:
            return estimate
        p50 = self.stats.latency_p50(self._stats_label(estimate.strategy))
        if p50 is None:
            return estimate
        return replace(estimate, seconds=estimate.calls * p50 / 1000.0)

    def _apply_cache_discount(self, estimate: CostEstimate) -> CostEstimate:
        """Discount the dollar estimate by the observed cache hit-rate.

        Cache hits are priced at zero by the session (a hit returns a
        zero-usage response), so the expected dollar spend of a workload
        whose traffic hits the cache at rate *r* is ``(1 - r)`` of the full
        quote.  Calls and tokens are left as the *logical* work — budget
        apportionment and call-count comparisons reason about work items,
        and the within-run dedup effect is already captured by the observed
        call ratios.  The observed rate is capped just below 1 so a fully
        cached history can never quote exactly zero for new work.
        """
        if self.stats is None:
            return estimate
        rate = self.stats.cache_hit_rate()
        if rate is None or rate <= 0.0 or estimate.dollars <= 0.0:
            return estimate
        rate = min(rate, 0.99)
        return replace(estimate, dollars=estimate.dollars * (1.0 - rate))

    #: At most this many statically-known prompts are probed against the
    #: persistent cache per spec — an O(n²) pairwise spec would otherwise
    #: hash every pair before anything runs.
    _CACHE_PROBE_CAP = 2048

    def _static_prompts(self, spec: TaskSpec) -> list[str]:
        """The exact prompts a spec would send, when they are statically known.

        Only strategies whose prompt set is a pure function of the spec
        declare one (per-item filters/categorize, pairwise sorts and
        resolves, all-pairs joins, example-free ``llm_only`` imputes);
        blocked or validation-dependent strategies return nothing rather
        than a guess.  Capped at :data:`_CACHE_PROBE_CAP` prompts.
        """
        declaration = declaration_for(spec)
        prompts = declaration.prompts.get(declaration.priced_strategy(spec))
        if prompts is None:
            return []
        return list(itertools.islice(prompts(spec), self._CACHE_PROBE_CAP))

    def known_cached_calls(self, spec: TaskSpec) -> tuple[int, int]:
        """``(known_hits, probed)`` statically-known prompts of a spec.

        Probes the planner's response cache without counting the probes as
        cache traffic (see ``PersistentResponseCache.contains`` — quoting a
        workload is not serving it).  ``(0, 0)`` without a probing cache or
        when the spec's prompt set cannot be known before running.
        """
        if self.response_cache is None:
            return (0, 0)
        prompts = self._static_prompts(spec)
        if not prompts:
            return (0, 0)
        model = self.spec.name
        contains_many = getattr(self.response_cache, "contains_many", None)
        if contains_many is not None:
            return (contains_many(model, prompts), len(prompts))
        contains = self.response_cache.contains  # type: ignore[attr-defined]
        hits = sum(1 for prompt in prompts if contains(model, prompt))
        return (hits, len(prompts))

    def _apply_known_hits(
        self, spec: TaskSpec, estimate: CostEstimate
    ) -> tuple[CostEstimate, bool]:
        """Price the statically-known, already-cached fraction at zero.

        Unlike the observed-rate discount (an extrapolation capped below
        1), these are certainties — the exact prompts were probed against
        the durable cache — so a fully-cached workload quotes exactly zero
        dollars.  The probe's ``(hits, probed)`` rides on the estimate, so
        whoever writes the quote's note reads it there instead of probing
        again.  Returns the estimate plus whether a discount applied.
        """
        hits, probed = self.known_cached_calls(spec)
        if not probed:
            return estimate, False
        discounted = hits > 0 and estimate.dollars > 0.0 and estimate.calls > 0
        dollars = estimate.dollars
        if discounted:
            dollars *= 1.0 - min(1.0, hits / estimate.calls)
        return replace(estimate, dollars=dollars, known_cached=(hits, probed)), discounted

    def cache_discount_note(self) -> str | None:
        """The "prior -> observed" annotation for an applied cache discount."""
        if self.stats is None:
            return None
        rate = self.stats.cache_hit_rate()
        if rate is None or rate <= 0.0:
            return None
        return (
            f"cache hit-rate prior 0.00 -> observed {min(rate, 0.99):.2f} "
            "(dollar estimates discounted)"
        )

    def observed_selectivity(self, predicate: str, prior: float) -> float:
        """A predicate's observed surviving fraction, or its static prior."""
        if self.stats is not None:
            observed = self.stats.filter_selectivity(predicate)
            if observed is not None:
                # An observed 0 would collapse every downstream estimate to
                # nothing; clamp to one surviving item's worth.
                return max(observed, 1e-6)
        return prior

    def quote_pipeline(
        self,
        pipeline: PipelineSpec,
        estimates: Mapping[str, CostEstimate] | None = None,
    ) -> PipelineQuote:
        """Quote a whole pipeline before running it (the one quote assembler).

        Every step whose spec is statically known is estimated through
        :meth:`estimate_spec`; the quote's call/token/dollar totals are by
        construction the sums of those per-step estimates, while
        ``total_seconds`` follows the pipeline's dependency DAG — steps
        without an edge between them overlap in time, so the wall-clock
        quote is the critical path, not the sum.  Pure-python steps and
        spec factories (whose inputs only exist once upstream steps have
        run) are listed in :attr:`PipelineQuote.unquoted` rather than
        silently priced at zero — unless the caller already priced them:
        ``estimates`` maps such a step's name to an estimate computed over
        *expected* inputs (the query compiler sizes factory steps from
        selectivities), which the quote carries as given.
        """
        pipeline.validate()
        priced = estimates or {}
        steps: dict[str, CostEstimate] = {}
        unquoted: list[str] = []
        dependencies: dict[str, tuple[str, ...]] = {}
        known_hits = 0
        known_probed = 0
        for step in pipeline.steps:
            dependencies[step.name] = tuple(step.depends_on)
            if isinstance(step.task, TaskSpec):
                steps[step.name] = self.estimate_spec(step.task)
                hits, probed = steps[step.name].known_cached
                known_hits += hits
                known_probed += probed
            elif step.name in priced:
                steps[step.name] = priced[step.name]
            else:
                unquoted.append(step.name)
        notes: list[str] = []
        if known_hits:
            notes.append(
                f"persistent cache: {known_hits} of {known_probed} statically-known "
                "calls already cached (priced at zero)"
            )
        discount = self.cache_discount_note()
        if discount is not None and steps:
            notes.append(discount)
        return PipelineQuote(
            pipeline=pipeline.name,
            steps=steps,
            unquoted=tuple(unquoted),
            notes=tuple(notes),
            dependencies=dependencies,
        )

    # -- queries --------------------------------------------------------------------

    def fits_budget(self, estimate: CostEstimate, budget_dollars: float) -> bool:
        """Whether the estimated cost fits under ``budget_dollars``."""
        return estimate.dollars <= budget_dollars

    def fits_context(self, items: Sequence[str]) -> bool:
        """Whether a single prompt holding every item fits the model's context."""
        estimate = self.single_prompt(items)
        return estimate.usage.prompt_tokens <= self.spec.context_length

    def affordable_strategies(
        self, items: Sequence[str], budget_dollars: float
    ) -> list[CostEstimate]:
        """Standard strategy estimates that fit the budget, cheapest first."""
        estimates = [self.single_prompt(items), self.per_item(items), self.pairwise(items)]
        affordable = [
            estimate for estimate in estimates if self.fits_budget(estimate, budget_dollars)
        ]
        return sorted(affordable, key=lambda estimate: estimate.dollars)
