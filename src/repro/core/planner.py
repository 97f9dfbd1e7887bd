"""A-priori cost planning for prompting strategies and whole pipelines.

The strategy optimizer (:mod:`repro.core.optimizer`) *measures* cost on a
validation sample; the planner here *predicts* cost before anything runs, from
the prompts each strategy sends: its declared template's scaffold, the
items' own token counts, and the call structure (one prompt, O(n) unit
tasks, O(n²) pairs, ...).  The engine uses these estimates to discard
strategies that obviously cannot fit a budget without spending a single
token on them, and reports them to users as a pre-flight quote.

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
import operator
import sqlite3
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.declarations import declaration_for, operation_declaration
from repro.core.spec import PipelineSpec, TaskSpec
from repro.core.stats import RuntimeStats
from repro.exceptions import ConfigurationError, StoreError
from repro.llm.prompts import TaskTemplate
from repro.llm.registry import ModelRegistry, default_registry
from repro.store.fingerprint import DeclaredFactory, step_key
from repro.tokenizer.cost import Usage, to_dollars
from repro.tokenizer.simple import SimpleTokenizer
from repro.wire import to_wire

#: The process's scaffold memo: ``(template, fixed fields, items per prompt)``
#: -> ``(scaffold tokens, answer tokens)``.  Rendering and counting a scaffold
#: costs microseconds, so each is rendered once per process, never per
#: estimate; a full memo is emptied and starts over, like the tokenizer's.
_SCAFFOLDS: dict[tuple[TaskTemplate, tuple, int], tuple[int, int]] = {}
_SCAFFOLD_MAX_ENTRIES = 4096


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

    def labelled(self, strategy: str) -> "CostEstimate":
        """This estimate under another strategy label (``replace`` without
        its per-field walk: every spec estimate is relabelled once)."""
        return CostEstimate(
            strategy, self.calls, self.usage, self.dollars, self.seconds, self.known_cached
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
class StepKey:
    """A step's checkpoint key, as a quote against a store computed it.

    Attributes:
        task: the step's task (spec or factory) the key was computed for.
        model: the model it was keyed to.
        fingerprint: the step's key (:func:`~repro.store.fingerprint.step_key`).
        restored: the strategy of the checkpoint the store held under it at
            quote time, or ``None`` when it held none.
        digest: that checkpoint's result digest (its children's keys read it).
        result: what a run loaded under it, for its scheduler to settle.
    """

    task: object
    model: str
    fingerprint: str
    restored: str | None = None
    digest: str | None = None
    result: object | None = None


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
    #: Step name → its checkpoint key, when the quote was told the run's
    #: store: every static step, and each declared factory whose parents it
    #: holds.  Runtime-only (no wire form): a run on the same model and task
    #: objects restores the held ones up front and reuses static steps' keys.
    keys: Mapping[str, StepKey] = field(default_factory=dict, compare=False, repr=False)

    @property
    def restored_steps(self) -> tuple[str, ...]:
        """Steps priced as restored from the store's checkpoints."""
        return tuple(name for name, key in self.keys.items() if key.restored is not None)

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
        """The wire form plus the totals: per-step estimates, notes, and the
        ``total_*`` entries, derived from the steps for the convenience of
        HTTP clients (decoding recomputes them rather than trusting them)."""
        total_usage = self.total_usage
        return {
            **to_wire(self),
            "total_calls": self.total_calls,
            "total_dollars": self.total_dollars,
            "total_seconds": self.total_seconds,
            "total_usage": to_wire(total_usage),
        }


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

    def _item_tokens(self, items: Sequence[object]) -> int:
        """The items' token counts summed, in one pass over the tokenizer memo."""
        if not items:
            raise ConfigurationError("cannot plan over an empty item list")
        return sum(self.tokenizer.counts(items))

    def _scaffold(self, template: TaskTemplate, fields: tuple, size: int) -> tuple[int, int]:
        """``(scaffold, answer)`` tokens of one prompt carrying ``size`` items.

        The scaffold is the template rendered over empty item texts; a
        prompt's count is exactly that plus its items' counts.  The answer
        is the template's declared reply, the cold completion prior.
        """
        key = (template, fields, size)
        known = _SCAFFOLDS.get(key)
        if known is None:
            count = self.tokenizer.count
            known = (
                count(template.render([""] * size, fields)),
                count(template.answer.format(*fields)),
            )
            if len(_SCAFFOLDS) >= _SCAFFOLD_MAX_ENTRIES:
                _SCAFFOLDS.clear()
            _SCAFFOLDS[key] = known
        return known

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
            dollars=to_dollars(self.spec.prices.cost(usage)),
        )

    # -- strategy shapes --------------------------------------------------------------
    #
    # Each shape prices the prompts ``template`` renders under the fixed
    # ``fields``: calls x scaffold, plus every item's count times its uses.

    def single_prompt(
        self, items: Sequence[str], template: TaskTemplate, *fields: object
    ) -> CostEstimate:
        """One prompt containing every item; the answer echoes the whole list."""
        item_tokens = self._item_tokens(items)
        scaffold, _ = self._scaffold(template, fields, len(items))
        return self._estimate("single_prompt", 1, scaffold + item_tokens, item_tokens)

    def per_item(
        self,
        items: Sequence[str],
        template: TaskTemplate,
        *fields: object,
        batch_size: int = 1,
    ) -> CostEstimate:
        """One unit task per item, or per ``batch_size`` items of a list template."""
        if batch_size < 1 or (template.arity and batch_size != 1):
            raise ConfigurationError(
                "batch_size must be at least 1, and 1 for a one-item template"
            )
        item_tokens = self._item_tokens(items)
        full, rest = divmod(len(items), batch_size)
        scaffold, answer = self._scaffold(template, fields, template.arity or batch_size)
        prompt_tokens = full * scaffold + item_tokens
        if rest:
            prompt_tokens += self._scaffold(template, fields, rest)[0]
        # A list template answers one line per item, a unit task once per call.
        return self._estimate("per_item", full + bool(rest), prompt_tokens, len(items) * answer)

    def pairwise(
        self, items: Sequence[str], template: TaskTemplate, *fields: object
    ) -> CostEstimate:
        """One comparison task per unordered pair of items."""
        item_tokens = self._item_tokens(items)
        n = len(items)
        calls = n * (n - 1) // 2
        scaffold, answer = self._scaffold(template, fields, 2)
        # Every item is a side of n − 1 pairs.
        prompt_tokens = calls * scaffold + (n - 1) * item_tokens
        return self._estimate("pairwise", calls, prompt_tokens, calls * answer)

    def pairwise_against(
        self,
        items: Sequence[str],
        references: Sequence[str],
        per_item: int,
        template: TaskTemplate,
        *fields: object,
    ) -> CostEstimate:
        """``per_item`` comparisons of each item against one of ``references``.

        Each item is a side ``per_item`` times; the reference sides are
        priced at the references' mean count, which is exact when every item
        meets every reference (``per_item == len(references)``).
        """
        if per_item < 0:
            raise ConfigurationError("per_item must be non-negative")
        item_tokens = self._item_tokens(items)
        calls = len(items) * per_item
        scaffold, answer = self._scaffold(template, fields, 2)
        prompt_tokens = calls * scaffold + per_item * item_tokens
        if calls and references:
            prompt_tokens += calls * sum(self.tokenizer.counts(references)) / len(references)
        return self._estimate("pairwise_against", calls, prompt_tokens, calls * answer)

    def pair_judgments(
        self,
        pairs: Sequence[tuple[str, str]],
        template: TaskTemplate,
        *fields: object,
        expansion: int = 1,
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
        # Pairs drawn from one item list repeat their sides, so each distinct
        # side is counted once and weighted by its uses.
        sides = Counter(map(str, itertools.chain.from_iterable(pairs)))
        tokens = sum(map(operator.mul, self.tokenizer.counts(sides), sides.values()))
        return self._judged_pairs(tokens, len(pairs), expansion, template, fields)

    def blocked_pairs(
        self, items: Sequence[str], count: int, template: TaskTemplate, *fields: object
    ) -> CostEstimate:
        """Pair judgments over a blocked candidate set, priced without the pairs.

        The stand-in for ``count`` blocked candidates is the first ``count``
        pairs ``(items[i], items[i + d])`` in increasing distance ``d`` — the
        ``d = 1`` band (n − 1 pairs), then ``d = 2`` (n − 2), and so on,
        capped at all C(n, 2) pairs.  Over ``D`` complete bands position
        ``i`` is a side ``min(D, i) + min(D, n − 1 − i)`` times, plus once
        for each end of a partial band's pair it sits on, so the side token
        total is each item's count times its uses.  Equal to
        :meth:`pair_judgments` over that explicit pair list, including its
        ``[(items[0], items[0])]`` stand-in when no pair is asked for.
        """
        if not items:
            raise ConfigurationError("cannot plan over an empty item list")
        n = len(items)
        counts = self.tokenizer.counts(items)
        pairs = max(0, min(count, n * (n - 1) // 2))
        if not pairs:
            return self._judged_pairs(2 * counts[0], 1, 1, template, fields)
        bands, partial = 0, pairs
        while partial and partial >= n - bands - 1:
            bands += 1
            partial -= n - bands
        # min(D, x) = D − max(0, D − x): every position starts at 2·D uses,
        # and the D positions nearest each end lose their missing partners.
        tokens = (
            2 * bands * sum(counts)
            - sum((bands - i) * (counts[i] + counts[n - 1 - i]) for i in range(bands))
            + sum(counts[:partial])
            + sum(counts[bands + 1 : bands + 1 + partial])
        )
        return self._judged_pairs(tokens, pairs, 1, template, fields)

    def _judged_pairs(
        self, tokens: int, pairs: int, expansion: int, template: TaskTemplate, fields: tuple
    ) -> CostEstimate:
        """The pair-judgment estimate for ``pairs`` pairs of ``tokens`` side tokens."""
        scaffold, answer = self._scaffold(template, fields, 2)
        calls = pairs * expansion
        prompt_tokens = calls * (scaffold + tokens / pairs)
        return self._estimate("pair_judgments", calls, prompt_tokens, calls * answer)

    # -- declarative specs ------------------------------------------------------------

    def estimate_spec(self, spec: TaskSpec, *, observed_hits: bool = True) -> CostEstimate:
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
        observed predicate selectivities) — and its completions are priced
        at the label's observed completion length.

        ``observed_hits=False`` skips the observed-hit-rate discount (exactly known
        hits still price at zero), for candidates whose own sample fed that rate.
        """
        declaration = declaration_for(spec)
        estimate = declaration.estimate(self, spec)
        if self.stats is not None:
            label = self._stats_label(estimate.strategy)
            if declaration.call_ratio_applies(self, spec):
                estimate = self._apply_call_ratio(estimate, label)
            estimate = self._apply_completions(estimate, label)
            estimate = self._apply_latency(estimate, label)
        # Exact knowledge beats extrapolation: when the spec's prompts are
        # statically known and some are already in the durable cache, price
        # those at zero and skip the observed-hit-rate discount for this
        # spec (the rate would re-count the same hits).
        estimate, known = self._apply_known_hits(spec, estimate)
        if known or not observed_hits:
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

    def _apply_call_ratio(self, estimate: CostEstimate, label: str) -> CostEstimate:
        """Scale a structural estimate by the observed call ratio, if any.

        The ratio is looked up under ``label`` (see :meth:`_stats_label`),
        clamped to a sane band, and a non-empty structural estimate never
        drops below one call: ratios were measured on whatever workload the
        session happened to run, and an estimate rounded to zero would
        starve the step of its quote-weighted budget share entirely.
        """
        ratio = self.stats.call_ratio(label)
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

    def _apply_completions(self, estimate: CostEstimate, label: str) -> CostEstimate:
        """Price completions at the observed tokens per live call, if any.

        The declared answers are the cold prior; once a strategy label has
        run, what its calls actually returned replaces them.
        """
        per_call = self.stats.completion_tokens_per_call(label)
        if per_call is None:
            return estimate
        return self._estimate(
            estimate.strategy,
            estimate.calls,
            estimate.usage.prompt_tokens,
            estimate.calls * per_call,
        )

    def _stats_label(self, estimate_strategy: str) -> str:
        """The stats key an estimate's strategy label resolves to.

        Observations are recorded under the strategy that *executed* (never
        ``"auto"``), so an auto-labelled estimate looks its stats up under
        the default strategy it was priced at.
        """
        operation, _, strategy = estimate_strategy.partition(":")
        declaration = operation_declaration(operation) if strategy == "auto" else None
        return estimate_strategy if declaration is None else f"{operation}:{declaration.auto[0]}"

    def _apply_latency(self, estimate: CostEstimate, label: str) -> CostEstimate:
        """Attach a wall-clock prediction from the observed median latency.

        Sequential extrapolation (calls × per-call p50): the planner cannot
        know the dispatch concurrency a run will use, and the sequential
        figure is the conservative bound the budget-style comparisons need.
        The reservoir blends cache-hit and live durations in observed
        proportions, so a warm workload predicts its own (faster) reality.
        """
        p50 = self.stats.latency_p50(label)
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

    def quote_pipeline(
        self,
        pipeline: PipelineSpec,
        estimates: Mapping[str, CostEstimate] | None = None,
        *,
        store: object | None = None,
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

        With the run's ``store`` (a :class:`~repro.store.Store` or a
        namespace of one), each step is keyed as the run will key its
        checkpoint (:meth:`_checkpoint_keys`), and each step the store will
        restore — static or factory — is priced at zero calls and dollars
        under the checkpoint's strategy, without estimating or probing its
        prompts.  The keys ride the quote into the run.
        """
        pipeline.validate()
        priced = estimates or {}
        keys = self._checkpoint_keys(pipeline, store) if store is not None else {}
        steps: dict[str, CostEstimate] = {}
        unquoted: list[str] = []
        dependencies: dict[str, tuple[str, ...]] = {}
        known_hits = 0
        known_probed = 0
        restored = 0
        for step in pipeline.steps:
            dependencies[step.name] = tuple(step.depends_on)
            key = keys.get(step.name)
            if key is not None and key.restored is not None:
                if isinstance(step.task, DeclaredFactory):
                    operation = step.task.identity["factory"]
                else:
                    operation = declaration_for(step.task).operation
                steps[step.name] = CostEstimate(
                    f"{operation}:{key.restored}", 0, Usage(), 0.0, 0.0
                )
                restored += 1
            elif isinstance(step.task, TaskSpec):
                steps[step.name] = self.estimate_spec(step.task)
                hits, probed = steps[step.name].known_cached
                known_hits += hits
                known_probed += probed
            elif step.name in priced:
                steps[step.name] = priced[step.name]
            else:
                unquoted.append(step.name)
        notes: list[str] = []
        if restored:
            spec_steps = sum(step.task is not None for step in pipeline.steps)
            notes.append(
                f"{restored} of {spec_steps} steps restored from checkpoints, priced at zero"
            )
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
            keys=keys,
        )

    def _checkpoint_keys(self, pipeline: PipelineSpec, store: object) -> dict[str, StepKey]:
        """Each keyable step's checkpoint key, marked when ``store`` holds it.

        The keys are the run's own (``step_key`` on this planner's model): a
        declared factory's is known once the store holds every parent it
        reads, so the walk takes one statement per dependency depth.  A store
        that fails to answer marks nothing more: the run's own loads decide.
        """
        model = self.spec.name
        waiting = {step.name: step.task for step in pipeline.steps if step.task is not None}
        keys: dict[str, StepKey] = {}
        digests: dict[str, str] = {}
        while waiting:
            level: dict[str, str] = {}
            for name, task in waiting.items():
                with suppress(StoreError):  # a spec with no canonical form stays unkeyed
                    if (fingerprint := step_key(task, model, digests)) is not None:
                        level[name] = fingerprint
            if not level:
                break
            try:
                held = store.checkpoint_digests(list(level.values()))  # type: ignore
            except (sqlite3.Error, StoreError):
                held = {}
            for name, fingerprint in level.items():
                strategy, digest = held.get(fingerprint, (None, None))
                keys[name] = StepKey(waiting.pop(name), model, fingerprint, strategy, digest)
                if digest is not None:
                    digests[name] = digest
        return keys
