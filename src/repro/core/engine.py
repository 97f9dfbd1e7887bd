"""The declarative engine facade.

:class:`DeclarativeEngine` is the user-facing entry point of the library: it
owns a :class:`~repro.core.session.PromptSession` (shared budget, cache,
tracker) and turns declarative :mod:`~repro.core.spec` objects into operator
runs.  The engine's ``max_concurrency`` argument is threaded through to every
operator it constructs, so all independent unit tasks (pairwise comparisons,
rating calls, per-record imputations, ...) run through a shared-size thread
pool; at temperature 0 results are identical to sequential execution.

Strategy selection is not the engine's job any more: every spec —
whatever its operator — is resolved by the
:class:`~repro.core.physical.PhysicalPlanner` before execution.  Explicit
strategies pass through untouched; ``"auto"`` specs with a labelled
validation sample go through the :class:`~repro.core.optimizer.
StrategySelector` (the AutoML-style loop the paper sketches in Section 4);
everything else is picked by estimated cost under the remaining budget.
After each run the engine feeds what actually happened (observed filter
selectivities, dedup rates, call counts) back into the session's
:class:`~repro.core.physical.RuntimeStats`, so later quotes and plans are
priced from observations instead of static priors.

Multi-operator workflows go through :meth:`DeclarativeEngine.run_pipeline`:
a :class:`~repro.core.spec.PipelineSpec` declares named steps (operator
specs or plain callables) connected by ``depends_on`` edges, the engine
quotes the whole pipeline a priori (:meth:`DeclarativeEngine.quote_pipeline`)
and the DAG scheduler in :mod:`repro.core.workflow` runs independent steps
concurrently while apportioning the remaining session budget across the
pending steps.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Mapping

from repro.core.budget import Budget, BudgetLease
from repro.core.physical import PhysicalPlan, PhysicalPlanner, ResolvedStrategy
from repro.core.planner import CostPlanner, PipelineQuote
from repro.core.session import PromptSession
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
from repro.core.governor import ConcurrencyGovernor
from repro.core.workflow import (
    StepReport,
    Workflow,
    WorkflowReport,
    WorkflowStep,
    reject_running_loop,
)
from repro.exceptions import SpecError, StoreError
from repro.llm.base import Body, Invoke, LLMClient, adrive, drive
from repro.llm.registry import ModelRegistry
from repro.operators.base import OperatorResult
from repro.operators.categorize import CategorizeOperator, CategorizeResult
from repro.operators.cluster import ClusterOperator, ClusterResult
from repro.operators.filter import FilterOperator, FilterResult
from repro.operators.impute import ImputeOperator, ImputeResult
from repro.operators.join import JoinOperator, JoinResult
from repro.operators.resolve import PairJudgmentResult, ResolveOperator, ResolveResult
from repro.operators.sort import SortOperator, SortResult
from repro.operators.top_k import TopKOperator, TopKResult
from repro.obs import critical_path
from repro.store.fingerprint import fingerprint_spec
from repro.tokenizer.cost import Usage
from repro.trace import trace_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import Store


class DeclarativeEngine:
    """Run declarative data-processing specs against an LLM client."""

    def __init__(
        self,
        client: LLMClient | None = None,
        *,
        registry: ModelRegistry | None = None,
        budget: Budget | None = None,
        default_model: str | None = None,
        max_concurrency: int = 1,
        governor: ConcurrencyGovernor | None = None,
        session: PromptSession | None = None,
    ) -> None:
        if session is not None:
            if client is not None or registry is not None or budget is not None or governor is not None:
                raise SpecError(
                    "pass either an existing session or client/registry/budget/governor, not both"
                )
            self.session = session
        else:
            if client is None:
                raise SpecError("DeclarativeEngine needs a client or a session")
            self.session = PromptSession(
                client,
                registry=registry,
                budget=budget,
                max_concurrency=max_concurrency,
                governor=governor,
            )
        self.default_model = default_model
        #: The physical-planning layer every spec's strategy resolves through.
        self.physical = PhysicalPlanner(self.session, default_model=default_model)

    @classmethod
    def from_session(
        cls, session: PromptSession, *, default_model: str | None = None
    ) -> "DeclarativeEngine":
        """An engine running over an existing session (shared budget/cache).

        The fluent :class:`~repro.query.Dataset` API uses this so a query can
        execute against a session the caller already owns.
        """
        return cls(session=session, default_model=default_model)

    # -- helpers -----------------------------------------------------------------

    def _operator_kwargs(self, budget: Budget | BudgetLease | None = None) -> dict:
        return self.physical.operator_kwargs(budget)

    def _resolve(
        self, spec: TaskSpec, budget: Budget | BudgetLease | None
    ) -> ResolvedStrategy:
        """Resolve the spec's strategy under whichever budget binds the run."""
        return self.physical.resolve(
            spec, budget=budget if budget is not None else self.session.budget
        )

    def _operator_span(self, label: str) -> "ContextManager[Any]":
        """An ``operator`` span under whatever step span is ambient.

        The label matches the tracer's ``operator=`` trace label
        (``"<op>:<strategy>"``), so the span waterfall and the trace
        records name the same work identically.
        """
        tracker = getattr(self.session, "spans", None)
        if tracker is None or not tracker.enabled:
            return nullcontext(None)
        return tracker.span("operator", label)

    @property
    def stats(self):
        """The session's observed-execution statistics store."""
        return self.session.stats

    @property
    def spent_dollars(self) -> float:
        """Total dollars spent through this engine."""
        return self.session.spent_dollars

    # -- sort ---------------------------------------------------------------------

    def sort(
        self, spec: SortSpec, *, budget: Budget | BudgetLease | None = None
    ) -> SortResult:
        """Execute a sort spec, its strategy resolved by the physical planner."""
        spec.validate()
        resolved = self._resolve(spec, budget)
        operator = SortOperator(
            self.session.client(budget), spec.criterion, **self._operator_kwargs(budget)
        )
        label = f"sort:{resolved.strategy}"
        with trace_label(operator=label), self._operator_span(label):
            result = operator.run(
                list(spec.items), strategy=resolved.strategy, **resolved.options
            )
        self.physical.record_run(spec, resolved, result)
        return result

    # -- resolve ------------------------------------------------------------------

    def resolve(
        self, spec: ResolveSpec, *, budget: Budget | BudgetLease | None = None
    ) -> PairJudgmentResult | ResolveResult:
        """Execute a resolve spec.

        With ``pairs`` the spec is a pair-judgment task (the Table 3
        setting) and returns a :class:`PairJudgmentResult`.  With records
        only, it is a whole-corpus clustering task and returns a
        :class:`ResolveResult` whose ``clusters`` hold record indices.
        """
        spec.validate()
        resolved = self._resolve(spec, budget)
        operator = ResolveOperator(self.session.client(budget), **self._operator_kwargs(budget))
        label = f"resolve:{resolved.strategy}"
        if not spec.pairs:
            with trace_label(operator=label), self._operator_span(label):
                result = operator.resolve(
                    list(spec.records), strategy=resolved.strategy, **resolved.options
                )
            self.physical.record_run(spec, resolved, result)
            self.stats.record_dedup(
                inputs=len(spec.records), survivors=len(result.clusters)
            )
            return result
        options = dict(resolved.options)
        with trace_label(operator=label), self._operator_span(label):
            result = operator.judge_pairs(
                list(spec.pairs),
                strategy=resolved.strategy,
                corpus=list(spec.records) or None,
                neighbors_k=options.pop("neighbors_k", spec.neighbors_k),
                **options,
            )
        self.physical.record_run(spec, resolved, result)
        self.stats.record_pair_match(
            judged=len(result.judgments),
            duplicates=sum(1 for judgment in result.judgments if judgment.is_duplicate),
        )
        return result

    # -- impute -------------------------------------------------------------------

    def impute(
        self, spec: ImputeSpec, *, budget: Budget | BudgetLease | None = None
    ) -> ImputeResult:
        """Execute an impute spec, its strategy resolved by the physical planner."""
        spec.validate()
        assert spec.data is not None  # validate() guarantees this
        resolved = self._resolve(spec, budget)
        operator = ImputeOperator(self.session.client(budget), **self._operator_kwargs(budget))
        label = f"impute:{resolved.strategy}"
        with trace_label(operator=label), self._operator_span(label):
            result = operator.run(
                spec.data, strategy=resolved.strategy, n_examples=spec.n_examples
            )
        self.physical.record_run(spec, resolved, result)
        return result

    # -- filter -------------------------------------------------------------------

    def filter(
        self, spec: FilterSpec, *, budget: Budget | BudgetLease | None = None
    ) -> FilterResult:
        """Execute a filter spec, applying conjunctive predicates in order.

        A multi-predicate (fused) spec checks each predicate over the
        survivors of the previous one, so later predicates never spend calls
        on items an earlier predicate already rejected.  Strategies resolve
        *per predicate* (see :meth:`PhysicalPlanner.resolve_filter`): with
        validation labels, a cheap ``per_item`` pass on an easy predicate
        can precede an ensemble vote on the hard one.  Each predicate's
        observed selectivity is recorded into the session's runtime stats.
        """
        spec.validate()
        plans = self.physical.resolve_filter(
            spec, budget=budget if budget is not None else self.session.budget
        )
        survivors = [str(item) for item in spec.items]
        usage = Usage()
        cost = 0.0
        votes = 0
        decisions = {item: True for item in survivors}
        result: FilterResult | None = None
        strategies: dict[str, str] = {}
        executed: list[str] = []
        for predicate, resolved in plans:
            strategies[predicate] = resolved.strategy
            if not survivors:
                break
            if resolved.strategy not in executed:
                executed.append(resolved.strategy)
            operator = FilterOperator(
                self.session.client(budget), predicate, **self._operator_kwargs(budget)
            )
            label = f"filter:{resolved.strategy}"
            with trace_label(operator=label), self._operator_span(label):
                result = operator.run(
                    survivors, strategy=resolved.strategy, **resolved.options
                )
            for item in survivors:
                decisions[item] = result.decisions.get(item, False)
            self.stats.record_filter(
                predicate, evaluated=len(survivors), kept=len(result.kept)
            )
            survivors = list(result.kept)
            usage.add(result.usage)
            cost += result.cost
            votes += result.votes_used
        merged = FilterResult(
            strategy="+".join(executed) if executed else plans[0][1].strategy,
            kept=survivors,
            decisions=decisions,
            votes_used=votes,
        )
        merged.usage = usage
        merged.cost = cost
        if result is not None:
            merged.metadata = dict(result.metadata)
        merged.metadata["predicates"] = list(spec.all_predicates)
        merged.metadata["predicate_strategies"] = strategies
        return merged

    # -- categorize ---------------------------------------------------------------

    def categorize(
        self, spec: CategorizeSpec, *, budget: Budget | BudgetLease | None = None
    ) -> CategorizeResult:
        """Execute a categorize spec."""
        spec.validate()
        resolved = self._resolve(spec, budget)
        operator = CategorizeOperator(
            self.session.client(budget), list(spec.categories), **self._operator_kwargs(budget)
        )
        label = f"categorize:{resolved.strategy}"
        with trace_label(operator=label), self._operator_span(label):
            result = operator.run(
                list(spec.items), strategy=resolved.strategy, **resolved.options
            )
        self.physical.record_run(spec, resolved, result)
        return result

    # -- top-k --------------------------------------------------------------------

    def top_k(
        self, spec: TopKSpec, *, budget: Budget | BudgetLease | None = None
    ) -> TopKResult:
        """Execute a top-k spec."""
        spec.validate()
        resolved = self._resolve(spec, budget)
        operator = TopKOperator(
            self.session.client(budget), spec.criterion, **self._operator_kwargs(budget)
        )
        label = f"top_k:{resolved.strategy}"
        with trace_label(operator=label), self._operator_span(label):
            result = operator.run(
                list(spec.items), k=spec.k, strategy=resolved.strategy, **resolved.options
            )
        self.physical.record_run(spec, resolved, result)
        return result

    # -- join ---------------------------------------------------------------------

    def join(
        self, spec: JoinSpec, *, budget: Budget | BudgetLease | None = None
    ) -> JoinResult:
        """Execute a join spec."""
        spec.validate()
        resolved = self._resolve(spec, budget)
        operator = JoinOperator(self.session.client(budget), **self._operator_kwargs(budget))
        label = f"join:{resolved.strategy}"
        with trace_label(operator=label), self._operator_span(label):
            result = operator.run(
                list(spec.left), list(spec.right), strategy=resolved.strategy, **resolved.options
            )
        self.physical.record_run(spec, resolved, result)
        self.stats.record_join(
            left=len(spec.left),
            matched=len({left_index for left_index, _ in result.matches}),
        )
        return result

    # -- cluster ------------------------------------------------------------------

    def cluster(
        self, spec: ClusterSpec, *, budget: Budget | BudgetLease | None = None
    ) -> ClusterResult:
        """Execute a cluster spec."""
        spec.validate()
        resolved = self._resolve(spec, budget)
        operator = ClusterOperator(self.session.client(budget), **self._operator_kwargs(budget))
        label = f"cluster:{resolved.strategy}"
        with trace_label(operator=label), self._operator_span(label):
            result = operator.run(
                list(spec.items), strategy=resolved.strategy, **resolved.options
            )
        self.physical.record_run(spec, resolved, result)
        return result

    # -- pipelines ----------------------------------------------------------------

    def run_spec(
        self, spec: TaskSpec, *, budget: Budget | BudgetLease | None = None
    ) -> Any:
        """Execute any supported task spec, dispatching on its type."""
        if isinstance(spec, SortSpec):
            return self.sort(spec, budget=budget)
        if isinstance(spec, ResolveSpec):
            return self.resolve(spec, budget=budget)
        if isinstance(spec, ImputeSpec):
            return self.impute(spec, budget=budget)
        if isinstance(spec, FilterSpec):
            return self.filter(spec, budget=budget)
        if isinstance(spec, CategorizeSpec):
            return self.categorize(spec, budget=budget)
        if isinstance(spec, TopKSpec):
            return self.top_k(spec, budget=budget)
        if isinstance(spec, JoinSpec):
            return self.join(spec, budget=budget)
        if isinstance(spec, ClusterSpec):
            return self.cluster(spec, budget=budget)
        raise SpecError(f"cannot execute spec type {type(spec).__name__}")

    def planner(self, model: str | None = None) -> CostPlanner:
        """A cost planner for ``model`` (defaults to the engine's model).

        The planner is fed by the session's :class:`~repro.core.physical.
        RuntimeStats`, so quotes computed after this engine has executed
        work are priced from observed selectivities and call ratios.
        """
        return self.physical.cost_planner(model)

    def plan_physical(self, pipeline: PipelineSpec) -> PhysicalPlan:
        """Resolve every static step's strategy up front (see PhysicalPlanner)."""
        return self.physical.plan_pipeline(pipeline)

    def quote_pipeline(self, pipeline: PipelineSpec) -> PipelineQuote:
        """Pre-flight quote for a pipeline: per-step estimates plus totals.

        A quote priced from observed statistics is only as good as the
        observations that reached the store, so a session whose trace ring
        dropped records before flushing carries a warning note on every
        subsequent quote.
        """
        quote = self.planner().quote_pipeline(pipeline)
        note = self._dropped_records_note()
        if note is not None:
            quote = replace(quote, notes=quote.notes + (note,))
        return quote

    def _dropped_records_note(self) -> str | None:
        """A warning when the session's trace ring has evicted records."""
        dropped = getattr(getattr(self.session, "tracer", None), "dropped", 0)
        if not dropped:
            return None
        return (
            f"trace ring dropped {dropped} record(s) before flushing; "
            "observed statistics may undercount (raise the tracer capacity "
            "or flush more often)"
        )

    def run_pipeline(
        self,
        pipeline: PipelineSpec | Workflow,
        *,
        quote: PipelineQuote | None = None,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
        scheduler: str = "threads",
        on_step: "Callable[[StepReport], None] | None" = None,
    ) -> WorkflowReport:
        """Run a declarative pipeline (or a pre-built workflow) as a DAG.

        Independent steps run concurrently on the session's executor; spec
        steps are executed by this engine under per-step budget leases
        apportioned from whatever remains of the session budget, weighted by
        the pre-flight quote.  When no ``quote`` is passed and ``pipeline``
        is a spec, one is computed automatically and attached to the report.

        With a :class:`~repro.store.Store` (passed here, or already attached
        to the session), execution is **checkpointed**: every completed spec
        step's result is persisted under its content fingerprint as soon as
        it finishes, and any step whose fingerprint is already in the store
        is restored without a single LLM call — which is what makes a
        killed run resumable and a partially edited pipeline incremental
        (only the changed subtree re-executes).  Restored steps are flagged
        ``restored`` in the report.  The session's workload profile is
        saved back to the store after the run.

        Args:
            pipeline: a :class:`~repro.core.spec.PipelineSpec`, or a
                :class:`~repro.core.workflow.Workflow` built by hand.
            quote: optional pre-computed quote (avoids re-estimating).
            max_concurrency: scheduler pool size for independent steps;
                defaults to the session's ``max_concurrency``.
            store: durable store for checkpoints/profile; defaults to the
                session's own store when it has one.
            scheduler: ``"threads"`` (default) or ``"async"`` — forwarded to
                :meth:`~repro.core.workflow.Workflow.execute`.  The async
                scheduler awaits native-async clients on one event loop and
                bridges the engine's sync spec steps into worker threads.
            on_step: optional observer called with each step's
                :class:`~repro.core.workflow.StepReport` as it settles
                (``restored`` already stamped); the service layer streams
                these to polling clients.
        """
        if scheduler == "async":
            reject_running_loop("DeclarativeEngine.run_pipeline_async")
        execute = partial(Workflow.execute, scheduler=scheduler)
        return drive(self._pipeline(pipeline, quote, max_concurrency, store, on_step, execute))

    async def run_pipeline_async(
        self,
        pipeline: PipelineSpec | Workflow,
        *,
        quote: PipelineQuote | None = None,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
        on_step: "Callable[[StepReport], None] | None" = None,
    ) -> WorkflowReport:
        """Awaitable :meth:`run_pipeline` for callers already inside a loop.

        ``run_pipeline(..., scheduler="async")`` drives its own event loop
        via ``asyncio.run`` and therefore cannot be called from a running
        loop (an ASGI request handler, the service's job manager).  This
        entry point awaits :meth:`Workflow.execute_async` directly instead:
        same quoting, checkpointing, profile persistence, and report — the
        only difference is who owns the loop.
        """
        return await adrive(
            self._pipeline(
                pipeline, quote, max_concurrency, store, on_step, Workflow.execute_async
            )
        )

    def _pipeline(
        self,
        pipeline: PipelineSpec | Workflow,
        quote: PipelineQuote | None,
        max_concurrency: int | None,
        store: "Store | None",
        on_step: "Callable[[StepReport], None] | None",
        execute: Callable[..., Any],
    ) -> Body:
        """One pipeline run (a body, see :mod:`repro.llm.base`).

        Quote, checkpoint wiring, the run itself — ``execute`` is
        :meth:`Workflow.execute` or :meth:`Workflow.execute_async`, handed to
        the driver — then restored flags, observability and the profile.
        """
        if isinstance(pipeline, Workflow):
            workflow = pipeline
        else:
            workflow = Workflow.from_pipeline(pipeline)
            if quote is None:
                quote = self.quote_pipeline(pipeline)
        if store is None:
            store = getattr(self.session, "store", None)
        restored: set[str] = set()
        if store is None:
            spec_runner: Any = self._run_pipeline_step
        else:

            def spec_runner(
                step: WorkflowStep, inputs: Mapping[str, Any], lease: BudgetLease | None
            ) -> Any:
                return self._run_checkpointed_step(store, restored, step, inputs, lease)

        observer = on_step
        if on_step is not None:

            def observer(step_report: "StepReport") -> None:
                # The engine stamps ``restored`` on the final report only
                # after the run; events should already carry it.
                if step_report.name in restored:
                    step_report.restored = True
                on_step(step_report)

        try:
            report = yield Invoke(
                execute,
                workflow,
                self.session,
                max_concurrency=max_concurrency,
                spec_runner=spec_runner,
                quote=quote,
                on_step=observer,
            )
        except BaseException:
            # A crashed run's completed steps already checkpointed
            # themselves; their observations are just as real, so the
            # profile survives the failure too (the resumed process
            # warm-starts from everything that did happen).  Best
            # effort only: a store failure here (locked db, full disk)
            # must not replace the pipeline's real exception.
            try:
                self._save_profile(store)
            except Exception:
                pass
            raise
        for name in restored:
            report.step_reports[name].restored = True
        self._absorb_observability(report, workflow.name)
        # Persist the (possibly newly grown) observations so the next
        # session warm-starts its quotes from this run.
        self._save_profile(store)
        return report

    def _absorb_observability(self, report: WorkflowReport, pipeline_name: str) -> None:
        """Collect the run's span subtree and feed the critical path back.

        The subtree rides the report (runtime-only, for
        :func:`repro.obs.render_timeline`) and its critical-path seconds —
        the wall-clock of the longest dependent step chain, which is what
        a concurrent run actually took — are recorded into the session's
        :class:`~repro.core.physical.RuntimeStats` under the pipeline's
        name.  Trace-ring drops surface as an advisory note.
        """
        tracker = getattr(self.session, "spans", None)
        if tracker is not None and report.span_id is not None:
            report.spans = tracker.subtree(report.span_id)
            path = critical_path(report.spans)
            if path.seconds > 0:
                self.stats.record_critical_path(pipeline_name, path.seconds)
            # Best effort: spans are diagnostics, never a run failure.
            try:
                tracker.flush()
            except Exception:
                pass
        note = self._dropped_records_note()
        if note is not None and note not in report.notes:
            report.notes.append(note)

    def _save_profile(self, store: "Store | None") -> None:
        """Save the session's stats to ``store``, history-preserving.

        A session seeded from this store already carries its decayed
        history, so a plain replace is exact; saving to any *other* store
        (an explicit ``store=`` argument) merges the saved history
        underneath first, so one small run cannot clobber an accumulated
        profile.
        """
        if store is None:
            return
        store.save_profile(
            self.session.stats, merge=store is not getattr(self.session, "store", None)
        )

    def _materialize_step_task(
        self, step: WorkflowStep, inputs: Mapping[str, Any]
    ) -> TaskSpec:
        """The concrete spec a pipeline step will execute (factories applied)."""
        task = step.task
        if callable(task) and not isinstance(task, TaskSpec):
            task = task(inputs)
        if not isinstance(task, TaskSpec):
            raise SpecError(
                f"pipeline step {step.name!r} produced {type(task).__name__}, expected a TaskSpec"
            )
        try:
            task.validate()
        except SpecError as exc:
            # A factory-built spec cannot be checked at compile time; name the
            # step here so a run-time failure (e.g. an upstream filter left no
            # items) is attributable without digging through the DAG.
            raise SpecError(f"pipeline step {step.name!r}: {exc}") from exc
        return task

    def _run_pipeline_step(
        self,
        step: WorkflowStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        with trace_label(step=step.name):
            return self.run_spec(self._materialize_step_task(step, inputs), budget=lease)

    def _run_checkpointed_step(
        self,
        store: "Store",
        restored: set[str],
        step: WorkflowStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        """Run one spec step through the checkpoint store.

        The fingerprint is computed over the *concrete* spec (factories
        already applied), so it content-addresses the step's resolved
        inputs; a hit restores the stored result before any strategy
        resolution happens — validation-driven ``auto`` steps therefore
        skip even their labelled-sample candidate runs on resume.  Specs
        that cannot be fingerprinted or results without a codec simply
        bypass the store (re-running is always correct).
        """
        with trace_label(step=step.name):
            return self._checkpointed_step(store, restored, step, inputs, lease)

    def _checkpointed_step(
        self,
        store: "Store",
        restored: set[str],
        step: WorkflowStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        task = self._materialize_step_task(step, inputs)
        try:
            fingerprint = fingerprint_spec(task)
        except StoreError:
            return self.run_spec(task, budget=lease)
        try:
            cached = store.load_checkpoint(fingerprint)
        except Exception:
            # A mangled row or a database error must never sink a resume:
            # re-running the step is always correct, so a failed load is
            # just a miss.
            cached = None
        if cached is not None:
            restored.add(step.name)
            return cached
        result = self.run_spec(task, budget=lease)
        if isinstance(result, OperatorResult):
            try:
                store.save_checkpoint(fingerprint, task, result)
            except Exception:
                # Best effort: a full disk, a locked database, or a result
                # without a codec must not fail a step whose (paid-for)
                # LLM work already succeeded.
                pass
        return result
