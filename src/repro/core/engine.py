"""The declarative engine facade.

:class:`DeclarativeEngine` is the user-facing entry point of the library: it
owns a :class:`~repro.core.session.PromptSession` (shared budget, cache,
tracker) and turns declarative :mod:`~repro.core.spec` objects into operator
runs.  There is one run path, :meth:`DeclarativeEngine.run_spec`; what is
specific to an operator — how it is built and invoked, what its run teaches
the statistics store — comes from the spec's declaration in
:mod:`repro.core.declarations`, and ``engine.sort(spec)`` and its seven
siblings are typed names for the same call.  The engine's
``max_concurrency`` argument is threaded through to every operator it
constructs, so all independent unit tasks (pairwise comparisons, rating
calls, per-record imputations, ...) run through a shared-size thread pool;
at temperature 0 results are identical to sequential execution.

Strategy selection is not the engine's job any more: every spec —
whatever its operator — is resolved by the
:class:`~repro.core.physical.PhysicalPlanner` before execution.  Explicit
strategies pass through untouched; ``"auto"`` specs with a labelled
validation sample go through the :class:`~repro.core.optimizer.
StrategySelector` (the AutoML-style loop the paper sketches in Section 4);
everything else is picked by estimated cost under the remaining budget.
After each run the engine feeds what actually happened (observed filter
selectivities, dedup rates, call counts) back into the session's
:class:`~repro.core.stats.RuntimeStats`, so later quotes and plans are
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

from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.core.budget import Budget, BudgetLease
from repro.core.declarations import declaration_for
from repro.core.physical import PhysicalPlan, PhysicalPlanner
from repro.core.planner import CostPlanner, PipelineQuote
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
    TaskSpec,
    TopKSpec,
)
from repro.core.governor import ConcurrencyGovernor
from repro.core.workflow import StepReport, Workflow, WorkflowReport
from repro.exceptions import SpecError, StoreError
from repro.llm.base import Body, Invoke, LLMClient, adrive, drive
from repro.llm.registry import ModelRegistry
from repro.operators.base import OperatorResult
from repro.obs import critical_path
from repro.store.fingerprint import fingerprint_spec
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

    @contextmanager
    def operator_scope(self, label: str) -> Iterator[None]:
        """Label everything inside as one operator run, ``"<op>:<strategy>"``.

        The tracer's ``operator=`` trace label and the ``operator`` span
        (under whatever step span is ambient) carry the same text, so the
        span waterfall and the trace records name the same work identically.
        """
        with trace_label(operator=label), self.session.spans.span("operator", label):
            yield

    @property
    def stats(self):
        """The session's observed-execution statistics store."""
        return self.session.stats

    @property
    def spent_dollars(self) -> float:
        """Total dollars spent through this engine."""
        return self.session.spent_dollars

    # -- running specs ------------------------------------------------------------

    def run_spec(
        self, spec: TaskSpec, *, budget: Budget | BudgetLease | None = None
    ) -> Any:
        """Execute any declared task spec (the one run path of the engine).

        The spec's :mod:`declaration <repro.core.declarations>` says how:
        validate, resolve the strategy through the physical planner, build
        the operator, invoke it under its ``"<op>:<strategy>"`` label, then
        feed the run back into the session's statistics.  A declaration
        with a ``run`` function of its own (filter) takes over after
        validation.
        """
        declaration = declaration_for(spec)
        spec.validate()
        if declaration.run is not None:
            return declaration.run(self, spec, budget)
        resolved = self.physical.resolve(
            spec, budget=budget if budget is not None else self.session.budget
        )
        operator = self.physical.build_operator(spec, budget)
        with self.operator_scope(f"{declaration.operation}:{resolved.strategy}"):
            result = declaration.invoke(operator, spec, resolved.strategy, resolved.options)
        self.physical.record_run(spec, resolved, result)
        declaration.observe(self.stats, spec, result)
        return result

    def sort(
        self, spec: SortSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a sort spec; returns a ``SortResult``."""
        return self.run_spec(spec, budget=budget)

    def resolve(
        self, spec: ResolveSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a resolve spec.

        With ``pairs`` the spec is a pair-judgment task (the Table 3
        setting) and returns a ``PairJudgmentResult``.  With records only,
        it is a whole-corpus clustering task and returns a ``ResolveResult``
        whose ``clusters`` hold record indices.
        """
        return self.run_spec(spec, budget=budget)

    def impute(
        self, spec: ImputeSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute an impute spec; returns an ``ImputeResult``."""
        return self.run_spec(spec, budget=budget)

    def filter(
        self, spec: FilterSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a filter spec, applying conjunctive predicates in order.

        Returns one merged ``FilterResult`` (see the filter declaration's
        ``run`` for the per-predicate strategy resolution).
        """
        return self.run_spec(spec, budget=budget)

    def categorize(
        self, spec: CategorizeSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a categorize spec; returns a ``CategorizeResult``."""
        return self.run_spec(spec, budget=budget)

    def top_k(
        self, spec: TopKSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a top-k spec; returns a ``TopKResult``."""
        return self.run_spec(spec, budget=budget)

    def join(
        self, spec: JoinSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a join spec; returns a ``JoinResult``."""
        return self.run_spec(spec, budget=budget)

    def cluster(
        self, spec: ClusterSpec, *, budget: Budget | BudgetLease | None = None
    ) -> OperatorResult:
        """Execute a cluster spec; returns a ``ClusterResult``."""
        return self.run_spec(spec, budget=budget)

    # -- pipelines ----------------------------------------------------------------

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
        """A warning when the session's span ring has evicted call records."""
        dropped = self.session.spans.dropped_calls
        if not dropped:
            return None
        return (
            f"trace ring dropped {dropped} record(s) before flushing; "
            "observed statistics may undercount (raise the span ring's "
            "capacity or flush more often)"
        )

    def run_pipeline(
        self,
        pipeline: PipelineSpec,
        *,
        quote: PipelineQuote | None = None,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
        on_step: "Callable[[StepReport], None] | None" = None,
    ) -> WorkflowReport:
        """Run a declarative pipeline as a DAG.

        Independent steps run concurrently on the session's executor; spec
        steps are executed by this engine under per-step budget leases
        apportioned from whatever remains of the session budget, weighted by
        the pre-flight quote.  When no ``quote`` is passed one is computed
        and attached to the report.

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
            pipeline: the :class:`~repro.core.spec.PipelineSpec` to run.
            quote: optional pre-computed quote (avoids re-estimating).
            max_concurrency: scheduler pool size for independent steps;
                defaults to the session's ``max_concurrency``.
            store: durable store for checkpoints/profile; defaults to the
                session's own store when it has one.
            on_step: optional observer called with each step's
                :class:`~repro.core.workflow.StepReport` as it settles
                (``restored`` already stamped); the service layer streams
                these to polling clients.
        """
        return drive(
            self._pipeline(pipeline, quote, max_concurrency, store, on_step, Workflow.execute)
        )

    async def run_pipeline_async(
        self,
        pipeline: PipelineSpec,
        *,
        quote: PipelineQuote | None = None,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
        on_step: "Callable[[StepReport], None] | None" = None,
    ) -> WorkflowReport:
        """Awaitable :meth:`run_pipeline`, on the asyncio scheduler.

        For callers already inside a loop (an ASGI request handler, the
        service's job manager); sync code that wants this scheduler writes
        ``asyncio.run(engine.run_pipeline_async(spec))``.  Same quoting,
        checkpointing, profile persistence, and report — it awaits
        :meth:`Workflow.execute_async`, which runs native-async clients on
        the loop and bridges the engine's sync spec steps into worker
        threads.
        """
        return await adrive(
            self._pipeline(
                pipeline, quote, max_concurrency, store, on_step, Workflow.execute_async
            )
        )

    def _pipeline(
        self,
        pipeline: PipelineSpec,
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
        workflow = Workflow.from_pipeline(pipeline)
        if quote is None:
            quote = self.quote_pipeline(pipeline)
        if store is None:
            store = self.session.store
        restored: set[str] = set()

        def spec_runner(
            step: PipelineStep, inputs: Mapping[str, Any], lease: BudgetLease | None
        ) -> Any:
            return self._run_step(store, restored, step, inputs, lease)

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
        self._absorb_observability(report, pipeline.name)
        # The span flush and the profile are one transaction when they go
        # through one handle.
        shared = store is not None and self._ring_writes_through(store.db)
        with store.db.atomic() if shared else nullcontext():
            # Best effort: spans are diagnostics, never a run failure.
            with suppress(Exception):
                self.session.spans.flush()
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
        report.spans = self.session.spans.subtree(report.span_id)
        path = critical_path(report.spans)
        if path.seconds > 0:
            self.stats.record_critical_path(pipeline_name, path.seconds)
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
        store.save_profile(self.session.stats, merge=store is not self.session.store)

    def _materialize_step_task(
        self, step: PipelineStep, inputs: Mapping[str, Any]
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

    def _run_step(
        self,
        store: "Store | None",
        restored: set[str],
        step: PipelineStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        """Run one spec step, through the checkpoint store when there is one.

        The fingerprint is computed over the *concrete* spec (factories
        already applied) and the model its calls go out with, so it
        content-addresses the step's resolved inputs; a hit restores the
        stored result before any strategy resolution happens —
        validation-driven ``auto`` steps therefore skip even their
        labelled-sample candidate runs on resume.  Specs that cannot be
        fingerprinted or results without a codec simply bypass the store
        (re-running is always correct).
        """
        with trace_label(step=step.name):
            task = self._materialize_step_task(step, inputs)
            fingerprint = None
            if store is not None:
                with suppress(StoreError):
                    fingerprint = fingerprint_spec(task, model=self.physical.planner_model())
            if fingerprint is None:
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
            result = None
            with store.db.step():
                try:
                    result = self.run_spec(task, budget=lease)
                finally:
                    self._settle_step(store, fingerprint, task, result)
            return result

    def _ring_writes_through(self, db: Any) -> bool:
        """Whether the session's span ring flushes through the handle ``db``
        (a ring on another handle would wait on a transaction held on this one)."""
        session_store = self.session.store
        return session_store is not None and session_store.db is db

    def _settle_step(
        self, store: "Store", fingerprint: str, task: TaskSpec, result: Any
    ) -> None:
        """Write what a step produced as one transaction, however it ended.

        The response-cache rows buffered while the step ran (see
        :meth:`~repro.store.db.StoreDB.step`), the spans of its calls
        and — when it returned a result — its checkpoint commit together, so
        a checkpoint is never on disk without the calls that paid for it,
        and a step that raised still keeps every response it bought.  Best
        effort: a full disk, a locked database, or a result without a codec
        must not fail a step whose (paid-for) LLM work already succeeded.
        """
        db = store.db
        with suppress(Exception), db.atomic():
            db.flush()
            if self._ring_writes_through(db):
                self.session.spans.flush()
            if isinstance(result, OperatorResult):
                with suppress(Exception):  # the rows above commit regardless
                    store.save_checkpoint(fingerprint, task, result)
