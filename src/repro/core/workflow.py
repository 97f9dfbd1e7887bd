"""DAG pipeline engine: dependency-scheduled workflows over one session.

A :class:`Workflow` is the scheduler of one
:class:`~repro.core.spec.PipelineSpec` — the only description of a pipeline:
named :class:`~repro.core.spec.PipelineStep` objects connected by
``depends_on`` edges, each a ``run`` callable ``(session, inputs) -> result``
or a ``task`` (an operator spec, or a factory building one from upstream
results) that the engine executes
(:meth:`~repro.core.engine.DeclarativeEngine.run_pipeline`), quoting the
pipeline a priori and apportioning the budget per step.  The scheduler
topologically sorts the graph into *waves* of mutually independent steps,
runs each wave through the session's
:class:`~repro.core.executor.BatchExecutor` (so independent branches overlap
in wall-clock time when ``max_concurrency > 1``), and hands every step the
results of its transitive dependencies.  One
:class:`~repro.core.session.PromptSession` — one cache, one tracker, one
budget — spans the whole pipeline.

Budget semantics: before each round the scheduler checks the budget (the
session budget, or a tighter pipeline-level ``budget_dollars`` lease) and
splits the remaining dollars over the still-pending spec steps (weighted by
the pre-flight quote when one is supplied, equally otherwise; run-only
callable steps never charge the budget and get no share).  Each spec step
runs under a :class:`~repro.core.budget.BudgetLease` capped at its share, so
one runaway step cannot starve its siblings: a step that exhausts its lease
is recorded as ``"stopped"`` and only its dependents are blocked, while
independent branches keep running on their own allocations.  Once the shared
budget itself is gone the pipeline *stops cleanly*: completed results are
kept, never-dispatched steps are reported as skipped, and the report (not an
exception) says why.

Determinism: waves, step order, and each step's input dict depend only on
the declared graph, never on thread timing; at temperature 0 a DAG run is
element-wise identical to the linear chain (the equivalence suite in
``tests/core/test_pipeline.py`` asserts this at concurrency 1 and 4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.budget import BudgetLease
from repro.core.dag import topological_waves, transitive_dependencies
from repro.core.session import BudgetScopedSession, PromptSession
from repro.core.spec import PipelineSpec, PipelineStep
from repro.exceptions import BudgetExceededError, SpecError
from repro.llm.base import Body, Invoke, adrive, drive
from repro.operators.base import OperatorResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import PipelineQuote

#: A spec-step executor: ``(step, inputs, lease) -> result``.  Supplied by
#: the engine; plain sessions cannot run operator specs themselves.
SpecRunner = Callable[[PipelineStep, Mapping[str, Any], BudgetLease | None], Any]

#: A step-completion observer: called with each step's :class:`StepReport`
#: the moment the step settles (``completed`` or ``stopped``).  The service
#: layer streams these to polling clients.
StepObserver = Callable[["StepReport"], None]


@dataclass
class StepReport:
    """Execution record of one step.

    Attributes:
        name: the step's name.
        status: ``"completed"``, ``"stopped"`` (hit the budget mid-step), or
            ``"skipped"`` (never dispatched).
        cost: dollars the step reported (spec steps only; callable steps
            appear as 0 because concurrent siblings make a global-tracker
            delta unattributable).  A restored step reports the *original*
            run's cost — what the checkpoint saved, not new spend.
        calls: LLM calls the step reported (spec steps only).
        allocation: the budget share apportioned to the step, if any.
        description: the step's human-readable summary, copied from the spec.
        restored: the result was served from a checkpoint store — this run
            made no LLM calls for the step (the report's ``total_*`` deltas
            already reflect that).
        span_id: id of the step's span in the session's span tree (None when
            the step never dispatched); streamed
            in SSE step events so clients can join events to spans/traces.
    """

    name: str
    status: str = "skipped"
    cost: float = 0.0
    calls: int = 0
    allocation: float | None = None
    description: str = ""
    restored: bool = False
    span_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-shaped view (what the service's job endpoints return)."""
        return {
            "name": self.name,
            "status": self.status,
            "cost": self.cost,
            "calls": self.calls,
            "allocation": self.allocation,
            "description": self.description,
            "restored": self.restored,
            "span_id": self.span_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StepReport":
        allocation = data.get("allocation")
        span_id = data.get("span_id")
        return cls(
            name=str(data.get("name", "")),
            status=str(data.get("status", "skipped")),
            cost=float(data.get("cost", 0.0)),
            calls=int(data.get("calls", 0)),
            allocation=None if allocation is None else float(allocation),
            description=str(data.get("description", "")),
            restored=bool(data.get("restored", False)),
            span_id=None if span_id is None else int(span_id),
        )


@dataclass
class WorkflowReport:
    """Execution record of a workflow run.

    ``total_*`` fields are deltas over this run only — a session reused
    across several workflows reports each run's own usage, not the
    session-lifetime totals.
    """

    results: dict[str, Any] = field(default_factory=dict)
    step_order: list[str] = field(default_factory=list)
    waves: list[list[str]] = field(default_factory=list)
    step_reports: dict[str, StepReport] = field(default_factory=dict)
    total_cost: float = 0.0
    total_prompt_tokens: int = 0
    total_completion_tokens: int = 0
    total_calls: int = 0
    stopped_early: bool = False
    stop_reason: str = ""
    quote: "PipelineQuote | None" = None
    #: Root span id of this run's pipeline span (None until a run sets it).
    span_id: int | None = None
    #: Operational warnings (trace-ring drops, partial observability) —
    #: advisory, never a failure.
    notes: list[str] = field(default_factory=list)
    #: The run's span subtree (pipeline→wave→step→call), collected by the
    #: engine after the run for `render_timeline(report)`.  Runtime-only:
    #: excluded from serialization and equality (persisted spans live in the
    #: store's `spans` table instead).
    spans: list = field(default_factory=list, compare=False, repr=False)

    @property
    def completed_steps(self) -> list[str]:
        return [name for name, step in self.step_reports.items() if step.status == "completed"]

    @property
    def stopped_steps(self) -> list[str]:
        """Steps that ran and spent money until the budget cut them off."""
        return [name for name, step in self.step_reports.items() if step.status == "stopped"]

    @property
    def skipped_steps(self) -> list[str]:
        """Steps that were never dispatched (safe to re-run from scratch)."""
        return [name for name, step in self.step_reports.items() if step.status == "skipped"]

    @property
    def restored_steps(self) -> list[str]:
        """Steps whose results came from a checkpoint store (zero new calls)."""
        return [name for name, step in self.step_reports.items() if step.restored]

    def to_dict(self, *, include_results: bool = True) -> dict[str, Any]:
        """A JSON-shaped view of the whole run.

        Step results are encoded through the checkpoint codecs of
        :mod:`repro.store.checkpoint` — the same wire form resumable
        pipelines already rely on — so a service client polling a finished
        job reads results identical to an in-process run's.  Results without
        a codec (callable steps returning arbitrary objects) are listed
        under ``unserialized_results`` instead of failing the whole report.
        """
        from repro.store.checkpoint import encode_result  # breaks import cycle

        encoded: dict[str, Any] = {}
        unserialized: list[str] = []
        if include_results:
            for name, value in self.results.items():
                if isinstance(value, OperatorResult):
                    try:
                        encoded[name] = json.loads(encode_result(value))
                        continue
                    except Exception:
                        pass
                unserialized.append(name)
        return {
            "results": encoded,
            "unserialized_results": unserialized,
            "step_order": list(self.step_order),
            "waves": [list(wave) for wave in self.waves],
            "step_reports": {
                name: report.to_dict() for name, report in self.step_reports.items()
            },
            "total_cost": self.total_cost,
            "total_prompt_tokens": self.total_prompt_tokens,
            "total_completion_tokens": self.total_completion_tokens,
            "total_calls": self.total_calls,
            "stopped_early": self.stopped_early,
            "stop_reason": self.stop_reason,
            "quote": None if self.quote is None else self.quote.to_dict(),
            "span_id": self.span_id,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkflowReport":
        """Rebuild a report (results decoded through the checkpoint codecs)."""
        from repro.core.planner import PipelineQuote
        from repro.store.checkpoint import decode_result  # breaks import cycle

        results: dict[str, Any] = {}
        for name, payload in dict(data.get("results", {})).items():
            decoded = decode_result(json.dumps(payload))
            if decoded is not None:
                results[name] = decoded
        quote_data = data.get("quote")
        return cls(
            results=results,
            step_order=[str(name) for name in data.get("step_order", ())],
            waves=[[str(name) for name in wave] for wave in data.get("waves", ())],
            step_reports={
                str(name): StepReport.from_dict(report)
                for name, report in dict(data.get("step_reports", {})).items()
            },
            total_cost=float(data.get("total_cost", 0.0)),
            total_prompt_tokens=int(data.get("total_prompt_tokens", 0)),
            total_completion_tokens=int(data.get("total_completion_tokens", 0)),
            total_calls=int(data.get("total_calls", 0)),
            stopped_early=bool(data.get("stopped_early", False)),
            stop_reason=str(data.get("stop_reason", "")),
            quote=None if quote_data is None else PipelineQuote.from_dict(quote_data),
            span_id=(
                None if data.get("span_id") is None else int(data["span_id"])
            ),
            notes=[str(note) for note in data.get("notes", ())],
        )


class Workflow:
    """The DAG scheduler of one validated :class:`~repro.core.spec.PipelineSpec`.

    The spec's ``budget_dollars`` optionally caps the run's spend
    independently of the session's own limit: at execution the cap becomes a
    :class:`~repro.core.budget.BudgetLease` over the session budget, so the
    scheduler apportions and stops against whichever is tighter.
    """

    def __init__(self, pipeline: PipelineSpec) -> None:
        pipeline.validate()
        self.pipeline = pipeline

    @classmethod
    def from_pipeline(cls, pipeline: PipelineSpec) -> "Workflow":
        """The scheduler for ``pipeline`` (:class:`SpecError` if it is inconsistent)."""
        return cls(pipeline)

    # -- execution --------------------------------------------------------------

    def execute(
        self,
        session: PromptSession,
        *,
        max_concurrency: int | None = None,
        spec_runner: SpecRunner | None = None,
        quote: "PipelineQuote | None" = None,
        on_step: StepObserver | None = None,
    ) -> WorkflowReport:
        """Run the DAG against ``session``, wave by wave, on the calling thread.

        Each wave goes through the session's threaded
        :class:`~repro.core.executor.BatchExecutor`.

        Args:
            session: shared execution context (cache, tracker, budget).
            max_concurrency: how many independent steps the scheduler keeps
                in flight; defaults to the session's ``max_concurrency``.
            spec_runner: executes spec steps (the engine supplies this —
                see :meth:`DeclarativeEngine.run_pipeline`); required only
                when the pipeline contains spec steps.
            quote: optional pre-flight quote whose per-step dollar estimates
                weight the budget apportionment.
            on_step: optional observer called with each step's
                :class:`StepReport` as the step settles; observer errors are
                swallowed (an observer must never sink the run).
        """
        return drive(
            self._schedule(
                session, session.batch_executor, max_concurrency, spec_runner, quote, on_step
            )
        )

    async def execute_async(
        self,
        session: PromptSession,
        *,
        max_concurrency: int | None = None,
        spec_runner: SpecRunner | None = None,
        quote: "PipelineQuote | None" = None,
        on_step: StepObserver | None = None,
    ) -> WorkflowReport:
        """The asyncio-native scheduler: the same rounds, awaited.

        Each round of runnable steps goes through the session's
        :class:`~repro.core.executor.AsyncBatchExecutor`: steps whose
        ``run`` is a coroutine function are awaited natively on the loop
        (zero extra threads), while sync steps — including all engine-run
        spec steps — are bridged into worker threads so a wave of blocking
        operator runs still overlaps.  Everything else is :meth:`execute`'s
        own code, so at temperature 0 the two schedulers produce
        element-wise identical reports.
        """
        return await adrive(
            self._schedule(
                session, session.async_batch_executor, max_concurrency, spec_runner, quote, on_step
            )
        )

    def _schedule(
        self,
        session: PromptSession,
        make_executor: Callable[..., Any],
        max_concurrency: int | None,
        spec_runner: SpecRunner | None,
        quote: "PipelineQuote | None",
        on_step: StepObserver | None,
    ) -> Body:
        """The round loop both schedulers run (a body, see :mod:`repro.llm.base`).

        ``make_executor`` is the session's thread or asyncio executor
        factory; the only step that differs between the schedulers is
        running a wave's thunks through that executor's ``map``, which is
        handed to the driver.
        """
        state = self._prepare_execution(session, spec_runner, quote)
        executor = make_executor(max_concurrency=max_concurrency, budget=state.budget)
        pipeline, spans = self.pipeline, state.spans
        with spans.span("pipeline", pipeline.name, steps=len(pipeline.steps)) as pipeline_span:
            state.report.span_id = pipeline_span.span_id
            round_index = 0
            while state.pending:
                planned = self._plan_round(state, session, spec_runner, quote)
                if planned is None:
                    break
                runnable, thunks, leases = planned
                # The wave span is ambient while the executor dispatches the
                # thunks (each pool submission and each asyncio task copies
                # the current context), so step spans opened inside workers
                # parent correctly.
                with spans.span("wave", f"wave {round_index}", steps=list(runnable)):
                    outcomes = yield Invoke(executor.map, thunks)
                round_index += 1
                progressed, failure = self._absorb_outcomes(
                    state, runnable, outcomes, leases, on_step
                )
                if failure is not None:
                    self._finalize(
                        state.report, session, state.usage_before, state.cost_before
                    )
                    raise failure
                if not progressed:
                    break  # defensive: nothing completed or stopped this round
        self._finalize(state.report, session, state.usage_before, state.cost_before)
        return state.report

    # -- internals ---------------------------------------------------------------

    def _prepare_execution(
        self,
        session: PromptSession,
        spec_runner: SpecRunner | None,
        quote: "PipelineQuote | None",
    ) -> "_ExecutionState":
        """Build the run's mutable state (the graph was validated at construction)."""
        steps = self.pipeline.steps
        dependencies = {step.name: list(step.depends_on) for step in steps}
        waves = topological_waves(dependencies)
        closures = transitive_dependencies(dependencies)
        if spec_runner is None:
            spec_steps = [step.name for step in steps if step.task is not None]
            if spec_steps:
                raise SpecError(
                    f"workflow {self.pipeline.name!r} contains spec steps {spec_steps} but "
                    "no spec runner; execute it through DeclarativeEngine.run_pipeline"
                )

        report = WorkflowReport(waves=waves, quote=quote)
        report.step_reports = {
            step.name: StepReport(name=step.name, description=step.description)
            for step in steps
        }

        budget = session.budget
        if self.pipeline.budget_dollars is not None:
            # The pipeline's own cap, enforced as a lease over the session
            # budget (binding even when the session budget is unlimited).
            budget = budget.lease(self.pipeline.budget_dollars)
        return _ExecutionState(
            dependencies=dependencies,
            closures=closures,
            steps_by_name={step.name: step for step in steps},
            report=report,
            budget=budget,
            pending=[name for wave in waves for name in wave],
            # Report this run's usage, not session-lifetime totals.
            usage_before=session.tracker.usage,
            cost_before=session.tracker.cost(),
            spans=session.spans,
            instruments=session.instruments,
        )

    def _plan_round(
        self,
        state: "_ExecutionState",
        session: PromptSession,
        spec_runner: SpecRunner | None,
        quote: "PipelineQuote | None",
    ) -> tuple[list[str], list[Callable[[], Any]], dict[str, BudgetLease]] | None:
        """Pick this round's runnable steps and build their thunks.

        Returns ``None`` when the run is over: the shared budget is gone
        (recorded on the report) or everything left is downstream of a
        stopped step.
        """
        report, budget, pending = state.report, state.budget, state.pending
        if not budget.unlimited and budget.remaining <= 0.0:
            report.stopped_early = True
            if not report.stop_reason:
                report.stop_reason = (
                    f"budget exhausted before step(s) "
                    f"{', '.join(repr(n) for n in pending)}: "
                    f"spent ${budget.spent:.6f} of ${budget.limit:.6f}"
                )
            return None
        # The next round: every pending step whose dependencies all
        # completed.  With no failures this dispatches exactly the
        # topological waves; after a lease stop, unaffected independent
        # branches keep running while the stopped step's dependents stay
        # blocked (and are reported as skipped below).
        runnable = [
            name
            for name in pending
            if all(dep in report.results for dep in state.dependencies[name])
        ]
        if not runnable:
            return None  # the rest are downstream of a stopped step

        # Steps downstream of a stopped step can never run, so they must
        # not reserve a share of the remaining money — only steps whose
        # whole dependency closure is completed or still pending count.
        reachable = [
            name
            for name in pending
            if all(dep in report.results or dep in pending for dep in state.closures[name])
        ]
        allocations = self._apportion(reachable, state.steps_by_name, budget, quote)
        thunks: list[Callable[[], Any]] = []
        leases: dict[str, BudgetLease] = {}
        for name in runnable:
            step = state.steps_by_name[name]
            inputs = {dep: report.results[dep] for dep in state.closures[name]}
            allocation = allocations.get(name)
            report.step_reports[name].allocation = allocation
            thunks.append(
                self._make_thunk(
                    step, session, inputs, budget, allocation, spec_runner, leases, state
                )
            )
        return runnable, thunks, leases

    @staticmethod
    def _absorb_outcomes(
        state: "_ExecutionState",
        runnable: list[str],
        outcomes: list[Any],
        leases: dict[str, BudgetLease],
        on_step: StepObserver | None = None,
    ) -> tuple[bool, BaseException | None]:
        """Fold one round's outcomes into the report; (progressed, failure)."""
        report, pending = state.report, state.pending
        progressed = False
        failure: BaseException | None = None
        settled: list[StepReport] = []
        for name, outcome in zip(runnable, outcomes):
            step_report = report.step_reports[name]
            if not outcome.skipped:
                step_report.span_id = state.step_spans.get(name)
            if outcome.ok:
                step_report.status = "completed"
                report.results[name] = outcome.value
                report.step_order.append(name)
                if isinstance(outcome.value, OperatorResult):
                    step_report.cost = outcome.value.cost
                    step_report.calls = outcome.value.usage.calls
                pending.remove(name)
                progressed = True
                settled.append(step_report)
            elif outcome.skipped:
                # Never dispatched this round (a sibling failed first, or
                # the budget died before the step started); stays pending —
                # the next _plan_round either retries it or records the
                # budget stop for the whole remainder.
                continue
            elif isinstance(outcome.error, BudgetExceededError):
                # The step ran out of money (its lease or the shared
                # budget).  Contain the damage to the step: its
                # dependents are blocked, but independent branches keep
                # their own allocations and continue.
                step_report.status = "stopped"
                if name in leases:
                    # The partial spend before the cut-off, measured by
                    # the step's own lease.
                    step_report.cost = leases[name].spent
                report.stopped_early = True
                if not report.stop_reason:
                    report.stop_reason = str(outcome.error)
                pending.remove(name)
                progressed = True
                settled.append(step_report)
            else:
                failure = failure or outcome.error
        if on_step is not None:
            for step_report in settled:
                try:
                    on_step(step_report)
                except Exception as exc:
                    # An observer must never sink the run it is watching —
                    # but it must not fail silently either: count it and
                    # pin the error class on the step's span.
                    state.instruments.note_observer_error()
                    if step_report.span_id is not None:
                        state.spans.annotate(
                            step_report.span_id, observer_error=type(exc).__name__
                        )
        return progressed, failure

    @staticmethod
    def _make_thunk(
        step: PipelineStep,
        session: PromptSession,
        inputs: dict[str, Any],
        budget: Any,
        allocation: float | None,
        spec_runner: SpecRunner | None,
        leases: dict[str, BudgetLease],
        state: "_ExecutionState",
    ) -> Callable[[], Any]:
        inner: Callable[[], Any]
        if step.task is not None:
            assert spec_runner is not None  # checked before scheduling
            if allocation is None:
                inner = lambda: spec_runner(step, inputs, None)  # noqa: E731
            else:
                # The lease is taken when the step *starts*, not when the
                # wave is built, and the engine charges the step's calls
                # through it — so it measures exactly this step's spending,
                # sequential or concurrent.  It is parked in ``leases`` so a
                # budget-stopped step's partial spend still reaches its
                # report.
                def run_with_lease() -> Any:
                    lease = budget.lease(allocation)
                    leases[step.name] = lease
                    return spec_runner(step, inputs, lease)

                inner = run_with_lease
        else:
            assert step.run is not None
            if budget is not session.budget:
                # A pipeline-level budget_dollars cap: route even a callable
                # step's raw session calls through the cap's lease, or they
                # would silently bypass it.
                scoped = BudgetScopedSession(session, budget)
                inner = lambda: step.run(scoped, inputs)  # noqa: E731
            else:
                inner = lambda: step.run(session, inputs)  # noqa: E731

        # The step span opens in the worker that actually runs the thunk
        # (its ambient parent is the wave span copied at submission), and
        # its id is parked on the state so _absorb_outcomes can stamp it
        # onto the StepReport — the thunk may run on any thread.
        def traced() -> Any:
            with state.spans.span(
                "step", step.name, depends_on=list(step.depends_on)
            ) as span:
                state.step_spans[step.name] = span.span_id
                return inner()

        return traced

    @staticmethod
    def _apportion(
        pending: list[str],
        steps_by_name: Mapping[str, PipelineStep],
        budget: Any,
        quote: "PipelineQuote | None",
    ) -> dict[str, float]:
        """Split the remaining dollars across the still-pending spec steps.

        Run-only callable steps never charge a lease, so they get no share
        (reserving money for them would starve their spec siblings).  Spec
        steps are weighted by the quote's per-step estimates when available;
        a spec step with no quoted estimate (a run-time factory) gets the
        average quoted weight so it is neither starved nor favoured.
        """
        if budget.unlimited:
            return {}
        spenders = [name for name in pending if steps_by_name[name].task is not None]
        if not spenders:
            return {}
        estimates = quote.steps if quote is not None else {}
        quoted = [estimates[name].dollars for name in spenders if name in estimates]
        fallback = (sum(quoted) / len(quoted)) if quoted else 1.0
        weights = {
            name: estimates[name].dollars if name in estimates else fallback
            for name in spenders
        }
        total = sum(weights.values())
        if total <= 0.0:
            weights = {name: 1.0 for name in spenders}
            total = float(len(spenders))
        remaining = budget.remaining
        return {name: remaining * weight / total for name, weight in weights.items()}

    @staticmethod
    def _finalize(
        report: WorkflowReport, session: PromptSession, usage_before: Any, cost_before: float
    ) -> None:
        usage_after = session.tracker.usage
        report.total_cost = session.tracker.cost() - cost_before
        report.total_prompt_tokens = usage_after.prompt_tokens - usage_before.prompt_tokens
        report.total_completion_tokens = (
            usage_after.completion_tokens - usage_before.completion_tokens
        )
        report.total_calls = usage_after.calls - usage_before.calls


@dataclass
class _ExecutionState:
    """Mutable per-run state of :meth:`Workflow._schedule` and its helpers."""

    dependencies: dict[str, list[str]]
    closures: Mapping[str, Any]
    steps_by_name: dict[str, PipelineStep]
    report: WorkflowReport
    budget: Any
    pending: list[str]
    usage_before: Any
    cost_before: float
    #: The session's SpanTracker / SessionInstruments.
    spans: Any
    instruments: Any
    #: step name -> step span id, filled by the traced thunks as they run.
    step_spans: dict[str, int] = field(default_factory=dict)
