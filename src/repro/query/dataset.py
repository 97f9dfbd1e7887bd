"""The fluent, lazily-evaluated Dataset query API.

This is the library's declarative frontend: chainable methods accumulate a
:class:`~repro.query.plan.LogicalPlan` instead of executing anything, and a
terminal call lowers the plan — through the rule-based optimizer — onto the
DAG pipeline engine::

    from repro import Dataset

    result = (
        Dataset(product_texts, name="products")
        .filter("is an electronics product")
        .resolve()                      # dedup to one listing per product
        .top_k("best value for money", k=3)
        .with_budget(0.25)
        .run(engine)
    )
    print(result.items)

Nothing above runs an LLM call until ``.run``; ``.explain()`` renders the
optimized plan with per-step cost quotes, and ``.quote()`` returns the same
numbers as a :class:`~repro.core.planner.PipelineQuote`.  The optimizer
pushes cheap filters ahead of pairwise-heavy operators, fuses adjacent
filters, inserts embedding-blocking proxy steps when the planner says they
pay, and infers ``depends_on`` edges from data lineage so annotating steps
(categorize, cluster, impute) run concurrently with the item chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.config import DEFAULT_CONFIG
from repro.core.engine import DeclarativeEngine
from repro.core.planner import CostPlanner, PipelineQuote
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec
from repro.core.workflow import WorkflowReport
from repro.data.products import ImputationDataset
from repro.exceptions import SpecError
from repro.index import build_index, corpus_index_name, resolve_embedder
from repro.query.compile import CompiledQuery, compile_plan
from repro.query.optimizer import optimize
from repro.query.plan import ANNOTATORS, LogicalNode, LogicalPlan, source

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import Store


@dataclass
class QueryResult:
    """Outcome of running a fluent query.

    Attributes:
        items: the query's final item list (the root node's output).
        report: the pipeline run report (per-step statuses, costs, waves).
        spec: the :class:`PipelineSpec` the query compiled to.
        quote: the pre-flight quote of the executed plan.
        explain: the rendered plan that was executed.
    """

    items: list[str]
    report: WorkflowReport
    spec: PipelineSpec
    quote: PipelineQuote
    explain: str = ""

    @property
    def results(self) -> dict[str, Any]:
        """Per-step operator results, keyed by compiled step name."""
        return self.report.results

    @property
    def total_cost(self) -> float:
        """Dollars this run spent."""
        return self.report.total_cost

    @property
    def total_calls(self) -> int:
        """LLM calls this run made."""
        return self.report.total_calls

    def step_result(self, name_or_op: str) -> Any:
        """Result of the step named ``name_or_op`` (or the first with that op).

        ``result.step_result("categorize")`` finds the categorize step's
        result without knowing the generated step name.
        """
        if name_or_op in self.report.results:
            return self.report.results[name_or_op]
        for name, value in self.report.results.items():
            if name.split("_", 1)[-1] == name_or_op:
                return value
        raise KeyError(f"no pipeline step matches {name_or_op!r}")


class Dataset:
    """A lazily-evaluated collection of text items with chainable operators.

    Every operator method returns a *new* ``Dataset`` wrapping a grown
    logical plan; the receiver is never mutated, so intermediate datasets
    can be branched and reused.  See the module docstring for the overall
    flow and :mod:`repro.query.optimizer` for what optimization does.
    """

    def __init__(
        self,
        items: Sequence[str] | None = None,
        *,
        name: str = "dataset",
        _node: LogicalNode | None = None,
        _budget_dollars: float | None = None,
        _store: "Store | None" = None,
    ) -> None:
        if _node is None:
            if items is None:
                raise SpecError("a Dataset needs items")
            _node = source(items, name)
        self._node = _node
        self._name = name
        self._budget_dollars = _budget_dollars
        self._store = _store

    def _extend(self, op: str, params: dict[str, Any], *extra_inputs: LogicalNode) -> "Dataset":
        node = LogicalNode(op=op, params=params, inputs=(self._node, *extra_inputs))
        return Dataset(
            name=self._name,
            _node=node,
            _budget_dollars=self._budget_dollars,
            _store=self._store,
        )

    @staticmethod
    def _common(
        strategy: str,
        options: dict[str, Any],
        budget_dollars: float | None,
        accuracy_target: float | None,
    ) -> dict[str, Any]:
        return {
            "strategy": strategy,
            "options": options,
            "budget_dollars": budget_dollars,
            "accuracy_target": accuracy_target,
        }

    # -- chainable operators ---------------------------------------------------------

    def filter(
        self,
        predicate: str,
        *,
        expected_selectivity: float = 0.5,
        pushdown: bool = True,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Keep items satisfying a natural-language predicate.

        ``expected_selectivity`` is the planner's prior for the surviving
        fraction; it shapes downstream cost quotes (and therefore what the
        optimizer considers worth reordering), never the actual result.

        The optimizer may commute this filter ahead of upstream operators.
        Across a ``.resolve()`` dedup that assumes the predicate is
        *entity-level* — duplicate records agree on it (the usual
        declarative contract, like pushing a selection below a
        duplicate-elimination in SQL).  If this predicate distinguishes
        duplicate variants (e.g. "is not the refurbished listing"), pass
        ``pushdown=False`` to keep it exactly where it was written.
        """
        if not predicate:
            raise SpecError("filter needs a predicate")
        if not 0.0 < expected_selectivity <= 1.0:
            raise SpecError("expected_selectivity must be in (0, 1]")
        return self._extend(
            "filter",
            {
                "predicates": (predicate,),
                "selectivities": (expected_selectivity,),
                "pushdown": pushdown,
                **self._common(strategy, options, budget_dollars, accuracy_target),
            },
        )

    def sort(
        self,
        criterion: str,
        *,
        strategy: str = "auto",
        validation_order: Sequence[str] = (),
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Order items by a textual criterion (best first)."""
        if not criterion:
            raise SpecError("sort needs a criterion")
        return self._extend(
            "sort",
            {
                "criterion": criterion,
                "validation_order": tuple(validation_order),
                **self._common(strategy, options, budget_dollars, accuracy_target),
            },
        )

    def resolve(
        self,
        *,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Deduplicate: keep one representative per duplicate cluster.

        The representative is the cluster member appearing first in the
        input order.  The optimizer may insert an embedding-blocking proxy
        ahead of the pairwise judgments when the planner says it pays.
        """
        return self._extend(
            "resolve", self._common(strategy, options, budget_dollars, accuracy_target)
        )

    def categorize(
        self,
        categories: Sequence[str],
        *,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Annotate each item with one of the fixed category labels.

        Items pass through unchanged; read the assignments from
        ``result.step_result("categorize")``.
        """
        return self._extend(
            "categorize",
            {
                "categories": tuple(str(category) for category in categories),
                **self._common(strategy, options, budget_dollars, accuracy_target),
            },
        )

    def top_k(
        self,
        criterion: str,
        k: int = 1,
        *,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Keep the best ``k`` items under a textual criterion."""
        if not criterion:
            raise SpecError("top_k needs a criterion")
        if k < 1:
            raise SpecError("k must be at least 1")
        return self._extend(
            "top_k",
            {
                "criterion": criterion,
                "k": k,
                **self._common(strategy, options, budget_dollars, accuracy_target),
            },
        )

    def cluster(
        self,
        *,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Annotate the items with entity/category groups (items unchanged)."""
        return self._extend(
            "cluster", self._common(strategy, options, budget_dollars, accuracy_target)
        )

    def impute(
        self,
        data: ImputationDataset,
        *,
        n_examples: int = 0,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
    ) -> "Dataset":
        """Annotate the query with an imputation run over ``data``.

        The imputation reads its own dataset rather than the chain items,
        so the optimizer schedules it concurrently with the item chain.
        """
        return self._extend(
            "impute",
            {
                "data": data,
                "n_examples": n_examples,
                "strategy": strategy,
                "budget_dollars": budget_dollars,
                "accuracy_target": accuracy_target,
            },
        )

    def join(
        self,
        other: "Dataset",
        *,
        expected_selectivity: float | None = None,
        strategy: str = "auto",
        budget_dollars: float | None = None,
        accuracy_target: float | None = None,
        **options: Any,
    ) -> "Dataset":
        """Semi-join: keep items with at least one fuzzy match in ``other``.

        The match table is available as ``result.step_result("join")``.
        ``expected_selectivity`` is the planner's prior for the fraction of
        items that find a match; like a filter's selectivity it shapes
        downstream cost quotes — and the semi-join ordering rule — never
        the actual result.  An explicitly declared prior always wins (the
        author knows *this* join — declaring 1.0 pins it there); left
        undeclared, the session's observed join match rate fills in once a
        join has executed, and a conservative 1.0 otherwise.
        """
        if not isinstance(other, Dataset):
            raise SpecError("join needs another Dataset")
        params = self._common(strategy, options, budget_dollars, accuracy_target)
        if expected_selectivity is not None:
            if not 0.0 < expected_selectivity <= 1.0:
                raise SpecError("expected_selectivity must be in (0, 1]")
            params["selectivity"] = expected_selectivity
        return self._extend("join", params, other._node)

    def with_budget(self, dollars: float) -> "Dataset":
        """Cap the whole query's spend (enforced as a pipeline-level lease)."""
        if dollars < 0:
            raise SpecError("budget_dollars must be non-negative")
        return Dataset(
            name=self._name,
            _node=self._node,
            _budget_dollars=dollars,
            _store=self._store,
        )

    def with_store(self, store: "Store") -> "Dataset":
        """Attach a durable :class:`~repro.store.Store` to this query.

        ``.run`` then executes checkpointed: each step's result persists as
        it completes, a re-run (same or later process) restores finished
        steps with zero LLM calls, and editing part of the chain re-executes
        only the changed subtree.  The session's workload profile is saved
        to the store after the run.
        """
        return Dataset(
            name=self._name,
            _node=self._node,
            _budget_dollars=self._budget_dollars,
            _store=store,
        )

    # -- semantic search -------------------------------------------------------------

    def _static_items(self) -> list[str]:
        """The dataset's item list, when it is statically known.

        Annotating ops (categorize/cluster/impute) pass items through, so
        chains of them still expose the source items.  Below a reducer
        (filter, sort, resolve, top_k, join) the items only exist after a
        run — searching a guess would be wrong, so that is an error.
        """
        node = self._node
        while node.op in ANNOTATORS:
            node = node.inputs[0]
        if node.op != "source":
            raise SpecError(
                f"search needs statically-known items, but {node.op!r} only "
                "produces its output at run time; call .run(...) and search "
                "a new Dataset over result.items instead"
            )
        return [str(item) for item in node.params["items"]]

    def search(self, query: str, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` items nearest to ``query`` in embedding space.

        Zero LLM calls: the items are embedded (through the attached
        store's durable cache, when one is attached via
        :meth:`with_store`), indexed — exact for small datasets, LSH past
        a few thousand items — and probed once.  With a store, the built
        index persists under a content-addressed name, so repeated
        searches over an unchanged dataset neither re-embed nor rebuild.

        Returns ``(item, distance)`` pairs, nearest first.
        """
        if not query:
            raise SpecError("search needs a query")
        if k < 1:
            raise SpecError("k must be at least 1")
        items = self._static_items()
        if not items:
            return []
        embedder = resolve_embedder(store=self._store)
        index = build_index(
            items,
            embedder=embedder,
            store=self._store,
            name=(
                corpus_index_name(items, embedder, prefix="search")
                if self._store is not None
                else None
            ),
        )
        hits = index.search(embedder.embed(query), min(k, len(items)))
        return [(items[int(row_id)], float(distance)) for row_id, distance in hits]

    # -- plan access -----------------------------------------------------------------

    def logical_plan(self) -> LogicalPlan:
        """The raw (unoptimized) logical plan this dataset has accumulated."""
        return LogicalPlan(root=self._node, name=self._name)

    def optimized_plan(self, *, planner: CostPlanner | None = None) -> LogicalPlan:
        """The plan after the rule-based optimizer has rewritten it."""
        return optimize(self.logical_plan(), planner=planner or self._default_planner())

    def compile(
        self,
        *,
        optimized: bool = True,
        planner: CostPlanner | None = None,
        store: "Store | None" = None,
    ) -> CompiledQuery:
        """Lower the (optionally optimized) plan to a pipeline spec + quote.

        ``store`` (defaulting to the one attached via :meth:`with_store`)
        is where LLM-free blocking steps persist their embeddings and
        vector indexes.
        """
        planner = planner or self._default_planner()
        plan = self.optimized_plan(planner=planner) if optimized else self.logical_plan()
        return compile_plan(
            plan,
            planner=planner,
            lineage_deps=optimized,
            budget_dollars=self._budget_dollars,
            store=store if store is not None else self._store,
        )

    def to_pipeline(
        self, *, optimized: bool = True, planner: CostPlanner | None = None
    ) -> PipelineSpec:
        """The executable :class:`PipelineSpec` the query compiles to."""
        return self.compile(optimized=optimized, planner=planner).spec

    def quote(
        self, *, optimized: bool = True, planner: CostPlanner | None = None
    ) -> PipelineQuote:
        """Pre-flight quote: per-step estimates over the compiled plan.

        Without ``planner`` the library's default chat model prices the
        quote; pass ``engine.planner()`` to price (and cost-gate the
        optimizer) exactly as a ``.run(engine)`` will.  ``.run`` results
        carry the quote actually used in ``result.quote``.
        """
        return self.compile(optimized=optimized, planner=planner).quote

    def explain(
        self, *, optimized: bool = True, planner: CostPlanner | None = None
    ) -> str:
        """Human-readable plan rendering with per-step cost quotes.

        As with :meth:`quote`, pass ``engine.planner()`` to see the plan a
        ``.run(engine)`` will execute; ``result.explain`` on a run result
        is always the executed plan.
        """
        compiled = self.compile(optimized=optimized, planner=planner)
        return render_explain(compiled, optimized=optimized)

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        engine: "DeclarativeEngine | PromptSession | Any",
        *,
        optimized: bool = True,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
    ) -> QueryResult:
        """Compile the query and execute it on the DAG pipeline engine.

        Args:
            engine: a :class:`DeclarativeEngine`, a :class:`PromptSession`,
                or a raw LLM client (a session/engine is built around it).
            optimized: run the optimizer before compiling (default); pass
                ``False`` to execute the naive authored chain.
            max_concurrency: scheduler pool size for independent steps.
            store: durable store for checkpoint/resume; defaults to the one
                attached via :meth:`with_store` (or the session's own).
        """
        engine = _as_engine(engine)
        if store is None:
            store = self._store
        if store is None:
            store = engine.session.store
        compiled = self.compile(optimized=optimized, planner=engine.planner(), store=store)
        report = engine.run_pipeline(
            compiled.spec,
            quote=compiled.quote,
            max_concurrency=max_concurrency,
            store=store,
        )
        items = self._final_items(compiled, report)
        # Close the feedback loop for rewrites the engine cannot see from
        # inside a step: proxy-resolve dedup survivor ratios and observed
        # blocked-pair rates (the next quote prices blocking from these).
        # Checkpoint-restored steps are excluded — their evidence was
        # recorded by the run that produced them.
        compiled.record_feedback(
            report.results,
            engine.session.stats,
            frozenset(report.restored_steps),
        )
        if store is not None:
            # The feedback above landed after run_pipeline's autosave;
            # refresh the stored profile so it carries the full picture.
            store.save_profile(
                engine.session.stats, merge=store is not engine.session.store
            )
        return QueryResult(
            items=items,
            report=report,
            spec=compiled.spec,
            quote=compiled.quote,
            explain=render_explain(compiled, optimized=optimized),
        )

    @staticmethod
    def _final_items(compiled: CompiledQuery, report: WorkflowReport) -> list[str]:
        if report.stopped_early:
            # A budget stop leaves downstream results missing; the final
            # item list is unknowable, but the report carries the partials.
            return []
        return compiled.extract_output(report.results)

    def _default_planner(self) -> CostPlanner:
        # With a store attached, quotes probe its durable response cache:
        # statically-known prompts a previous session already paid for are
        # priced at zero even before any engine/session exists.
        cache = self._store.response_cache() if self._store is not None else None
        return CostPlanner(DEFAULT_CONFIG.chat_model, response_cache=cache)

    def __repr__(self) -> str:
        ops = " -> ".join(node.op for node in self.logical_plan().nodes())
        return f"Dataset({self._name!r}: {ops})"


def _as_engine(target: Any) -> DeclarativeEngine:
    if isinstance(target, DeclarativeEngine):
        return target
    if isinstance(target, PromptSession):
        return DeclarativeEngine.from_session(target)
    return DeclarativeEngine(target)


def render_explain(compiled: CompiledQuery, *, optimized: bool = True) -> str:
    """Render a compiled query as the ``.explain()`` text block."""
    mode = "optimized" if optimized else "naive"
    lines = [f"Query plan: {compiled.plan.name} ({mode})"]
    name_width = max((len(step.name) for step in compiled.steps), default=4)
    restored = compiled.quote.restored_steps
    for step in compiled.steps:
        depends = ", ".join(step.depends_on) if step.depends_on else "-"
        if step.estimate is None:
            cost = "         (unquoted)"
        else:
            cost = f"{step.estimate.calls:>5} calls  ${step.estimate.dollars:.6f}"
            if step.estimate.seconds is not None:
                cost += f"  ~{step.estimate.seconds:.1f}s"
            if step.name in restored:
                cost += "  (restored)"
        lines.append(f"  {step.name:<{name_width}}  {cost}  <- {depends}")
        lines.append(f"  {'':<{name_width}}  {step.description}")
    quote = compiled.quote
    total = f"Estimated total: {quote.total_calls} calls, ${quote.total_dollars:.6f}"
    seconds = quote.total_seconds
    if seconds is not None:
        # Only latency-observed steps contribute, so the total is a floor
        # when some steps have no wall-clock estimate yet.
        qualifier = ">=" if any(
            estimate.seconds is None for estimate in quote.steps.values()
        ) else "~"
        total += f", {qualifier}{seconds:.1f}s"
    lines.append(total)
    if compiled.spec.budget_dollars is not None:
        lines.append(f"Budget cap: ${compiled.spec.budget_dollars:.6f}")
    if quote.notes:
        lines.append("Quote notes:")
        for note in quote.notes:
            lines.append(f"  - {note}")
    if compiled.plan.notes:
        lines.append("Optimizer notes:")
        for note in compiled.plan.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines)
