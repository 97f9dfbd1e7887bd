"""Lowering logical plans onto the DAG pipeline engine.

:func:`compile_plan` turns a :class:`~repro.query.plan.LogicalPlan` into a
:class:`~repro.core.spec.PipelineSpec` the existing scheduler executes:

* Every logical node becomes one named pipeline step (a proxy-blocked
  resolve becomes two: an LLM-free blocking step plus a pair-judgment
  step), lowered by its operator's declaration (``lower``; the explain
  line is its ``describe``).  Steps whose input items are statically known
  compile to concrete operator specs — validated, and priced by the
  planner, before anything runs.  Steps downstream of a reducing op compile
  to :data:`~repro.core.spec.SpecFactory` closures that *materialize* their
  input items from upstream step results at run time.
* ``depends_on`` edges are inferred from **data lineage**: a step depends
  only on the steps whose results its input items are materialized from.
  Annotating ops (categorize/cluster/impute, ``output_from = "parent"``)
  pass items through, so downstream steps skip them and the scheduler runs
  annotators concurrently with the rest of the chain for free.
  ``lineage_deps=False`` reproduces the naive chain (each step gated on its
  authored predecessor) — the baseline the benchmarks compare against.
* The compile-time quote is the planner's own
  (:meth:`~repro.core.planner.CostPlanner.quote_pipeline` — the one place a
  quote is assembled): it prices the concrete steps, and the compiler hands
  it estimates for the run-time factory steps, priced over *estimated* item
  lists (filters shrink downstream cardinality by their declared
  selectivity), so ``.explain()`` can show per-step quotes for those too.
  With a store, a step the store will restore — a factory's too, keyed by
  its lineage (:func:`_declared`) — is quoted at zero and marked ``(restored)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from functools import partial
from typing import Any, Callable, Mapping

from repro.core.declarations import OperatorDeclaration, unique_items
from repro.core.planner import CostEstimate, CostPlanner, PipelineQuote
from repro.core.spec import PipelineSpec, PipelineStep, ResolveSpec, SpecFactory, TaskSpec
from repro.exceptions import ConfigurationError, SpecError
from repro.index import AUTO_LSH_THRESHOLD, corpus_index_name, load_or_build_index, resolve_embedder
from repro.llm.prompts import DUPLICATE_CHECK
from repro.proxies.blocking import BlockingResult, EmbeddingBlocker
from repro.query.plan import (
    LogicalNode,
    LogicalPlan,
    estimated_items,
    estimated_spec,
    validate_plan,
)
from repro.store.fingerprint import DeclaredFactory, FingerprintError, factory_identity, keyed_params


@dataclass(frozen=True)
class CompiledStep:
    """Explain/quote metadata for one compiled pipeline step."""

    name: str
    op: str
    depends_on: tuple[str, ...]
    estimate: CostEstimate | None
    description: str


@dataclass(frozen=True)
class CompiledQuery:
    """A lowered query: the executable spec plus its pre-flight quote."""

    plan: LogicalPlan
    spec: PipelineSpec
    quote: PipelineQuote
    steps: tuple[CompiledStep, ...]
    #: Final step name per logical node (the judge step for proxy resolves).
    step_of: Mapping[LogicalNode, str]
    #: Computes the query's final item list from the pipeline's results.
    extract_output: Callable[[Mapping[str, Any]], list[str]]
    #: Records post-run observations the engine cannot see from inside a
    #: step — proxy-resolve dedup survivor ratios and blocked-pair rates.
    #: ``Dataset.run`` calls this once with the pipeline's results, the
    #: session's :class:`~repro.core.physical.RuntimeStats`, and the names
    #: of checkpoint-restored steps (whose evidence was already recorded by
    #: the run that produced them, so it must not be double-counted).
    record_feedback: Callable[..., None] = lambda results, stats, restored=frozenset(): None


def compile_plan(
    plan: LogicalPlan,
    *,
    planner: CostPlanner,
    lineage_deps: bool = True,
    budget_dollars: float | None = None,
    store: Any | None = None,
) -> CompiledQuery:
    """Lower ``plan`` to a :class:`PipelineSpec` (see module docstring)."""
    validate_plan(plan)
    step_of: dict[LogicalNode, str] = {}
    block_step_of: dict[LogicalNode, str] = {}
    for index, node in enumerate(node for node in plan.nodes() if node.op != "source"):
        step_of[node] = f"s{index + 1}_{node.op}"
        if node.params.get("proxy"):  # only the optimizer sets it, on resolves
            block_step_of[node] = f"s{index + 1}_block"

    # Recursive, so module-level with ``step_of`` as an argument: a nested
    # function that calls itself is a cycle that keeps the plan for the collector.
    materialize = partial(_materialize, step_of)
    lineage_of = partial(_read_steps, step_of)

    def depends_for(node: LogicalNode) -> tuple[str, ...]:
        if lineage_deps:
            deps: list[str] = []
            for upstream in node.inputs:
                deps.extend(lineage_of(upstream))
        else:
            deps = [step_of[upstream] for upstream in node.inputs if upstream.op != "source"]
        return tuple(dict.fromkeys(deps))

    # -- step emission ----------------------------------------------------------------

    pipeline_steps: list[PipelineStep] = []
    #: Explain metadata; each step's estimate is filled in from the quote below.
    compiled_steps: list[CompiledStep] = []
    #: Estimates for run-time factory steps, which the planner cannot price.
    estimates: dict[str, CostEstimate] = {}

    for node, name in step_of.items():
        if node in block_step_of:
            block_name, judge_deps = _emit_proxy_resolve(
                node,
                name,
                block_step_of[node],
                depends_for(node),
                step_of,
                pipeline_steps,
                store,
            )
            compiled_steps.append(
                CompiledStep(
                    name=block_name,
                    op="proxy_block",
                    depends_on=depends_for(node),
                    estimate=None,
                    description="embedding blocker: candidate pairs, no LLM calls",
                )
            )
            compiled_steps.append(
                CompiledStep(
                    name=name,
                    op="resolve(proxy)",
                    depends_on=judge_deps,
                    estimate=None,
                    description="judge blocked candidate pairs, then merge components",
                )
            )
            estimate = _proxy_estimate(node, planner)
            if estimate is not None:
                estimates[name] = estimate
            continue

        declaration = node.declaration
        feeds = node.feeds
        depends_on = depends_for(node)
        if all(lineage_of(upstream) == () for upstream in feeds):
            # Static feeds are source-only, so the estimate *is* the literal
            # item list (no stats needed to materialize it), and the planner
            # prices the concrete spec itself.
            task: TaskSpec | Callable[..., TaskSpec] = estimated_spec(node)
        else:

            def factory(
                inputs: Mapping[str, Any],
                *,
                _declaration: OperatorDeclaration = declaration,
                _params: Mapping[str, Any] = node.params,
                _feeds: tuple[LogicalNode, ...] = feeds,
            ) -> TaskSpec:
                return _declaration.lower(
                    _params, *[materialize(upstream, inputs) for upstream in _feeds]
                )

            task = factory if store is None else _declared(step_of, node, factory)
            estimate = _estimate_step(node, planner)
            if estimate is not None:
                estimates[name] = estimate
        description = declaration.describe(node.params)
        if planner.stats is not None:
            notes = declaration.explain_notes(node.params, planner.stats)
            if notes:
                description = f"{description} [{'; '.join(notes)}]"
        pipeline_steps.append(
            PipelineStep(
                name=name, task=task, depends_on=depends_on, description=description
            )
        )
        compiled_steps.append(
            CompiledStep(
                name=name,
                op=node.op,
                depends_on=depends_on,
                estimate=None,
                description=description,
            )
        )

    spec = PipelineSpec(
        name=plan.name,
        steps=pipeline_steps,
        budget_dollars=budget_dollars,
        description="compiled from a fluent Dataset query",
    )
    quote = planner.quote_pipeline(spec, estimates, store=store)
    compiled_steps = [
        dataclass_replace(step, estimate=quote.steps.get(step.name))
        for step in compiled_steps
    ]
    root = plan.root

    def record_feedback(
        results: Mapping[str, Any], stats: Any, restored: frozenset = frozenset()
    ) -> None:
        """Feed proxy-resolve outcomes back into the session's runtime stats.

        The engine records dedup survivor ratios for records-path resolves
        it runs itself, but a proxy-rewritten dedup executes as a blocking
        callable plus a pair-judgment step — the cluster count only exists
        here, where the judgments are merged into representatives.  Without
        this, only records-path resolves informed the dedup ratio.

        ``restored`` steps are skipped: their evidence was recorded by the
        run that produced the checkpoint, and re-adding it on every free
        replay would let one workload's observations grow without bound.
        """
        for node, block_name in block_step_of.items():
            judge_name = step_of[node]
            if judge_name not in results:
                continue  # step stopped/skipped: nothing observed
            if judge_name in restored:
                continue  # replayed from a checkpoint: already recorded
            blocking = results.get(block_name)
            if blocking is None:
                # Degenerate (<2 survivors) path: the judge ran a records
                # resolve through the engine, which already recorded it.
                continue
            parent_items = unique_items(materialize(node.inputs[0], results))
            # The node's output items: one representative per duplicate cluster.
            survivors = materialize(node, results)
            stats.record_dedup(inputs=len(parent_items), survivors=len(survivors))
            block_k = int(node.params.get("block_k", 5))
            effective_k = min(block_k, max(1, len(parent_items) - 1))
            stats.record_blocked_pairs(
                candidates=blocking.n_candidates,
                upper_bound=effective_k * len(parent_items),
            )

    return CompiledQuery(
        plan=plan,
        spec=spec,
        quote=quote,
        steps=tuple(compiled_steps),
        step_of=dict(step_of),
        extract_output=lambda results: materialize(root, results),
        record_feedback=record_feedback,
    )


# -- helpers --------------------------------------------------------------------------


def _materialize(
    step_of: Mapping[LogicalNode, str], node: LogicalNode, results: Mapping[str, Any]
) -> list[str]:
    """Output items of ``node`` given the upstream step results."""
    if node.op == "source":
        return list(node.params["items"])
    declaration = node.declaration
    if declaration.output_from == "result":  # see _read_steps
        return declaration.output_items(node.params, [], results[step_of[node]])
    parent_items = _materialize(step_of, node.inputs[0], results)
    if declaration.output_from == "parent":
        return parent_items
    return declaration.output_items(node.params, parent_items, results[step_of[node]])


def _read_steps(step_of: Mapping[LogicalNode, str], node: LogicalNode) -> tuple[str, ...]:
    """Steps whose results :func:`_materialize` reads for ``node``."""
    if node.op == "source":
        return ()
    upstream = _read_steps(step_of, node.inputs[0])
    output_from = node.declaration.output_from
    if output_from == "parent":
        return upstream
    if output_from == "result":
        # Its result holds the literal items (a filter's kept, a top-k's top
        # items); the parent chain's results are not needed once it has run.
        return (step_of[node],)
    return (step_of[node], *upstream)


def _reads(node: LogicalNode) -> Any:
    """What :func:`_materialize` reads for ``node`` other than step results."""
    if node.op == "source":
        return node.params["items"]
    output_from = node.declaration.output_from
    if output_from == "parent":
        return _reads(node.inputs[0])
    own = (node.op, keyed_params(node.params))
    return own if output_from == "result" else (own, _reads(node.inputs[0]))


def _declared(
    step_of: Mapping[LogicalNode, str], node: LogicalNode, factory: SpecFactory, *extra: Any
) -> SpecFactory:
    """``factory`` keyed by its node's lineage (a :class:`DeclaredFactory`), or
    as it is (keyed by its spec) when that identity has no canonical form."""
    reads = [_reads(feed) for feed in node.feeds]
    try:
        identity = factory_identity(node.op, keyed_params(node.params), *extra, reads)
    except FingerprintError:
        return factory
    parents = (step for feed in node.feeds for step in _read_steps(step_of, feed))
    return DeclaredFactory(factory, identity, tuple(dict.fromkeys(parents)))


def _emit_proxy_resolve(
    node: LogicalNode,
    judge_name: str,
    block_name: str,
    parent_deps: tuple[str, ...],
    step_of: Mapping[LogicalNode, str],
    pipeline_steps: list[PipelineStep],
    compile_store: Any | None = None,
) -> tuple[str, tuple[str, ...]]:
    """Emit the blocking + pair-judgment step pair for a proxy resolve."""
    materialize = partial(_materialize, step_of)
    parent = node.inputs[0]
    block_k = int(node.params.get("block_k", 5))

    def run_blocker(session: Any, inputs: Mapping[str, Any]) -> Any:
        items = unique_items(materialize(parent, inputs))
        if len(items) < 2:
            return None
        # Route neighbor-finding through the vector-index layer: embeddings
        # go through the store's durable cache, and the index persists under
        # a content-fingerprinted name with the k-NN graph computed from it,
        # so re-running the same workload reads the graph: it neither
        # re-embeds, nor reloads the index, nor ranks.  Corpus size picks
        # exact vs LSH ("auto"), which is what keeps blocking sub-quadratic
        # once item lists grow past a few thousand.
        store = compile_store if compile_store is not None else session.store
        embedder = resolve_embedder(store=store)
        k = min(block_k, max(1, len(items) - 1))
        name = corpus_index_name(items, embedder, prefix="block") if store is not None else None
        stored = store.load_knn_graphs(name) if store is not None else None
        kind, graphs = stored if stored is not None else ("", {})
        graph = graphs.get(k)
        if graph is not None and len(graph) == len(items):
            # The run that computed the graph recorded its probes.
            result = BlockingResult.from_neighbors(dict(enumerate(graph)))
            reused = True
        else:
            index, reused = load_or_build_index(
                items,
                embedder=embedder,
                store=store,
                name=name if stored is not None else None,  # no row, nothing to load
            )
            kind = str(getattr(index, "kind", "unknown"))
            probes_before = int(getattr(index, "probes", 0))
            candidates_before = int(getattr(index, "candidates_examined", 0))
            result = EmbeddingBlocker(k=k, embedder=embedder, index=index).block(items)
            probed = int(getattr(index, "probes", 0)) - probes_before
            if probed > 0:
                session.stats.record_probe_candidates(
                    candidates=int(getattr(index, "candidates_examined", 0))
                    - candidates_before,
                    probed=probed,
                )
            if store is not None:
                # One write: the index with every graph computed from it.
                kept = graphs if reused else {}
                neighbors = [result.neighbors[own] for own in range(len(items))]
                store.save_vector_index(name, index, {**kept, k: neighbors})
        # An index build is local work, not an LLM call: a leaf span under
        # the step, never a ``call`` record.
        session.spans.record_span(
            "index",
            kind,
            cache_hit=reused,
            texts=len(items),
            k=k,
            candidate_pairs=result.n_candidates,
        )
        return result

    pipeline_steps.append(
        PipelineStep(
            name=block_name,
            run=run_blocker,
            depends_on=parent_deps,
            description="embedding-blocking proxy (LLM-free)",
        )
    )

    def judge_factory(inputs: Mapping[str, Any]) -> TaskSpec:
        items = unique_items(materialize(parent, inputs))
        blocking = inputs[block_name]
        if blocking is None:
            # Degenerate input (a single survivor): one grouping prompt.
            return node.declaration.lower({**node.params, "strategy": "single_prompt"}, items)
        pairs = [(items[i], items[j]) for i, j in blocking.candidate_pairs]
        return ResolveSpec(
            pairs=pairs,
            strategy="pairwise",
            budget_dollars=node.params.get("budget_dollars"),
            accuracy_target=node.params.get("accuracy_target"),
        )

    judge_task: SpecFactory = judge_factory
    if compile_store is not None:
        # The blocker's pairs follow from these and the items: a restored judge needs none.
        embedder = resolve_embedder()
        blocking = (block_k, embedder.model, embedder.dimensions, embedder.ngram_sizes)
        judge_task = _declared(step_of, node, judge_factory, blocking, AUTO_LSH_THRESHOLD)
    judge_deps = tuple(dict.fromkeys((block_name, *parent_deps)))
    pipeline_steps.append(
        PipelineStep(
            name=judge_name,
            task=judge_task,
            depends_on=judge_deps,
            description="pairwise judgments over blocked candidates",
        )
    )
    return block_name, judge_deps


def _estimate_step(node: LogicalNode, planner: CostPlanner) -> CostEstimate | None:
    """Quote one factory step over statically estimated input items.

    The upstream estimates consult the planner's runtime stats when it has
    them, so a second quote of an executed workload sizes every downstream
    step from observed selectivities instead of priors.
    """
    try:
        return planner.estimate_spec(estimated_spec(node, planner.stats))
    except SpecError:
        return None


def _proxy_estimate(node: LogicalNode, planner: CostPlanner) -> CostEstimate | None:
    """Quote a proxy-blocked resolve: pair judgments over the blocked candidates.

    The structural prior is the k·n upper bound; once a blocking run has
    been observed (this session or a loaded workload profile), the quote
    shrinks to the observed mutual-neighbor candidate fraction of that
    bound — symmetric and overlapping neighbor pairs deduplicate, so the
    real candidate count routinely lands well under k·n.
    """
    items = estimated_items(node.inputs[0], planner.stats)
    if len(items) < 2:
        return None
    block_k = int(node.params.get("block_k", 5))
    upper_bound = block_k * len(items)
    count = min(upper_bound, len(items) * (len(items) - 1) // 2)
    rate = planner.observed_blocked_pair_rate()
    if rate is not None:
        count = min(count, max(1, int(round(upper_bound * rate))))
    if count < 1:
        # block_k <= 0 blocks nothing: no candidate pair to judge.
        raise ConfigurationError("cannot plan over an empty pair list")
    estimate = planner.blocked_pairs(items, count, DUPLICATE_CHECK)
    return estimate.labelled("resolve:proxy_blocked")
