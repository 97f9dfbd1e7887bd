"""Lowering logical plans onto the DAG pipeline engine.

:func:`compile_plan` turns a :class:`~repro.query.plan.LogicalPlan` into a
:class:`~repro.core.spec.PipelineSpec` the existing scheduler executes:

* Every logical node becomes one named pipeline step (a proxy-blocked
  resolve becomes two: an LLM-free blocking step plus a pair-judgment
  step).  Steps whose input items are statically known compile to concrete
  operator specs — validated, and priced by the planner, before anything
  runs.  Steps downstream of a reducing op compile to
  :data:`~repro.core.spec.SpecFactory` closures that *materialize* their
  input items from upstream step results at run time.
* ``depends_on`` edges are inferred from **data lineage**: a step depends
  only on the steps whose results its input items are materialized from.
  Annotating ops (categorize/cluster/impute) pass items through, so
  downstream steps skip them and the scheduler runs annotators concurrently
  with the rest of the chain for free.  ``lineage_deps=False`` reproduces
  the naive chain (each step gated on its authored predecessor) — the
  baseline the benchmarks compare against.
* The compile-time quote is the planner's own
  (:meth:`~repro.core.planner.CostPlanner.quote_pipeline` — the one place a
  quote is assembled): it prices the concrete steps, and the compiler hands
  it estimates for the run-time factory steps, priced over *estimated* item
  lists (filters shrink downstream cardinality by their declared
  selectivity), so ``.explain()`` can show per-step quotes for those too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from functools import partial
from typing import Any, Callable, Mapping

from repro.consistency.transitivity import MatchGraph
from repro.core.declarations import default_strategy
from repro.core.planner import CostEstimate, CostPlanner, PipelineQuote
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
from repro.exceptions import SpecError
from repro.index import build_index, corpus_index_name, resolve_embedder
from repro.operators.resolve import PairJudgmentResult, ResolveResult
from repro.proxies.blocking import EmbeddingBlocker
from repro.query.plan import LogicalNode, LogicalPlan, estimated_items, validate_plan


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
    nodes = plan.nodes()
    step_of: dict[LogicalNode, str] = {}
    block_step_of: dict[LogicalNode, str] = {}
    for index, node in enumerate(node for node in nodes if node.op != "source"):
        step_of[node] = f"s{index + 1}_{node.op}"
        if node.op == "resolve" and node.params.get("proxy"):
            block_step_of[node] = f"s{index + 1}_block"

    # Recursive, so module-level with ``step_of`` as an argument: a nested
    # function that calls itself is a cycle that keeps the plan for the collector.
    materialize = partial(_materialize, step_of)
    lineage_of = partial(_lineage_of, step_of)

    def depends_for(node: LogicalNode) -> tuple[str, ...]:
        if lineage_deps:
            deps: list[str] = []
            for upstream in node.inputs:
                deps.extend(lineage_of(upstream))
        else:
            deps = [step_of[upstream] for upstream in node.inputs if upstream.op != "source"]
        return tuple(dict.fromkeys(deps))

    # -- spec construction ------------------------------------------------------------

    def build_spec(node: LogicalNode, *input_items: list[str]) -> TaskSpec:
        params = node.params
        common = {
            "strategy": params.get("strategy", "auto"),
            "strategy_options": dict(params.get("options", {})),
            "budget_dollars": params.get("budget_dollars"),
            "accuracy_target": params.get("accuracy_target"),
        }
        items = list(input_items[0]) if input_items else []
        if node.op == "filter":
            return FilterSpec(
                items=items,
                predicates=tuple(params["predicates"]),
                expected_selectivities=tuple(params.get("selectivities", ())),
                **common,
            )
        if node.op == "sort":
            return SortSpec(
                items=items,
                criterion=params["criterion"],
                validation_order=tuple(params.get("validation_order", ())),
                **common,
            )
        if node.op == "resolve":
            # Exact-duplicate strings are duplicates by definition; merge
            # them for free instead of spending pair judgments on them.
            return ResolveSpec(records=_unique(items), **common)
        if node.op == "categorize":
            return CategorizeSpec(items=items, categories=tuple(params["categories"]), **common)
        if node.op == "top_k":
            # Declarative top-k of a shrunken set: clamp rather than fail.
            k = max(1, min(int(params["k"]), len(items))) if items else int(params["k"])
            return TopKSpec(items=items, criterion=params["criterion"], k=k, **common)
        if node.op == "cluster":
            return ClusterSpec(items=_unique(items), **common)
        if node.op == "impute":
            common.pop("strategy_options")
            return ImputeSpec(
                data=params["data"],
                n_examples=int(params.get("n_examples", 0)),
                strategy=params.get("strategy", "auto"),
                budget_dollars=params.get("budget_dollars"),
                accuracy_target=params.get("accuracy_target"),
            )
        if node.op == "join":
            return JoinSpec(left=items, right=list(input_items[1]), **common)
        raise SpecError(f"cannot build a spec for logical operation {node.op!r}")

    def item_inputs(node: LogicalNode) -> tuple[LogicalNode, ...]:
        """The upstream nodes whose output items feed this node's spec."""
        if node.op == "impute":
            return ()  # reads its ImputationDataset, not the chain items
        return node.inputs

    # -- step emission ----------------------------------------------------------------

    pipeline_steps: list[PipelineStep] = []
    #: Explain metadata; each step's estimate is filled in from the quote below.
    compiled_steps: list[CompiledStep] = []
    #: Estimates for run-time factory steps, which the planner cannot price.
    estimates: dict[str, CostEstimate] = {}

    for node in nodes:
        if node.op == "source":
            continue
        name = step_of[node]
        feeds = item_inputs(node)
        static = all(lineage_of(upstream) == () for upstream in feeds)
        if node.op == "resolve" and node.params.get("proxy"):
            block_name, judge_deps = _emit_proxy_resolve(
                node,
                name,
                block_step_of[node],
                depends_for(node),
                materialize,
                build_spec,
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

        depends_on = depends_for(node)
        if static:
            # Static feeds are source-only, so the estimate *is* the literal
            # item list (no stats needed to materialize it), and the planner
            # prices the concrete spec itself.
            task: TaskSpec | Callable[..., TaskSpec] = build_spec(
                node, *[list(estimated_items(up)) for up in feeds]
            )
        else:

            def factory(
                inputs: Mapping[str, Any],
                *,
                _node: LogicalNode = node,
                _feeds: tuple[LogicalNode, ...] = feeds,
            ) -> TaskSpec:
                return build_spec(
                    _node, *[materialize(upstream, inputs) for upstream in _feeds]
                )

            task = factory
            estimate = _estimate_step(node, feeds, build_spec, planner)
            if estimate is not None:
                estimates[name] = estimate
        description = _describe(node)
        annotation = _stats_annotation(node, planner)
        if annotation:
            description = f"{description} [{annotation}]"
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
    quote = planner.quote_pipeline(spec, estimates)
    compiled_steps = [
        dataclass_replace(step, estimate=quote.steps.get(step.name))
        for step in compiled_steps
    ]
    root = plan.root

    proxy_nodes = [
        node for node in nodes if node.op == "resolve" and node.params.get("proxy")
    ]

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
        for node in proxy_nodes:
            judge_name = step_of[node]
            if judge_name not in results:
                continue  # step stopped/skipped: nothing observed
            if judge_name in restored:
                continue  # replayed from a checkpoint: already recorded
            blocking = results.get(block_step_of[node])
            if blocking is None:
                # Degenerate (<2 survivors) path: the judge ran a records
                # resolve through the engine, which already recorded it.
                continue
            parent_items = _unique(materialize(node.inputs[0], results))
            representatives = _representatives(parent_items, results[judge_name])
            stats.record_dedup(inputs=len(parent_items), survivors=len(representatives))
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
    parent_items = _materialize(step_of, node.inputs[0], results)
    if node.op in ("categorize", "cluster", "impute"):
        return parent_items
    result = results[step_of[node]]
    if node.op == "filter":
        return list(result.kept)
    if node.op == "sort":
        placed = set(result.order)
        return list(result.order) + [
            item for item in parent_items if item not in placed
        ]
    if node.op == "top_k":
        return list(result.top_items)
    if node.op == "join":
        matched = sorted({left_index for left_index, _ in result.matches})
        return [parent_items[index] for index in matched]
    if node.op == "resolve":
        return _representatives(_unique(parent_items), result)
    raise SpecError(f"cannot materialize logical operation {node.op!r}")


def _lineage_of(step_of: Mapping[LogicalNode, str], node: LogicalNode) -> tuple[str, ...]:
    """Steps whose results :func:`_materialize` reads for ``node``."""
    if node.op == "source":
        return ()
    upstream = _lineage_of(step_of, node.inputs[0])
    if node.op in ("categorize", "cluster", "impute"):
        return upstream
    if node.op in ("filter", "top_k"):
        # kept/top_items are literal strings; the parent chain's results
        # are not needed once this step has run.
        return (step_of[node],)
    return (step_of[node], *upstream)


def _unique(items: list[str]) -> list[str]:
    """Items with exact-duplicate strings removed, first occurrence kept."""
    return list(dict.fromkeys(items))


def _representatives(parent_items: list[str], result: Any) -> list[str]:
    """Dedup semantics: the first member of each duplicate cluster, in order."""
    if isinstance(result, ResolveResult):
        clusters = sorted(result.clusters, key=min)
        return [parent_items[min(cluster)] for cluster in clusters]
    if isinstance(result, PairJudgmentResult):
        graph = MatchGraph()
        for item in parent_items:
            graph.add_node(item)
        for judgment in result.judgments:
            if judgment.is_duplicate:
                graph.add_match(judgment.left, judgment.right)
        index_of = {item: index for index, item in enumerate(parent_items)}
        clusters = sorted(
            (sorted(index_of[item] for item in component) for component in graph.components()),
            key=min,
        )
        return [parent_items[cluster[0]] for cluster in clusters]
    raise SpecError(f"unexpected resolve step result {type(result).__name__}")


def _emit_proxy_resolve(
    node: LogicalNode,
    judge_name: str,
    block_name: str,
    parent_deps: tuple[str, ...],
    materialize: Callable[[LogicalNode, Mapping[str, Any]], list[str]],
    build_spec: Callable[..., TaskSpec],
    pipeline_steps: list[PipelineStep],
    compile_store: Any | None = None,
) -> tuple[str, tuple[str, ...]]:
    """Emit the blocking + pair-judgment step pair for a proxy resolve."""
    parent = node.inputs[0]
    block_k = int(node.params.get("block_k", 5))

    def run_blocker(session: Any, inputs: Mapping[str, Any]) -> Any:
        items = _unique(materialize(parent, inputs))
        if len(items) < 2:
            return None
        # Route neighbor-finding through the vector-index layer: embeddings
        # go through the store's durable cache, and the built index
        # persists under a content-fingerprinted name, so re-running the
        # same workload neither re-embeds nor rebuilds.  Corpus size picks
        # exact vs LSH ("auto"), which is what keeps blocking sub-quadratic
        # once item lists grow past a few thousand.
        store = compile_store if compile_store is not None else session.store
        embedder = resolve_embedder(store=store)
        index_name = corpus_index_name(items, embedder, prefix="block")
        reused = False
        index: Any = None
        if store is not None:
            index = store.load_vector_index(index_name)
            if (
                index is not None
                and len(index) == len(items)
                and index.dimensions == embedder.dimensions
            ):
                reused = True
            else:
                index = None
        if index is None:
            index = build_index(
                items,
                embedder=embedder,
                store=store,
                name=index_name if store is not None else None,
            )
        k = min(block_k, max(1, len(items) - 1))
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
        session.tracer.record(
            operator=f"index:{getattr(index, 'kind', 'unknown')}",
            model=str(getattr(embedder, "model", "embedder")),
            prompt=f"knn_graph(k={k}) over {len(items)} texts [{index_name}]",
            response_text=f"{result.n_candidates} candidate pairs",
            cost=0.0,
            cache_hit=reused,
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
        items = _unique(materialize(parent, inputs))
        blocking = inputs[block_name]
        if blocking is None:
            # Degenerate input (a single survivor): one grouping prompt.
            return build_spec(node.with_params(proxy=False, strategy="single_prompt"), items)
        pairs = [(items[i], items[j]) for i, j in blocking.candidate_pairs]
        return ResolveSpec(
            pairs=pairs,
            strategy="pairwise",
            budget_dollars=node.params.get("budget_dollars"),
            accuracy_target=node.params.get("accuracy_target"),
        )

    judge_deps = tuple(dict.fromkeys((block_name, *parent_deps)))
    pipeline_steps.append(
        PipelineStep(
            name=judge_name,
            task=judge_factory,
            depends_on=judge_deps,
            description="pairwise judgments over blocked candidates",
        )
    )
    return block_name, judge_deps


def _estimate_step(
    node: LogicalNode,
    feeds: tuple[LogicalNode, ...],
    build_spec: Callable[..., TaskSpec],
    planner: CostPlanner,
) -> CostEstimate | None:
    """Quote one factory step over statically estimated input items.

    The upstream estimates consult the planner's runtime stats when it has
    them, so a second quote of an executed workload sizes every downstream
    step from observed selectivities instead of priors.
    """
    try:
        spec = build_spec(
            node, *[estimated_items(upstream, planner.stats) for upstream in feeds]
        )
        return planner.estimate_spec(spec)
    except SpecError:
        return None


def _stats_annotation(node: LogicalNode, planner: CostPlanner) -> str:
    """A "prior -> observed" note for ``.explain()`` when stats exist."""
    stats = planner.stats
    if stats is None:
        return ""
    parts: list[str] = []
    if node.op == "filter":
        priors = list(node.params.get("selectivities", ()))
        for index, predicate in enumerate(node.params.get("predicates", ())):
            observed = stats.filter_selectivity(predicate)
            if observed is None:
                continue
            prior = float(priors[index]) if index < len(priors) else 0.5
            parts.append(f"selectivity prior {prior:.2f} -> observed {observed:.2f}")
    elif node.op == "resolve":
        ratio = stats.dedup_survivor_ratio()
        if ratio is not None:
            parts.append(f"dedup survivors observed {ratio:.2f}")
    elif node.op == "join":
        observed = stats.join_selectivity()
        if observed is not None:
            declared = node.params.get("selectivity")
            if declared is not None:
                # An authored per-join prior outranks the session-global
                # observed match rate; surface both so the choice is visible.
                parts.append(
                    f"join selectivity declared {float(declared):.2f} "
                    f"(observed {observed:.2f})"
                )
            else:
                parts.append(f"join selectivity observed {observed:.2f}")
    strategy = node.params.get("strategy", "auto")
    if strategy == "auto":
        # Ratios are keyed by the strategy that executed; an auto node's
        # ratio lives under its default — the same mapping the planner
        # applies when it scales the quote, so every scaled step is
        # annotated.  (Query resolve nodes are records-mode: "pairwise".)
        strategy = default_strategy(node.op) or strategy
    call_ratio = stats.call_ratio(f"{node.op}:{strategy}")
    if call_ratio is not None and node.op != "filter":
        parts.append(f"call ratio observed {call_ratio:.2f}")
    return "; ".join(parts)


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
    pairs: list[tuple[str, str]] = []
    for distance in range(1, len(items)):
        for index in range(len(items) - distance):
            if len(pairs) >= count:
                break
            pairs.append((items[index], items[index + distance]))
        if len(pairs) >= count:
            break
    estimate = planner.pair_judgments(pairs)
    return dataclass_replace(estimate, strategy="resolve:proxy_blocked")


def _describe(node: LogicalNode) -> str:
    params = node.params
    if node.op == "filter":
        return "filter: " + " AND ".join(params["predicates"])
    if node.op == "sort":
        return f"sort by {params['criterion']!r}"
    if node.op == "resolve":
        return "resolve duplicates to one representative per entity"
    if node.op == "categorize":
        return "categorize into " + ", ".join(params["categories"])
    if node.op == "top_k":
        return f"top {params['k']} by {params['criterion']!r}"
    if node.op == "cluster":
        return "cluster items into groups"
    if node.op == "impute":
        return f"impute {params['data'].target_attribute!r}"
    if node.op == "join":
        return "semi-join against a second dataset"
    return node.op
