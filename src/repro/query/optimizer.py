"""Rule-based logical-plan optimizer for the fluent Dataset API.

The paper's thesis is that a declarative frontend should *reorder and
restructure* LLM data work before spending a token on it.  This module is
that reordering layer: a handful of rewrite rules over
:class:`~repro.query.plan.LogicalPlan`, each annotated onto the plan so
``.explain()`` can show what changed and why.

Rules (applied in this order by :func:`optimize`):

1. :func:`share_common_subplans` — structurally identical subplans reached
   from different branches (a prefix the author built twice, or two
   branches of a ``.join()`` over the same chain) are merged so the shared
   prefix compiles to *one* set of pipeline steps; downstream consumers
   fan out as ``depends_on`` edges from the shared steps.
2. :func:`fuse_adjacent_filters` — consecutive ``.filter()`` calls with the
   same strategy collapse into one conjunctive filter step; the engine runs
   later predicates only over earlier predicates' survivors, so the fused
   step costs no more than the chain and schedules as a single batched wave.
3. :func:`push_filters_early` — a filter is commuted ahead of expensive
   upstream ops whenever that is semantics-preserving: past per-pair sorts
   (a subset's pairwise comparisons are the same prompts), past pairwise
   duplicate resolution, and past annotating ops (whose side results are
   then computed only for the survivors — the declarative contract is that
   a query's observable output is its final item set plus the annotations
   of the items that survive).  Filters are *not* pushed past ``top_k`` or
   whole-list prompting strategies, where reordering changes the answer.
4. :func:`push_filters_into_joins` — a filter directly above a semi-join
   commutes into the join's *left* input: every join strategy judges each
   left record independently against the right side, so filtering the left
   input first is exact and the join probes only the survivors.  Fusion and
   both pushdown rules run to a fixpoint, so a filter can travel past a
   sort, into a join input, and onward up the left branch.
5. :func:`order_semi_joins` — adjacent semi-joins commute (each keeps a
   subset of the same left items); when the planner says running the other
   join first is strictly cheaper — because its right side is smaller or
   its declared/observed match selectivity shrinks the surviving left set
   more — the two are swapped.
6. :func:`insert_proxy_prefilters` — a pairwise dedup over n records costs
   O(n²) LLM calls; when the :class:`~repro.core.planner.CostPlanner` says
   an embedding-blocking proxy (k·n candidate pairs) is strictly cheaper,
   the resolve node is rewritten to run an LLM-free
   :class:`~repro.proxies.blocking.EmbeddingBlocker` step first and judge
   only the candidate pairs.

Cost-gated rules price candidate rewrites through the planner, and a
planner fed by :class:`~repro.core.physical.RuntimeStats` (e.g.
``engine.planner()`` after the engine has executed work) prices them from
*observed* selectivities and call ratios rather than static priors — the
adaptive feedback loop the physical-planning layer closes.

Dependency inference from data lineage (annotators off the critical item
path, so independent branches schedule concurrently) happens at compile
time — see :func:`repro.query.compile.compile_plan` — because it is a
property of the lowering, not a plan rewrite.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Sequence

from repro.config import DEFAULT_CHAT_MODEL
from repro.core.planner import CostPlanner
from repro.exceptions import ConfigurationError, SpecError
from repro.llm.prompts import DUPLICATE_CHECK
from repro.query.plan import LogicalNode, LogicalPlan, estimated_items, estimated_spec

#: Minimum record count before a blocking proxy is worth considering.
_PROXY_MIN_ITEMS = 8
#: The element types of a sequence :func:`_freeze` keys as it stands.
_ONLY_STR = frozenset({str})

Rule = Callable[[LogicalPlan, CostPlanner], LogicalPlan]


def _single_consumer_parent(
    plan: LogicalPlan, node: LogicalNode
) -> LogicalNode | None:
    """``node``'s item parent, if it is not a source and this node is its only consumer."""
    parent = node.item_parent
    if parent is None or parent.op == "source":
        return None
    consumers = plan.consumers()
    return parent if consumers.get(parent, []) == [node] else None


def fuse_adjacent_filters(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
    """Collapse filter-of-filter chains into one conjunctive filter node."""
    changed = True
    while changed:
        changed = False
        for node in plan.nodes():
            if node.op != "filter":
                continue
            parent = _single_consumer_parent(plan, node)
            if parent is None or parent.op != "filter":
                continue
            if node.params.get("strategy") != parent.params.get("strategy"):
                continue
            if node.params.get("options") != parent.params.get("options"):
                continue
            # Fusing would silently drop the parent's per-step caps if they
            # differed; only identical targets can share one step.
            if node.params.get("budget_dollars") != parent.params.get("budget_dollars"):
                continue
            if node.params.get("accuracy_target") != parent.params.get("accuracy_target"):
                continue
            if node.params.get("pushdown", True) != parent.params.get("pushdown", True):
                continue
            fused = node.with_params(
                predicates=(*parent.params["predicates"], *node.params["predicates"]),
                selectivities=(
                    *parent.params.get("selectivities", (0.5,)),
                    *node.params.get("selectivities", (0.5,)),
                ),
            ).with_inputs(*parent.inputs)
            plan = plan.replaced(node, fused).noted(
                "fused adjacent filters "
                + " AND ".join(repr(p) for p in fused.params["predicates"])
                + " into one conjunctive step"
            )
            changed = True
            break
    return plan


def _structural_key(node: LogicalNode, keys: dict[LogicalNode, Any]) -> Any:
    """A hashable key equal for structurally identical subplans.

    ``keys`` must already hold the keys of ``node``'s inputs (nodes are
    visited in topological order).  Unhashable parameter values (e.g. an
    ``ImputationDataset``) compare by identity, which is the right notion
    of "the same data" for sharing.
    """
    return (node.op, _freeze(node.params), tuple(keys[upstream] for upstream in node.inputs))


def _freeze(value: Any) -> Any:
    if type(value) is str:
        return value
    if isinstance(value, Mapping):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        # A flat list of strings (a source's items) is its own key: each
        # string would freeze to itself.
        if _ONLY_STR.issuperset(map(type, value)):
            return tuple(value)
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(repr, value)))
    try:
        hash(value)
    except TypeError:
        return id(value)
    return value


def share_common_subplans(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
    """Merge structurally identical subplans so a shared prefix compiles once.

    A branched query whose branches rebuild the same chain (same source
    items, same operations, same parameters) would otherwise compile the
    prefix once per branch and pay for it once per branch in the quote.
    After sharing, the prefix is a single set of pipeline steps and every
    branch's steps simply ``depends_on`` them.  Exact at temperature 0:
    identical specs produce identical results.
    """
    canonical: dict[LogicalNode, LogicalNode] = {}
    keys: dict[LogicalNode, Any] = {}
    first_by_key: dict[Any, LogicalNode] = {}
    shared: list[str] = []
    for node in plan.nodes():
        inputs = tuple(canonical[upstream] for upstream in node.inputs)
        rebuilt = (
            node
            if all(a is b for a, b in zip(inputs, node.inputs))
            else node.with_inputs(*inputs)
        )
        keys[node] = key = _structural_key(rebuilt, keys)
        existing = first_by_key.get(key)
        if existing is not None and existing is not rebuilt:
            canonical[node] = existing
            if node.op != "source":
                shared.append(node.op)
        else:
            first_by_key.setdefault(key, rebuilt)
            canonical[node] = rebuilt
        keys[canonical[node]] = key
    root = canonical[plan.root]
    if root is plan.root and not shared:
        return plan
    plan = LogicalPlan(root=root, name=plan.name, notes=plan.notes)
    for op in shared:
        plan = plan.noted(
            f"shared common {op} subplan across branches (compiled once, "
            "dependents fan out)"
        )
    return plan


def push_filters_early(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
    """Commute filters ahead of expensive upstream ops where safe.

    Pushing a filter ahead of a dedup assumes the predicate is
    *entity-level* (duplicate records agree on it) — the declarative
    contract documented in :meth:`repro.query.Dataset.filter`.  Authors
    whose predicate distinguishes duplicate variants opt out per filter
    with ``pushdown=False``.
    """
    changed = True
    while changed:
        changed = False
        for node in plan.nodes():
            if node.op != "filter" or not node.params.get("pushdown", True):
                continue
            parent = _single_consumer_parent(plan, node)
            if parent is None or not parent.declaration.commutes_with_filter(parent.params):
                continue
            pushed_filter = node.with_inputs(parent.inputs[0], *node.inputs[1:])
            lifted_parent = parent.with_inputs(pushed_filter, *parent.inputs[1:])
            plan = plan.replaced(node, lifted_parent).noted(
                "pushed filter "
                + " AND ".join(repr(p) for p in node.params["predicates"])
                + f" ahead of {parent.op}"
            )
            changed = True
            break
    return plan


def push_filters_into_joins(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
    """Commute a filter directly above a semi-join into the join's left input.

    Every join strategy (``all_pairs``, ``blocked``, ``proxy_blocked``)
    judges each left record against the right side independently of the
    other left records, so filtering the left input first keeps exactly the
    records that would have survived filtering the join's output — and the
    join probes only the survivors.  The right input is untouched (the
    predicate ranges over the left items flowing through the query).

    Unlike plain pushdown, this move is not always a win: a highly
    selective join can shrink the filter's input more than the filter
    shrinks the join's, so the rewrite is cost-gated — the planner prices
    both orders (selectivities observed over priors) and the filter only
    moves when that does not increase the quoted total.
    """
    changed = True
    while changed:
        changed = False
        for node in plan.nodes():
            if node.op != "filter" or not node.params.get("pushdown", True):
                continue
            parent = _single_consumer_parent(plan, node)
            if parent is None or parent.op != "join":
                continue
            pushed_filter = node.with_inputs(parent.inputs[0])
            lifted_join = parent.with_inputs(pushed_filter, *parent.inputs[1:])
            current, pushed = _filter_join_order_dollars(
                planner, node, parent, pushed_filter, lifted_join
            )
            if pushed > current + 1e-12:
                continue
            plan = plan.replaced(node, lifted_join).noted(
                "pushed filter "
                + " AND ".join(repr(p) for p in node.params["predicates"])
                + f" into the join's left input (${pushed:.6f} vs ${current:.6f})"
            )
            changed = True
            break
    return plan


def _filter_join_order_dollars(
    planner: CostPlanner,
    filter_node: LogicalNode,
    join_node: LogicalNode,
    pushed_filter: LogicalNode,
    lifted_join: LogicalNode,
) -> tuple[float, float]:
    """Quoted dollars of filter-after-join vs. filter-inside-left-input."""
    stats = getattr(planner, "stats", None)

    def dollars(*nodes: LogicalNode) -> float:
        total = 0.0
        for node in nodes:
            try:
                total += planner.estimate_spec(estimated_spec(node, stats)).dollars
            except (SpecError, ConfigurationError):
                return float("inf")
        return total

    current = dollars(join_node, filter_node)
    pushed = dollars(pushed_filter, lifted_join)
    return current, pushed


def _join_chain_dollars(
    planner: CostPlanner,
    left_items: Sequence[str],
    joins: Sequence[LogicalNode],
) -> float:
    """Quoted dollars of running ``joins`` over ``left_items`` in order.

    Each join probes the current left estimate against its own right side,
    then shrinks the surviving set by its match selectivity (the declared
    prior, or the observed join selectivity when stats are attached).
    """
    stats = getattr(planner, "stats", None)
    total = 0.0
    survivors = list(left_items)
    for join in joins:
        right = estimated_items(join.inputs[1], stats)
        if not survivors or not right:
            break
        declaration = join.declaration
        try:
            total += planner.estimate_spec(declaration.lower(join.params, survivors, right)).dollars
        except (SpecError, ConfigurationError):
            return float("inf")
        survivors = declaration.estimate_output(join.params, survivors, stats)
    return total


def order_semi_joins(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
    """Swap adjacent semi-joins when probing the cheaper/sharper one first pays.

    Two stacked semi-joins both keep subsets of the same left items, and
    each judges every left record independently, so their order is
    semantics-free — but not cost-free: the first join probes the full
    left set, the second only its survivors.  The planner prices both
    orders (using declared selectivity priors, or observed join
    selectivity once the session has run) and keeps the cheaper one.
    """
    changed = True
    while changed:
        changed = False
        consumers = plan.consumers()
        for outer in plan.nodes():
            if outer.op != "join":
                continue
            inner = outer.item_parent
            if inner is None or inner.op != "join":
                continue
            if consumers.get(inner, []) != [outer]:
                continue
            base_items = estimated_items(inner.inputs[0], getattr(planner, "stats", None))
            if not base_items:
                continue
            current = _join_chain_dollars(planner, base_items, (inner, outer))
            swapped = _join_chain_dollars(planner, base_items, (outer, inner))
            if not swapped < current - 1e-12:
                continue
            new_inner = outer.with_inputs(inner.inputs[0], *outer.inputs[1:])
            new_outer = inner.with_inputs(new_inner, *inner.inputs[1:])
            plan = plan.replaced(outer, new_outer).noted(
                f"reordered adjacent semi-joins by estimated cardinality "
                f"(${swapped:.6f} vs ${current:.6f})"
            )
            changed = True
            break
    return plan


def insert_proxy_prefilters(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
    """Rewrite pairwise dedups to block with an embedding proxy when it pays."""
    changed = True
    while changed:
        changed = False
        # Rescan after every rewrite: replaced() rebuilds downstream node
        # identities, so references from a pre-rewrite snapshot go stale.
        for node in plan.nodes():
            # Only per-pair judgments, which a filter also commutes past, can
            # be answered over blocked candidate pairs instead.
            if node.op != "resolve" or not node.declaration.commutes_with_filter(node.params):
                continue
            parent = node.item_parent
            assert parent is not None
            items = estimated_items(parent, getattr(planner, "stats", None))
            if len(items) < _PROXY_MIN_ITEMS:
                continue
            block_k = int(node.params.get("block_k", 5))
            pairwise_dollars = planner.pairwise(items, DUPLICATE_CHECK).dollars
            candidate_count = min(block_k * len(items), len(items) * (len(items) - 1) // 2)
            blocked_dollars = planner.blocked_pairs(items, candidate_count, DUPLICATE_CHECK).dollars
            if blocked_dollars >= pairwise_dollars:
                continue
            plan = plan.replaced(node, node.with_params(proxy=True, block_k=block_k)).noted(
                f"inserted embedding-blocking proxy before resolve "
                f"(~{candidate_count} candidate pairs instead of "
                f"{len(items) * (len(items) - 1) // 2}: "
                f"${blocked_dollars:.6f} vs ${pairwise_dollars:.6f})"
            )
            changed = True
            break
    return plan


def fixpoint(*rules: Rule, max_rounds: int = 8) -> Rule:
    """Apply ``rules`` repeatedly until none of them changes the plan.

    A filter can need several alternating moves to reach its final spot
    (past a sort, into a join input, then up the left branch); the rules
    stay simple single-move rewrites and this wrapper iterates them.  Each
    rewrite appends a plan note, so "no new notes" is the fixed point.
    """

    def apply(plan: LogicalPlan, planner: CostPlanner) -> LogicalPlan:
        for _ in range(max_rounds):
            before = len(plan.notes)
            for rule in rules:
                plan = rule(plan, planner)
            if len(plan.notes) == before:
                break
        return plan

    return apply


#: The standard rule set, in application order.  Subplan sharing runs first
#: so pushdown sees true consumer counts; fusion and both pushdown rules
#: iterate to a fixpoint because commuting a filter can enable further
#: moves; the cost-gated join ordering and proxy rules run on the settled
#: shape.
DEFAULT_RULES: tuple[Rule, ...] = (
    share_common_subplans,
    fixpoint(fuse_adjacent_filters, push_filters_early, push_filters_into_joins),
    order_semi_joins,
    insert_proxy_prefilters,
)


def optimize(
    plan: LogicalPlan,
    *,
    planner: CostPlanner | None = None,
    rules: Sequence[Rule] = DEFAULT_RULES,
) -> LogicalPlan:
    """Apply the rewrite rules to ``plan`` and return the optimized plan.

    Args:
        plan: the logical plan to rewrite (left untouched; plans are
            immutable).
        planner: cost planner the cost-based rules consult; defaults to a
            planner over the library's default chat model.
        rules: rules to apply, in order (defaults to :data:`DEFAULT_RULES`).
    """
    planner = planner or CostPlanner(DEFAULT_CHAT_MODEL)
    for rule in rules:
        plan = rule(plan, planner)
    return plan
