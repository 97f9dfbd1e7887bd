"""Logical query plans for the fluent :class:`~repro.query.Dataset` API.

A logical plan is a small DAG of :class:`LogicalNode` objects, one per
declared operation, built lazily by the fluent builder — nothing executes
until :meth:`Dataset.run`.  The plan is the unit the rule-based optimizer
(:mod:`repro.query.optimizer`) rewrites and the compiler
(:mod:`repro.query.compile`) lowers onto a
:class:`~repro.core.spec.PipelineSpec` for the DAG scheduler.

Node vocabulary:

* ``source`` — a literal item list (a query's leaf; joins have two).
* Reducing / reordering ops — ``filter``, ``sort``, ``resolve`` (dedup to
  one representative per duplicate cluster), ``top_k``, ``join`` (semi-join:
  keep left items with at least one match).
* Annotating ops — ``categorize``, ``cluster``, ``impute``: they compute a
  side result (labels, groups, imputed values) but pass their input items
  through unchanged, which is what lets the optimizer schedule them off the
  critical item path.

Nodes are immutable; optimizer rewrites build new nodes and re-wire
consumers, so plans can be compared before/after optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.exceptions import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.physical import RuntimeStats

#: Ops whose output items are exactly their input items.
ANNOTATORS = frozenset({"categorize", "cluster", "impute"})
#: Ops that may change the item set or its order.
REDUCERS = frozenset({"filter", "sort", "resolve", "top_k", "join"})
#: Everything the planner knows how to lower.
KNOWN_OPS = frozenset({"source"}) | ANNOTATORS | REDUCERS


@dataclass(frozen=True)
class LogicalNode:
    """One operation of a logical plan.

    Attributes:
        op: operation name (see module docstring for the vocabulary).
        params: operation parameters (criterion, predicates, strategy, ...).
        inputs: upstream nodes; the first input is always the item-flow
            parent (for ``join``, the left side).
    """

    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple["LogicalNode", ...] = ()

    def with_params(self, **updates: Any) -> "LogicalNode":
        """A copy of this node with ``params`` entries replaced/added."""
        merged = dict(self.params)
        merged.update(updates)
        return replace(self, params=merged)

    def with_inputs(self, *inputs: "LogicalNode") -> "LogicalNode":
        """A copy of this node reading from different upstream nodes."""
        return replace(self, inputs=tuple(inputs))

    @property
    def item_parent(self) -> "LogicalNode | None":
        """The node this one's input items flow from (``None`` for sources)."""
        return self.inputs[0] if self.inputs else None

    def __hash__(self) -> int:  # params is a dict; identity is the right key
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(frozen=True)
class LogicalPlan:
    """A rooted logical plan plus the optimizer notes attached to it."""

    root: LogicalNode
    name: str = "query"
    notes: tuple[str, ...] = ()

    def nodes(self) -> list[LogicalNode]:
        """Reachable nodes in deterministic topological order (inputs first)."""
        order: list[LogicalNode] = []
        _visit(self.root, set(), order)
        return order

    def consumers(self) -> dict[LogicalNode, list[LogicalNode]]:
        """Node → reachable nodes that read it (empty list for the root)."""
        table: dict[LogicalNode, list[LogicalNode]] = {node: [] for node in self.nodes()}
        for node in self.nodes():
            for upstream in node.inputs:
                table[upstream].append(node)
        return table

    def replaced(self, old: LogicalNode, new: LogicalNode) -> "LogicalPlan":
        """A plan with every reference to ``old`` re-wired to ``new``."""
        return replace(self, root=_rebuild(self.root, old, new, {}))

    def noted(self, note: str) -> "LogicalPlan":
        """A plan with one more optimizer note attached."""
        return replace(self, notes=(*self.notes, note))

    def __iter__(self) -> Iterator[LogicalNode]:
        return iter(self.nodes())


# Module-level, state as arguments: a nested function that calls itself is a
# cycle (function -> cell -> function) only the collector frees, plan and all.
def _visit(node: LogicalNode, seen: set[LogicalNode], order: list[LogicalNode]) -> None:
    if node in seen:
        return
    seen.add(node)
    for upstream in node.inputs:
        _visit(upstream, seen, order)
    order.append(node)


def _rebuild(
    node: LogicalNode,
    old: LogicalNode,
    new: LogicalNode,
    rebuilt: dict[LogicalNode, LogicalNode],
) -> LogicalNode:
    if node is old:
        return new
    if node in rebuilt:
        return rebuilt[node]
    inputs = tuple(_rebuild(upstream, old, new, rebuilt) for upstream in node.inputs)
    result = node if all(a is b for a, b in zip(inputs, node.inputs)) else node.with_inputs(*inputs)
    rebuilt[node] = result
    return result


def source(items: Any, name: str = "dataset") -> LogicalNode:
    """A leaf node holding a literal item list."""
    item_tuple = tuple(str(item) for item in items)
    if not item_tuple:
        raise SpecError("a query source needs at least one item")
    return LogicalNode(op="source", params={"items": item_tuple, "name": name})


def estimated_items(
    node: LogicalNode, stats: "RuntimeStats | None" = None
) -> list[str]:
    """Statically estimated output items of ``node`` (for quotes/explain).

    Cardinality-reducing ops shrink the estimate (filters by their declared
    ``expected_selectivity``, top-k to ``k``, joins by their declared
    ``selectivity`` prior — conservatively 1.0 when unset); dedup is priced
    conservatively at its input cardinality.  The surviving items are taken
    from the head of the input estimate so token-length averages stay
    representative.

    With a :class:`~repro.core.physical.RuntimeStats` store, *observed*
    statistics override the priors: a predicate's measured surviving
    fraction, the measured dedup survivor ratio, and the measured join
    selectivity — so the second quote of a workload sizes every downstream
    step from what actually happened.
    """
    if node.op == "source":
        return list(node.params["items"])
    parent = node.item_parent
    assert parent is not None  # every non-source node has an item parent
    upstream = estimated_items(parent, stats)
    count = len(upstream)
    if node.op == "filter":
        # Apply the per-predicate selectivities the same way the planner
        # does, so plan-level and spec-level estimates agree.
        predicates = list(node.params.get("predicates", ()))
        priors = list(node.params.get("selectivities", (0.5,)))
        for index in range(max(len(predicates), len(priors))):
            prior = float(priors[index]) if index < len(priors) else 0.5
            observed = (
                stats.filter_selectivity(predicates[index])
                if stats is not None and index < len(predicates)
                else None
            )
            selectivity = observed if observed is not None else prior
            count = min(count, max(1, math.ceil(count * selectivity)))
        return upstream[:count]
    if node.op == "top_k":
        return upstream[: max(1, min(count, int(node.params.get("k", 1))))]
    if node.op == "resolve" and stats is not None:
        ratio = stats.dedup_survivor_ratio()
        if ratio is not None:
            return upstream[: min(count, max(1, math.ceil(count * ratio)))]
        return upstream
    if node.op == "join":
        selectivity = join_selectivity(node, stats)
        return upstream[: min(count, max(1, math.ceil(count * selectivity)))]
    # sort reorders, annotators pass through; estimated at input cardinality.
    return upstream


def join_selectivity(node: LogicalNode, stats: "RuntimeStats | None" = None) -> float:
    """The match-fraction estimate for a join node.

    Precedence: an explicitly declared per-join prior wins (the author
    knows this join); otherwise the session's observed match rate — a
    global, per-join-unkeyed statistic, so it only fills the gap where
    nothing was declared; otherwise a conservative 1.0.
    """
    declared = node.params.get("selectivity")
    if declared is not None:
        return float(declared)
    observed = stats.join_selectivity() if stats is not None else None
    return observed if observed is not None else 1.0


def validate_plan(plan: LogicalPlan) -> None:
    """Raise :class:`SpecError` for plans built from unknown operations."""
    for node in plan.nodes():
        if node.op not in KNOWN_OPS:
            raise SpecError(f"unknown logical operation {node.op!r}")
        if node.op != "source" and not node.inputs:
            raise SpecError(f"logical {node.op} node has no input")
