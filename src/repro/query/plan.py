"""Logical query plans for the fluent :class:`~repro.query.Dataset` API.

A logical plan is a small DAG of :class:`LogicalNode` objects, one per
declared operation, built lazily by the fluent builder — nothing executes
until :meth:`Dataset.run`.  The plan is the unit the rule-based optimizer
(:mod:`repro.query.optimizer`) rewrites and the compiler
(:mod:`repro.query.compile`) lowers onto a
:class:`~repro.core.spec.PipelineSpec` for the DAG scheduler.

Node vocabulary:

* ``source`` — a literal item list (a query's leaf; joins have two).
* every other node names an operator by its ``operation`` and reads what it
  needs from that operator's :mod:`declaration <repro.core.declarations>`:
  how to lower it to a spec, where its output items come from, how many to
  expect, whether a filter commutes past it and how ``.explain()`` shows it.
  Reducing / reordering ops — ``filter``, ``sort``, ``resolve`` (dedup to
  one representative per duplicate cluster), ``top_k``, ``join`` (semi-join:
  keep left items with at least one match) — read their step's result;
  annotating ops (``categorize``, ``cluster``, ``impute``) compute a
  side result but pass their input items through unchanged, which is what
  lets the optimizer schedule them off the critical item path.

Nodes are immutable; optimizer rewrites build new nodes and re-wire
consumers, so plans can be compared before/after optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.core.declarations import OperatorDeclaration, operation_declaration
from repro.exceptions import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spec import TaskSpec
    from repro.core.stats import RuntimeStats


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

    @property
    def declaration(self) -> OperatorDeclaration:
        """The declaration of this node's operator (:class:`SpecError` when none)."""
        declaration = operation_declaration(self.op)
        if declaration is None:
            raise SpecError(f"unknown logical operation {self.op!r}")
        return declaration

    @property
    def feeds(self) -> tuple["LogicalNode", ...]:
        """The upstream nodes whose output items the node's spec is lowered over."""
        return self.inputs if self.declaration.reads_items else ()

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

    @cached_property
    def _order(self) -> tuple[LogicalNode, ...]:
        # Walked once per plan: a plan never changes, a rewrite is a new plan.
        order: list[LogicalNode] = []
        _visit(self.root, set(), order)
        return tuple(order)

    def nodes(self) -> list[LogicalNode]:
        """Reachable nodes in deterministic topological order (inputs first)."""
        return list(self._order)

    def consumers(self) -> dict[LogicalNode, list[LogicalNode]]:
        """Node → reachable nodes that read it (empty list for the root)."""
        table: dict[LogicalNode, list[LogicalNode]] = {node: [] for node in self._order}
        for node in self._order:
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
        return iter(self._order)


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

    Each operator's declaration estimates its own output from its input's
    estimate (``estimate_output``): filters shrink by their declared
    ``expected_selectivity``, top-k to ``k``, joins by their declared
    ``selectivity`` prior — conservatively 1.0 when unset; dedup is priced
    conservatively at its input cardinality, and the rest keep it.

    With a :class:`~repro.core.stats.RuntimeStats` store, *observed*
    statistics override the priors: a predicate's measured surviving
    fraction, the measured dedup survivor ratio, and the measured join
    selectivity — so the second quote of a workload sizes every downstream
    step from what actually happened.
    """
    if node.op == "source":
        return list(node.params["items"])
    upstream = estimated_items(node.inputs[0], stats)
    return node.declaration.estimate_output(node.params, upstream, stats)


def estimated_spec(node: LogicalNode, stats: "RuntimeStats | None" = None) -> "TaskSpec":
    """``node`` lowered over the estimated items of its feeds.

    Over source-only feeds with no ``stats`` this is the exact spec the
    compiled step runs; a cost-gated optimizer rule prices the same hook.
    """
    inputs = [estimated_items(upstream, stats) for upstream in node.feeds]
    return node.declaration.lower(node.params, *inputs)


def validate_plan(plan: LogicalPlan) -> None:
    """Raise :class:`SpecError` for plans built from unknown operations."""
    for node in plan.nodes():
        if node.op == "source":
            continue
        if operation_declaration(node.op) is None:
            raise SpecError(f"unknown logical operation {node.op!r}")
        if not node.inputs:
            raise SpecError(f"logical {node.op} node has no input")
