"""Declarative task specifications.

A spec captures *what* the user wants done, independent of *how* it will be
executed: the operation, the data, the quality/cost targets, and optionally a
labelled validation sample the optimizer may use to choose a strategy.

Beyond single-operator specs, :class:`PipelineSpec` declares a whole
multi-operator workflow as data: named steps carrying operator specs (or
plain callables for LLM-free stages), connected by ``depends_on`` edges into
a DAG.  The engine turns a pipeline spec into a scheduled
:class:`~repro.core.workflow.Workflow`, quotes it a priori through the
:class:`~repro.core.planner.CostPlanner`, and runs independent steps
concurrently under one shared budget.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.dag import topological_waves
from repro.data.products import ImputationDataset
from repro.exceptions import ConfigurationError, SpecError
from repro.tokenizer.cost import to_nanos

#: A step's spec may be built at run time from upstream results: the factory
#: receives ``{dependency name: result}`` and returns the concrete spec.
SpecFactory = Callable[[Mapping[str, Any]], "TaskSpec"]


@dataclass
class TaskSpec:
    """Base class for declarative task specifications.

    Attributes:
        budget_dollars: optional monetary budget for the task.
        accuracy_target: optional minimum acceptable accuracy in [0, 1].
        strategy: explicit strategy name, or ``"auto"`` to let the
            :class:`~repro.core.physical.PhysicalPlanner` choose — by
            measured accuracy when the spec carries a labelled validation
            sample, by estimated cost under the remaining budget otherwise.
        strategy_options: keyword arguments forwarded to the chosen strategy.
    """

    budget_dollars: float | None = None
    accuracy_target: float | None = None
    strategy: str = "auto"
    strategy_options: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`SpecError` if the spec is inconsistent.

        That includes a ``strategy`` its operator does not accept: a
        misspelt name is refused here, at submit time, rather than after
        upstream steps have spent their calls.
        """
        _check_budget(self.budget_dollars)
        if self.accuracy_target is not None and not 0.0 <= self.accuracy_target <= 1.0:
            raise SpecError("accuracy_target must be within [0, 1]")
        if self.strategy != "auto":
            # Imported here: the declarations import the operators, and this
            # module stays importable without them (fingerprints, wire form).
            from repro.core.declarations import check_strategy

            check_strategy(self)


@dataclass
class SortSpec(TaskSpec):
    """Sort ``items`` by ``criterion``.

    ``validation_order`` optionally provides the ground-truth order of a small
    labelled subset of the items, which the optimizer uses to score candidate
    strategies before committing to one for the full list.
    """

    items: Sequence[str] = ()
    criterion: str = ""
    validation_order: Sequence[str] = ()

    def validate(self) -> None:
        super().validate()
        if not self.criterion:
            raise SpecError("a sort spec needs a criterion")
        if not self.items:
            # One item is a valid degenerate sort (the operator returns it
            # without any LLM calls); an empty list is a mis-wired spec.
            raise SpecError("a sort spec needs at least one item")
        unknown = self.validation_order and set(self.validation_order).difference(self.items)
        if unknown:
            raise SpecError(f"validation items not present in the input: {sorted(unknown)}")


@dataclass
class ResolveSpec(TaskSpec):
    """Judge duplicate pairs (or cluster records when ``pairs`` is empty)."""

    records: Sequence[str] = ()
    pairs: Sequence[tuple[str, str]] = ()
    validation_labels: Mapping[tuple[str, str], bool] = field(default_factory=dict)
    neighbors_k: int = 1

    def validate(self) -> None:
        super().validate()
        if not self.records and not self.pairs:
            raise SpecError("a resolve spec needs records or pairs")
        if self.neighbors_k < 0:
            raise SpecError("neighbors_k must be non-negative")


@dataclass
class ImputeSpec(TaskSpec):
    """Impute the missing attribute of an :class:`ImputationDataset`.

    Strategies: ``"knn"`` (proxy only), ``"llm_only"``, ``"hybrid"``
    (unanimous neighbors answer for free), and ``"retrieval"`` — the hybrid
    escalation with neighbors pulled from a vector index over the reference
    embeddings, each escalated prompt grounded in those retrieved labelled
    records.  ``"auto"`` lets the physical planner choose among them.
    """

    data: ImputationDataset | None = None
    n_examples: int = 0
    validation_size: int = 20

    def validate(self) -> None:
        super().validate()
        if self.data is None:
            raise SpecError("an impute spec needs a dataset")
        if self.n_examples < 0:
            raise SpecError("n_examples must be non-negative")
        if self.validation_size < 0:
            raise SpecError("validation_size must be non-negative")


def _check_budget(dollars: float | None) -> None:
    """Raise unless ``dollars`` is ``None`` or a budget countable in whole n$."""
    if dollars is None:
        return
    if dollars < 0:
        raise SpecError("budget_dollars must be non-negative")
    try:
        to_nanos(dollars)
    except ConfigurationError as exc:  # not finite, or too large
        raise SpecError(f"budget_dollars: {exc}") from None


def _check_labelled(labels: Mapping[str, Any], items: Sequence[str]) -> None:
    """Raise when a labelled item is not among ``items`` (no work without labels)."""
    unknown = labels and set(labels).difference(str(item) for item in items)
    if unknown:
        raise SpecError(f"validation-labelled items not present in the input: {sorted(unknown)}")


@dataclass
class FilterSpec(TaskSpec):
    """Keep the ``items`` satisfying a natural-language ``predicate``.

    ``predicates`` may carry several conjunctive predicates (every one must
    hold); the engine applies them in order over a shrinking survivor set —
    the fused form the query optimizer emits for adjacent ``.filter()``
    calls.  Setting ``predicate`` is shorthand for a single-element
    ``predicates``.  ``expected_selectivities`` optionally gives the planner
    a surviving-fraction prior per predicate (0.5 each when omitted), so a
    fused spec quotes exactly like the equivalent sequential steps.

    ``validation_labels`` optionally maps a small labelled subset of the
    items to their ground-truth keep/drop decision (for the *conjunction*
    of the predicates).  An ``"auto"`` spec carrying enough labels is
    resolved by validation-driven selection: the
    :class:`~repro.core.physical.PhysicalPlanner` measures the per-item
    strategy against the ensemble strategies on the labelled sample and
    picks the best under the spec's budget/accuracy constraints.
    """

    items: Sequence[str] = ()
    predicate: str = ""
    predicates: Sequence[str] = ()
    expected_selectivities: Sequence[float] = ()
    validation_labels: Mapping[str, bool] = field(default_factory=dict)

    @property
    def all_predicates(self) -> tuple[str, ...]:
        """The conjunctive predicate list, whichever field it was given in."""
        if self.predicate:
            return (self.predicate, *self.predicates)
        return tuple(self.predicates)

    def validate(self) -> None:
        super().validate()
        if not self.all_predicates:
            raise SpecError("a filter spec needs at least one predicate")
        if any(not predicate for predicate in self.predicates):
            raise SpecError("filter predicates must be non-empty strings")
        if not self.items:
            raise SpecError("a filter spec needs at least one item")
        if any(not 0.0 < value <= 1.0 for value in self.expected_selectivities):
            raise SpecError("expected_selectivities must be in (0, 1]")
        _check_labelled(self.validation_labels, self.items)


@dataclass
class CategorizeSpec(TaskSpec):
    """Assign each of ``items`` to one of the fixed ``categories``.

    ``validation_labels`` optionally maps a small labelled subset of the
    items to their true category; an ``"auto"`` spec carrying enough labels
    goes through validation-driven selection (per-item vs. self-consistency
    vs. multi-model ensemble) instead of the cost-based default.
    """

    items: Sequence[str] = ()
    categories: Sequence[str] = ()
    validation_labels: Mapping[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        super().validate()
        if not self.items:
            raise SpecError("a categorize spec needs at least one item")
        labels = [str(category) for category in self.categories]
        if len(labels) < 2:
            raise SpecError("a categorize spec needs at least two categories")
        if len(set(labels)) != len(labels):
            raise SpecError("categories must be distinct")
        _check_labelled(self.validation_labels, self.items)
        bad_labels = {str(v) for v in self.validation_labels.values()} - set(labels)
        if bad_labels:
            raise SpecError(
                f"validation labels outside the category set: {sorted(bad_labels)}"
            )


@dataclass
class TopKSpec(TaskSpec):
    """Find the top ``k`` of ``items`` under ``criterion``."""

    items: Sequence[str] = ()
    criterion: str = ""
    k: int = 1

    def validate(self) -> None:
        super().validate()
        if not self.criterion:
            raise SpecError("a top-k spec needs a criterion")
        if not self.items:
            raise SpecError("a top-k spec needs at least one item")
        if self.k < 1:
            raise SpecError("k must be at least 1")
        if self.k > len(self.items):
            raise SpecError(f"k={self.k} exceeds the number of items ({len(self.items)})")


@dataclass
class JoinSpec(TaskSpec):
    """Fuzzy-join ``left`` records against ``right`` records."""

    left: Sequence[str] = ()
    right: Sequence[str] = ()

    def validate(self) -> None:
        super().validate()
        if not self.left or not self.right:
            raise SpecError("a join spec needs at least one record on each side")


@dataclass
class ClusterSpec(TaskSpec):
    """Group ``items`` that refer to the same underlying entity or category."""

    items: Sequence[str] = ()

    def validate(self) -> None:
        super().validate()
        if not self.items:
            raise SpecError("a cluster spec needs at least one item")
        if len(self.items) != len(set(self.items)):
            raise SpecError("cluster items must be unique strings")


@dataclass
class PipelineStep:
    """One named step of a declarative pipeline.

    Exactly one of ``task`` and ``run`` must be set:

    * ``task`` — an operator spec the engine executes directly
      (:class:`SortSpec`, :class:`ResolveSpec`, :class:`ImputeSpec`, ...), or
      a :data:`SpecFactory` callable that builds the spec at run time from
      the results of this step's dependencies.
    * ``run`` — an arbitrary callable ``(session, inputs) -> result`` for
      LLM-free stages (blocking, graph repair, merging, ...), where
      ``inputs`` maps each transitive dependency's name to its result.

    Attributes:
        name: unique step name; downstream steps reference it in
            ``depends_on`` and read its result under this key.
        task: operator spec (or factory) the engine runs for this step.
        run: plain callable alternative to ``task``.
        depends_on: names of the steps whose results this step consumes.
        description: human-readable summary, used in reports and quotes.
    """

    name: str
    task: TaskSpec | SpecFactory | None = None
    run: Callable[..., Any] | None = None
    depends_on: tuple[str, ...] = ()
    description: str = ""

    def validate(self) -> None:
        if not self.name:
            raise SpecError("a pipeline step needs a name")
        if (self.task is None) == (self.run is None):
            raise SpecError(
                f"pipeline step {self.name!r} must set exactly one of task= and run="
            )
        if isinstance(self.task, TaskSpec):
            try:
                self.task.validate()
            except SpecError as exc:
                # Surface the offending step by name at compile time — an
                # empty-items spec otherwise dies mid-run as a confusing
                # operator error, after upstream steps have spent money.
                raise SpecError(f"pipeline step {self.name!r}: {exc}") from exc
        elif self.task is not None and not callable(self.task):
            # Catch a malformed task statically, before upstream steps have
            # already spent money at run time.
            raise SpecError(
                f"pipeline step {self.name!r} task must be a TaskSpec or a spec "
                f"factory, got {type(self.task).__name__}"
            )
        if self.run is not None and not callable(self.run):
            raise SpecError(f"pipeline step {self.name!r} run= must be callable")
        if self.run is not None and inspect.iscoroutinefunction(self.run):
            # A step runs on a thread; its coroutine would be the result, never awaited.
            raise SpecError(f"pipeline step {self.name!r} run= must not be a coroutine function")


@dataclass
class PipelineSpec:
    """A declarative multi-operator pipeline: steps plus dependency edges.

    The steps form a DAG; :meth:`validate` rejects duplicate step names,
    dependencies on unknown steps, and dependency cycles.  ``budget_dollars``
    optionally caps the whole pipeline — the scheduler apportions whatever
    remains of the session budget across the still-pending steps and stops
    cleanly once it runs dry.
    """

    name: str = "pipeline"
    steps: Sequence[PipelineStep] = ()
    budget_dollars: float | None = None
    description: str = ""

    def validate(self) -> None:
        """Raise :class:`SpecError` if the pipeline is inconsistent."""
        if not self.steps:
            raise SpecError(f"pipeline {self.name!r} has no steps")
        _check_budget(self.budget_dollars)
        seen: set[str] = set()
        for step in self.steps:
            step.validate()
            if step.name in seen:
                raise SpecError(f"duplicate pipeline step name: {step.name!r}")
            seen.add(step.name)
        self.waves()  # unknown dependencies and cycles

    def waves(self) -> list[list[str]]:
        """The scheduler's wave decomposition (independent steps share a wave)."""
        return topological_waves({step.name: list(step.depends_on) for step in self.steps})
