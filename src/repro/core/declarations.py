"""One declaration per operator: everything the system knows about it.

The paper's promise is that a user declares *what* (sort, resolve, impute,
...) and the system picks *how*.  Every layer that has to know something
operator-specific — the engine's run path, the cost planner's estimates and
statically-known prompts, the physical planner's candidates and validation
runs, the wire codec and the checkpoint codec — looks it up here, by
``type(spec)``, in :data:`DECLARATIONS`; the fluent query layer looks it up
by operation name (:func:`operation_declaration`).  Changing an operator
means editing its declaration; adding one means adding an entry.

A declaration states, for one spec class:

* the operator class (its ``operation`` attribute is the label prefix) and
  the result classes it produces;
* ``shapes`` — one structural cost estimate per strategy.  Its keys *are*
  the strategies the spec accepts, so a misspelt name has no price and is
  refused before anything is spent;
* ``auto`` — the ``"auto"`` candidates in quality-preference order; the
  first is the unconstrained default;
* how to build and invoke the operator, and optionally a whole ``run``
  function (filter applies its predicates in a loop of its own);
* the prompts a strategy sends when they are a pure function of the spec;
* for a spec with a labelled sample: the sample and its truth, the
  candidates measured on it, the :mod:`repro.metrics` function scoring them
  and how to run one (:mod:`repro.core.optimizer` does the rest);
* what a finished run teaches the session's :class:`~repro.core.stats.
  RuntimeStats`, and which items a whole-list prompt must fit in context;
* the spec fields that are not JSON-shaped as they stand (the wire codec,
  :mod:`repro.wire`, walks the rest, and every result, by type hints);
* for a query node's ``params``: the spec it lowers to, where its output
  items come from and how many to expect, whether a filter commutes past
  it, and its ``.explain()`` line.

:mod:`repro.core.spec` stays free of operator imports (the fingerprint and
the wire form depend on it alone); this module sits on top of both.  It is
the planners' other half rather than a client of theirs, so the cost shapes
price through ``CostPlanner._estimate`` and the ensemble candidates ask
``PhysicalPlanner._ensemble_models`` directly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.consistency.transitivity import MatchGraph
from repro.core.optimizer import Measured, ResolvedStrategy, choose, dollars
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    ResolveSpec,
    SortSpec,
    TaskSpec,
    TopKSpec,
)
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import ConfigurationError, SpecError, UnknownStrategyError
from repro.llm.prompts import (
    CATEGORIZE,
    DUPLICATE_CHECK,
    GROUP_RECORDS,
    IMPUTE,
    PAIRWISE_COMPARISON,
    PREDICATE_CHECK,
    RATING,
    RATING_BATCH,
    SORT_LIST,
)
from repro.metrics import accuracy, f1_score, order_agreement
from repro.operators.base import BaseOperator, OperatorResult
from repro.operators.categorize import CategorizeOperator, CategorizeResult
from repro.operators.cluster import ClusterOperator, ClusterResult
from repro.operators.filter import FilterOperator, FilterResult
from repro.operators.impute import ImputeOperator, ImputeResult
from repro.operators.join import JoinOperator, JoinResult
from repro.operators.resolve import (
    PairJudgmentResult,
    ResolveOperator,
    ResolveResult,
)
from repro.operators.sort import SortOperator, SortResult
from repro.operators.top_k import TopKOperator, TopKResult
from repro.tokenizer.cost import to_dollars, to_nanos
from repro.wire import FieldCodec, from_wire, to_wire

if TYPE_CHECKING:  # pragma: no cover - typing only (these modules import this one)
    from repro.core.budget import Budget
    from repro.core.engine import DeclarativeEngine
    from repro.core.physical import PhysicalPlanner
    from repro.core.planner import CostEstimate, CostPlanner
    from repro.core.stats import RuntimeStats

    Shape = Callable[[CostPlanner, Any], CostEstimate]


def json_safe(value: Any, *, context: str) -> Any:
    """Pass ``value`` through ``json`` round-trip rules, or raise SpecError.

    Used for whatever a spec author fills in freely (``strategy_options``,
    record attributes): the values must be plain JSON data, not live objects.
    """
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{context} is not JSON-serialisable: {exc}") from exc
    return value


class OperatorDeclaration:
    """What the engine, planners and codecs know about one operator.

    Subclasses set the class attributes and override the hooks whose
    default does not fit; the defaults describe an operator that runs
    ``operator.run(list(spec.items), strategy=..., **options)``, has no
    validation sample and teaches the statistics store nothing.
    """

    spec_type: type[TaskSpec]
    operator: type[BaseOperator]
    results: tuple[type[OperatorResult], ...]
    #: strategy -> structural cost estimate; the keys are the accepted names.
    shapes: "Mapping[str, Shape]"
    #: ``"auto"`` candidates, most preferred first; ``auto[0]`` is the default.
    auto: tuple[str, ...]
    #: Whether the author's ``strategy_options`` ride along with an ``"auto"``
    #: choice; operators whose strategy choosers own the option set say no.
    auto_keeps_options = True
    #: Whether an ``"auto"`` estimate is labelled by the default it is priced
    #: at rather than ``"<op>:auto"`` (resolve: see its declaration).
    auto_labelled_as_default = False
    #: strategy -> the exact prompts it sends, where the spec alone fixes them.
    prompts: Mapping[str, Callable[[Any], Iterable[str]]] = {}
    #: Labelled-sample size below which validation-driven selection is skipped.
    min_validation = 5
    #: The :mod:`repro.metrics` function scoring a labelled run:
    #: ``metric(predicted(result, sample), truth)``, higher is better.
    metric: Callable[[Any, Any], float]
    #: Codecs of the spec fields whose type hints do not say how they cross JSON.
    spec_fields: Mapping[str, FieldCodec] = {}
    #: ``run(engine, spec, budget)`` replacing the engine's whole run path.
    run: Callable[..., OperatorResult] | None = None

    @property
    def operation(self) -> str:
        """The operator's name, the prefix of every ``"<op>:<strategy>"`` label."""
        return self.operator.operation

    def for_spec(self, spec: Any) -> "OperatorDeclaration":
        """The declaration governing ``spec`` (resolve has one per mode)."""
        return self

    def priced_strategy(self, spec: Any) -> str:
        """The strategy ``spec`` is priced at: its own, or the default for ``"auto"``.

        Raises :class:`UnknownStrategyError` (a :class:`SpecError`) naming
        the operator and what it accepts for any other name.
        """
        if spec.strategy == "auto":
            return self.auto[0]
        if spec.strategy not in self.shapes:
            raise UnknownStrategyError(self.operation, spec.strategy, list(self.shapes))
        return spec.strategy

    def candidates(self, spec: Any) -> list[tuple[str, dict]]:
        """The ``"auto"`` candidates with the options each would run with."""
        options = spec.strategy_options if self.auto_keeps_options else {}
        return [(name, dict(options)) for name in self.auto]

    def estimate(self, planner: "CostPlanner", spec: Any) -> "CostEstimate":
        """The structural estimate, labelled ``"<operation>:<strategy>"``."""
        priced = self.priced_strategy(spec)
        label = priced if self.auto_labelled_as_default else spec.strategy
        return self.shapes[priced](planner, spec).labelled(f"{self.operation}:{label}")

    def call_ratio_applies(self, planner: "CostPlanner", spec: Any) -> bool:
        """Whether the observed actual/estimated call ratio corrects the estimate."""
        return True

    def build(self, spec: Any, client: Any, **kwargs: Any) -> BaseOperator:
        return self.operator(client, **kwargs)

    def invoke(self, operator: Any, spec: Any, strategy: str, options: Mapping[str, Any]) -> Any:
        return operator.run(list(spec.items), strategy=strategy, **options)

    def validation_size(self, spec: Any) -> int:
        """How many labelled examples ``spec`` carries."""
        return 0

    def labelled(self, spec: Any) -> tuple[Any, Any]:
        """``spec`` narrowed to its labelled items, and their truth."""
        raise NotImplementedError

    def measured(self, planner: "PhysicalPlanner", spec: Any) -> list[tuple[str, dict]]:
        """The ``(strategy, options)`` candidates measured on the sample, in tie-break order."""
        raise NotImplementedError

    def measure(self, planner: "PhysicalPlanner", sample: Any, strategy: str, options, budget):
        """Run one candidate over the labelled ``sample`` spec."""
        return self.invoke(planner.build_operator(sample, budget), sample, strategy, options)

    def predicted(self, result: Any, sample: Any) -> Any:
        """A sample run's answers, shaped as :attr:`metric` reads them."""
        raise NotImplementedError

    def observe(self, stats: "RuntimeStats", spec: Any, result: Any) -> None:
        """Record what a finished run says about the workload."""

    # The fluent query layer (``repro.query``) reads the hooks below with a
    # logical node's ``params``; the defaults describe an annotating operator.

    #: Where a node's output items come from: ``"parent"`` (its input items
    #: pass through unchanged), ``"result"`` (its own step's result alone) or
    #: ``"result+parent"`` (its result applied to its parent's items).
    output_from = "parent"
    #: Whether the spec reads the chain's items (impute reads its own dataset).
    reads_items = True

    def lower(self, params: Mapping[str, Any], *inputs: list[str]) -> TaskSpec:
        """The spec a node runs over its input item lists (a join has two)."""
        raise SpecError(f"cannot build a spec for logical operation {self.operation!r}")

    def output_items(
        self, params: Mapping[str, Any], parent_items: list[str], result: Any
    ) -> list[str]:
        """A node's output items, given its step's result (see ``output_from``)."""
        return parent_items

    def estimate_output(
        self, params: Mapping[str, Any], items: list[str], stats: "RuntimeStats | None"
    ) -> list[str]:
        """A node's output items estimated before the run, from estimated input ``items``.

        Reducers keep the head of ``items``, so token-length averages stay
        representative; observed statistics override the declared priors.
        """
        return items

    def commutes_with_filter(self, params: Mapping[str, Any]) -> bool:
        """Whether a per-item filter above the node may move below it, results unchanged."""
        return self.output_from == "parent"

    def describe(self, params: Mapping[str, Any]) -> str:
        """The node's line in ``.explain()``."""
        return self.operation

    def explain_notes(self, params: Mapping[str, Any], stats: "RuntimeStats") -> list[str]:
        """What the statistics observed, as ``.explain()`` notes on the node's line.

        Call ratios are keyed by the strategy that executed, so an ``"auto"``
        node's lives under its default, as the planner looks it up.
        """
        strategy = params.get("strategy", "auto")
        if strategy == "auto":
            strategy = self.auto[0]
        ratio = stats.call_ratio(f"{self.operation}:{strategy}")
        return [] if ratio is None else [f"call ratio observed {ratio:.2f}"]


def _query_fields(params: Mapping[str, Any]) -> dict[str, Any]:
    """The spec fields every query node carries in its ``params``."""
    return {
        "strategy": params.get("strategy", "auto"),
        "strategy_options": dict(params.get("options", {})),
        "budget_dollars": params.get("budget_dollars"),
        "accuracy_target": params.get("accuracy_target"),
    }


def _kept(count: int, fraction: float) -> int:
    """How many of ``count`` items survive a step that keeps ``fraction`` (at least one)."""
    return min(count, max(1, math.ceil(count * fraction)))


def unique_items(items: Iterable[str]) -> list[str]:
    """Items with exact-duplicate strings removed, first occurrence kept."""
    return list(dict.fromkeys(items))


def _combined(planner: "CostPlanner", first: "CostEstimate", second: "CostEstimate") -> "CostEstimate":
    """The estimate of running ``first`` and then ``second``."""
    return planner._estimate(
        first.strategy,
        calls=first.calls + second.calls,
        prompt_tokens=first.usage.prompt_tokens + second.usage.prompt_tokens,
        completion_tokens=first.usage.completion_tokens + second.usage.completion_tokens,
    )


def _voters(spec: Any) -> int:
    """Votes an ensemble strategy casts per item (at least two voter models)."""
    return max(2, len(spec.strategy_options.get("models", ())))


def _ensemble_candidates(
    planner: "PhysicalPlanner", spec: Any, *names: str
) -> list[tuple[str, dict]]:
    """One candidate per ensemble strategy, when the session has two voters."""
    models = planner._ensemble_models(spec)
    if len(models) < 2:
        return []
    return [(name, {"models": models}) for name in names]


# -- sort ------------------------------------------------------------------------------


def _sort_insert(planner: "CostPlanner", spec: SortSpec) -> "CostEstimate":
    # One whole-list prompt, then a binary-search insertion (about log2(n)
    # comparisons) for each item the first pass dropped; we conservatively
    # price every item's insertion.  The whole-list prompt refuses an empty
    # list before log2 sees it.
    items = list(spec.items)
    whole = planner.single_prompt(items, SORT_LIST, spec.criterion)
    per_item = max(1, math.ceil(math.log2(len(items))))
    inserts = planner.pairwise_against(items, items, per_item, PAIRWISE_COMPARISON, spec.criterion)
    return _combined(planner, whole, inserts)


def _sort_rating(planner: "CostPlanner", spec: SortSpec) -> "CostEstimate":
    batch_size = int(spec.strategy_options.get("batch_size", 1))
    template = RATING if batch_size == 1 else RATING_BATCH
    return planner.per_item(list(spec.items), template, spec.criterion, batch_size=batch_size)


class _Sort(OperatorDeclaration):
    spec_type, operator, results = SortSpec, SortOperator, (SortResult,)
    shapes = {
        "pairwise": lambda planner, spec: planner.pairwise(
            list(spec.items), PAIRWISE_COMPARISON, spec.criterion
        ),
        "pairwise_consistent": lambda planner, spec: planner.pairwise(
            list(spec.items), PAIRWISE_COMPARISON, spec.criterion
        ),
        "rating": _sort_rating,
        "single_prompt": lambda planner, spec: planner.single_prompt(
            list(spec.items), SORT_LIST, spec.criterion
        ),
        "hybrid_sort_insert": _sort_insert,
    }
    auto = ("pairwise", "rating", "single_prompt")
    prompts = {
        "pairwise": lambda spec: (
            PAIRWISE_COMPARISON.render(pair, (spec.criterion,))
            for pair in itertools.combinations(map(str, spec.items), 2)
        )
    }
    auto_keeps_options = False
    min_validation = 3
    output_from = "result+parent"

    def build(self, spec: SortSpec, client: Any, **kwargs: Any) -> SortOperator:
        return SortOperator(client, spec.criterion, **kwargs)

    def lower(self, params, *inputs: list[str]) -> SortSpec:
        return SortSpec(
            items=list(inputs[0]),
            criterion=params["criterion"],
            validation_order=tuple(params.get("validation_order", ())),
            **_query_fields(params),
        )

    def output_items(self, params, parent_items: list[str], result: SortResult) -> list[str]:
        placed = set(result.order)
        return list(result.order) + [item for item in parent_items if item not in placed]

    def commutes_with_filter(self, params) -> bool:
        # Per-pair and per-item prompts: sorting a subset issues a subset of
        # the same prompts, so the survivors keep their relative order at
        # temperature 0.  A validation_order pins labelled items a pushed
        # filter could remove (and lets "auto" pick a whole-list strategy).
        strategy = params.get("strategy", "auto")
        safe = strategy in ("auto", "pairwise", "pairwise_consistent", "rating")
        return safe and not params.get("validation_order")

    def describe(self, params) -> str:
        return f"sort by {params['criterion']!r}"

    metric = staticmethod(order_agreement)

    def validation_size(self, spec: SortSpec) -> int:
        return len(spec.validation_order)

    def labelled(self, spec: SortSpec) -> tuple[SortSpec, list[str]]:
        sample = list(spec.validation_order)
        return replace(spec, items=sample), sample

    def measured(self, planner, spec: SortSpec) -> list[tuple[str, dict]]:
        return [("single_prompt", {}), ("rating", {}), ("pairwise", {})]

    def predicted(self, result: SortResult, sample: SortSpec) -> list[str]:
        return self.output_items({}, list(sample.items), result)


# -- resolve ---------------------------------------------------------------------------


def _blocked_pairwise(planner: "CostPlanner", spec: ResolveSpec) -> "CostEstimate":
    block_k = int(spec.strategy_options.get("block_k", 5))
    records = list(spec.records)
    estimate = planner.pairwise_against(records, records, block_k, DUPLICATE_CHECK)
    # The k·n pair count is an upper bound: the mutual-neighbor blocker
    # deduplicates symmetric and overlapping neighbor pairs, and the
    # observed candidate fraction says by how much.  Price from the
    # observation when one exists.
    rate = planner.observed_blocked_pair_rate()
    if rate is not None and estimate.calls > 0:
        rate = min(1.0, max(rate, 1.0 / max(1, estimate.calls)))
        estimate = planner._estimate(
            estimate.strategy,
            calls=max(1, int(round(estimate.calls * rate))),
            prompt_tokens=estimate.usage.prompt_tokens * rate,
            completion_tokens=estimate.usage.completion_tokens * rate,
        )
    return estimate


class _ResolveRecords(OperatorDeclaration):
    """Whole-corpus clustering: a resolve spec without ``pairs``."""

    spec_type, operator = ResolveSpec, ResolveOperator
    results = (ResolveResult, PairJudgmentResult)
    shapes = {
        "pairwise": lambda planner, spec: planner.pairwise(list(spec.records), DUPLICATE_CHECK),
        "blocked_pairwise": _blocked_pairwise,
        "single_prompt": lambda planner, spec: planner.single_prompt(
            list(spec.records), GROUP_RECORDS
        ),
    }
    auto = ("pairwise", "blocked_pairwise", "single_prompt")
    # The two modes' defaults must never share a call-ratio key — their cost
    # shapes are unrelated — so neither is ever labelled "resolve:auto".
    auto_labelled_as_default = True
    prompts = {
        "pairwise": lambda spec: (
            DUPLICATE_CHECK.render(pair)
            for pair in itertools.combinations(map(str, spec.records), 2)
        )
    }

    def for_spec(self, spec: ResolveSpec) -> OperatorDeclaration:
        return _RESOLVE_PAIRS if spec.pairs else self

    def call_ratio_applies(self, planner, spec: ResolveSpec) -> bool:
        # A blocked resolve priced from the observed mutual-neighbor rate
        # must not *also* be scaled by its recorded call ratio: the ratio was
        # measured against the uncorrected k·n estimate, so it encodes the
        # same blocking shrinkage and would double-correct.  (Pair judgments
        # have no blocked strategy, so this is always true for them.)
        return not (
            spec.strategy == "blocked_pairwise"
            and planner.observed_blocked_pair_rate() is not None
        )

    def invoke(self, operator: ResolveOperator, spec: ResolveSpec, strategy, options):
        return operator.resolve(list(spec.records), strategy=strategy, **options)

    def observe(self, stats, spec: ResolveSpec, result: ResolveResult) -> None:
        stats.record_dedup(inputs=len(spec.records), survivors=len(result.clusters))

    # A query resolve is a dedup: one representative per duplicate cluster.
    output_from = "result+parent"

    def lower(self, params, *inputs: list[str]) -> ResolveSpec:
        # Exact-duplicate strings are duplicates by definition; merge them
        # for free instead of spending pair judgments on them.
        return ResolveSpec(records=unique_items(inputs[0]), **_query_fields(params))

    def output_items(self, params, parent_items: list[str], result: Any) -> list[str]:
        return _representatives(unique_items(parent_items), result)

    def estimate_output(self, params, items: list[str], stats) -> list[str]:
        # Priced conservatively at the input cardinality until a dedup is observed.
        ratio = stats.dedup_survivor_ratio() if stats is not None else None
        return items if ratio is None else items[: _kept(len(items), ratio)]

    def commutes_with_filter(self, params) -> bool:
        # Per-pair judgments only; a proxy-blocked resolve picks its pairs
        # from the whole input.
        return params.get("strategy", "auto") in ("auto", "pairwise") and not params.get("proxy")

    def describe(self, params) -> str:
        return "resolve duplicates to one representative per entity"

    def explain_notes(self, params, stats) -> list[str]:
        ratio = stats.dedup_survivor_ratio()
        notes = [] if ratio is None else [f"dedup survivors observed {ratio:.2f}"]
        return notes + super().explain_notes(params, stats)


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


class _ResolvePairs(_ResolveRecords):
    """Pair judgments (the Table 3 setting): a resolve spec with ``pairs``."""

    shapes = {
        "transitive": lambda planner, spec: planner.pair_judgments(
            # The k-NN-augmented strategy compares every pair among the two
            # anchors and their k neighbors.
            list(spec.pairs),
            DUPLICATE_CHECK,
            expansion=math.comb(2 * spec.neighbors_k + 2, 2),
        ),
        "pairwise": lambda planner, spec: planner.pair_judgments(list(spec.pairs), DUPLICATE_CHECK),
        "proxy_hybrid": lambda planner, spec: planner.pair_judgments(
            list(spec.pairs), DUPLICATE_CHECK
        ),
    }
    auto = ("transitive", "pairwise")
    prompts = {
        "pairwise": lambda spec: (
            DUPLICATE_CHECK.render([str(left), str(right)]) for left, right in spec.pairs
        )
    }

    def candidates(self, spec: ResolveSpec) -> list[tuple[str, dict]]:
        return [("transitive", {"neighbors_k": spec.neighbors_k}), ("pairwise", {})]

    def invoke(self, operator: ResolveOperator, spec: ResolveSpec, strategy, options):
        options = dict(options)
        return operator.judge_pairs(
            list(spec.pairs),
            strategy=strategy,
            corpus=list(spec.records) or None,
            neighbors_k=options.pop("neighbors_k", spec.neighbors_k),
            **options,
        )

    metric = staticmethod(f1_score)

    def validation_size(self, spec: ResolveSpec) -> int:
        return len(spec.validation_labels)

    def labelled(self, spec: ResolveSpec) -> tuple[ResolveSpec, list[bool]]:
        labels = dict(spec.validation_labels)
        return replace(spec, pairs=list(labels)), list(labels.values())

    def measured(self, planner, spec: ResolveSpec) -> list[tuple[str, dict]]:
        transitive = ("transitive", {"neighbors_k": spec.neighbors_k})
        return [("pairwise", {}), transitive, ("proxy_hybrid", {})]

    def predicted(self, result: PairJudgmentResult, sample: ResolveSpec) -> list[bool]:
        return result.decisions

    # Judging given pairs says nothing about a corpus's survivor ratio, so
    # this operation does not inherit the whole-corpus dedup's recorder.
    observe = OperatorDeclaration.observe


_RESOLVE_PAIRS = _ResolvePairs()


# -- impute ----------------------------------------------------------------------------

#: Prior escalation fraction of the retrieval impute strategy: the share of
#: queries whose index-retrieved neighbors disagree and go to the LLM
#: (Table 4's hybrid runs escalate roughly half; the recorded call ratio
#: replaces this prior once a run has been observed).
_RETRIEVAL_ESCALATION_PRIOR = 0.5
#: Neighbor evidence records each retrieval-escalated prompt carries (the
#: operator's default ``k``).
_RETRIEVAL_EVIDENCE_NEIGHBORS = 3


def _impute_queries(planner: "CostPlanner", spec: ImputeSpec) -> "CostEstimate":
    queries = [spec.data.serialized_query(record) for record in spec.data.queries]
    return planner.per_item(queries, IMPUTE, spec.data.target_attribute)


def _impute_retrieval(planner: "CostPlanner", spec: ImputeSpec) -> "CostEstimate":
    # Index-grounded hybrid: only the disagreeing fraction escalates, and
    # each escalated prompt carries the retrieved neighbors as in-context
    # evidence (k extra records' worth of prompt tokens).  The index
    # build/probe itself is local embed work at zero dollars and adds no
    # LLM calls.
    base = _impute_queries(planner, spec)
    calls = max(1, int(round(base.calls * _RETRIEVAL_ESCALATION_PRIOR)))
    fraction = calls / max(1, base.calls)
    return planner._estimate(
        "retrieval",
        calls=calls,
        prompt_tokens=base.usage.prompt_tokens * fraction * (1 + _RETRIEVAL_EVIDENCE_NEIGHBORS),
        completion_tokens=base.usage.completion_tokens * fraction,
    )


def _impute_prompts(spec: ImputeSpec) -> Iterable[str]:
    # In-context examples are drawn at run time; only the example-free
    # prompt is a pure function of the spec.
    if spec.n_examples != 0 or spec.data is None:
        return ()
    return (
        IMPUTE.render([spec.data.serialized_query(record)], (spec.data.target_attribute,))
        for record in spec.data.queries
    )


def _encode_dataset(dataset: Dataset) -> dict[str, Any]:
    records = [to_wire(record) for record in dataset.records]
    return {"name": dataset.name, "records": json_safe(records, context=f"{dataset.name} records")}


def _decode_dataset(data: Mapping[str, Any]) -> Dataset:
    records = (from_wire(Record, record) for record in data.get("records", ()))
    return Dataset(records, name=data.get("name", "dataset"))


#: An imputation dataset crosses as its fields, with its two :class:`Dataset`
#: (not a dataclass) as name and records.
_IMPUTATION = FieldCodec(
    lambda data: {
        **to_wire(data),
        "queries": _encode_dataset(data.queries),
        "reference": _encode_dataset(data.reference),
    },
    lambda data: from_wire(
        ImputationDataset,
        {**data, **{key: _decode_dataset(data.get(key, {})) for key in ("queries", "reference")}},
    ),
)


class _Impute(OperatorDeclaration):
    spec_type, operator, results = ImputeSpec, ImputeOperator, (ImputeResult,)
    shapes = {
        "hybrid": _impute_queries,
        "retrieval": _impute_retrieval,
        "llm_only": _impute_queries,
        # Pure proxy imputation: no LLM calls at all.
        "knn": lambda planner, spec: planner._estimate(
            "knn", calls=0, prompt_tokens=0, completion_tokens=0
        ),
    }
    auto = ("hybrid", "retrieval", "llm_only", "knn")
    prompts = {"llm_only": _impute_prompts}
    auto_keeps_options = False  # ``n_examples`` travels on the spec
    spec_fields = {"data": _IMPUTATION}

    def invoke(self, operator: ImputeOperator, spec: ImputeSpec, strategy, options):
        return operator.run(spec.data, strategy=strategy, n_examples=spec.n_examples)

    reads_items = False  # a query impute annotates its own dataset

    def lower(self, params, *inputs: list[str]) -> ImputeSpec:
        fields = _query_fields(params)
        del fields["strategy_options"]
        n_examples = int(params.get("n_examples", 0))
        return ImputeSpec(data=params["data"], n_examples=n_examples, **fields)

    def describe(self, params) -> str:
        return f"impute {params['data'].target_attribute!r}"

    metric = staticmethod(accuracy)

    def validation_size(self, spec: ImputeSpec) -> int:
        return 0 if spec.data is None else min(spec.validation_size, len(spec.data.queries))

    def labelled(self, spec: ImputeSpec) -> tuple[ImputeSpec, dict[str, Any]]:
        data = spec.data
        records = data.queries.records[: self.validation_size(spec)]
        sample = ImputationDataset(
            name=f"{data.name}-validation",
            target_attribute=data.target_attribute,
            queries=Dataset(records, name=f"{data.name}-validation-queries"),
            reference=data.reference,
            ground_truth={r.record_id: data.ground_truth[r.record_id] for r in records},
        )
        return replace(spec, data=sample), sample.ground_truth

    def measured(self, planner, spec: ImputeSpec) -> list[tuple[str, dict]]:
        return [(name, {}) for name in ("knn", "hybrid", "retrieval", "llm_only")]

    def predicted(self, result: ImputeResult, sample: ImputeSpec) -> dict[str, Any]:
        return result.predictions


# -- filter ----------------------------------------------------------------------------


def _survivor_counts(
    count: int, predicates: Sequence[str], priors: Sequence[float], stats: "RuntimeStats | None"
) -> list[int]:
    """The items each conjunctive predicate checks, then the expected survivors.

    Each predicate only re-checks the expected survivors of the ones before
    it (the run applies them over a shrinking set), at its observed
    selectivity when ``stats`` has one and its prior (0.5 when undeclared)
    otherwise.  Quotes and query-size estimates both count this way, so a
    fused multi-predicate spec quotes exactly like sequential filter steps.
    """
    counts = [count]
    for index, predicate in enumerate(predicates):
        observed = stats.filter_selectivity(predicate) if stats is not None else None
        if observed is None:
            selectivity = float(priors[index]) if index < len(priors) else 0.5
        else:
            # An observed 0 would collapse every downstream estimate to nothing.
            selectivity = max(observed, 1e-6)
        counts.append(_kept(counts[-1], selectivity))
    return counts


def _filter_passes(planner: "CostPlanner", spec: FilterSpec, votes: int) -> "CostEstimate":
    items = list(spec.items)
    predicates = spec.all_predicates
    counts = _survivor_counts(len(items), predicates, spec.expected_selectivities, planner.stats)
    calls = 0
    prompt_tokens = completion_tokens = 0.0
    for predicate, count in zip(predicates, counts):
        one_pass = planner.per_item(items[:count], PREDICATE_CHECK, predicate)
        calls += one_pass.calls * votes
        prompt_tokens += one_pass.usage.prompt_tokens * votes
        completion_tokens += one_pass.usage.completion_tokens * votes
    return planner._estimate("filter", calls, prompt_tokens, completion_tokens)


#: The per-predicate strategy search enumerates candidate^predicate combos;
#: beyond this many predicates it falls back to one conjunction-level choice.
_MAX_PER_PREDICATE_SEARCH = 4


class _Filter(OperatorDeclaration):
    spec_type, operator, results = FilterSpec, FilterOperator, (FilterResult,)
    shapes = {
        "per_item": lambda planner, spec: _filter_passes(planner, spec, 1),
        "ensemble_vote": lambda planner, spec: _filter_passes(planner, spec, _voters(spec)),
        # Upper bound: every item stays contentious until the vote limit.
        "adaptive": lambda planner, spec: _filter_passes(
            planner, spec, int(spec.strategy_options.get("max_votes_per_item") or _voters(spec))
        ),
    }
    auto = ("per_item",)
    prompts = {
        "per_item": lambda spec: (
            PREDICATE_CHECK.render([str(item)], (predicate,))
            for predicate in spec.all_predicates
            for item in spec.items
        )
    }

    output_from = "result"

    def call_ratio_applies(self, planner, spec: FilterSpec) -> bool:
        # A filter's error is explained by predicate selectivity, which is
        # observed and priced per predicate; applying both would double-correct.
        return False

    def lower(self, params, *inputs: list[str]) -> FilterSpec:
        return FilterSpec(
            items=list(inputs[0]),
            predicates=tuple(params["predicates"]),
            expected_selectivities=tuple(params.get("selectivities", ())),
            **_query_fields(params),
        )

    def output_items(self, params, parent_items: list[str], result: FilterResult) -> list[str]:
        return list(result.kept)

    def estimate_output(self, params, items: list[str], stats) -> list[str]:
        predicates, priors = params.get("predicates", ()), params.get("selectivities", ())
        return items[: _survivor_counts(len(items), predicates, priors, stats)[-1]]

    def describe(self, params) -> str:
        return "filter: " + " AND ".join(params["predicates"])

    def explain_notes(self, params, stats) -> list[str]:
        # Selectivities only: a filter's call ratio is never applied.
        priors = list(params.get("selectivities", ()))
        notes = []
        for index, predicate in enumerate(params.get("predicates", ())):
            observed = stats.filter_selectivity(predicate)
            if observed is not None:
                prior = float(priors[index]) if index < len(priors) else 0.5
                notes.append(f"selectivity prior {prior:.2f} -> observed {observed:.2f}")
        return notes

    def predicate_operator(self, planner, predicate: str, budget) -> FilterOperator:
        """The operator checking one of a spec's conjunctive predicates."""
        return self.operator(
            planner.session.client(budget), predicate, **planner.operator_kwargs()
        )

    @staticmethod
    def _conjunction(
        items: list[str],
        passes: list[tuple[str, str, Mapping[str, Any]]],
        check: Callable[[str, str, Mapping[str, Any], list[str]], FilterResult],
    ) -> tuple[FilterResult, int]:
        """Apply ``(predicate, strategy, options)`` passes over a shrinking survivor set.

        Later predicates never spend calls on items an earlier one already
        rejected.  Returns the merged result (carrying the last pass's
        metadata) and how many passes ran before the survivors ran out.
        """
        survivors = list(items)
        merged = FilterResult(strategy="", decisions={item: True for item in survivors})
        ran = 0
        for predicate, strategy, options in passes:
            if not survivors:
                break
            result = check(predicate, strategy, options, survivors)
            ran += 1
            for item in survivors:
                merged.decisions[item] = result.decisions.get(item, False)
            survivors = list(result.kept)
            merged.usage.add(result.usage)
            merged.cost = to_dollars(to_nanos(merged.cost) + to_nanos(result.cost))
            merged.votes_used += result.votes_used
            merged.metadata = dict(result.metadata)
        merged.kept = survivors
        return merged, ran

    def run(self, engine: "DeclarativeEngine", spec: FilterSpec, budget) -> FilterResult:
        """Apply the conjunctive predicates in order, one operator run each.

        Strategies resolve *per predicate* (see :meth:`resolve_predicates`):
        with validation labels, a cheap ``per_item`` pass on an easy predicate
        can precede an ensemble vote on the hard one.  Each predicate's
        observed selectivity is recorded into the session's runtime stats.
        """
        planner = engine.physical
        plans = self.resolve_predicates(
            planner, spec, budget=budget if budget is not None else engine.session.budget
        )

        def check(predicate, strategy, options, survivors) -> FilterResult:
            operator = self.predicate_operator(planner, predicate, budget)
            with engine.operator_scope(f"filter:{strategy}"):
                result = operator.run(survivors, strategy=strategy, **options)
            engine.stats.record_filter(predicate, evaluated=len(survivors), kept=len(result.kept))
            return result

        merged, ran = self._conjunction(
            [str(item) for item in spec.items],
            [(predicate, resolved.strategy, resolved.options) for predicate, resolved in plans],
            check,
        )
        merged.strategy = "+".join(dict.fromkeys(resolved.strategy for _, resolved in plans[:ran]))
        merged.metadata["predicates"] = list(spec.all_predicates)
        # Reported up to and including the first predicate that found nothing left to check.
        merged.metadata["predicate_strategies"] = {
            predicate: resolved.strategy for predicate, resolved in plans[: ran + 1]
        }
        return merged

    metric = staticmethod(f1_score)

    def validation_size(self, spec: FilterSpec) -> int:
        return len(spec.validation_labels)

    def labelled(self, spec: FilterSpec) -> tuple[FilterSpec, list[bool]]:
        # The labels are for the conjunction of the spec's predicates.
        labels = {str(item): bool(label) for item, label in dict(spec.validation_labels).items()}
        return replace(spec, items=list(labels)), list(labels.values())

    def measured(self, planner, spec: FilterSpec) -> list[tuple[str, dict]]:
        ensembles = _ensemble_candidates(planner, spec, "ensemble_vote", "adaptive")
        return [("per_item", {}), *ensembles]

    def measure(self, planner, sample: FilterSpec, strategy, options, budget) -> FilterResult:
        """Run the predicates over a shrinking survivor set, as :meth:`run` runs the spec."""

        def check(predicate, strategy, options, survivors) -> FilterResult:
            operator = self.predicate_operator(planner, predicate, budget)
            return operator.run(survivors, strategy=strategy, **options)

        passes = [(predicate, strategy, options) for predicate in sample.all_predicates]
        return self._conjunction(list(sample.items), passes, check)[0]

    def predicted(self, result: FilterResult, sample: FilterSpec) -> list[bool]:
        return [result.decisions.get(item, False) for item in sample.items]

    def resolve_predicates(
        self, planner: "PhysicalPlanner", spec: FilterSpec, *, budget=None
    ) -> list[tuple[str, ResolvedStrategy]]:
        """Resolve a filter spec to one strategy *per predicate*, in order.

        A fixed strategy, a single-predicate spec, or an ``auto`` spec with
        no usable validation sample resolves exactly like
        :meth:`PhysicalPlanner.resolve` and applies that one choice to every
        predicate.  A multi-predicate ``auto`` spec *with* validation labels
        searches per-predicate combinations instead, so a cheap ``per_item``
        pass on an easy predicate can precede an ensemble vote on the hard
        one: each is scored by the F1 of its AND-ed decisions against the
        conjunction labels, priced as the sum of its passes' quotes, and
        :func:`~repro.core.optimizer.choose` picks one.
        """
        predicates = list(spec.all_predicates)
        if not (
            spec.strategy == "auto"
            and 1 < len(predicates) <= _MAX_PER_PREDICATE_SEARCH
            and planner.would_validate(spec)
        ):
            shared = planner.resolve(spec, budget=budget)
            return [(predicate, shared) for predicate in predicates]
        sample, truth = self.labelled(spec)
        candidates = self.measured(planner, spec)
        # Each candidate judges each predicate alone over the whole sample: a
        # combination needs every predicate's decision on every item.
        judged = [
            [
                self.measure(planner, _alone(sample, predicate), *candidate, budget).decisions
                for candidate in candidates
            ]
            for predicate in predicates
        ]
        # A pass is priced at the planner's undiscounted quote (as in
        # ``select_on_sample``) of its predicate over the items it will check (the
        # survivors the selectivities leave it): the terms ``_filter_passes`` sums.
        items, priors = list(spec.items), spec.expected_selectivities
        counts = _survivor_counts(len(items), predicates, priors, planner.stats)
        passes = [_alone(spec, p, items=items[:n]) for p, n in zip(predicates, counts)]
        priced = [
            [planner._try_estimate(alone, *c, observed_hits=False) for c in candidates]
            for alone in passes
        ]
        combinations = []
        for combo in itertools.product(range(len(candidates)), repeat=len(predicates)):
            picks = list(enumerate(combo))
            predictions = [all(judged[p][c][item] for p, c in picks) for item in sample.items]
            price = sum(dollars(priced[p][c]) for p, c in picks)
            combinations.append(Measured(combo, self.metric(predictions, truth), price))
        remaining = planner._remaining_dollars(spec, budget)
        chosen = choose(combinations, remaining=remaining, accuracy_target=spec.accuracy_target)
        considered = tuple(name for name, _ in candidates)
        plans = []
        for p, (predicate, c) in enumerate(zip(predicates, chosen.key)):
            (name, options), estimate = candidates[c], priced[p][c]
            resolved = ResolvedStrategy(name, dict(options), "validation", estimate, considered)
            plans.append((predicate, resolved))
        return plans


def _alone(spec: FilterSpec, predicate: str, **fields: Any) -> FilterSpec:
    """``spec`` checking ``predicate`` alone."""
    return replace(spec, predicate=predicate, predicates=(), **fields)


# -- categorize ------------------------------------------------------------------------


def _categorize_votes(planner: "CostPlanner", spec: CategorizeSpec, votes: int) -> "CostEstimate":
    # The category menu is a fixed field: every call's scaffold carries it.
    categories = tuple(map(str, spec.categories))
    if not categories:
        raise ConfigurationError("cannot plan a categorize spec without categories")
    base = planner.per_item(list(spec.items), CATEGORIZE, categories)
    return planner._estimate(
        "categorize",
        calls=base.calls * votes,
        prompt_tokens=base.usage.prompt_tokens * votes,
        completion_tokens=base.usage.completion_tokens * votes,
    )


class _Categorize(OperatorDeclaration):
    spec_type, operator, results = CategorizeSpec, CategorizeOperator, (CategorizeResult,)
    shapes = {
        "per_item": lambda planner, spec: _categorize_votes(planner, spec, 1),
        "self_consistency": lambda planner, spec: _categorize_votes(
            planner, spec, int(spec.strategy_options.get("n_samples", 3))
        ),
        "ensemble_vote": lambda planner, spec: _categorize_votes(planner, spec, _voters(spec)),
    }
    auto = ("per_item",)
    prompts = {
        "per_item": lambda spec: (
            CATEGORIZE.render([str(item)], (tuple(spec.categories),)) for item in spec.items
        )
    }

    def build(self, spec: CategorizeSpec, client: Any, **kwargs: Any) -> CategorizeOperator:
        return CategorizeOperator(client, list(spec.categories), **kwargs)

    def lower(self, params, *inputs: list[str]) -> CategorizeSpec:
        return CategorizeSpec(
            items=list(inputs[0]), categories=tuple(params["categories"]), **_query_fields(params)
        )

    def describe(self, params) -> str:
        return "categorize into " + ", ".join(params["categories"])

    metric = staticmethod(accuracy)

    def validation_size(self, spec: CategorizeSpec) -> int:
        return len(spec.validation_labels)

    def labelled(self, spec: CategorizeSpec) -> tuple[CategorizeSpec, dict[str, str]]:
        labels = {str(item): str(label) for item, label in dict(spec.validation_labels).items()}
        return replace(spec, items=list(labels)), labels

    def measured(self, planner, spec: CategorizeSpec) -> list[tuple[str, dict]]:
        ensembles = _ensemble_candidates(planner, spec, "ensemble_vote")
        return [("per_item", {}), ("self_consistency", {"n_samples": 3}), *ensembles]

    def predicted(self, result: CategorizeResult, sample: CategorizeSpec) -> dict[str, str]:
        return result.assignments


# -- top-k -----------------------------------------------------------------------------


def _rate_then_compare(planner: "CostPlanner", spec: TopKSpec) -> "CostEstimate":
    # Rate everything, then a tournament among the shortlist.
    items = list(spec.items)
    factor = int(spec.strategy_options.get("shortlist_factor", 3))
    shortlist = items[: min(len(items), max(spec.k, spec.k * factor))]
    ratings = planner.per_item(items, RATING, spec.criterion)
    if len(shortlist) < 2:
        return ratings
    tournament = planner.pairwise(shortlist, PAIRWISE_COMPARISON, spec.criterion)
    return _combined(planner, ratings, tournament)


class _TopK(OperatorDeclaration):
    spec_type, operator, results = TopKSpec, TopKOperator, (TopKResult,)
    shapes = {
        "hybrid_rating_comparison": _rate_then_compare,
        "rating_only": lambda planner, spec: planner.per_item(
            list(spec.items), RATING, spec.criterion
        ),
        "pairwise_tournament": lambda planner, spec: planner.pairwise(
            list(spec.items), PAIRWISE_COMPARISON, spec.criterion
        ),
    }
    auto = ("hybrid_rating_comparison", "rating_only")
    output_from = "result"

    def build(self, spec: TopKSpec, client: Any, **kwargs: Any) -> TopKOperator:
        return TopKOperator(client, spec.criterion, **kwargs)

    def invoke(self, operator: TopKOperator, spec: TopKSpec, strategy, options):
        return operator.run(list(spec.items), k=spec.k, strategy=strategy, **options)

    def lower(self, params, *inputs: list[str]) -> TopKSpec:
        items = list(inputs[0])
        # Declarative top-k of a shrunken set: clamp rather than fail.
        k = max(1, min(int(params["k"]), len(items))) if items else int(params["k"])
        return TopKSpec(items=items, criterion=params["criterion"], k=k, **_query_fields(params))

    def output_items(self, params, parent_items: list[str], result: TopKResult) -> list[str]:
        return list(result.top_items)

    def estimate_output(self, params, items: list[str], stats) -> list[str]:
        return items[: max(1, min(len(items), int(params.get("k", 1))))]

    def describe(self, params) -> str:
        return f"top {params['k']} by {params['criterion']!r}"


# -- join ------------------------------------------------------------------------------


def _join_pairs(planner: "CostPlanner", spec: JoinSpec, per_left: int) -> "CostEstimate":
    """``per_left`` duplicate checks of each left record against the right side."""
    return planner.pairwise_against(list(spec.left), list(spec.right), per_left, DUPLICATE_CHECK)


def _join_blocked(planner: "CostPlanner", spec: JoinSpec) -> "CostEstimate":
    # About ``block_k`` candidates per left record; proxy_blocked answers
    # part of those for free, so pricing it like blocked is a conservative
    # upper bound.
    block_k = int(spec.strategy_options.get("block_k", 3))
    return _join_pairs(planner, spec, min(block_k, len(spec.right)))


class _Join(OperatorDeclaration):
    spec_type, operator, results = JoinSpec, JoinOperator, (JoinResult,)
    shapes = {
        "blocked": _join_blocked,
        "proxy_blocked": _join_blocked,
        "all_pairs": lambda planner, spec: _join_pairs(planner, spec, len(spec.right)),
    }
    auto = ("blocked",)
    prompts = {
        "all_pairs": lambda spec: (
            DUPLICATE_CHECK.render([str(left), str(right)])
            for left in spec.left
            for right in spec.right
        )
    }
    # A query join is a semi-join: the left items with at least one match.
    output_from = "result+parent"

    def invoke(self, operator: JoinOperator, spec: JoinSpec, strategy, options):
        return operator.run(list(spec.left), list(spec.right), strategy=strategy, **options)

    def observe(self, stats, spec: JoinSpec, result: JoinResult) -> None:
        stats.record_join(left=len(spec.left), matched=len({left for left, _ in result.matches}))

    def lower(self, params, *inputs: list[str]) -> JoinSpec:
        left, right = inputs
        return JoinSpec(left=list(left), right=list(right), **_query_fields(params))

    def output_items(self, params, parent_items: list[str], result: JoinResult) -> list[str]:
        matched = sorted({left_index for left_index, _ in result.matches})
        return [parent_items[index] for index in matched]

    def estimate_output(self, params, items: list[str], stats) -> list[str]:
        # A declared per-join prior wins (the author knows this join); the
        # session's observed match rate is global, so it only fills the gap;
        # otherwise a conservative 1.0.
        selectivity = params.get("selectivity")
        if selectivity is None and stats is not None:
            selectivity = stats.join_selectivity()
        return items[: _kept(len(items), 1.0 if selectivity is None else float(selectivity))]

    def describe(self, params) -> str:
        return "semi-join against a second dataset"

    def explain_notes(self, params, stats) -> list[str]:
        observed = stats.join_selectivity()
        declared = params.get("selectivity")
        if observed is None:
            notes = []
        elif declared is None:
            notes = [f"join selectivity observed {observed:.2f}"]
        else:
            # Surface both, so the declared prior outranking the observation is visible.
            notes = [f"join selectivity declared {float(declared):.2f} (observed {observed:.2f})"]
        return notes + super().explain_notes(params, stats)


# -- cluster ---------------------------------------------------------------------------


def _two_phase(planner: "CostPlanner", spec: ClusterSpec) -> "CostEstimate":
    # One grouping prompt over the seed, then each remaining item is
    # compared against the discovered representatives.  The representative
    # count is unknown a priori; half the seed is the heuristic.
    items = list(spec.items)
    seed_size = min(int(spec.strategy_options.get("seed_size", 12)), len(items))
    seed = items[:seed_size]
    seed_prompt = planner.single_prompt(seed, GROUP_RECORDS)
    if not items[seed_size:]:
        return seed_prompt
    # The representatives are seed items.
    assignments = planner.pairwise_against(
        items[seed_size:], seed, max(1, seed_size // 2), DUPLICATE_CHECK
    )
    return _combined(planner, seed_prompt, assignments)


class _Cluster(OperatorDeclaration):
    spec_type, operator, results = ClusterSpec, ClusterOperator, (ClusterResult,)
    shapes = {
        "two_phase": _two_phase,
        "single_prompt": lambda planner, spec: planner.single_prompt(
            list(spec.items), GROUP_RECORDS
        ),
    }
    auto = ("two_phase", "single_prompt")

    def lower(self, params, *inputs: list[str]) -> ClusterSpec:
        return ClusterSpec(items=unique_items(inputs[0]), **_query_fields(params))

    def describe(self, params) -> str:
        return "cluster items into groups"


# -- the table -------------------------------------------------------------------------

#: Spec class -> its declaration.  Every layer dispatches through this dict.
DECLARATIONS: dict[type, OperatorDeclaration] = {
    declaration.spec_type: declaration
    for declaration in (
        _Sort(),
        _ResolveRecords(),
        _Impute(),
        _Filter(),
        _Categorize(),
        _TopK(),
        _Join(),
        _Cluster(),
    )
}


def declaration_for(spec: Any) -> OperatorDeclaration:
    """The declaration governing ``spec``, or :class:`SpecError` when there is none."""
    declaration = DECLARATIONS.get(type(spec))
    if declaration is None:
        raise SpecError(f"no operator is declared for spec type {type(spec).__name__}")
    return declaration.for_spec(spec)


def check_strategy(spec: TaskSpec) -> None:
    """Refuse a strategy name the spec's operator does not accept.

    Spec types without a declaration pass: there is nothing to check them
    against, and every layer that would run them refuses them by type.
    """
    declaration = DECLARATIONS.get(type(spec))
    if declaration is not None:
        declaration.for_spec(spec).priced_strategy(spec)


def operation_declaration(operation: str) -> OperatorDeclaration | None:
    """The declaration of the operator called ``operation``, or ``None``.

    The one lookup by name: the query layer reads a logical node's
    declaration here, and an auto-labelled quote its default strategy
    (``auto[0]``; a pairs-mode resolve is labelled ``"transitive"`` where the
    mode is known).  It scans the live table, so an entry a test adds counts.
    """
    for declaration in DECLARATIONS.values():
        if declaration.operator.operation == operation:
            return declaration
    return None


def spec_declaration(type_name: Any) -> OperatorDeclaration | None:
    """The declaration whose spec class is called ``type_name`` (wire form)."""
    for spec_type, declaration in DECLARATIONS.items():
        if spec_type.__name__ == type_name:
            return declaration
    return None


def result_type(type_name: Any) -> type[OperatorResult] | None:
    """The declared result class called ``type_name`` (checkpoint form)."""
    for declaration in DECLARATIONS.values():
        for result in declaration.results:
            if result.__name__ == type_name:
                return result
    return None
