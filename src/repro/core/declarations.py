"""One declaration per operator: everything the system knows about it.

The paper's promise is that a user declares *what* (sort, resolve, impute,
...) and the system picks *how*.  Every layer that has to know something
operator-specific — the engine's run path, the cost planner's estimates and
statically-known prompts, the physical planner's candidates and validation
runs, the wire codec and the checkpoint codec — looks it up here, by
``type(spec)``, in :data:`DECLARATIONS`.  Changing an operator means editing
its declaration; adding one means adding an entry.

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
* the labelled validation sample, its candidates and its scorer;
* what a finished run teaches the session's :class:`~repro.core.stats.
  RuntimeStats`, and which items a whole-list prompt must fit in context;
* the spec and result fields that are not JSON-shaped as they stand.

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
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple

from repro.core.optimizer import StrategyCandidate
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
from repro.exceptions import SpecError, UnknownStrategyError
from repro.llm.prompts import (
    categorize_prompt,
    duplicate_check_prompt,
    impute_prompt,
    pairwise_comparison_prompt,
    predicate_check_prompt,
)
from repro.metrics.classification import accuracy as exact_match_accuracy
from repro.metrics.classification import f1_score
from repro.metrics.ranking import kendall_tau_b
from repro.operators.base import BaseOperator, OperatorResult
from repro.operators.categorize import CategorizeOperator, CategorizeResult
from repro.operators.cluster import ClusterOperator, ClusterResult
from repro.operators.count import CountResult
from repro.operators.filter import FilterOperator, FilterResult
from repro.operators.impute import ImputeOperator, ImputeResult
from repro.operators.join import JoinOperator, JoinResult
from repro.operators.resolve import (
    PairJudgment,
    PairJudgmentResult,
    ResolveOperator,
    ResolveResult,
)
from repro.operators.sort import SortOperator, SortResult
from repro.operators.top_k import TopKOperator, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only (these modules import this one)
    from repro.core.budget import Budget, BudgetLease
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


def _same(value: Any) -> Any:
    return value


class FieldCodec(NamedTuple):
    """How one spec or result field crosses JSON when it is not JSON-shaped."""

    encode: Callable[[Any], Any] = _same
    decode: Callable[[Any], Any] = _same


class Validation(NamedTuple):
    """How to measure candidate strategies on a spec's labelled sample."""

    candidates: list[StrategyCandidate]
    run: Callable[[StrategyCandidate], OperatorResult]
    score: Callable[[Any], float]
    #: Size of the full input the sample's cost is extrapolated to.
    full_size: int


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
    spec_fields: Mapping[str, FieldCodec] = {}
    result_fields: Mapping[str, FieldCodec] = {}
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
        return replace(self.shapes[priced](planner, spec), strategy=f"{self.operation}:{label}")

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

    def validation(
        self, planner: "PhysicalPlanner", spec: Any, budget: "Budget | BudgetLease | None"
    ) -> Validation:
        """Candidates, runner and scorer for the labelled sample (when it has one)."""
        raise NotImplementedError

    def observe(self, stats: "RuntimeStats", spec: Any, result: Any) -> None:
        """Record what a finished run says about the workload."""


def _combined(planner: "CostPlanner", first: "CostEstimate", second: "CostEstimate") -> "CostEstimate":
    """The estimate of running ``first`` and then ``second``."""
    return planner._estimate(
        first.strategy,
        calls=first.calls + second.calls,
        prompt_tokens=first.usage.prompt_tokens + second.usage.prompt_tokens,
        completion_tokens=first.usage.completion_tokens + second.usage.completion_tokens,
    )


#: Cluster lists come back from JSON as lists already; a shared store file is
#: outside input, so the shape is still enforced.
_CLUSTERS = FieldCodec(decode=lambda data: [list(cluster) for cluster in data])


def _voters(spec: Any) -> int:
    """Votes an ensemble strategy casts per item (at least two voter models)."""
    return max(2, len(spec.strategy_options.get("models", ())))


def _ensemble_candidates(planner: "PhysicalPlanner", spec: Any, *names: str) -> list[StrategyCandidate]:
    """One candidate per ensemble strategy, when the session has two voters."""
    models = planner._ensemble_models(spec)
    if len(models) < 2:
        return []
    return [StrategyCandidate(name=name, options={"models": models}) for name in names]


# -- sort ------------------------------------------------------------------------------


def _sort_insert(planner: "CostPlanner", spec: SortSpec) -> "CostEstimate":
    # One whole-list prompt, then a binary-search insertion (about log2(n)
    # comparisons) for each item the first pass dropped; we conservatively
    # price every item's insertion.
    items = list(spec.items)
    inserts = planner.pairwise_against(items, max(1, math.ceil(math.log2(len(items)))))
    return _combined(planner, planner.single_prompt(items), inserts)


class _Sort(OperatorDeclaration):
    spec_type, operator, results = SortSpec, SortOperator, (SortResult,)
    shapes = {
        "pairwise": lambda planner, spec: planner.pairwise(list(spec.items)),
        "pairwise_consistent": lambda planner, spec: planner.pairwise(list(spec.items)),
        "rating": lambda planner, spec: planner.per_item(
            list(spec.items), batch_size=int(spec.strategy_options.get("batch_size", 1))
        ),
        "single_prompt": lambda planner, spec: planner.single_prompt(list(spec.items)),
        "hybrid_sort_insert": _sort_insert,
    }
    auto = ("pairwise", "rating", "single_prompt")
    prompts = {
        "pairwise": lambda spec: (
            pairwise_comparison_prompt(first, second, spec.criterion)
            for first, second in itertools.combinations(map(str, spec.items), 2)
        )
    }
    auto_keeps_options = False
    min_validation = 3

    def build(self, spec: SortSpec, client: Any, **kwargs: Any) -> SortOperator:
        return SortOperator(client, spec.criterion, **kwargs)

    def validation_size(self, spec: SortSpec) -> int:
        return len(spec.validation_order)

    def validation(self, planner, spec: SortSpec, budget) -> Validation:
        sample = list(spec.validation_order)

        def run(candidate: StrategyCandidate) -> SortResult:
            operator = planner.build_operator(spec, budget)
            return operator.run(sample, strategy=candidate.name, **candidate.options)

        def score(result: SortResult) -> float:
            placed = set(result.order)
            order = list(result.order) + [item for item in sample if item not in placed]
            return (kendall_tau_b(order, sample) + 1.0) / 2.0

        candidates = [
            StrategyCandidate(name="single_prompt", cost_scaling="constant"),
            StrategyCandidate(name="rating", cost_scaling="linear"),
            StrategyCandidate(name="pairwise", cost_scaling="quadratic"),
        ]
        return Validation(candidates, run, score, len(spec.items))


# -- resolve ---------------------------------------------------------------------------


def _blocked_pairwise(planner: "CostPlanner", spec: ResolveSpec) -> "CostEstimate":
    block_k = int(spec.strategy_options.get("block_k", 5))
    estimate = planner.pairwise_against(list(spec.records), block_k)
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


def _decode_pair(pair: Any) -> tuple[str, str]:
    left, right = pair
    return (str(left), str(right))


class _ResolveRecords(OperatorDeclaration):
    """Whole-corpus clustering: a resolve spec without ``pairs``."""

    spec_type, operator = ResolveSpec, ResolveOperator
    results = (ResolveResult, PairJudgmentResult)
    shapes = {
        "pairwise": lambda planner, spec: planner.pairwise(list(spec.records)),
        "blocked_pairwise": _blocked_pairwise,
        "single_prompt": lambda planner, spec: planner.single_prompt(list(spec.records)),
    }
    auto = ("pairwise", "blocked_pairwise", "single_prompt")
    # The two modes' defaults must never share a call-ratio key — their cost
    # shapes are unrelated — so neither is ever labelled "resolve:auto".
    auto_labelled_as_default = True
    prompts = {
        "pairwise": lambda spec: (
            duplicate_check_prompt(left, right)
            for left, right in itertools.combinations(map(str, spec.records), 2)
        )
    }
    spec_fields = {
        "pairs": FieldCodec(
            lambda pairs: [[str(left), str(right)] for left, right in pairs],
            lambda data: [_decode_pair(pair) for pair in data],
        ),
        "validation_labels": FieldCodec(
            lambda labels: [[[left, right], bool(label)] for (left, right), label in labels.items()],
            lambda data: {_decode_pair(pair): bool(label) for pair, label in data},
        ),
    }
    result_fields = {
        "clusters": _CLUSTERS,
        "judgments": FieldCodec(
            lambda judgments: [
                {
                    "left": judgment.left,
                    "right": judgment.right,
                    "is_duplicate": judgment.is_duplicate,
                    "source": judgment.source,
                }
                for judgment in judgments
            ],
            lambda data: [
                PairJudgment(
                    left=judgment["left"],
                    right=judgment["right"],
                    is_duplicate=bool(judgment["is_duplicate"]),
                    source=judgment.get("source", "llm"),
                )
                for judgment in data
            ],
        ),
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


class _ResolvePairs(_ResolveRecords):
    """Pair judgments (the Table 3 setting): a resolve spec with ``pairs``."""

    shapes = {
        "transitive": lambda planner, spec: planner.pair_judgments(
            # The k-NN-augmented strategy compares every pair among the two
            # anchors and their k neighbors.
            list(spec.pairs), expansion=math.comb(2 * spec.neighbors_k + 2, 2)
        ),
        "pairwise": lambda planner, spec: planner.pair_judgments(list(spec.pairs)),
        "proxy_hybrid": lambda planner, spec: planner.pair_judgments(list(spec.pairs)),
    }
    auto = ("transitive", "pairwise")
    prompts = {
        "pairwise": lambda spec: (
            duplicate_check_prompt(str(left), str(right)) for left, right in spec.pairs
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

    def validation_size(self, spec: ResolveSpec) -> int:
        return len(spec.validation_labels)

    def validation(self, planner, spec: ResolveSpec, budget) -> Validation:
        labels = dict(spec.validation_labels)
        sample = list(labels)

        def run(candidate: StrategyCandidate) -> PairJudgmentResult:
            return planner.build_operator(spec, budget).judge_pairs(
                sample,
                strategy=candidate.name,
                corpus=list(spec.records) or None,
                **candidate.options,
            )

        def score(result: PairJudgmentResult) -> float:
            return f1_score(result.decisions, [labels[pair] for pair in sample])

        candidates = [
            StrategyCandidate(name="pairwise"),
            StrategyCandidate(name="transitive", options={"neighbors_k": spec.neighbors_k}),
            StrategyCandidate(name="proxy_hybrid"),
        ]
        return Validation(candidates, run, score, len(spec.pairs))

    def observe(self, stats, spec: ResolveSpec, result: PairJudgmentResult) -> None:
        stats.record_pair_match(judged=len(result.judgments), duplicates=sum(result.decisions))


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
    return planner.per_item([spec.data.serialized_query(record) for record in spec.data.queries])


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
        impute_prompt(spec.data.serialized_query(record), spec.data.target_attribute)
        for record in spec.data.queries
    )


def _encode_dataset(dataset: Dataset) -> dict[str, Any]:
    return {
        "name": dataset.name,
        "records": [
            {
                "record_id": record.record_id,
                "attributes": json_safe(
                    dict(record.attributes), context=f"record {record.record_id!r} attributes"
                ),
            }
            for record in dataset.records
        ],
    }


def _decode_dataset(data: Mapping[str, Any]) -> Dataset:
    return Dataset(
        (
            Record(record_id=str(record["record_id"]), attributes=dict(record.get("attributes", {})))
            for record in data.get("records", ())
        ),
        name=str(data.get("name", "dataset")),
    )


def _encode_imputation(data: ImputationDataset) -> dict[str, Any]:
    return {
        "name": data.name,
        "target_attribute": data.target_attribute,
        "queries": _encode_dataset(data.queries),
        "reference": _encode_dataset(data.reference),
        "ground_truth": dict(data.ground_truth),
    }


def _decode_imputation(data: Mapping[str, Any]) -> ImputationDataset:
    return ImputationDataset(
        name=str(data.get("name", "imputation")),
        target_attribute=str(data["target_attribute"]),
        queries=_decode_dataset(data.get("queries", {})),
        reference=_decode_dataset(data.get("reference", {})),
        ground_truth={str(k): str(v) for k, v in dict(data.get("ground_truth", {})).items()},
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
    spec_fields = {"data": FieldCodec(_encode_imputation, _decode_imputation)}

    def invoke(self, operator: ImputeOperator, spec: ImputeSpec, strategy, options):
        return operator.run(spec.data, strategy=strategy, n_examples=spec.n_examples)

    def validation_size(self, spec: ImputeSpec) -> int:
        return 0 if spec.data is None else min(spec.validation_size, len(spec.data.queries))

    def validation(self, planner, spec: ImputeSpec, budget) -> Validation:
        data = spec.data
        records = data.queries.records[: self.validation_size(spec)]
        sample = ImputationDataset(
            name=f"{data.name}-validation",
            target_attribute=data.target_attribute,
            queries=Dataset(records, name=f"{data.name}-validation-queries"),
            reference=data.reference,
            ground_truth={r.record_id: data.ground_truth[r.record_id] for r in records},
        )

        def run(candidate: StrategyCandidate) -> ImputeResult:
            return planner.build_operator(spec, budget).run(
                sample, strategy=candidate.name, n_examples=spec.n_examples
            )

        def score(result: ImputeResult) -> float:
            return exact_match_accuracy(result.predictions, sample.ground_truth)

        candidates = [
            StrategyCandidate(name=name) for name in ("knn", "hybrid", "retrieval", "llm_only")
        ]
        return Validation(candidates, run, score, len(data.queries))


# -- filter ----------------------------------------------------------------------------


def _filter_passes(planner: "CostPlanner", spec: FilterSpec, votes: int) -> "CostEstimate":
    # Each predicate only re-checks the expected survivors of the ones
    # before it (the run applies them over a shrinking set), so a fused
    # multi-predicate spec quotes exactly like sequential filter steps.
    selectivities = list(spec.expected_selectivities)
    calls = 0
    prompt_tokens = completion_tokens = 0.0
    survivors = list(spec.items)
    for index, predicate in enumerate(spec.all_predicates):
        one_pass = planner.per_item(survivors)
        calls += one_pass.calls * votes
        prompt_tokens += one_pass.usage.prompt_tokens * votes
        completion_tokens += one_pass.usage.completion_tokens * votes
        prior = selectivities[index] if index < len(selectivities) else 0.5
        selectivity = planner.observed_selectivity(predicate, prior)
        kept = min(len(survivors), max(1, math.ceil(len(survivors) * selectivity)))
        survivors = survivors[:kept]
    return planner._estimate("filter", calls, prompt_tokens, completion_tokens)


def _bool_labels(labels: Any) -> dict[str, bool]:
    return {str(item): bool(label) for item, label in dict(labels).items()}


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
            predicate_check_prompt(str(item), predicate)
            for predicate in spec.all_predicates
            for item in spec.items
        )
    }
    spec_fields = {"validation_labels": FieldCodec(_bool_labels, _bool_labels)}
    result_fields = {
        "decisions": FieldCodec(decode=lambda data: {k: bool(v) for k, v in data.items()})
    }

    def call_ratio_applies(self, planner, spec: FilterSpec) -> bool:
        # A filter's error is explained by predicate selectivity, which is
        # observed and priced per predicate; applying both would double-correct.
        return False

    def predicate_operator(self, planner, predicate: str, budget) -> FilterOperator:
        """The operator checking one of a spec's conjunctive predicates."""
        return self.operator(
            planner.session.client(budget), predicate, **planner.operator_kwargs(budget)
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
            merged.cost += result.cost
            merged.votes_used += result.votes_used
            merged.metadata = dict(result.metadata)
        merged.kept = survivors
        return merged, ran

    def run(self, engine: "DeclarativeEngine", spec: FilterSpec, budget) -> FilterResult:
        """Apply the conjunctive predicates in order, one operator run each.

        Strategies resolve *per predicate* (see
        :meth:`PhysicalPlanner.resolve_filter`): with validation labels, a
        cheap ``per_item`` pass on an easy predicate can precede an ensemble
        vote on the hard one.  Each predicate's observed selectivity is
        recorded into the session's runtime stats.
        """
        planner = engine.physical
        plans = planner.resolve_filter(
            spec, budget=budget if budget is not None else engine.session.budget
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

    def validation_size(self, spec: FilterSpec) -> int:
        return len(spec.validation_labels)

    def validation(self, planner, spec: FilterSpec, budget) -> Validation:
        """Score candidates by the F1 of their final keep/drop decisions.

        Labels are for the *conjunction* of the spec's predicates, so each
        candidate runs the predicates sequentially over a shrinking survivor
        set — exactly how :meth:`run` executes the full spec.
        """
        labels = _bool_labels(spec.validation_labels)
        sample = list(labels)

        def check(predicate, strategy, options, survivors) -> FilterResult:
            operator = self.predicate_operator(planner, predicate, budget)
            return operator.run(survivors, strategy=strategy, **options)

        def run(candidate: StrategyCandidate) -> FilterResult:
            passes = [(p, candidate.name, candidate.options) for p in spec.all_predicates]
            return self._conjunction(sample, passes, check)[0]

        def score(result: FilterResult) -> float:
            predictions = [result.decisions.get(item, False) for item in sample]
            return f1_score(predictions, [labels[item] for item in sample])

        candidates = [
            StrategyCandidate(name="per_item"),
            *_ensemble_candidates(planner, spec, "ensemble_vote", "adaptive"),
        ]
        return Validation(candidates, run, score, len(spec.items))


# -- categorize ------------------------------------------------------------------------


def _categorize_votes(planner: "CostPlanner", spec: CategorizeSpec, votes: int) -> "CostEstimate":
    # Every call carries the category menu in the prompt.
    menu_tokens = sum(planner.tokenizer.count(str(label)) for label in spec.categories)
    base = planner.per_item(list(spec.items))
    return planner._estimate(
        "categorize",
        calls=base.calls * votes,
        prompt_tokens=(base.usage.prompt_tokens + len(spec.items) * menu_tokens) * votes,
        completion_tokens=base.usage.completion_tokens * votes,
    )


def _str_labels(labels: Any) -> dict[str, str]:
    return {str(item): str(label) for item, label in dict(labels).items()}


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
            categorize_prompt(str(item), list(spec.categories)) for item in spec.items
        )
    }
    spec_fields = {"validation_labels": FieldCodec(_str_labels, _str_labels)}

    def build(self, spec: CategorizeSpec, client: Any, **kwargs: Any) -> CategorizeOperator:
        return CategorizeOperator(client, list(spec.categories), **kwargs)

    def validation_size(self, spec: CategorizeSpec) -> int:
        return len(spec.validation_labels)

    def validation(self, planner, spec: CategorizeSpec, budget) -> Validation:
        labels = _str_labels(spec.validation_labels)
        sample = list(labels)

        def run(candidate: StrategyCandidate) -> CategorizeResult:
            operator = planner.build_operator(spec, budget)
            return operator.run(sample, strategy=candidate.name, **candidate.options)

        def score(result: CategorizeResult) -> float:
            return exact_match_accuracy(result.assignments, labels)

        candidates = [
            StrategyCandidate(name="per_item"),
            StrategyCandidate(name="self_consistency", options={"n_samples": 3}),
            *_ensemble_candidates(planner, spec, "ensemble_vote"),
        ]
        return Validation(candidates, run, score, len(spec.items))


# -- top-k -----------------------------------------------------------------------------


def _rate_then_compare(planner: "CostPlanner", spec: TopKSpec) -> "CostEstimate":
    # Rate everything, then a tournament among the shortlist.
    items = list(spec.items)
    factor = int(spec.strategy_options.get("shortlist_factor", 3))
    shortlist = items[: min(len(items), max(spec.k, spec.k * factor))]
    ratings = planner.per_item(items)
    if len(shortlist) < 2:
        return ratings
    return _combined(planner, ratings, planner.pairwise(shortlist))


class _TopK(OperatorDeclaration):
    spec_type, operator, results = TopKSpec, TopKOperator, (TopKResult,)
    shapes = {
        "hybrid_rating_comparison": _rate_then_compare,
        "rating_only": lambda planner, spec: planner.per_item(list(spec.items)),
        "pairwise_tournament": lambda planner, spec: planner.pairwise(list(spec.items)),
    }
    auto = ("hybrid_rating_comparison", "rating_only")

    def build(self, spec: TopKSpec, client: Any, **kwargs: Any) -> TopKOperator:
        return TopKOperator(client, spec.criterion, **kwargs)

    def invoke(self, operator: TopKOperator, spec: TopKSpec, strategy, options):
        return operator.run(list(spec.items), k=spec.k, strategy=strategy, **options)


# -- join ------------------------------------------------------------------------------


def _join_blocked(planner: "CostPlanner", spec: JoinSpec) -> "CostEstimate":
    # About ``block_k`` candidates per left record; proxy_blocked answers
    # part of those for free, so pricing it like blocked is a conservative
    # upper bound.
    block_k = int(spec.strategy_options.get("block_k", 3))
    return planner.pairwise_against(list(spec.left), min(block_k, len(spec.right)))


class _Join(OperatorDeclaration):
    spec_type, operator, results = JoinSpec, JoinOperator, (JoinResult,)
    shapes = {
        "blocked": _join_blocked,
        "proxy_blocked": _join_blocked,
        "all_pairs": lambda planner, spec: planner.pairwise_against(
            list(spec.left), len(spec.right)
        ),
    }
    auto = ("blocked",)
    prompts = {
        "all_pairs": lambda spec: (
            duplicate_check_prompt(str(left), str(right))
            for left in spec.left
            for right in spec.right
        )
    }
    result_fields = {"matches": FieldCodec(decode=lambda data: [tuple(pair) for pair in data])}

    def invoke(self, operator: JoinOperator, spec: JoinSpec, strategy, options):
        return operator.run(list(spec.left), list(spec.right), strategy=strategy, **options)

    def observe(self, stats, spec: JoinSpec, result: JoinResult) -> None:
        stats.record_join(left=len(spec.left), matched=len({left for left, _ in result.matches}))


# -- cluster ---------------------------------------------------------------------------


def _two_phase(planner: "CostPlanner", spec: ClusterSpec) -> "CostEstimate":
    # One grouping prompt over the seed, then each remaining item is
    # compared against the discovered representatives.  The representative
    # count is unknown a priori; half the seed is the heuristic.
    items = list(spec.items)
    seed_size = min(int(spec.strategy_options.get("seed_size", 12)), len(items))
    seed_prompt = planner.single_prompt(items[:seed_size])
    if not items[seed_size:]:
        return seed_prompt
    assignments = planner.pairwise_against(items[seed_size:], max(1, seed_size // 2))
    return _combined(planner, seed_prompt, assignments)


class _Cluster(OperatorDeclaration):
    spec_type, operator, results = ClusterSpec, ClusterOperator, (ClusterResult,)
    shapes = {
        "two_phase": _two_phase,
        "single_prompt": lambda planner, spec: planner.single_prompt(list(spec.items)),
    }
    auto = ("two_phase", "single_prompt")
    result_fields = {"clusters": _CLUSTERS}


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

#: Results the count operator produces outside the engine; a checkpoint may
#: still hold one, so the checkpoint codec knows the type.
_UNDECLARED_RESULTS = (CountResult,)


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


def default_strategy(operation: str) -> str | None:
    """The strategy an unconstrained ``"auto"`` runs for ``operation``.

    Observations are recorded under the strategy that *executed* (never
    ``"auto"``), so auto-labelled quotes look their statistics up here.  A
    pairs-mode resolve is labelled ``"transitive"`` where the mode is known.
    """
    for declaration in DECLARATIONS.values():
        if declaration.operation == operation:
            return declaration.auto[0]
    return None


def spec_declaration(type_name: Any) -> OperatorDeclaration | None:
    """The declaration whose spec class is called ``type_name`` (wire form)."""
    for spec_type, declaration in DECLARATIONS.items():
        if spec_type.__name__ == type_name:
            return declaration
    return None


def result_codec(type_name: Any) -> tuple[type[OperatorResult], Mapping[str, FieldCodec]] | None:
    """``(result class, its field codecs)`` for a result class name (checkpoint form)."""
    for declaration in DECLARATIONS.values():
        for result_type in declaration.results:
            if result_type.__name__ == type_name:
                return result_type, declaration.result_fields
    for result_type in _UNDECLARED_RESULTS:
        if result_type.__name__ == type_name:
            return result_type, {}
    return None
