"""Conformance of the operator declarations (``repro.core.declarations``).

Every layer dispatches through one table, so these tests hold the table to
the operators it describes, pin its wire and checkpoint output byte for byte
to what the per-type codecs used to write, and prove the point of having it:
an operator declared entirely in this file quotes, plans, runs, checkpoints
and crosses the wire without a line of ``src/`` knowing it exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import pytest

import repro.core.spec as spec_module
from repro.core.declarations import DECLARATIONS, OperatorDeclaration, declaration_for
from repro.core.engine import DeclarativeEngine
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
from repro.core.spec_codec import (
    pipeline_from_json,
    pipeline_to_json,
    spec_from_dict,
    spec_to_dict,
)
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import SpecError, UnknownStrategyError
from repro.llm.oracle import Oracle
from repro.llm.prompts import PREDICATE_CHECK, predicate_check_prompt
from repro.llm.simulated import SimulatedLLM
from repro.operators import (
    CategorizeResult,
    ClusterResult,
    FilterResult,
    ImputeResult,
    JoinResult,
    ResolveResult,
    SortResult,
    TopKResult,
)
from repro.operators.base import BaseOperator, OperatorResult
from repro.operators.resolve import PairJudgment, PairJudgmentResult
from repro.query import LogicalNode, LogicalPlan, compile_plan, optimize, render_explain, source
from repro.store import Store
from repro.store.checkpoint import decode_result, encode_checkpoint, encode_result
from repro.tokenizer.cost import Usage

ITEMS = ["pear", "apple", "fig"]
PREDICATE = "is a fruit"
CRITERION = "sweetness"


def _imputation() -> ImputationDataset:
    return ImputationDataset(
        name="cafes",
        target_attribute="city",
        queries=Dataset([Record("q1", {"name": "Blue Door", "city": ""})], name="cafes-queries"),
        reference=Dataset(
            [Record("r1", {"name": "Red Door", "city": "Oslo"})], name="cafes-reference"
        ),
        ground_truth={"q1": "Oslo"},
    )


def _specs() -> list[TaskSpec]:
    """One spec per declared type, every non-JSON-shaped field filled in."""
    return [
        SortSpec(
            items=ITEMS, criterion=CRITERION, validation_order=["fig", "pear"],
            strategy="rating", strategy_options={"batch_size": 2},
            budget_dollars=1.5, accuracy_target=0.9,
        ),
        ResolveSpec(
            records=ITEMS, pairs=[("pear", "apple"), ("apple", "fig")],
            validation_labels={("pear", "apple"): True, ("apple", "fig"): False},
            neighbors_k=2,
        ),
        ImputeSpec(data=_imputation(), n_examples=1, validation_size=2, strategy="hybrid"),
        FilterSpec(
            items=ITEMS, predicate=PREDICATE, predicates=["is sweet"],
            expected_selectivities=[0.5, 0.25],
            validation_labels={"pear": True, "fig": False},
        ),
        CategorizeSpec(
            items=ITEMS, categories=["pome", "other"], validation_labels={"pear": "pome"},
            strategy="self_consistency", strategy_options={"n_samples": 5},
        ),
        TopKSpec(items=ITEMS, criterion=CRITERION, k=2),
        JoinSpec(left=ITEMS[:2], right=ITEMS[1:], strategy="all_pairs"),
        ClusterSpec(items=ITEMS, strategy_options={"seed_size": 4}),
    ]


def _results() -> list[OperatorResult]:
    """One result per checkpointable type."""
    base = dict(
        usage=Usage(prompt_tokens=120, completion_tokens=30, calls=4),
        cost=0.0125,
        metadata={"cache_hits": 1, "note": "pinned"},
    )
    return [
        SortResult(
            strategy="rating", order=["fig", "pear"], missing=["apple"],
            hallucinated=["plum"], scores={"fig": 6.5, "pear": 3.0}, **base,
        ),
        FilterResult(
            strategy="per_item+ensemble_vote", kept=["pear"],
            decisions={"pear": True, "fig": False}, votes_used=5, **base,
        ),
        CategorizeResult(strategy="per_item", assignments={"pear": "pome"}, votes_used=1, **base),
        PairJudgmentResult(
            strategy="transitive",
            judgments=[
                PairJudgment("pear", "apple", True, "llm"),
                PairJudgment("apple", "fig", False, "transitivity"),
            ],
            **base,
        ),
        ResolveResult(strategy="pairwise", clusters=[[0, 2], [1]], **base),
        ClusterResult(strategy="two_phase", clusters=[[0], [1, 2]], **base),
        ImputeResult(
            strategy="hybrid", predictions={"q1": "Oslo"}, llm_queries=1, proxy_queries=0, **base
        ),
        JoinResult(
            strategy="blocked", matches=[(0, 1), (1, 0)], candidate_pairs=4, llm_pairs=3, **base
        ),
        TopKResult(
            strategy="hybrid_rating_comparison", top_items=["fig", "pear"],
            ratings={"fig": 7, "pear": 5, "apple": 2}, finalists=["fig", "pear", "apple"], **base,
        ),
    ]


# fmt: off
#: ``json.dumps(spec_to_dict(spec), sort_keys=True)`` for :func:`_specs`, as
#: written by the commit before the declarations existed (one hand-written
#: codec arm per spec type).  Do not regenerate: these are the byte pins.
PINNED_SPECS = [
    '{"fields": {"accuracy_target": 0.9, "budget_dollars": 1.5, "criterion": "sweetness", "items": ["pear", "apple", "fig"], "strategy": "rating", "strategy_options": {"batch_size": 2}, "validation_order": ["fig", "pear"]}, "type": "SortSpec", "version": 1}',
    '{"fields": {"neighbors_k": 2, "pairs": [["pear", "apple"], ["apple", "fig"]], "records": ["pear", "apple", "fig"], "validation_labels": [[["pear", "apple"], true], [["apple", "fig"], false]]}, "type": "ResolveSpec", "version": 1}',
    '{"fields": {"data": {"ground_truth": {"q1": "Oslo"}, "name": "cafes", "queries": {"name": "cafes-queries", "records": [{"attributes": {"city": "", "name": "Blue Door"}, "record_id": "q1"}]}, "reference": {"name": "cafes-reference", "records": [{"attributes": {"city": "Oslo", "name": "Red Door"}, "record_id": "r1"}]}, "target_attribute": "city"}, "n_examples": 1, "strategy": "hybrid", "validation_size": 2}, "type": "ImputeSpec", "version": 1}',
    '{"fields": {"expected_selectivities": [0.5, 0.25], "items": ["pear", "apple", "fig"], "predicate": "is a fruit", "predicates": ["is sweet"], "validation_labels": {"fig": false, "pear": true}}, "type": "FilterSpec", "version": 1}',
    '{"fields": {"categories": ["pome", "other"], "items": ["pear", "apple", "fig"], "strategy": "self_consistency", "strategy_options": {"n_samples": 5}, "validation_labels": {"pear": "pome"}}, "type": "CategorizeSpec", "version": 1}',
    '{"fields": {"criterion": "sweetness", "items": ["pear", "apple", "fig"], "k": 2}, "type": "TopKSpec", "version": 1}',
    '{"fields": {"left": ["pear", "apple"], "right": ["apple", "fig"], "strategy": "all_pairs"}, "type": "JoinSpec", "version": 1}',
    '{"fields": {"items": ["pear", "apple", "fig"], "strategy_options": {"seed_size": 4}}, "type": "ClusterSpec", "version": 1}',
]

#: ``encode_result(result)`` for :func:`_results`, from the same commit.
PINNED_RESULTS = [
    '{"fields": {"cost": 0.0125, "hallucinated": ["plum"], "metadata": {"cache_hits": 1, "note": "pinned"}, "missing": ["apple"], "order": ["fig", "pear"], "scores": {"fig": 6.5, "pear": 3.0}, "strategy": "rating", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "SortResult", "version": 1}',
    '{"fields": {"cost": 0.0125, "decisions": {"fig": false, "pear": true}, "kept": ["pear"], "metadata": {"cache_hits": 1, "note": "pinned"}, "strategy": "per_item+ensemble_vote", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}, "votes_used": 5}, "type": "FilterResult", "version": 1}',
    '{"fields": {"assignments": {"pear": "pome"}, "cost": 0.0125, "metadata": {"cache_hits": 1, "note": "pinned"}, "strategy": "per_item", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}, "votes_used": 1}, "type": "CategorizeResult", "version": 1}',
    '{"fields": {"cost": 0.0125, "judgments": [{"is_duplicate": true, "left": "pear", "right": "apple", "source": "llm"}, {"is_duplicate": false, "left": "apple", "right": "fig", "source": "transitivity"}], "metadata": {"cache_hits": 1, "note": "pinned"}, "strategy": "transitive", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "PairJudgmentResult", "version": 1}',
    '{"fields": {"clusters": [[0, 2], [1]], "cost": 0.0125, "metadata": {"cache_hits": 1, "note": "pinned"}, "strategy": "pairwise", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "ResolveResult", "version": 1}',
    '{"fields": {"clusters": [[0], [1, 2]], "cost": 0.0125, "metadata": {"cache_hits": 1, "note": "pinned"}, "strategy": "two_phase", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "ClusterResult", "version": 1}',
    '{"fields": {"cost": 0.0125, "llm_queries": 1, "metadata": {"cache_hits": 1, "note": "pinned"}, "predictions": {"q1": "Oslo"}, "proxy_queries": 0, "strategy": "hybrid", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "ImputeResult", "version": 1}',
    '{"fields": {"candidate_pairs": 4, "cost": 0.0125, "llm_pairs": 3, "matches": [[0, 1], [1, 0]], "metadata": {"cache_hits": 1, "note": "pinned"}, "strategy": "blocked", "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "JoinResult", "version": 1}',
    '{"fields": {"cost": 0.0125, "finalists": ["fig", "pear", "apple"], "metadata": {"cache_hits": 1, "note": "pinned"}, "ratings": {"apple": 2, "fig": 7, "pear": 5}, "strategy": "hybrid_rating_comparison", "top_items": ["fig", "pear"], "usage": {"calls": 4, "completion_tokens": 30, "prompt_tokens": 120}}, "type": "TopKResult", "version": 1}',
]

#: The result digest of each :data:`PINNED_RESULTS` row: every child's
#: checkpoint key reads its parents' digests, so a moved byte re-keys a lineage.
PINNED_DIGESTS = [
    "a6f7349db50f12c9fdacd16288d81519eb0095beae2e5a555fe790cace862f33",
    "7eed3eb1614f470d88351da58f27d31e7c11f0f1fd9bab1e481b8e0299610d4f",
    "25b5a12ea7241069446520cc5aaef2723b923ca8d4a6915a03371b10c78cfb2d",
    "cbd0e830570573895a88496b869d78729d708933bf88e1bc82cc3c249d063f51",
    "d48022e06ab40d971b81f07648f20910f602a1e58ac602a378640879e47e7087",
    "fdded935f050c803edfbfbadc2f26ac7ffc0a6b599778f2668ab0fc00c71f334",
    "ef97a70774c5a63295731fdd9311189f013e15855d9bf185456534a6a9f5bbd0",
    "8a570d6a55c287bf1d850f58ba508b7e7257b9601ed59ffa2e608301caef80e8",
    "49637b4e0f8ba7acb8cf4698f7a5d3300293bfb9fd75799f6eeb3ddc18441433",
]
# fmt: on

#: What ``planner.AUTO_DEFAULT_STRATEGY`` said before it was derived, plus
#: the pairs-mode default the planner used to special-case.
PARENT_AUTO_DEFAULTS = {
    SortSpec: "pairwise",
    ResolveSpec: "pairwise",
    ImputeSpec: "hybrid",
    FilterSpec: "per_item",
    CategorizeSpec: "per_item",
    TopKSpec: "hybrid_rating_comparison",
    JoinSpec: "blocked",
    ClusterSpec: "two_phase",
}


def _engine(oracle: Oracle | None = None, **kwargs) -> DeclarativeEngine:
    return DeclarativeEngine(SimulatedLLM(oracle or _oracle(), seed=7), **kwargs)


def _oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_predicate(PREDICATE, lambda item: item != "fig")
    oracle.register_key(CRITERION, key=lambda item: item)
    return oracle


class TestTheTable:
    def test_every_concrete_spec_type_has_exactly_one_declaration(self):
        concrete = {
            cls
            for cls in vars(spec_module).values()
            if isinstance(cls, type) and issubclass(cls, TaskSpec) and cls is not TaskSpec
        }
        assert set(DECLARATIONS) == concrete
        assert all(DECLARATIONS[cls].spec_type is cls for cls in concrete)

    @pytest.mark.parametrize("spec", _specs(), ids=lambda spec: type(spec).__name__)
    def test_accepted_strategies_are_the_operators_own(self, spec):
        declaration = declaration_for(spec)
        planner = _engine().physical
        if isinstance(spec, FilterSpec):  # one operator per predicate
            operator = declaration.predicate_operator(planner, PREDICATE, None)
        else:
            operator = planner.build_operator(spec)
        if isinstance(spec, ResolveSpec):
            # ``_specs`` holds a pairs-mode resolve: its names are the ones
            # ``judge_pairs`` dispatches on, read off the error it raises for
            # any other.  ``operator.strategies`` is the records mode's.
            with pytest.raises(UnknownStrategyError) as raised:
                operator.judge_pairs(list(spec.pairs), strategy="?")
            assert set(declaration.shapes) == set(raised.value.available)
            declaration = DECLARATIONS[ResolveSpec]
        assert set(declaration.shapes) == set(operator.strategies)

    @pytest.mark.parametrize("spec", _specs(), ids=lambda spec: type(spec).__name__)
    def test_auto_and_validation_candidates_are_accepted_strategies(self, spec):
        declaration = declaration_for(spec)
        candidates = [name for name, _ in declaration.candidates(spec)]
        assert candidates and set(candidates) <= set(declaration.shapes)
        assert candidates == list(declaration.auto)
        if declaration.validation_size(spec):
            measured = declaration.measured(_engine().physical, spec)
            assert {name for name, _ in measured} <= set(declaration.shapes)

    def test_first_auto_candidate_is_the_default_the_planner_used_to_hardcode(self):
        for spec_type, default in PARENT_AUTO_DEFAULTS.items():
            assert DECLARATIONS[spec_type].auto[0] == default
        pairs_mode = declaration_for(ResolveSpec(pairs=[("a", "b")]))
        assert pairs_mode.auto[0] == "transitive"
        assert declaration_for(ResolveSpec(records=["a", "b"])).auto[0] == "pairwise"


class TestPinnedCodecs:
    @pytest.mark.parametrize(
        "spec, pinned", zip(_specs(), PINNED_SPECS), ids=lambda value: type(value).__name__
    )
    def test_spec_wire_form_is_byte_identical_and_roundtrips(self, spec, pinned):
        assert json.dumps(spec_to_dict(spec), sort_keys=True) == pinned
        restored = spec_from_dict(json.loads(pinned))
        assert type(restored) is type(spec)
        assert json.dumps(spec_to_dict(restored), sort_keys=True) == pinned

    @pytest.mark.parametrize(
        "result, pinned", zip(_results(), PINNED_RESULTS), ids=lambda value: type(value).__name__
    )
    def test_checkpoint_payload_is_byte_identical_and_roundtrips(self, result, pinned):
        assert encode_result(result) == pinned
        restored = decode_result(pinned)
        assert restored == result
        assert encode_result(restored) == pinned

    @pytest.mark.parametrize(
        "result, pinned, digest",
        zip(_results(), PINNED_RESULTS, PINNED_DIGESTS),
        ids=lambda value: type(value).__name__,
    )
    def test_checkpoint_digest_is_pinned(self, result, pinned, digest):
        assert encode_checkpoint(result) == (pinned, digest)
        assert encode_checkpoint(decode_result(pinned))[1] == digest

    def test_a_stored_count_result_decodes_as_a_miss(self):
        # The count operator is gone; a row it left in a store re-runs its step.
        stored = (
            '{"fields": {"cost": 0.0125, "count": 7, "metadata": {}, "per_item": null, '
            '"strategy": "estimate", "usage": {"calls": 4, "completion_tokens": 30, '
            '"prompt_tokens": 120}}, "type": "CountResult", "version": 1}'
        )
        assert decode_result(stored) is None


class TestUnknownStrategies:
    def _pipeline(self) -> PipelineSpec:
        return PipelineSpec(
            name="typo",
            steps=[
                PipelineStep(
                    name="screen",
                    task=FilterSpec(items=ITEMS * 2, predicate=PREDICATE, strategy="per_item"),
                ),
                PipelineStep(
                    name="rank",
                    task=SortSpec(items=ITEMS, criterion=CRITERION, strategy="pairwize"),
                    depends_on=("screen",),
                ),
            ],
        )

    def test_a_misspelt_strategy_fails_before_any_call_is_made(self):
        engine = _engine()
        for refuse in (
            lambda: self._pipeline().validate(),
            lambda: engine.quote_pipeline(self._pipeline()),
            lambda: engine.plan_physical(self._pipeline()),
            lambda: engine.run_pipeline(self._pipeline()),
        ):
            with pytest.raises(SpecError, match="unknown strategy 'pairwize' for operator 'sort'"):
                refuse()
        assert engine.session.tracker.calls == 0
        assert engine.spent_dollars == 0.0

    def test_resolve_modes_accept_separate_strategy_sets(self):
        ResolveSpec(pairs=[("a", "b")], strategy="proxy_hybrid").validate()
        ResolveSpec(records=["a", "b"], strategy="blocked_pairwise").validate()
        with pytest.raises(UnknownStrategyError, match="available: .*transitive"):
            ResolveSpec(pairs=[("a", "b")], strategy="blocked_pairwise").validate()
        with pytest.raises(UnknownStrategyError, match="available: .*single_prompt"):
            ResolveSpec(records=["a", "b"], strategy="transitive").validate()

    def test_estimates_refuse_what_validate_refuses(self):
        planner = _engine().planner()
        with pytest.raises(SpecError, match="'top_k'"):
            planner.estimate_spec(TopKSpec(items=ITEMS, criterion=CRITERION, strategy="best"))


# -- a ninth operator, declared here and nowhere else ----------------------------------


@dataclass
class TallySpec(TaskSpec):
    """Count the ``items`` satisfying ``predicate``."""

    items: Sequence[str] = ()
    predicate: str = ""


@dataclass
class TallyResult(OperatorResult):
    tally: int = 0


class TallyOperator(BaseOperator):
    operation = "tally"

    def __init__(self, client, predicate: str, **kwargs) -> None:
        self.predicate = predicate
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("per_item", self._per_item)

    def run(self, items: Sequence[str], *, strategy: str = "per_item") -> TallyResult:
        return self._run(strategy, list(items))

    def _per_item(self, items: list[str]) -> TallyResult:
        prompts = [predicate_check_prompt(item, self.predicate) for item in items]
        tally = sum("yes" in r.text.lower() for r in self._complete_batch(prompts))
        return TallyResult(strategy="per_item", tally=tally)


class TallyDeclaration(OperatorDeclaration):
    spec_type, operator, results = TallySpec, TallyOperator, (TallyResult,)
    shapes = {
        "per_item": lambda planner, spec: planner.per_item(
            list(spec.items), PREDICATE_CHECK, spec.predicate
        )
    }
    auto = ("per_item",)
    # The query layer's hooks; its items pass through (the default ``output_from``).

    def build(self, spec, client, **kwargs):
        return TallyOperator(client, spec.predicate, **kwargs)

    def lower(self, params, *inputs):
        return TallySpec(
            items=list(inputs[0]), predicate=params["predicate"], strategy=params["strategy"]
        )

    def describe(self, params):
        return f"tally the items that {params['predicate']}"


class TestAToyNinthOperator:
    @pytest.fixture(autouse=True)
    def declared(self, monkeypatch):
        monkeypatch.setitem(DECLARATIONS, TallySpec, TallyDeclaration())

    def _pipeline(self) -> PipelineSpec:
        return PipelineSpec(
            name="toy",
            steps=[PipelineStep(name="tally", task=TallySpec(items=ITEMS, predicate=PREDICATE))],
        )

    def test_it_quotes_and_appears_in_the_physical_plan(self):
        engine = _engine()
        quote = engine.quote_pipeline(self._pipeline())
        assert quote.steps["tally"].strategy == "tally:auto"
        assert quote.steps["tally"].calls == len(ITEMS)
        plan = engine.plan_physical(self._pipeline())
        assert "tally: per_item [cost] (3 calls" in plan.describe()
        assert engine.session.tracker.calls == 0

    def test_it_runs_checkpoints_and_restores_with_zero_calls(self, tmp_path):
        store = Store(tmp_path / "toy.db")
        first = _engine()
        report = first.run_pipeline(self._pipeline(), store=store)
        assert isinstance(report.results["tally"], TallyResult)
        assert report.results["tally"].tally == 2
        assert first.session.tracker.calls == len(ITEMS)
        assert first.stats.call_ratio("tally:per_item") == 1.0  # the quoted 3 calls ran

        second = _engine()
        again = second.run_pipeline(self._pipeline(), store=store)
        assert again.step_reports["tally"].restored
        assert again.results["tally"].tally == 2
        assert again.results["tally"].usage == report.results["tally"].usage
        assert second.session.tracker.calls == 0

    def test_it_crosses_the_wire_and_refuses_unknown_strategies(self):
        payload = pipeline_to_json(self._pipeline())
        assert '"type": "TallySpec"' in payload
        restored = pipeline_from_json(payload)
        assert restored.steps[0].task == self._pipeline().steps[0].task
        assert pipeline_to_json(restored) == payload
        with pytest.raises(UnknownStrategyError, match="'tally'"):
            TallySpec(items=ITEMS, predicate=PREDICATE, strategy="per_itme").validate()

    def test_it_compiles_quotes_and_runs_through_the_query_layer(self):
        node = LogicalNode("tally", {"predicate": PREDICATE, "strategy": "auto"}, (source(ITEMS),))
        engine = _engine()
        plan = optimize(LogicalPlan(node, name="toy"), planner=engine.planner())
        compiled = compile_plan(plan, planner=engine.planner())
        assert compiled.quote.total_calls == len(ITEMS)
        assert "s1_tally" in render_explain(compiled)
        assert "tally the items that is a fruit" in render_explain(compiled)

        report = engine.run_pipeline(compiled.spec, quote=compiled.quote)
        assert report.results["s1_tally"].tally == 2
        assert engine.session.tracker.calls == len(ITEMS)
        assert compiled.extract_output(report.results) == ITEMS

    def test_undeclared_it_is_refused_by_type(self, monkeypatch):
        monkeypatch.delitem(DECLARATIONS, TallySpec)
        with pytest.raises(SpecError, match="TallySpec"):
            _engine().run_spec(TallySpec(items=ITEMS, predicate=PREDICATE))
        with pytest.raises(SpecError, match="TallySpec"):
            spec_to_dict(TallySpec(items=ITEMS, predicate=PREDICATE))
