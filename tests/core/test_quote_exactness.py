"""A quote prices the prompts it will send.

Every templated cost shape counts its declared template's scaffold once and
adds its items' counts times their uses, so the quoted prompt tokens equal
the count of the prompts the operator sends — and what the simulator bills
for them — exactly.  Completions are priced from each template's declared
answer until a strategy has run, and from the observed completion length
after.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import planner as planner_module
from repro.core.declarations import _RESOLVE_PAIRS, DECLARATIONS, declaration_for
from repro.core.engine import DeclarativeEngine
from repro.core.planner import CostPlanner
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    ResolveSpec,
    SortSpec,
    TopKSpec,
)
from repro.core.stats import RuntimeStats
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import ConfigurationError
from repro.llm import prompts
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset as Query
from repro.tokenizer.simple import SimpleTokenizer

MODEL = "sim-gpt-3.5-turbo"
TOKENIZER = SimpleTokenizer()


class _Billing(SimulatedLLM):
    """The simulator's billing with a fixed reply, so any item text can be sent."""

    def __init__(self) -> None:
        super().__init__(Oracle())

    def _generate(self, prompt, rng, quality):
        return "Yes.", 1.0


def _billed(texts: list[str]) -> int:
    llm = _Billing()
    return sum(llm.complete(text, model=MODEL).usage.prompt_tokens for text in texts)


def _planner() -> CostPlanner:
    return CostPlanner(MODEL)


# Items as callers pass them: any Unicode, inner whitespace and newlines, and
# the odd non-string value; distinct as text, so no prompt repeats.
_item = st.one_of(
    st.text(max_size=30),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)
_items = st.lists(_item, min_size=2, max_size=7, unique_by=str)
_field = st.text(min_size=1, max_size=20)


def _impute_data(values: list[object], attribute: str) -> ImputationDataset:
    records = [
        Record(record_id=f"r{index}", attributes={"name": value, attribute: "x"})
        for index, value in enumerate(values)
    ]
    return ImputationDataset(
        name="drawn",
        target_attribute=attribute,
        queries=Dataset(records, name="queries"),
        reference=Dataset([], name="reference"),
        ground_truth={},
    )


def _declared_specs(items, other, fields) -> list:
    """One spec per (declaration, strategy) that declares its exact prompts."""
    criterion, predicate, attribute = fields
    texts = list(map(str, items))
    return [
        SortSpec(items=items, criterion=criterion, strategy="pairwise"),
        ResolveSpec(records=items, strategy="pairwise"),
        ResolveSpec(pairs=list(zip(texts, texts[1:])), strategy="pairwise"),
        ImputeSpec(data=_impute_data(items, attribute), n_examples=0, strategy="llm_only"),
        FilterSpec(
            items=items,
            predicates=(predicate, criterion),
            expected_selectivities=(1.0, 1.0),  # the second predicate sees every item
            strategy="per_item",
        ),
        CategorizeSpec(items=items, categories=[criterion, predicate + "!"], strategy="per_item"),
        JoinSpec(left=items, right=other, strategy="all_pairs"),
    ]


def _unit_prompts(render, items) -> list[str]:
    return [render(str(item)) for item in items]


def _pair_prompts(items, criterion: str) -> list[str]:
    return [
        prompts.PAIRWISE_COMPARISON.render([first, second], (criterion,))
        for first, second in itertools.combinations(map(str, items), 2)
    ]


def _undeclared_cases(items, fields):
    """Templated shapes whose prompts the spec does not declare, with the
    prompts their operators send spelled out."""
    criterion, predicate, _ = fields
    texts = list(map(str, items))
    chunks = [texts[start : start + 3] for start in range(0, len(texts), 3)]
    rating = _unit_prompts(lambda item: prompts.RATING.render([item], (criterion,)), texts)
    checks = _unit_prompts(lambda item: prompts.predicate_check_prompt(item, predicate), texts)
    categories = (criterion, predicate + "!")
    labels = _unit_prompts(lambda item: prompts.CATEGORIZE.render([item], (categories,)), texts)
    return [
        (SortSpec(items=items, criterion=criterion, strategy="rating"), rating),
        (
            SortSpec(
                items=items,
                criterion=criterion,
                strategy="rating",
                strategy_options={"batch_size": 3},
            ),
            [prompts.RATING_BATCH.render(chunk, (criterion,)) for chunk in chunks],
        ),
        (
            SortSpec(items=items, criterion=criterion, strategy="single_prompt"),
            [prompts.SORT_LIST.render(texts, (criterion,))],
        ),
        (
            SortSpec(items=items, criterion=criterion, strategy="pairwise_consistent"),
            _pair_prompts(items, criterion),
        ),
        (
            ResolveSpec(records=items, strategy="single_prompt"),
            [prompts.GROUP_RECORDS.render(texts)],
        ),
        (TopKSpec(items=items, criterion=criterion, k=1, strategy="rating_only"), rating),
        (
            TopKSpec(items=items, criterion=criterion, k=1, strategy="pairwise_tournament"),
            _pair_prompts(items, criterion),
        ),
        (ClusterSpec(items=texts, strategy="single_prompt"), [prompts.GROUP_RECORDS.render(texts)]),
        (
            FilterSpec(
                items=items,
                predicate=predicate,
                strategy="ensemble_vote",
                strategy_options={"models": ["one", "two"]},
            ),
            checks * 2,
        ),
        (
            CategorizeSpec(
                items=items,
                categories=categories,
                strategy="self_consistency",
                strategy_options={"n_samples": 3},
            ),
            labels * 3,
        ),
    ]


class TestQuotedPromptTokensAreExact:
    @given(items=_items, other=_items, fields=st.tuples(_field, _field, _field))
    @settings(max_examples=60, deadline=None)
    def test_every_declared_strategy_quotes_what_its_prompts_bill(self, items, other, fields):
        planner = _planner()
        covered = set()
        for spec in _declared_specs(items, other, fields):
            declaration = declaration_for(spec)
            sent = list(declaration.prompts[spec.strategy](spec))
            quoted = planner.estimate_spec(spec)
            assert quoted.calls == len(sent), spec
            assert quoted.usage.prompt_tokens == sum(map(TOKENIZER.count, sent)), spec
            assert quoted.usage.prompt_tokens == _billed(sent), spec
            covered.add((type(declaration), spec.strategy))
        declared = {
            (type(declaration), strategy)
            for declaration in [*DECLARATIONS.values(), _RESOLVE_PAIRS]
            for strategy in declaration.prompts
        }
        assert covered == declared

    @given(items=_items, fields=st.tuples(_field, _field, _field))
    @settings(max_examples=60, deadline=None)
    def test_every_templated_shape_quotes_what_its_prompts_bill(self, items, fields):
        planner = _planner()
        for spec, sent in _undeclared_cases(items, fields):
            quoted = planner.estimate_spec(spec)
            assert quoted.calls == len(sent), spec
            assert quoted.usage.prompt_tokens == _billed(sent), spec

    @given(items=_items, count=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_blocked_pairs_quote_their_stand_in_prompts(self, items, count):
        texts = list(map(str, items))
        n = len(texts)
        stand_in = [
            (texts[index], texts[index + distance])
            for distance in range(1, n)
            for index in range(n - distance)
        ][:count] or [(texts[0], texts[0])]
        sent = [prompts.DUPLICATE_CHECK.render([left, right]) for left, right in stand_in]
        quoted = _planner().blocked_pairs(items, count, prompts.DUPLICATE_CHECK)
        assert quoted.usage.prompt_tokens == _billed(sent)

    def test_a_run_bills_what_was_quoted(self):
        """Through the engine: the operators send the prompts the quote counted."""
        items = [f"listing {index} refurbished" for index in range(9)]
        oracle = Oracle()
        oracle.register_key("size", len)
        oracle.register_predicate("is short", lambda text: len(text) < 20)
        specs = [
            FilterSpec(items=items, predicate="is short", strategy="per_item"),
            SortSpec(
                items=items, criterion="size", strategy="rating", strategy_options={"batch_size": 4}
            ),
            TopKSpec(items=items, criterion="size", k=2, strategy="pairwise_tournament"),
        ]
        for spec in specs:
            engine = DeclarativeEngine(SimulatedLLM(oracle, seed=3), default_model=MODEL)
            quoted = engine.planner().estimate_spec(spec)
            engine.run_spec(spec)
            assert quoted.calls == engine.session.tracker.calls
            assert quoted.usage.prompt_tokens == engine.session.tracker.prompt_tokens


class TestAJoinPricesBothSides:
    def test_long_right_records_cost_more_than_short_ones(self):
        left = ["alpha", "beta", "gamma", "delta"]
        short = ["a", "b", "c", "d"]
        long = [f"{'x' * 996}{index:04d}" for index in range(4)]  # 250 tokens each
        planner = _planner()
        quotes = {
            name: planner.estimate_spec(JoinSpec(left=left, right=right, strategy="all_pairs"))
            for name, right in (("short", short), ("long", long))
        }
        # Each of the 16 calls carries one right record: 249 more tokens apiece.
        gap = quotes["long"].usage.prompt_tokens - quotes["short"].usage.prompt_tokens
        assert gap == 16 * 249
        sent = [prompts.DUPLICATE_CHECK.render([l, r]) for l in left for r in long]
        assert quotes["long"].usage.prompt_tokens == _billed(sent)
        blocked = {
            name: planner.estimate_spec(JoinSpec(left=left, right=right, strategy="blocked"))
            for name, right in (("short", short), ("long", long))
        }
        gap = blocked["long"].usage.prompt_tokens - blocked["short"].usage.prompt_tokens
        assert gap == 12 * 249  # 3 candidates per left record

    def test_two_phase_clustering_prices_its_representatives(self):
        seed = [f"{'s' * 996}{index:04d}" for index in range(12)]  # 250 tokens each
        rest = [f"r{index}" for index in range(8)]
        planner = _planner()
        quoted = planner.estimate_spec(ClusterSpec(items=seed + rest, strategy="two_phase"))
        grouping = planner.single_prompt(seed, prompts.GROUP_RECORDS)
        # Each of the 8 × 6 assignment checks carries one 250-token representative.
        assignments = quoted.usage.prompt_tokens - grouping.usage.prompt_tokens
        assert assignments >= 48 * 250


def _empty_spec(declaration):
    spec_type = declaration.spec_type
    if spec_type is SortSpec:
        return SortSpec(items=[], criterion="x")
    if spec_type is ResolveSpec:
        return ResolveSpec(records=[]) if declaration is not _RESOLVE_PAIRS else ResolveSpec()
    if spec_type is ImputeSpec:
        return ImputeSpec(data=_impute_data([], "city"))
    if spec_type is FilterSpec:
        return FilterSpec(items=[], predicate="p")
    if spec_type is CategorizeSpec:
        return CategorizeSpec(items=[], categories=["a", "b"])
    if spec_type is TopKSpec:
        return TopKSpec(items=[], criterion="x", k=1)
    if spec_type is JoinSpec:
        return JoinSpec(left=[], right=["a"])
    assert spec_type is ClusterSpec
    return ClusterSpec(items=[])


class TestEmptyItemsAreRefused:
    @pytest.mark.parametrize(
        "declaration, strategy",
        [
            (declaration, strategy)
            for declaration in [*DECLARATIONS.values(), _RESOLVE_PAIRS]
            for strategy in declaration.shapes
            if (declaration.operation, strategy) != ("impute", "knn")  # makes no call
        ],
        ids=lambda value: getattr(value, "operation", value),
    )
    def test_every_shape_refuses_an_empty_item_list(self, declaration, strategy):
        spec = _empty_spec(declaration)
        with pytest.raises(ConfigurationError, match="empty"):
            declaration.shapes[strategy](_planner(), spec)

    def test_hybrid_sort_insert_is_refused_before_log2(self):
        with pytest.raises(ConfigurationError, match="empty item list"):
            _planner().estimate_spec(
                SortSpec(items=[], criterion="x", strategy="hybrid_sort_insert")
            )


def _filter_run(engine, items):
    query = Query(items, name="premium").filter("is premium", strategy="per_item")
    result = query.run(engine)
    return result.quote.total_dollars, result.total_cost


class TestObservedCompletionLength:
    def test_a_second_quote_prices_completions_from_the_first_run(self):
        items = [f"listing {index} pro" for index in range(1000)]
        oracle = Oracle()
        oracle.register_predicate("is premium", lambda text: int(text.split()[1]) % 3 == 0)
        engine = DeclarativeEngine(SimulatedLLM(oracle, seed=5), default_model=MODEL)
        first_quote, first_actual = _filter_run(engine, items[:500])
        assert engine.stats.completion_tokens_per_call("filter:per_item") == 2.0
        second_quote, second_actual = _filter_run(engine, items[500:])
        assert abs(first_quote - first_actual) / first_actual <= 0.13
        assert abs(second_quote - second_actual) / second_actual <= 0.03

    def test_the_observation_replaces_the_declared_answer(self):
        items = [f"item {index}" for index in range(20)]
        categories = ["a", "an extraordinarily long category name"]
        oracle = Oracle()
        oracle.register_categories(
            {item: categories[index % 2] for index, item in enumerate(items)}
        )
        session = PromptSession(SimulatedLLM(oracle, seed=5))
        engine = DeclarativeEngine.from_session(session, default_model=MODEL)
        spec = CategorizeSpec(items=items, categories=categories, strategy="per_item")
        cold = engine.planner().estimate_spec(spec)
        assert cold.usage.completion_tokens == len(items) * TOKENIZER.count(categories[0])
        engine.run_spec(spec)
        observed = engine.stats.completion_tokens_per_call("categorize:per_item")
        assert observed == session.tracker.completion_tokens / len(items) > 1
        warm = engine.planner().estimate_spec(spec)
        assert warm.usage.completion_tokens == round(len(items) * observed)
        assert warm.usage.prompt_tokens == cold.usage.prompt_tokens

    def test_cache_hits_bill_no_completion_and_are_not_observed(self):
        items = [f"item {index}" for index in range(10)]
        oracle = Oracle()
        oracle.register_predicate("p", lambda text: True)
        engine = DeclarativeEngine(SimulatedLLM(oracle, seed=5), default_model=MODEL)
        spec = FilterSpec(items=items, predicate="p", strategy="per_item")
        engine.run_spec(spec)
        engine.run_spec(spec)  # every call a cache hit
        assert engine.stats.completion_tokens_per_call("filter:per_item") == 2.0
        assert engine.stats.export_state()["completions"] == {"filter:per_item": [20.0, 10.0]}

    def test_the_observation_survives_export_and_merge(self):
        stats = RuntimeStats()
        stats.record_completions("sort:pairwise", tokens=190, calls=10)
        stats.record_completions("sort:pairwise", tokens=0, calls=0)  # nothing live
        fresh = RuntimeStats()
        assert fresh.completion_tokens_per_call("sort:pairwise") is None
        fresh.merge_state(stats.export_state(), weight=0.5)
        assert fresh.completion_tokens_per_call("sort:pairwise") == 19.0
        assert fresh.export_state()["completions"] == {"sort:pairwise": [95.0, 5.0]}
        assert stats.completion_tokens_per_call("sort:pairwise") == 19.0


class TestTheScaffoldMemo:
    @pytest.fixture(autouse=True)
    def empty_scaffold_memo(self):
        planner_module._SCAFFOLDS.clear()
        yield
        planner_module._SCAFFOLDS.clear()

    @pytest.fixture()
    def renders(self, monkeypatch):
        seen: list[prompts.TaskTemplate] = []
        original = prompts.TaskTemplate.render

        def render(self, items, fields=()):
            seen.append(self)
            return original(self, items, fields)

        monkeypatch.setattr(prompts.TaskTemplate, "render", render)
        return seen

    def test_a_second_quote_renders_no_template(self, renders):
        spec = FilterSpec(items=["a b", "c"], predicates=("p", "q"), strategy="per_item")
        first = _planner().estimate_spec(spec)
        assert renders == [prompts.PREDICATE_CHECK] * 2  # one scaffold per predicate
        assert _planner().estimate_spec(spec) == first
        assert len(renders) == 2

    def test_a_full_memo_starts_over(self, monkeypatch, renders):
        monkeypatch.setattr(planner_module, "_SCAFFOLD_MAX_ENTRIES", 2)
        planner = _planner()
        quotes = [
            planner.per_item(["x"], prompts.PREDICATE_CHECK, predicate).usage
            for predicate in ("p1", "p2", "p3", "p1")
        ]
        assert len(planner_module._SCAFFOLDS) <= 2
        assert len(renders) == 4  # "p1" was forgotten when the memo filled
        assert quotes[0] == quotes[3]
        assert quotes[0].prompt_tokens == TOKENIZER.count(prompts.predicate_check_prompt("x", "p1"))
