"""Tests for the a-priori cost planner."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import planner as planner_module
from repro.core.engine import DeclarativeEngine
from repro.core.planner import CostEstimate, CostPlanner
from repro.core.spec import PipelineSpec, PipelineStep, ResolveSpec, SortSpec
from repro.data.flavors import FLAVORS
from repro.data.words import random_words
from repro.exceptions import ConfigurationError
from repro.llm.registry import default_registry
from repro.llm.simulated import SimulatedLLM
from repro.data.flavors import CHOCOLATEY, flavor_oracle
from repro.operators.sort import SortOperator


class TestCostPlannerShapes:
    def test_empty_items_rejected(self):
        planner = CostPlanner("sim-gpt-3.5-turbo")
        with pytest.raises(ConfigurationError):
            planner.single_prompt([])

    def test_pairwise_calls_are_quadratic(self):
        planner = CostPlanner("sim-gpt-3.5-turbo")
        items = list(FLAVORS)
        assert planner.pairwise(items).calls == len(items) * (len(items) - 1) // 2
        assert planner.per_item(items).calls == len(items)
        assert planner.single_prompt(items).calls == 1

    def test_batching_reduces_calls_and_prompt_tokens(self):
        planner = CostPlanner("sim-gpt-3.5-turbo")
        items = list(FLAVORS)
        unbatched = planner.per_item(items, batch_size=1)
        batched = planner.per_item(items, batch_size=5)
        assert batched.calls < unbatched.calls
        assert batched.usage.prompt_tokens < unbatched.usage.prompt_tokens

    def test_invalid_parameters(self):
        planner = CostPlanner("sim-gpt-3.5-turbo")
        with pytest.raises(ConfigurationError):
            planner.per_item(list(FLAVORS), batch_size=0)
        with pytest.raises(ConfigurationError):
            planner.pairwise_against(list(FLAVORS), -1)

    def test_cost_ordering_matches_strategy_granularity(self):
        planner = CostPlanner("sim-gpt-3.5-turbo")
        items = list(FLAVORS)
        assert (
            planner.single_prompt(items).dollars
            < planner.per_item(items).dollars
            < planner.pairwise(items).dollars
        )

    def test_affordable_strategies_filters_and_sorts(self):
        planner = CostPlanner("sim-gpt-3.5-turbo")
        items = list(FLAVORS)
        pairwise_cost = planner.pairwise(items).dollars
        affordable = planner.affordable_strategies(items, budget_dollars=pairwise_cost / 2)
        names = [estimate.strategy for estimate in affordable]
        assert "pairwise" not in names
        assert names == sorted(
            names, key=lambda name: [e.strategy for e in affordable].index(name)
        )
        dollars = [estimate.dollars for estimate in affordable]
        assert dollars == sorted(dollars)

    def test_fits_context_detects_oversized_prompts(self):
        small_context = CostPlanner("sim-small")
        long_context = CostPlanner("sim-claude-2")
        # 400 six-word snippets: a few thousand tokens — beyond sim-small's
        # 2k context but far inside sim-claude-2's 100k window.
        snippets = [" ".join(random_words(6, seed=index)) for index in range(400)]
        assert long_context.fits_context(snippets) is True
        assert small_context.fits_context(snippets) is False


class TestPhysicalPlannerSharesTokenCounts:
    def test_stats_fed_and_stats_free_planners_share_one_tokenizer(self):
        """The call-ratio baseline re-uses the counts the quote already made."""
        physical = DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=7)).physical
        with_stats = physical.cost_planner(with_stats=True)
        stats_free = physical.cost_planner(with_stats=False)
        assert with_stats is not stats_free
        # Not by holding one instance: the token memo is the process's.
        text = "salted caramel, as counted by the quote"
        counted = with_stats.tokenizer.count(text)
        stats_free.tokenizer._findall = None  # a second scan would raise
        assert stats_free.tokenizer.count(text) == counted


class TestPlannerAgainstMeasuredCost:
    def test_estimates_are_within_a_factor_of_actual_usage(self):
        """The planner's predictions should land in the right ballpark.

        It only has to be good enough to discard unaffordable strategies, so a
        factor-of-three agreement with the measured token counts is plenty.
        """
        planner = CostPlanner("sim-gpt-3.5-turbo", registry=default_registry())
        items = list(FLAVORS)
        operator = SortOperator(
            SimulatedLLM(flavor_oracle(), seed=7), CHOCOLATEY, model="sim-gpt-3.5-turbo"
        )
        measured = operator.run(items, strategy="pairwise")
        predicted = planner.pairwise(items)
        assert predicted.calls == measured.usage.calls
        ratio = predicted.usage.prompt_tokens / measured.usage.prompt_tokens
        assert 1 / 3 <= ratio <= 3


# Hypothesis strategies for the property suite: short lowercase "items".
_item = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)
_items = st.lists(_item, min_size=2, max_size=25)
_extra_items = st.lists(_item, min_size=1, max_size=10)


def _planner() -> CostPlanner:
    return CostPlanner("sim-gpt-3.5-turbo")


# Pair sides as callers really pass them: arbitrary text (any Unicode, inner
# and outer whitespace) and the odd non-string item.
_side = st.one_of(
    st.text(max_size=30),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False),
    st.none(),
)
_pairs = st.lists(st.tuples(_side, _side), min_size=1, max_size=20)


def _concatenated_pair_estimate(
    planner: CostPlanner, pairs: list[tuple[object, object]], expansion: int
) -> CostEstimate:
    """``pair_judgments`` as first written: tokenize each joined pair string."""
    texts = [f"{left} {right}" for left, right in pairs]
    average = sum(planner.tokenizer.count(text) for text in texts) / len(texts)
    calls = len(pairs) * expansion
    return planner._estimate(
        "pair_judgments",
        calls,
        calls * (planner_module._PROMPT_OVERHEAD_TOKENS + average),
        calls * planner_module._SHORT_COMPLETION_TOKENS,
    )


class TestCostPlannerProperties:
    """Property tests: shape monotonicity and pipeline-quote additivity."""

    @given(items=_items, extra=_extra_items)
    @settings(max_examples=60)
    def test_shapes_are_monotone_in_item_count(self, items, extra):
        """Adding items never makes any cost shape cheaper."""
        planner = _planner()
        grown = items + extra
        shapes = [
            lambda xs: planner.single_prompt(xs),
            lambda xs: planner.per_item(xs),
            lambda xs: planner.per_item(xs, batch_size=5),
            lambda xs: planner.pairwise(xs),
            lambda xs: planner.pairwise_against(xs, 3),
        ]
        for shape in shapes:
            small, large = shape(items), shape(grown)
            assert small.calls <= large.calls
            assert small.dollars <= large.dollars + 1e-12
            assert small.usage.total_tokens <= large.usage.total_tokens

    @given(items=_items, extra=_extra_items)
    @settings(max_examples=60)
    def test_pair_judgments_monotone_in_pair_count(self, items, extra):
        planner = _planner()
        pairs = [(item, item[::-1]) for item in items]
        grown = pairs + [(item, item + "x") for item in extra]
        small = planner.pair_judgments(pairs)
        large = planner.pair_judgments(grown)
        assert small.calls <= large.calls
        assert small.dollars <= large.dollars + 1e-12

    @given(pairs=_pairs, repeats=st.integers(1, 3), expansion=st.integers(1, 45))
    @settings(max_examples=200)
    def test_pair_judgments_equal_the_concatenated_string_formula(
        self, pairs, repeats, expansion
    ):
        """Pricing sides additively is exact: calls, usage and dollars."""
        pairs = pairs * repeats  # repeated sides exercise the weighting
        estimate = _planner().pair_judgments(pairs, expansion=expansion)
        assert estimate == _concatenated_pair_estimate(_planner(), pairs, expansion)

    def test_pair_judgments_reject_empty_pairs_and_bad_expansion(self):
        planner = _planner()
        with pytest.raises(ConfigurationError):
            planner.pair_judgments([])
        with pytest.raises(ConfigurationError):
            planner.pair_judgments([("a", "b")], expansion=0)

    @given(
        branches=st.lists(
            st.lists(_item, min_size=2, max_size=15), min_size=1, max_size=5
        )
    )
    @settings(max_examples=40)
    def test_pipeline_quote_is_the_sum_of_step_quotes(self, branches):
        planner = _planner()
        steps = [
            PipelineStep(
                f"sort-{index}",
                task=SortSpec(items=items, criterion="weight", strategy="rating"),
            )
            for index, items in enumerate(branches)
        ]
        steps.append(
            PipelineStep(
                "judge",
                task=ResolveSpec(
                    pairs=[(branches[0][0], branches[0][1])], strategy="pairwise"
                ),
            )
        )
        pipeline = PipelineSpec(name="quoted", steps=steps)
        quote = planner.quote_pipeline(pipeline)
        per_step = [planner.estimate_spec(step.task) for step in steps]
        assert quote.total_calls == sum(estimate.calls for estimate in per_step)
        assert quote.total_dollars == pytest.approx(
            sum(estimate.dollars for estimate in per_step)
        )
        assert quote.total_usage.total_tokens == sum(
            estimate.usage.total_tokens for estimate in per_step
        )
        assert set(quote.steps) == {step.name for step in steps}
        assert quote.unquoted == ()

    def test_dynamic_steps_are_listed_as_unquoted(self):
        pipeline = PipelineSpec(
            name="partial",
            steps=[
                PipelineStep("block", run=lambda session, inputs: []),
                PipelineStep(
                    "resolve",
                    task=lambda inputs: ResolveSpec(pairs=inputs["block"]),
                    depends_on=("block",),
                ),
                PipelineStep(
                    "sort",
                    task=SortSpec(items=list(FLAVORS[:4]), criterion=CHOCOLATEY),
                ),
            ],
        )
        quote = _planner().quote_pipeline(pipeline)
        assert set(quote.steps) == {"sort"}
        assert quote.unquoted == ("block", "resolve")

    def test_spec_estimates_follow_strategy_shapes(self):
        planner = _planner()
        items = list(FLAVORS)
        rating = planner.estimate_spec(
            SortSpec(items=items, criterion=CHOCOLATEY, strategy="rating")
        )
        pairwise = planner.estimate_spec(
            SortSpec(items=items, criterion=CHOCOLATEY, strategy="pairwise")
        )
        assert rating.strategy == "sort:rating"
        assert rating.calls == len(items)
        assert pairwise.calls == len(items) * (len(items) - 1) // 2
        assert rating.dollars < pairwise.dollars

    def test_transitive_resolve_expands_per_pair_calls(self):
        planner = _planner()
        pairs = [(left, right) for left, right in zip(FLAVORS[:5], FLAVORS[5:10])]
        plain = planner.estimate_spec(ResolveSpec(pairs=pairs, strategy="pairwise"))
        augmented = planner.estimate_spec(
            ResolveSpec(pairs=pairs, strategy="transitive", neighbors_k=1)
        )
        assert plain.calls == len(pairs)
        # C(2k+2, 2) = 6 comparisons per queried pair at k = 1.
        assert augmented.calls == 6 * len(pairs)
