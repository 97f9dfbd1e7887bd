"""What a quote prices, and what it walks to get there.

The blocked-candidate stand-in a proxy resolve is quoted at is priced in
closed form (``CostPlanner.blocked_pairs``) by both the optimizer's proxy
gate and the compiler, never by enumerating synthetic pairs; subplan keys
take a flat item tuple as it is.  The totals of the benchmark's product
query and many-step pipeline are pinned to the bit, so a change to any
pricing shape shows up here as a diff.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf import corpus
from repro.core.engine import DeclarativeEngine
from repro.core.planner import CostPlanner
from repro.core.spec import ResolveSpec
from repro.exceptions import ConfigurationError
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset, compile_plan, optimize
from repro.query.optimizer import _freeze, share_common_subplans

PLANNER = CostPlanner(corpus.MODEL)


def _product_query(items: list[str]) -> Dataset:
    """The benchmark's ``filter -> resolve -> top_k`` query."""
    return (
        Dataset(items, name="plan_quote")
        .filter(corpus.SHORT_BRAND, strategy="per_item")
        .resolve()
        .top_k(corpus.IMPORTANCE, k=3, strategy="pairwise_tournament")
    )


@pytest.fixture()
def spies(monkeypatch):
    """Record every ``pair_judgments`` / ``blocked_pairs`` call on any planner."""
    calls: dict[str, list[tuple]] = {"pair_judgments": [], "blocked_pairs": []}
    for name, log in calls.items():
        original = getattr(CostPlanner, name)

        def spy(self, *args, _original=original, _log=log, **kwargs):
            _log.append(args)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CostPlanner, name, spy)
    return calls


class TestBlockedCandidatesAreNotEnumerated:
    def test_product_query_prices_no_synthetic_pair_list(self, spies):
        items = corpus.product_feed(1, 100).items
        plan = optimize(_product_query(items).logical_plan(), planner=PLANNER)
        compiled = compile_plan(plan, planner=PLANNER)
        assert compiled.quote.steps["s2_resolve"].strategy == "resolve:proxy_blocked"
        assert spies["pair_judgments"] == []
        # One closed-form call from the optimizer's gate, one from the compiler.
        assert [(len(args[0]), args[1]) for args in spies["blocked_pairs"]] == [
            (150, 750),
            (150, 750),
        ]

    @pytest.mark.parametrize("block_k", [0, -2])
    def test_compiler_rejects_a_proxy_that_blocks_nothing(self, block_k):
        items = corpus.product_feed(1, 100).items
        plan = optimize(_product_query(items).logical_plan(), planner=PLANNER)
        (resolve,) = [node for node in plan.nodes() if node.op == "resolve"]
        assert resolve.params["proxy"] is True
        plan = plan.replaced(resolve, resolve.with_params(block_k=block_k))
        with pytest.raises(ConfigurationError, match="empty pair list"):
            compile_plan(plan, planner=PLANNER)

    @pytest.mark.parametrize("strategy", ["pairwise", "transitive", "proxy_hybrid"])
    def test_pair_specs_price_their_real_pairs(self, spies, strategy):
        pairs = [("tv one", "tv 1"), ("lamp", "lamp x"), ("tv one", "lamp")]
        PLANNER.estimate_spec(ResolveSpec(pairs=pairs, strategy=strategy))
        assert [list(args[0]) for args in spies["pair_judgments"]] == [pairs]
        assert spies["blocked_pairs"] == []


def _freeze_as_before(value):
    """Subplan keys as they were keyed before flat item tuples were taken whole."""
    if isinstance(value, Mapping):
        return tuple(sorted((key, _freeze_as_before(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_as_before(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(repr, value)))
    try:
        hash(value)
    except TypeError:
        return id(value)
    return value


class _Tag(str):
    """A ``str`` subclass: keyed as itself, like any other hashable."""


_leaf = st.one_of(
    st.text(max_size=5),
    st.integers(-5, 5),
    st.none(),
    st.builds(_Tag, st.text(max_size=3)),
    st.frozensets(st.integers(0, 9), max_size=3),
    st.sets(st.text(max_size=2), max_size=3),
)
_params = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestSubplanKeys:
    def test_nested_params_keep_their_keys(self):
        unhashable = bytearray(b"x")
        params = {
            "options": {"block_k": 5, "weights": [1, {"x": ("a", "b")}]},
            "tags": {"b", "a"},
            "frozen": frozenset({3, 1}),
            "mixed": ["a", ["b", "c"], 2],
            "data": unhashable,
            "items": ("a", "b", "a"),
            "name": "p",
        }
        assert _freeze(params) == (
            ("data", id(unhashable)),
            ("frozen", ("1", "3")),
            ("items", ("a", "b", "a")),
            ("mixed", ("a", ("b", "c"), 2)),
            ("name", "p"),
            ("options", (("block_k", 5), ("weights", (1, (("x", ("a", "b")),))))),
            ("tags", ("'a'", "'b'")),
        )

    def test_flat_item_sequences_are_their_own_key(self):
        items = tuple(f"item {index}" for index in range(300))
        assert _freeze(items) == items
        assert _freeze(list(items)) == items
        assert _freeze("just text") == "just text"
        assert _freeze(()) == () and _freeze([]) == ()

    @given(params=_params)
    @settings(max_examples=300)
    def test_every_key_is_as_before(self, params):
        assert _freeze(params) == _freeze_as_before(params)

    def test_equal_item_tuples_share_and_different_ones_do_not(self):
        items = corpus.product_feed(1, 8).items
        same = Dataset(items, name="p").filter(corpus.SHORT_BRAND).join(
            Dataset(list(items), name="p").filter(corpus.SHORT_BRAND)
        )
        shared = share_common_subplans(same.logical_plan(), PLANNER)
        assert [node.op for node in shared.nodes()].count("source") == 1
        assert [node.op for node in shared.nodes()].count("filter") == 1

        apart = Dataset(items, name="p").filter(corpus.SHORT_BRAND).join(
            Dataset(items[:-1], name="p").filter(corpus.SHORT_BRAND)
        )
        kept = share_common_subplans(apart.logical_plan(), PLANNER)
        assert [node.op for node in kept.nodes()].count("source") == 2
        assert [node.op for node in kept.nodes()].count("filter") == 2
        assert not kept.notes


class TestQuotesStayExactAtScale:
    """Totals pinned when every shape began counting its declared template.

    The call counts are those of the tree before the closed-form blocked
    pricing; the dollars rose there because the scaffolds (66–81 tokens)
    and declared answers (2–19 tokens) replaced a flat 60 + 15 per call.
    """

    @pytest.mark.parametrize(
        "entities, calls, dollars",
        [(100, 12_225, "2.4177225"), (800, 727_800, "145.9280805")],
    )
    def test_product_query_quote(self, entities, calls, dollars):
        items = corpus.product_feed(1, entities).items
        quote = _product_query(items).quote()
        assert quote.total_calls == calls
        assert repr(quote.total_dollars) == dollars

    def test_many_step_pipeline_quote(self):
        feed = corpus.product_feed(1, 100)
        engine = DeclarativeEngine(SimulatedLLM(feed.oracle, seed=1), default_model=corpus.MODEL)
        quote = engine.quote_pipeline(corpus.many_step_spec(feed, 1, 20, 12))
        assert quote.unquoted == ()
        assert quote.total_calls == 618
        assert repr(quote.total_dollars) == "0.1055565"
