"""Batch/sequential equivalence suite for every converted operator.

Every LLM-bound operator now submits its independent unit tasks through
``BaseOperator._complete_requests``.  This suite re-runs each converted
strategy against a *reference sequential path* — a monkeypatched
``_complete_requests`` that issues one blocking ``complete()`` per request,
exactly like the pre-batching code did — and asserts the results are
element-wise identical at temperature 0, for workload sizes {1, 2, 7, 64}
(the number of independent unit tasks in a batch, capped where a strategy's
unit-task count grows quadratically) and ``max_concurrency`` {1, 4}.
"""

from __future__ import annotations

import pytest

from repro.data.products import ImputationDataset
from repro.data.record import Dataset
from repro.data.words import random_words
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators.base import BaseOperator
from repro.operators.categorize import CategorizeOperator
from repro.operators.filter import FilterOperator
from repro.operators.impute import ImputeOperator
from repro.operators.join import JoinOperator
from repro.operators.resolve import ResolveOperator
from repro.operators.sort import SortOperator
from repro.operators.top_k import TopKOperator
from tests.doubles import LatencyClient

SIZES = (1, 2, 7, 64)
CONCURRENCIES = (1, 4)
MODEL = "sim-gpt-3.5-turbo"
ALPHABETICAL = "alphabetical order"


def _sequential_requests(self, requests):
    """The pre-batching behaviour: one blocking complete() per unit task."""
    responses = [
        self._client.complete(
            request.prompt,
            model=request.model,
            temperature=request.temperature,
            max_tokens=request.max_tokens,
        )
        for request in requests
    ]
    self.tracker.record_batch(responses)  # what the replaced method owes the tracker
    return responses


@pytest.fixture()
def sequential_reference(monkeypatch):
    """Context manager-style helper: run a callable on the sequential path."""

    def run(build_and_run):
        with monkeypatch.context() as patch:
            patch.setattr(BaseOperator, "_complete_requests", _sequential_requests)
            return build_and_run()

    return run


def _assert_equivalent(reference, result):
    """Batch results must be element-wise identical to the sequential path."""
    assert result == reference  # dataclass equality: payload, usage, cost, metadata


# -- sort -------------------------------------------------------------------------


def _sort_operator(alphabetical_oracle, concurrency: int) -> SortOperator:
    return SortOperator(
        SimulatedLLM(alphabetical_oracle, seed=11),
        ALPHABETICAL,
        model=MODEL,
        max_concurrency=concurrency,
    )


class TestSortEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize("options", [{"batch_size": 1}, {"batch_size": 3}])
    def test_rating(self, alphabetical_oracle, sequential_reference, size, concurrency, options):
        words = random_words(size, seed=31)
        reference = sequential_reference(
            lambda: _sort_operator(alphabetical_oracle, 1).run(words, strategy="rating", **options)
        )
        result = _sort_operator(alphabetical_oracle, concurrency).run(
            words, strategy="rating", **options
        )
        _assert_equivalent(reference, result)

    # 12 items → 66 pairwise unit tasks per batch: the quadratic strategies hit
    # the target batch sizes with far fewer items.
    @pytest.mark.parametrize("size", (1, 2, 7, 12))
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize("strategy", ["pairwise", "pairwise_consistent"])
    def test_pairwise_family(
        self, alphabetical_oracle, sequential_reference, size, concurrency, strategy
    ):
        words = random_words(size, seed=37)
        reference = sequential_reference(
            lambda: _sort_operator(alphabetical_oracle, 1).run(words, strategy=strategy)
        )
        result = _sort_operator(alphabetical_oracle, concurrency).run(words, strategy=strategy)
        _assert_equivalent(reference, result)

    def test_pairwise_behind_a_waiting_backend(self, alphabetical_oracle):
        """Calls that wait make the fan-out use its helper threads (at zero
        latency the dispatching thread drains the bag alone): same order,
        scores, calls and tokens as one call at a time."""

        def run(concurrency: int):
            operator = SortOperator(
                LatencyClient(SimulatedLLM(alphabetical_oracle, seed=11)),
                ALPHABETICAL,
                model=MODEL,
                max_concurrency=concurrency,
            )
            return operator.run(random_words(12, seed=37), strategy="pairwise")

        sequential, batched = run(1), run(4)
        assert sequential.usage.calls == 66
        _assert_equivalent(sequential, batched)

    @pytest.mark.parametrize("size", (7, 64))
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_hybrid_sort_insert(self, alphabetical_oracle, sequential_reference, size, concurrency):
        # Long lists make the coarse pass drop items, exercising the batched
        # pairwise re-insertion loop.
        words = random_words(size, seed=41)
        reference = sequential_reference(
            lambda: _sort_operator(alphabetical_oracle, 1).run(
                words, strategy="hybrid_sort_insert"
            )
        )
        result = _sort_operator(alphabetical_oracle, concurrency).run(
            words, strategy="hybrid_sort_insert"
        )
        _assert_equivalent(reference, result)


# -- resolve ----------------------------------------------------------------------


def _resolver(citation_llm_oracle, concurrency: int) -> ResolveOperator:
    return ResolveOperator(
        SimulatedLLM(citation_llm_oracle, seed=19), model=MODEL, max_concurrency=concurrency
    )


class TestResolveEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize("strategy", ["pairwise", "transitive", "proxy_hybrid"])
    def test_judge_pairs(self, citation_corpus, sequential_reference, size, concurrency, strategy):
        pairs = [(pair.left_text, pair.right_text) for pair in citation_corpus.pairs][:size]
        corpus = citation_corpus.texts()
        kwargs = {"corpus": corpus, "neighbors_k": 1} if strategy == "transitive" else {}
        oracle = citation_corpus.oracle()
        reference = sequential_reference(
            lambda: _resolver(oracle, 1).judge_pairs(pairs, strategy=strategy, **kwargs)
        )
        result = _resolver(oracle, concurrency).judge_pairs(pairs, strategy=strategy, **kwargs)
        _assert_equivalent(reference, result)

    @pytest.mark.parametrize("size", (2, 7, 12))
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize("strategy", ["pairwise", "blocked_pairwise"])
    def test_resolve_clustering(
        self, citation_corpus, sequential_reference, size, concurrency, strategy
    ):
        records = citation_corpus.texts()[:size]
        oracle = citation_corpus.oracle()
        reference = sequential_reference(
            lambda: _resolver(oracle, 1).resolve(records, strategy=strategy)
        )
        result = _resolver(oracle, concurrency).resolve(records, strategy=strategy)
        _assert_equivalent(reference, result)


# -- impute -----------------------------------------------------------------------


def _subset(data: ImputationDataset, size: int) -> ImputationDataset:
    records = data.queries.records[:size]
    return ImputationDataset(
        name=f"{data.name}-subset-{size}",
        target_attribute=data.target_attribute,
        queries=Dataset(records, name=f"{data.name}-subset-queries"),
        reference=data.reference,
        ground_truth={record.record_id: data.ground_truth[record.record_id] for record in records},
    )


class TestImputeEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize("strategy", ["llm_only", "hybrid"])
    @pytest.mark.parametrize("n_examples", [0, 3])
    def test_impute(
        self, restaurant_data, sequential_reference, size, concurrency, strategy, n_examples
    ):
        data = _subset(restaurant_data, size)

        def build(conc):
            return ImputeOperator(
                SimulatedLLM(restaurant_data.oracle(), seed=23), model=MODEL, max_concurrency=conc
            )

        reference = sequential_reference(
            lambda: build(1).run(data, strategy=strategy, n_examples=n_examples)
        )
        result = build(concurrency).run(data, strategy=strategy, n_examples=n_examples)
        _assert_equivalent(reference, result)


# -- filter -----------------------------------------------------------------------

PREDICATE = "mentions a color"
COLORS = ("red", "green", "blue", "amber")


def _filter_items(size: int) -> list[str]:
    words = random_words(size, seed=43)
    return [
        f"{word} {COLORS[index % len(COLORS)]}" if index % 2 == 0 else f"{word} item"
        for index, word in enumerate(words)
    ]


def _predicate_oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_predicate(PREDICATE, lambda item: any(color in item for color in COLORS))
    return oracle


class TestFilterEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_per_item(self, sequential_reference, size, concurrency):
        items = _filter_items(size)

        def build(conc):
            return FilterOperator(
                SimulatedLLM(_predicate_oracle(), seed=61),
                PREDICATE,
                model=MODEL,
                max_concurrency=conc,
            )

        reference = sequential_reference(lambda: build(1).run(items, strategy="per_item"))
        result = build(concurrency).run(items, strategy="per_item")
        _assert_equivalent(reference, result)

    @pytest.mark.parametrize("size", (1, 2, 7, 64))
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_ensemble_vote(self, sequential_reference, size, concurrency):
        items = _filter_items(size)
        models = [MODEL, "sim-claude", "sim-claude-2"]

        def build(conc):
            return FilterOperator(
                SimulatedLLM(_predicate_oracle(), seed=67),
                PREDICATE,
                model=MODEL,
                max_concurrency=conc,
            )

        reference = sequential_reference(
            lambda: build(1).run(items, strategy="ensemble_vote", models=models)
        )
        result = build(concurrency).run(items, strategy="ensemble_vote", models=models)
        _assert_equivalent(reference, result)


# -- top_k ------------------------------------------------------------------------


def _top_k(client, concurrency: int, size: int, strategy: str):
    operator = TopKOperator(client, ALPHABETICAL, model=MODEL, max_concurrency=concurrency)
    return operator.run(random_words(size, seed=47), k=min(2, size), strategy=strategy)


class TestTopKEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize(
        "strategy", ["rating_only", "pairwise_tournament", "hybrid_rating_comparison"]
    )
    def test_top_k(self, alphabetical_oracle, sequential_reference, size, concurrency, strategy):
        def run(conc):
            return _top_k(SimulatedLLM(alphabetical_oracle, seed=83), conc, size, strategy)

        reference = sequential_reference(lambda: run(1))
        _assert_equivalent(reference, run(concurrency))

    def test_tournament_behind_a_waiting_backend(self, alphabetical_oracle):
        """A tournament is one bag: behind a backend that waits, its
        comparisons overlap at width 4 and still tally as one at a time."""
        one, four = (LatencyClient(SimulatedLLM(alphabetical_oracle, seed=83)) for _ in range(2))
        sequential = _top_k(one, 1, 8, "pairwise_tournament")
        batched = _top_k(four, 4, 8, "pairwise_tournament")
        assert sequential.usage.calls == 28
        assert (one.peak_in_flight, four.peak_in_flight > 1) == (1, True)
        _assert_equivalent(sequential, batched)


# -- join -------------------------------------------------------------------------


class TestJoinEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    @pytest.mark.parametrize("strategy", ["all_pairs", "blocked", "proxy_blocked"])
    def test_join(self, citation_corpus, sequential_reference, size, concurrency, strategy):
        # ``size`` left records against the (up to) eight that follow them.
        texts = citation_corpus.texts()
        left, right = texts[:size], texts[size:][:8]
        oracle = citation_corpus.oracle()

        def run(conc):
            operator = JoinOperator(
                SimulatedLLM(oracle, seed=89), model=MODEL, max_concurrency=conc
            )
            return operator.run(left, right, strategy=strategy)

        reference = sequential_reference(lambda: run(1))
        _assert_equivalent(reference, run(concurrency))


# -- categorize -------------------------------------------------------------------

CATEGORIES = ("fruit", "vegetable", "dairy")


def _category_oracle(items: dict[str, str]) -> Oracle:
    oracle = Oracle()
    oracle.register_categories(items)
    return oracle


def _categorize_items(size: int) -> dict[str, str]:
    words = random_words(size, seed=71)
    return {
        f"{word} sample": CATEGORIES[index % len(CATEGORIES)]
        for index, word in enumerate(words)
    }


class TestCategorizeEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_per_item(self, sequential_reference, size, concurrency):
        item_map = _categorize_items(size)
        items = list(item_map)

        def build(conc):
            return CategorizeOperator(
                SimulatedLLM(_category_oracle(item_map), seed=73),
                CATEGORIES,
                model=MODEL,
                max_concurrency=conc,
            )

        reference = sequential_reference(lambda: build(1).run(items, strategy="per_item"))
        result = build(concurrency).run(items, strategy="per_item")
        _assert_equivalent(reference, result)

    @pytest.mark.parametrize("size", (2, 7, 64))
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_ensemble_vote(self, sequential_reference, size, concurrency):
        item_map = _categorize_items(size)
        items = list(item_map)
        models = [MODEL, "sim-claude", "sim-claude-2"]

        def build(conc):
            return CategorizeOperator(
                SimulatedLLM(_category_oracle(item_map), seed=79),
                CATEGORIES,
                model=MODEL,
                max_concurrency=conc,
            )

        reference = sequential_reference(
            lambda: build(1).run(items, strategy="ensemble_vote", models=models)
        )
        result = build(concurrency).run(items, strategy="ensemble_vote", models=models)
        _assert_equivalent(reference, result)
