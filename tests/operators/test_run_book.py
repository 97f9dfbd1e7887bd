"""Each operator run keeps its own book.

``result.usage`` and ``result.cost`` are the per-task books behind the cost
columns of the paper's tables, so they must count the calls of that run and
nothing else.  One operator instance runs twice, on two disjoint inputs (no
prompt of the second run is in the first run's cache); the second result's
usage and cost must equal those of a fresh operator given the second input
alone.  This holds for every public run entry point, each with a strategy
that asks the LLM at temperature 0.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import pytest

from repro.data.products import generate_restaurant_dataset
from repro.llm.oracle import Oracle
from repro.llm.registry import default_registry
from repro.llm.simulated import SimulatedLLM
from repro.operators import (
    CategorizeOperator,
    ClusterOperator,
    FilterOperator,
    ImputeOperator,
    JoinOperator,
    ResolveOperator,
    SortOperator,
    TopKOperator,
)

BRANDS = ["acme", "bolt", "cog"]
FIRST = [f"{brand.title()} kettle, {litres} l" for brand in BRANDS for litres in (1, 2, 3)]
SECOND = [f"{brand.title()} toaster, {slots} slots" for brand in BRANDS for slots in (2, 4)]
ALL = FIRST + SECOND
NOT_COG = "is not a Cog product"
CAPACITY = "capacity"
RESTAURANTS = (generate_restaurant_dataset(12, seed=3), generate_restaurant_dataset(12, seed=4))


def _oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_predicate(NOT_COG, lambda text: not text.startswith("Cog"))
    oracle.register_entities({text: text.split()[0].lower() for text in ALL})
    oracle.register_key(CAPACITY, lambda text: int(text.split(", ")[1].split()[0]), reverse=True)
    oracle.register_categories({text: text.split()[0].lower() for text in ALL})
    for data in RESTAURANTS:
        for record in data.queries:
            oracle.register_value(
                data.serialized_query(record),
                data.target_attribute,
                data.ground_truth[record.record_id],
            )
    return oracle


class Case(NamedTuple):
    label: str
    build: Callable[..., Any]
    run: Callable[[Any, Any], Any]
    inputs: tuple[Any, Any]


def _halves(items: list[str]) -> tuple[list[str], list[str]]:
    return items[: len(items) // 2], items[len(items) // 2 :]


CASES = [
    Case("sort", lambda client, **kw: SortOperator(client, CAPACITY, **kw),
         lambda op, items: op.run(items, strategy="pairwise"), (FIRST, SECOND)),
    Case("filter", lambda client, **kw: FilterOperator(client, NOT_COG, **kw),
         lambda op, items: op.run(items), (FIRST, SECOND)),
    Case("categorize", lambda client, **kw: CategorizeOperator(client, BRANDS, **kw),
         lambda op, items: op.run(items), (FIRST, SECOND)),
    Case("cluster", ClusterOperator,
         lambda op, items: op.run(items, strategy="two_phase", seed_size=2), (FIRST, SECOND)),
    Case("top_k", lambda client, **kw: TopKOperator(client, CAPACITY, **kw),
         lambda op, items: op.run(items, k=2), (FIRST, SECOND)),
    Case("join", JoinOperator,
         lambda op, sides: op.run(*sides, strategy="all_pairs"),
         (_halves(FIRST), _halves(SECOND))),
    Case("impute", ImputeOperator,
         lambda op, data: op.run(data, strategy="llm_only"), RESTAURANTS),
    Case("resolve", ResolveOperator,
         lambda op, records: op.resolve(records), (FIRST, SECOND)),
    Case("judge_pairs", ResolveOperator,
         lambda op, records: op.judge_pairs(list(zip(*_halves(records))), strategy="transitive"),
         (FIRST, SECOND)),
]


@pytest.mark.parametrize("case", CASES, ids=[case.label for case in CASES])
def test_a_second_run_books_what_a_fresh_operator_books(case: Case):
    def operator() -> Any:
        return case.build(
            SimulatedLLM(_oracle(), seed=5),
            model="sim-gpt-3.5-turbo",
            cost_model=default_registry().cost_model(),
        )

    first, second = case.inputs
    reused = operator()
    before = case.run(reused, first)
    again = case.run(reused, second)
    fresh = case.run(operator(), second)
    assert before.usage.calls > 0 and fresh.usage.calls > 0 and fresh.cost > 0
    assert (again.usage, again.cost) == (fresh.usage, fresh.cost)
