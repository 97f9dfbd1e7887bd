"""Every operator call goes through the operator's executor.

A bag of independent unit tasks and a single call whose prompt depends on an
earlier answer leave an operator the same way, through the session and its
:class:`~repro.core.governor.BackendGate`, so for every operator and strategy
the engine can run:

* a session's :class:`~repro.core.governor.ConcurrencyGovernor` admits every
  call that reaches the backend, and no cache hit;
* a spent budget or lease stops the first call that would reach the backend
  before it is made, with :class:`~repro.exceptions.BudgetExceededError`,
  and answers a fully cached re-run as before.

The cases cover every strategy :data:`~repro.core.declarations.DECLARATIONS`
accepts (a resolve spec in both of its modes).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, NamedTuple

import pytest

from repro.core.budget import Budget
from repro.core.declarations import DECLARATIONS, declaration_for
from repro.core.engine import DeclarativeEngine
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
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
from repro.data.products import generate_restaurant_dataset
from repro.exceptions import BudgetExceededError
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators import FilterOperator
from tests.doubles import CountingClient

MODEL = "sim-gpt-3.5-turbo"
VOTERS = {"models": [MODEL, "sim-claude"]}
RECORDS = [
    f"{brand} kettle, {litres} l"
    for brand in ("Acme", "ACME", "Bolt", "Cog")
    for litres in range(1, 5)
]
NOT_COG = "is not a Cog product"
CAPACITY = "capacity"
BRANDS = ["acme", "bolt", "cog"]
RESTAURANTS = generate_restaurant_dataset(12, seed=3)
PAIRS = [(RECORDS[i], RECORDS[i + 4]) for i in range(4)] + [(RECORDS[8], RECORDS[12])]


def _oracle() -> Oracle:
    oracle = RESTAURANTS.oracle()
    oracle.register_predicate(NOT_COG, lambda text: not text.startswith("Cog"))
    oracle.register_entities({text: text.lower() for text in RECORDS})
    oracle.register_key(CAPACITY, lambda text: int(text.split(", ")[1].split()[0]), reverse=True)
    oracle.register_categories({text: text.split()[0].lower() for text in RECORDS})
    return oracle


def counting_client() -> CountingClient:
    """The simulator, counting the calls that reach it."""
    return CountingClient(SimulatedLLM(_oracle(), seed=0))


class Case(NamedTuple):
    label: str
    #: ``run(engine, budget)``: one operator run through the engine's session.
    run: Callable[[DeclarativeEngine, Budget | None], Any]


def _spec_case(spec: TaskSpec) -> Case:
    mode = "-pairs" if isinstance(spec, ResolveSpec) and spec.pairs else ""
    label = f"{declaration_for(spec).operation}{mode}:{spec.strategy}"
    return Case(label, lambda engine, budget: engine.run_spec(spec, budget=budget))


def _specs(build: Callable[..., TaskSpec], strategies: str, **fields: Any) -> list[TaskSpec]:
    return [build(strategy=strategy, **fields) for strategy in strategies.split()]


SPECS: list[TaskSpec] = [
    *_specs(
        SortSpec,
        "single_prompt rating pairwise pairwise_consistent hybrid_sort_insert",
        items=RECORDS[:6],
        criterion=CAPACITY,
    ),
    *_specs(ResolveSpec, "single_prompt pairwise blocked_pairwise", records=RECORDS[:8]),
    *_specs(ResolveSpec, "pairwise transitive proxy_hybrid", records=RECORDS, pairs=PAIRS),
    *_specs(ImputeSpec, "knn llm_only hybrid retrieval", data=RESTAURANTS),
    *_specs(FilterSpec, "per_item", items=RECORDS, predicate=NOT_COG),
    *_specs(
        FilterSpec, "ensemble_vote adaptive", items=RECORDS, predicate=NOT_COG, strategy_options=VOTERS
    ),
    *_specs(CategorizeSpec, "per_item", items=RECORDS[:6], categories=BRANDS),
    *_specs(
        CategorizeSpec,
        "self_consistency",
        items=RECORDS[:6],
        categories=BRANDS,
        strategy_options={"n_samples": 2},
    ),
    *_specs(
        CategorizeSpec, "ensemble_vote", items=RECORDS[:6], categories=BRANDS, strategy_options=VOTERS
    ),
    *_specs(
        TopKSpec,
        "rating_only pairwise_tournament hybrid_rating_comparison",
        items=RECORDS[:8],
        criterion=CAPACITY,
        k=2,
    ),
    *_specs(JoinSpec, "all_pairs blocked proxy_blocked", left=RECORDS[:4], right=RECORDS[4:8]),
    *_specs(ClusterSpec, "single_prompt", items=RECORDS[:8]),
    # A seed of three leaves five items for the greedy assignment loop.
    *_specs(ClusterSpec, "two_phase", items=RECORDS[:8], strategy_options={"seed_size": 3}),
]

CASES: list[Case] = list(map(_spec_case, SPECS))

#: Strategies that never ask the LLM.
LLM_FREE = {"impute:knn"}

PAID = [case for case in CASES if case.label not in LLM_FREE]


def _ids(cases: list[Case]) -> list[str]:
    return [case.label for case in cases]


def test_the_cases_cover_every_declared_strategy():
    declarations = {*DECLARATIONS.values(), declaration_for(ResolveSpec(pairs=PAIRS))}
    declared = {(id(d), strategy) for d in declarations for strategy in d.shapes}
    assert {(id(declaration_for(spec)), spec.strategy) for spec in SPECS} == declared
    assert len(set(_ids(CASES))) == len(CASES)


@pytest.mark.parametrize("concurrency", (1, 4))
@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_the_governor_admits_every_backend_call(case: Case, concurrency: int):
    backend = counting_client()
    governor = ConcurrencyGovernor()
    engine = DeclarativeEngine(
        backend, governor=governor, max_concurrency=concurrency, default_model=MODEL
    )
    result = case.run(engine, None)
    assert (backend.calls == 0) == (case.label in LLM_FREE)
    assert governor.stats.admitted == backend.calls == result.usage.calls
    cold = backend.calls
    case.run(engine, None)
    assert governor.stats.admitted == backend.calls
    if backend.temperatures <= {0.0}:
        assert backend.calls == cold
    assert governor.in_flight == 0


@pytest.mark.parametrize("spent", ("budget", "lease"))
@pytest.mark.parametrize("case", PAID, ids=_ids(PAID))
def test_a_spent_budget_buys_no_call(case: Case, spent: str):
    backend = counting_client()
    if spent == "budget":
        engine = DeclarativeEngine(backend, budget=Budget(limit=0.05), default_model=MODEL)
        engine.session.budget.charge(0.05)
        budget = None
    else:
        engine = DeclarativeEngine(backend, default_model=MODEL)
        budget = engine.session.budget.lease(0.0)
    with pytest.raises(BudgetExceededError):
        case.run(engine, budget)
    assert backend.calls == 0


@pytest.mark.parametrize("state", ("spent", "overspent"))
@pytest.mark.parametrize("spent", ("budget", "lease"))
@pytest.mark.parametrize("case", PAID, ids=_ids(PAID))
def test_a_spent_budget_answers_a_cached_rerun(case: Case, spent: str, state: str):
    backend = counting_client()
    engine = DeclarativeEngine(backend, budget=Budget(limit=1.0), default_model=MODEL)
    first = case.run(engine, None)
    if backend.temperatures != {0.0}:
        pytest.skip("a call above temperature 0 is never cached")
    made = backend.calls
    # ``overspent`` is the state a budget stop leaves: the breaching charge is recorded.
    over = 0.01 if state == "overspent" else 0.0
    if spent == "budget":
        with contextlib.suppress(BudgetExceededError):  # raised when overspent
            engine.session.budget.charge(1.0 + over - engine.session.budget.spent)
        budget = None
    else:
        budget = engine.session.budget.lease(0.0)
        if over:
            with pytest.raises(BudgetExceededError):
                budget.charge(over)
    assert _output(case.run(engine, budget)) == _output(first)
    assert backend.calls == made


@pytest.mark.parametrize("use_cache", (True, False))
def test_a_spent_budget_stops_an_operator_over_a_raw_client(use_cache: bool):
    # A raw client has no budget: a session over it gives the operator one,
    # and the session's gate refuses a call once the budget is spent, by
    # whoever spent it; a cached answer stays free.
    backend = counting_client()
    session = PromptSession(backend, budget=Budget(limit=1.0), use_cache=use_cache)
    budget = session.budget
    operator = FilterOperator(session.client(), NOT_COG, model=MODEL, use_cache=use_cache)
    first = operator.run(RECORDS[:4])
    assert backend.calls == 4
    budget.charge(1.0 - budget.spent)
    if use_cache:
        assert _output(operator.run(RECORDS[:4])) == _output(first)
    with pytest.raises(BudgetExceededError):
        operator.run(RECORDS[4:8])
    assert backend.calls == 4


def _output(result: Any) -> dict:
    """What a result says about the data: all but what its calls cost."""
    return {k: v for k, v in vars(result).items() if k not in ("usage", "cost", "metadata")}
