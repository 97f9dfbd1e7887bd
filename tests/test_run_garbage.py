"""A finished run is freed when it is dropped, not at the next full collection.

An operator's strategy table used to hold ``self._run_*`` bound methods, so
every operator was a reference cycle and everything a run reached through it
— the session, its span ring, every response — waited for a generation-2
pass of the cycle collector (about 1 MB per 500-call run).  The table now
keeps functions and binds at dispatch, and the recursive helpers of the query
compiler and the critical-path walks are module-level functions, so with the
collector *off* a run, a quote and a service job leave nothing behind that
only the collector could free.

Each scenario runs once before it is measured: the first run of a process
also imports lazily loaded modules (numpy for the first vector) and fills the
process-wide memos, and an import leaves garbage of its own.
"""

from __future__ import annotations

import asyncio
import gc
import weakref
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest

from repro import Dataset, DeclarativeEngine, Oracle, SimulatedLLM
from repro.core.declarations import DECLARATIONS
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.core.spec_codec import pipeline_to_dict
from repro.data.products import generate_restaurant_dataset
from repro.exceptions import UnknownStrategyError
from repro.operators import (
    CategorizeOperator,
    ClusterOperator,
    CountOperator,
    FilterOperator,
    ImputeOperator,
    JoinOperator,
    ResolveOperator,
    SortOperator,
    TopKOperator,
)
from repro.operators.base import BaseOperator, StrategyInfo
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry
from repro.store import Store

MODEL = "sim-gpt-3.5-turbo"
RECORDS = [
    f"{brand} kettle, {litres} l"
    for brand in ("Acme", "ACME", "Bolt", "Cog")
    for litres in range(1, 9)
]
NOT_COG = "is not a Cog product"
CAPACITY = "capacity"
RESTAURANTS = generate_restaurant_dataset(12, seed=3)


def _oracle() -> Oracle:
    oracle = RESTAURANTS.oracle()
    oracle.register_predicate(NOT_COG, lambda text: not text.startswith("Cog"))
    oracle.register_entities({text: text.lower() for text in RECORDS})
    oracle.register_key(CAPACITY, lambda text: int(text.split(", ")[1].split()[0]), reverse=True)
    oracle.register_categories({text: text.split()[0].lower() for text in RECORDS})
    return oracle


def _engine(store: Store | None = None) -> DeclarativeEngine:
    session = PromptSession(SimulatedLLM(_oracle(), seed=0), store=store)
    return DeclarativeEngine.from_session(session, default_model=MODEL)


def _product_query() -> Dataset:
    return (
        Dataset(RECORDS, name="kettles")
        .filter(NOT_COG, strategy="per_item")
        .resolve()
        .top_k(CAPACITY, k=2, strategy="pairwise_tournament")
    )


def _kind(obj: object) -> str:
    name = type(obj).__name__
    return f"function {obj.__qualname__}" if name == "function" else name


@contextmanager
def collector_off() -> Iterator[None]:
    """Start from nothing collectable, then keep the cycle collector out."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def unreachable_after(scenario: Callable[[], object]) -> dict[str, int]:
    """What only the cycle collector could free after ``scenario`` ran and was
    dropped, by kind; ``{}`` when reference counts returned all of it."""
    scenario()
    with collector_off():
        scenario()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return dict(Counter(_kind(obj) for obj in gc.garbage))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()


def test_a_per_item_filter_run_leaves_nothing_for_the_collector():
    def scenario() -> None:
        result = Dataset(RECORDS, name="kettles").filter(NOT_COG, strategy="per_item").run(_engine())
        assert result.total_calls == len(RECORDS)

    assert unreachable_after(scenario) == {}


def test_the_product_query_against_a_store_leaves_nothing_cold_or_restored(tmp_path):
    paths = iter(tmp_path / f"run-{index}.db" for index in range(4))

    def cold() -> None:
        with Store(next(paths)) as store:
            result = _product_query().with_store(store).run(_engine(store))
        assert result.total_calls > 0 and "s2_block" in result.report.step_reports

    assert unreachable_after(cold) == {}

    warm_path = tmp_path / "warm.db"
    with Store(warm_path) as store:
        _product_query().with_store(store).run(_engine(store))

    def restored() -> None:
        with Store(warm_path) as store:
            result = _product_query().with_store(store).run(_engine(store))
        assert result.total_calls == 0 and result.report.restored_steps

    assert unreachable_after(restored) == {}


def test_a_quote_leaves_nothing_for_the_collector():
    def scenario() -> None:
        engine = _engine()
        assert _product_query().quote(planner=engine.planner()).total_calls > 0
        assert engine.session.tracker.calls == 0
        # After a run the planner has latencies: the quote walks its
        # critical path too.
        _product_query().run(engine)
        assert _product_query().quote(planner=engine.planner()).total_seconds is not None

    assert unreachable_after(scenario) == {}


#: Operator class -> construct one over ``client`` and run it.
OPERATOR_RUNS: dict[type, Callable[[SimulatedLLM], object]] = {
    SortOperator: lambda c: SortOperator(c, CAPACITY, model=MODEL).run(RECORDS[:6], strategy="pairwise"),
    ResolveOperator: lambda c: ResolveOperator(c, model=MODEL).resolve(RECORDS[:12], strategy="blocked_pairwise"),
    ImputeOperator: lambda c: ImputeOperator(c, model=MODEL).run(RESTAURANTS, strategy="hybrid", n_examples=1),
    FilterOperator: lambda c: FilterOperator(c, NOT_COG, model=MODEL).run(RECORDS, strategy="per_item"),
    CategorizeOperator: lambda c: CategorizeOperator(c, ["acme", "bolt", "cog"], model=MODEL).run(RECORDS[:8]),
    TopKOperator: lambda c: TopKOperator(c, CAPACITY, model=MODEL).run(RECORDS[:8], k=2),
    JoinOperator: lambda c: JoinOperator(c, model=MODEL).run(RECORDS[:8], RECORDS[8:16], strategy="blocked"),
    ClusterOperator: lambda c: ClusterOperator(c, model=MODEL).run(RECORDS[:8]),
    CountOperator: lambda c: CountOperator(c, NOT_COG, model=MODEL).run(RECORDS),
}


def test_an_operator_of_every_declared_type_is_freed_by_reference_count():
    declared = {declaration.operator for declaration in DECLARATIONS.values()}
    assert declared <= set(OPERATOR_RUNS)

    def scenario() -> None:
        for run in OPERATOR_RUNS.values():
            result = run(SimulatedLLM(_oracle(), seed=0))
            assert result.usage.calls > 0 or result.strategy

    assert unreachable_after(scenario) == {}


def test_a_service_job_leaves_nothing_for_the_collector(tmp_path):
    pipeline = PipelineSpec(
        name="job",
        steps=[
            PipelineStep(
                name="screen",
                task=FilterSpec(items=RECORDS[:8], predicate=NOT_COG, strategy="per_item"),
            ),
            PipelineStep(
                name="rank",
                task=SortSpec(items=RECORDS[:5], criterion=CAPACITY, strategy="pairwise"),
                depends_on=("screen",),
            ),
        ],
    )
    payload = pipeline_to_dict(pipeline)
    paths = iter(tmp_path / f"service-{index}.db" for index in range(2))
    loop = asyncio.new_event_loop()

    async def one_job(client: ServiceClient) -> None:
        accepted = await client.post("/v1/pipelines", json_body=payload)
        assert accepted.status == 202, accepted.json()
        job_id = accepted.json()["job_id"]
        stream = await client.get(f"/v1/jobs/{job_id}/events")
        assert stream.sse_events()[-1]["status"] == "succeeded"
        assert (await client.get(f"/v1/jobs/{job_id}")).status == 200

    def scenario() -> None:
        with Store(next(paths)) as store:
            registry = TenantRegistry(
                SimulatedLLM(_oracle(), seed=0),
                [TenantConfig(tenant_id="t", api_key="k", budget_dollars=10.0, default_model=MODEL)],
                store=store,
            )
            client = ServiceClient(ServiceApp(registry), api_key="k")
            loop.run_until_complete(client.lifespan_startup())
            try:
                loop.run_until_complete(one_job(client))
            finally:
                loop.run_until_complete(client.lifespan_shutdown())

    try:
        assert unreachable_after(scenario) == {}
    finally:
        loop.close()


def test_the_weaker_form_no_session_span_or_response_waits_for_the_collector():
    """Pins the strategy table alone: whatever else may one day close a small
    cycle, a dropped run's session, spans and responses must not ride on it."""

    def scenario() -> None:
        Dataset(RECORDS, name="kettles").filter(NOT_COG, strategy="per_item").sort(
            CAPACITY, strategy="pairwise"
        ).run(_engine())

    left = unreachable_after(scenario)
    assert not {"PromptSession", "Span", "LLMResponse", "Usage"} & set(left), left


class _Echo(BaseOperator):
    """Registers one runner of each kind a strategy table can be handed."""

    operation = "echo"

    def _register_strategies(self) -> None:
        self.helper = _Helper()
        self.register_strategy(
            "own", self._own, description="a method of this operator", granularity="coarse"
        )
        self.register_strategy("function", lambda items: ("function", items))
        self.register_strategy("foreign", self.helper.run)

    def _own(self, items: list[str]) -> tuple[object, list[str]]:
        return self, items


class _Helper:
    def run(self, items: list[str]) -> tuple[object, list[str]]:
        return self, items


def test_a_registered_bound_method_still_dispatches_and_the_table_reads_as_before():
    operator = _Echo(SimulatedLLM(Oracle(), seed=0))
    assert operator.strategies == ["foreign", "function", "own"]
    assert operator.strategy_info("own") == StrategyInfo("own", "a method of this operator", "coarse")
    assert operator.strategy_info("function") == StrategyInfo("function", "", "fine")
    assert operator._strategy("own")(["x"]) == (operator, ["x"])
    assert operator._strategy("function")(["x"]) == ("function", ["x"])
    assert operator._strategy("foreign")(["x"]) == (operator.helper, ["x"])
    with pytest.raises(UnknownStrategyError, match="'echo'"):
        operator._strategy("missing")
    with pytest.raises(UnknownStrategyError, match="'echo'"):
        operator.strategy_info("missing")

    with collector_off():
        gone = weakref.ref(_Echo(SimulatedLLM(Oracle(), seed=0)))
        assert gone() is None  # no cycle through its own table keeps it
