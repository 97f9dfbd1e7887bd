"""A bag settles once, however it is dispatched.

A session charges every call as it settles and owes it one record (span,
metrics, runtime stats); inside an executor's ``run`` the records are handed
over in runs, at the bag's end at the latest.  What a run leaves behind must
not depend on how it was dispatched — and a bag that ends early (a failing
call, a spent budget, Ctrl-C) must leave ring, metrics and budget agreeing
with the calls that reached the backend.
"""

from __future__ import annotations

import asyncio
import contextvars
import sys
import threading

import pytest

from repro.core import executor as executor_module
from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.executor import OPEN_BAG
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec, PipelineStep, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import BudgetExceededError
from repro.llm.simulated import SimulatedLLM
from repro.trace import trace_label
from tests.doubles import (
    DRIVERS,
    FlakyClient,
    LatencyClient,
    call,
    executor_for,
    rating_prompts,
    simulated_client,
    yes_no_validator,
)

MODEL = "sim-gpt-3.5-turbo"
WIDTH = 8
STEP, OPERATOR = "screen", "sort:rating"
#: The drivers that fan a bag of width 8 out (``sync`` at width 8 is ``threads``).
FANNED_OUT = ("threads", "async")


def width_of(driver: str) -> int:
    """``sync`` one by one (an enforced budget rules the native batch out)."""
    return 1 if driver == "sync" else WIDTH


@pytest.fixture
def never_stalls(monkeypatch):
    """Calls that do not wait: the dispatching thread runs the bag, in order."""
    monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)


@pytest.fixture
def short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_bag(session: PromptSession, driver: str, width: int, prompts, **executor_kwargs):
    """One labelled bag through ``session``: its step span and the responses."""
    with session.spans.span("step", STEP) as step, trace_label(step=STEP, operator=OPERATOR):
        executor = executor_for(driver, session.client(), concurrency=width, **executor_kwargs)
        return step, call(executor, "run", prompts)


def record_key(record) -> tuple:
    """A record without what dispatch may change: its id and its duration."""
    return (
        record.step, record.operator, record.model, record.temperature, record.prompt,
        record.response_text, record.prompt_tokens, record.completion_tokens,
        round(record.cost, 12), record.cache_hit, record.attempt, record.parse_ok,
        record.error, record.finish_reason, record.confidence,
    )  # fmt: skip


def left_behind(session: PromptSession, step) -> dict:
    """Everything a bag leaves in the session, dispatch-dependent parts removed."""
    series = session.metrics.snapshot()
    calls = [span for span in session.spans.spans() if span.kind == "call"]
    usage = session.tracker.usage
    return {
        "records": sorted(record_key(record) for record in session.tracer.records()),
        "parents": {span.parent_id == step.span_id for span in calls},
        "labels": {(span.attributes["step"], span.attributes["operator"]) for span in calls},
        "calls_total": series["repro_llm_calls_total"],
        "errors_total": series.get("repro_llm_call_errors_total", {}),
        "duration_count": series["repro_call_duration_seconds"]['_count{tenant=""}'],
        "cost_total": round(series["repro_llm_cost_dollars_total"]['{tenant=""}'], 12),
        "budget_gauge": round(series["repro_budget_spent_dollars"]['{tenant=""}'], 12),
        "cache_hit_rate": session.stats.cache_hit_rate(),
        "latency_samples": session.stats.snapshot()["latency_samples"],
        "tracker": (usage.prompt_tokens, usage.completion_tokens, usage.calls),
        "spent": round(session.budget.spent, 12),
    }


class TestEquivalence:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_dispatch_does_not_change_what_a_bag_leaves_behind(
        self, driver, short_switch_interval
    ):
        # Distinct prompts plus repeats of the first few: the repeats are
        # cache hits whichever way the bag is dispatched.
        prompts = rating_prompts(40)
        prompts += prompts[:5]
        reference = PromptSession(simulated_client())
        step, _ = run_bag(reference, "sync", 1, prompts)
        expected = left_behind(reference, step)
        assert expected["parents"] == {True}
        assert expected["labels"] == {(STEP, OPERATOR)}
        assert expected["duration_count"] == expected["tracker"][2] + 5 == len(prompts)
        assert expected["latency_samples"] == {OPERATOR: len(prompts)}
        assert expected["cache_hit_rate"] == pytest.approx(5 / len(prompts))

        for width, client in (
            (1, simulated_client()),
            (WIDTH, simulated_client()),
            (WIDTH, LatencyClient(simulated_client())),
        ):
            session = PromptSession(client)
            step, responses = run_bag(session, driver, width, prompts)
            assert left_behind(session, step) == expected
            # Every response knows its record once ``run`` has returned.
            records = {record.call_id: record for record in session.tracer.records()}
            ids = [response.metadata["trace_call_id"] for response in responses]
            assert len(set(ids)) == len(prompts)
            for prompt, response, call_id in zip(prompts, responses, ids):
                assert records[call_id].prompt == prompt
                assert records[call_id].response_text == response.text

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_operators_of_one_wave_record_under_their_own_step(self, asynchronous):
        engine = DeclarativeEngine(
            SimulatedLLM(flavor_oracle(), seed=21), default_model=MODEL, max_concurrency=4
        )
        halves = {"left": list(FLAVORS[:8]), "right": list(FLAVORS[8:14])}
        spec = PipelineSpec(
            name="wave",
            steps=[
                PipelineStep(
                    name, task=SortSpec(items=items, criterion=CHOCOLATEY, strategy="rating")
                )
                for name, items in halves.items()
            ],
        )
        if asynchronous:
            report = asyncio.run(engine.run_pipeline_async(spec))
        else:
            report = engine.run_pipeline(spec)
        steps = {span.label: span for span in report.spans if span.kind == "step"}
        assert set(steps) == set(halves)
        for name, items in halves.items():
            subtree = engine.session.spans.subtree(steps[name].span_id)
            calls = [span for span in subtree if span.kind == "call"]
            assert len(calls) == len(items)
            assert {span.attributes["step"] for span in calls} == {name}
            assert all(any(item in span.attributes["prompt"] for item in items) for span in calls)
        assert len(engine.session.tracer.records()) == sum(map(len, halves.values()))


class Scripted:
    """Answers instantly; the ``trip``-th call to start (0-based) runs ``action`` first.

    ``acomplete`` answers inline, so the asyncio executor too makes the calls
    of a bag one after the other, in order.
    """

    default_model = MODEL

    def __init__(self, trip: int | None = None, action=None) -> None:
        self._inner = simulated_client()
        self.trip = trip
        self.action = action
        self.started = 0
        self.reached = 0  # calls that came back from the backend
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            tripped = self.started == self.trip
            self.started += 1
        if tripped:
            self.action()
        response = self._inner.complete(
            prompt, model=model or MODEL, temperature=temperature, max_tokens=max_tokens
        )
        with self._lock:
            self.reached += 1
        return response

    async def acomplete(self, prompt, **params):
        return self.complete(prompt, **params)


def assert_books_agree(session: PromptSession, reached: int, *, errors: int = 0) -> None:
    """Ring, metrics, stats and budget all tell of the ``reached`` calls paid for."""
    records = session.tracer.records()
    settled = [record for record in records if record.error is None]
    series = session.metrics.snapshot()
    assert len(settled) == reached == session.tracker.usage.calls
    assert len(records) == reached + errors
    assert sum(record.cost for record in settled) == pytest.approx(session.budget.spent)
    assert sum(series["repro_llm_calls_total"].values()) == reached
    assert series["repro_call_duration_seconds"]['_count{tenant=""}'] == reached
    assert series["repro_llm_cost_dollars_total"]['{tenant=""}'] == pytest.approx(
        session.budget.spent
    )
    assert series["repro_budget_spent_dollars"]['{tenant=""}'] == session.budget.spent
    assert sum(series.get("repro_llm_call_errors_total", {}).values()) == errors
    assert session.stats.snapshot()["latency_samples"] == {OPERATOR: reached + errors}


class TestABagThatEndsEarly:
    @pytest.mark.parametrize("driver", FANNED_OUT)
    def test_a_failing_call_is_recorded_after_the_calls_settled_before_it(
        self, driver, never_stalls
    ):
        def fail():
            raise ConnectionError("backend down")

        client = Scripted(6, fail)
        session = PromptSession(client, use_cache=False)
        with pytest.raises(ConnectionError):
            run_bag(session, driver, WIDTH, rating_prompts(20))
        records = session.tracer.records()
        assert [record.error for record in records[:7]] == [None] * 6 + ["ConnectionError"]
        assert_books_agree(session, client.reached, errors=1)
        assert session.metrics.snapshot()["repro_llm_call_errors_total"] == {
            '{tenant="",error="ConnectionError"}': 1
        }

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_a_budget_that_runs_out_mid_bag(self, driver, never_stalls):
        prompts = rating_prompts(30)
        probe = PromptSession(simulated_client())
        probe.complete_batch(prompts[:10], model=MODEL)
        client = Scripted()
        session = PromptSession(client, budget=Budget(limit=probe.budget.spent * 0.95))
        with pytest.raises(BudgetExceededError):
            run_bag(session, driver, width_of(driver), prompts, budget=session.budget)
        assert 0 < client.reached < len(prompts)
        assert session.budget.spent >= session.budget.limit  # the breaching charge counts
        assert_books_agree(session, client.reached)

    @pytest.mark.parametrize("driver", FANNED_OUT)
    def test_ctrl_c_inside_a_unit(self, driver, never_stalls):
        def interrupt():
            raise KeyboardInterrupt

        client = Scripted(9, interrupt)
        session = PromptSession(client, use_cache=False)
        with pytest.raises(KeyboardInterrupt):
            run_bag(session, driver, WIDTH, rating_prompts(20))
        assert client.reached == 9
        assert_books_agree(session, client.reached)


class TestTheScope:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_a_long_bag_is_visible_in_the_ring_before_it_ends(self, driver, never_stalls):
        seen: list[int] = []

        class Watching(Scripted):
            def complete(inner, prompt, **params):
                seen.append(len(session.tracer))
                return super().complete(prompt, **params)

        session = PromptSession(Watching(), use_cache=False, budget=Budget(limit=1000.0))
        session.spans.flush_every = bound = 8
        run_bag(session, driver, width_of(driver), rating_prompts(30), budget=session.budget)
        # Handed over a run at a time: never more than one run is owed ...
        assert set(seen) == {0, 8, 16, 24}
        assert all(recorded > made - bound for made, recorded in enumerate(seen))
        # ... and the rest at the bag's end.
        assert len(session.tracer) == 30

    def test_outside_a_bag_a_call_is_recorded_when_it_returns(self):
        session = PromptSession(simulated_client())
        prompts = rating_prompts(5)
        first = session.complete(prompts[0], model=MODEL)
        assert [r.call_id for r in session.tracer.records()] == [first.metadata["trace_call_id"]]
        batch = session.complete_batch(prompts, model=MODEL)  # its first prompt: a cache hit
        assert [r.call_id for r in session.tracer.records()][1:] == [
            response.metadata["trace_call_id"] for response in batch
        ]
        series = session.metrics.snapshot()
        assert series["repro_llm_calls_total"] == {
            '{tenant="",cache="hit"}': 1,
            '{tenant="",cache="miss"}': 5,
        }
        assert series["repro_call_duration_seconds"]['_count{tenant=""}'] == 6
        assert session.stats.cache_hit_rate() == pytest.approx(1 / 6)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_a_context_that_outlives_its_bag_still_records(self, driver):
        kept: list[contextvars.Context] = []

        class Keeping(Scripted):
            def complete(inner, prompt, **params):
                kept.append(contextvars.copy_context())
                return super().complete(prompt, **params)

        session = PromptSession(Keeping(), use_cache=False)
        run_bag(session, driver, WIDTH, rating_prompts(3))
        assert kept[-1].get(OPEN_BAG) is not None and OPEN_BAG.get() is None
        late = kept[-1].run(session.complete, "one more?", model=MODEL)
        assert late.metadata["trace_call_id"] == session.tracer.records()[-1].call_id
        assert len(session.tracer) == 4

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_under_a_validator_every_attempt_is_amended_as_it_returns(self, driver):
        bags: list[object] = []

        class Flaky(FlakyClient):
            def complete(inner, prompt, **params):
                bags.append(OPEN_BAG.get())
                return super().complete(prompt, **params)

        session = PromptSession(Flaky(bad_attempts=2), use_cache=False)
        step, responses = run_bag(
            session, driver, 1, ["a?", "b?"], validator=yes_no_validator, max_retries=2
        )
        assert bags == [None] * 4  # no bag: the retry wrapper needs each span at once
        attempts: dict[str, list[tuple[int, bool]]] = {}
        for record in session.tracer.records():
            attempts.setdefault(record.prompt, []).append((record.attempt, record.parse_ok))
        assert sum(map(len, attempts.values())) == 4
        for stamped in attempts.values():  # attempt 0, 1, ...: rejected until the last
            assert stamped == [(n, n == len(stamped) - 1) for n in range(len(stamped))]
        assert all(span.parent_id == step.span_id for span in session.spans.spans()[1:])
        assert [response.text for response in responses] == ["Yes.", "Yes."]
