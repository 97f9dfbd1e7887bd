"""The awaitable executor is one thread hop into :meth:`BatchExecutor.run`.

:class:`~repro.core.executor.AsyncBatchExecutor.run` sends the bag to a worker
thread with ``asyncio.to_thread``: the event loop keeps running while the
bag's calls wait, the responses are ``BatchExecutor.run``'s, and the caller's
context (trace labels, the open span, the charge target) reaches every call.
No test here reads a clock: a call that waits is held on a
:class:`threading.Event` that only a coroutine on the loop can set, and every
wait gives up after ``PATIENCE`` seconds.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.budget import Budget
from repro.core.executor import AsyncBatchExecutor, BatchExecutor, BatchRequest
from repro.core.session import PromptSession
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.llm.faulty import FaultyLLM
from repro.obs import trace_label
from tests.doubles import (
    CountingClient,
    EchoClient,
    LatencyClient,
    rating_prompts,
    simulated_client,
)

MODEL = "sim-gpt-3.5-turbo"
PATIENCE = 5.0


class Held:
    """The simulator, except that each call waits until ``released`` is set.

    ``waiting`` is set once a call is blocked; ``threads`` are the threads
    the calls ran on.
    """

    default_model = MODEL
    waits = True

    def __init__(self) -> None:
        self._inner = simulated_client()
        self.waiting = threading.Event()
        self.released = threading.Event()
        self.threads: set[int] = set()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        self.threads.add(threading.get_ident())
        self.waiting.set()
        if not self.released.wait(PATIENCE):
            raise TimeoutError("nothing on the event loop released the call")
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


async def until(event: threading.Event) -> None:
    """Yield to the loop until ``event`` is set (no timed sleep)."""
    while not event.is_set():
        await asyncio.sleep(0)


def test_the_bag_runs_off_the_loop_thread_while_the_loop_keeps_running():
    client = Held()
    prompts = rating_prompts(6)

    async def main() -> tuple[int, list]:
        bag = asyncio.create_task(AsyncBatchExecutor(client, max_concurrency=1).run(prompts))
        await until(client.waiting)  # a call is blocked in the backend ...
        client.released.set()  # ... and a coroutine on the loop lets it go
        return threading.get_ident(), await bag

    loop_thread, responses = asyncio.run(asyncio.wait_for(main(), PATIENCE))
    assert loop_thread not in client.threads and len(client.threads) == 1
    assert [r.text for r in responses] == [
        r.text for r in simulated_client().complete_batch(prompts, model=MODEL)
    ]


@pytest.mark.parametrize("width", [1, 8])
def test_responses_equal_batch_executor_runs(width):
    prompts = rating_prompts(40)
    prompts += prompts[:5]
    requests = prompts + [BatchRequest(prompts[0], temperature=0.7)]

    def shown(responses: list) -> list[tuple]:
        return [(r.text, r.model, r.usage, r.finish_reason, r.metadata) for r in responses]

    expected = BatchExecutor(simulated_client(), max_concurrency=width).run(requests)
    hopped = AsyncBatchExecutor(simulated_client(), max_concurrency=width).run(requests)
    assert shown(asyncio.run(hopped)) == shown(expected)


@pytest.mark.parametrize("size", [1, 2, 7, 64])
def test_every_bag_size_comes_back_as_batch_executor_returns_it(size):
    prompts = rating_prompts(size)
    expected = BatchExecutor(simulated_client(), max_concurrency=4).run(prompts)
    hopped = asyncio.run(AsyncBatchExecutor(simulated_client(), max_concurrency=4).run(prompts))
    assert [(r.text, r.usage) for r in hopped] == [(r.text, r.usage) for r in expected]


def test_a_trace_label_set_around_the_await_reaches_the_call_spans():
    session = PromptSession(simulated_client())
    prompts = rating_prompts(12)

    async def main() -> int:
        with session.spans.span("step", "screen") as step, trace_label(
            step="screen", operator="sort:rating"
        ):
            await session.async_batch_executor(max_concurrency=8).run(prompts)
        return step.span_id

    step_id = asyncio.run(main())
    records = session.spans.records()
    assert sorted(r.prompt for r in records) == sorted(prompts)
    assert {(r.step, r.operator) for r in records} == {("screen", "sort:rating")}
    calls = [span for span in session.spans.subtree(step_id) if span.kind == "call"]
    assert len(calls) == len(prompts)


def test_the_lease_is_charged_and_a_spent_one_raises_out_of_the_await():
    backend = CountingClient(simulated_client())
    session = PromptSession(backend, budget=Budget(limit=100.0))
    lease = session.budget.lease(10.0)
    asyncio.run(session.async_batch_executor(budget=lease).run(rating_prompts(8)))
    assert backend.calls == 8
    assert lease.spent == session.budget.spent > 0

    spent = session.budget.lease(0.001)
    spent.charge(0.001)
    with pytest.raises(BudgetExceededError):
        asyncio.run(session.async_batch_executor(budget=spent).run(rating_prompts(16)[8:]))
    assert backend.calls == 8


def test_the_earliest_failed_request_is_the_one_raised():
    booms = {prompt: ValueError(prompt) for prompt in ("boom-1", "boom-2")}
    executor = AsyncBatchExecutor(FaultyLLM(CountingClient(), booms), max_concurrency=4)
    with pytest.raises(ValueError, match="boom-1"):
        asyncio.run(executor.run(["ok-0", "boom-1", "boom-2", "ok-3"]))


def test_a_budget_stops_a_sequential_bag_midway():
    budget = Budget(limit=1.0)
    client = EchoClient(budget=budget, charge=0.4)
    executor = AsyncBatchExecutor(client, max_concurrency=1, budget=budget)
    with pytest.raises(BudgetExceededError):
        asyncio.run(executor.run([f"p{i}" for i in range(10)]))
    # 0.4 + 0.4 fit, the third charge exceeds, the rest never go out.
    assert client.calls == 3


def test_a_failure_stops_the_queued_requests_going_out():
    client = FaultyLLM(EchoClient(), {"boom": ValueError("boom")})
    executor = AsyncBatchExecutor(client, max_concurrency=2)
    with pytest.raises(ValueError):
        asyncio.run(executor.run(["boom"] + [f"queued-{i}" for i in range(40)]))
    assert client.calls < 10


def test_a_cancelled_await_leaves_the_bag_to_finish_and_be_booked():
    client = Held()
    session = PromptSession(client)
    prompts = rating_prompts(5)

    async def main() -> None:
        bag = asyncio.create_task(session.async_batch_executor().run(prompts))
        await until(client.waiting)
        bag.cancel()
        with pytest.raises(asyncio.CancelledError):
            await bag
        client.released.set()

    asyncio.run(main())  # its shutdown joins the worker thread
    assert session.tracker.usage.calls == len(prompts)
    assert len(session.spans.records()) == len(prompts)


def test_width_is_bounded_and_defaults_to_sixteen():
    client = LatencyClient(simulated_client())
    asyncio.run(AsyncBatchExecutor(client, max_concurrency=3).run(rating_prompts(24)))
    assert 1 <= client.peak_in_flight <= 3
    assert AsyncBatchExecutor(client).max_concurrency == 16
    assert not hasattr(AsyncBatchExecutor, "map")
    with pytest.raises(ConfigurationError):
        AsyncBatchExecutor(client, max_concurrency=0)
