"""Case study: awaiting a bag from an event loop, and a rate-limited governor.

Run with:  python examples/async_pipeline.py

Against a real API every unit task is a network round-trip.  The
:class:`~repro.core.executor.BatchExecutor` overlaps round-trips on threads
(one blocked OS thread per call in flight); a caller on an event loop awaits
:class:`~repro.core.executor.AsyncBatchExecutor`'s ``run``, which is the same
bag sent to a worker thread in one ``asyncio.to_thread`` hop, so the loop
keeps serving its other tasks meanwhile.

This example builds a simulated backend whose ``complete`` waits 20 ms, then

1. saturates it through ``BatchExecutor.run`` and through ``await
   AsyncBatchExecutor.run`` inside ``asyncio.run`` at the same width (64):
   the responses are equal, they finish together, and a ticker task on the
   loop kept running while the bag was away,
2. re-runs the awaited fan-out with the backend behind a
   :class:`~repro.core.BackendGate` whose
   :class:`~repro.core.ConcurrencyGovernor` has an RPM quota, showing
   dispatch pacing out at the configured rate.

Pipelines run on the thread executor: ``engine.run_pipeline(spec)``.
"""

from __future__ import annotations

import asyncio
import time

from repro import SimulatedLLM
from repro.core import BackendGate, ConcurrencyGovernor
from repro.core.executor import AsyncBatchExecutor, BatchExecutor
from repro.data.flavors import FLAVORS, flavor_oracle
from repro.llm.faulty import FaultyLLM

LATENCY_SECONDS = 0.02  # pretend each unit task is a 20 ms API round-trip
CALLS = 192
WIDTH = 64


def latency_client() -> FaultyLLM:
    """Simulated backend that blocks its calling thread for the round-trip.

    Every answer comes from the same seeded simulator, so results are
    identical whichever executor sends the call.
    """
    return FaultyLLM(SimulatedLLM(flavor_oracle(), seed=7), delay=LATENCY_SECONDS)


async def awaited_with_a_ticker(prompts: list[str]) -> tuple[list, int]:
    """The bag awaited through the hop, and how often a loop task ran meanwhile."""
    ticks = 0
    done = asyncio.Event()

    async def ticker() -> None:
        nonlocal ticks
        while not done.is_set():
            ticks += 1
            await asyncio.sleep(0.005)

    ticking = asyncio.create_task(ticker())
    responses = await AsyncBatchExecutor(latency_client(), max_concurrency=WIDTH).run(prompts)
    done.set()
    await ticking
    return responses, ticks


def saturate() -> None:
    prompts = [f"Rate how chocolatey '{flavor}' is (task {i})." for i, flavor in
               enumerate(FLAVORS * (CALLS // len(FLAVORS)))]

    started = time.perf_counter()
    thread_responses = BatchExecutor(latency_client(), max_concurrency=WIDTH).run(prompts)
    thread_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    async_responses, ticks = asyncio.run(awaited_with_a_ticker(prompts))
    async_elapsed = time.perf_counter() - started

    assert [r.text for r in async_responses] == [r.text for r in thread_responses]
    assert ticks > 1, "the event loop was blocked while the bag ran"
    print(f"{CALLS} unit tasks, {LATENCY_SECONDS * 1000:.0f} ms latency each, {WIDTH} in flight")
    print(f"  BatchExecutor.run:             {thread_elapsed:6.2f}s")
    print(f"  await AsyncBatchExecutor.run:  {async_elapsed:6.2f}s "
          f"(a loop task ticked {ticks} times meanwhile)")


def governed_fanout() -> None:
    # An RPM quota paces dispatch no matter how wide the fan-out is.  1200
    # requests/minute = 20/s with burst 1, so 48 calls take ~2.4s of pacing
    # even though the latency alone would finish in well under a second at
    # concurrency 64.  The gate admits every call that reaches the backend;
    # a session puts one below its response cache.
    governor = ConcurrencyGovernor(rpm=1200, burst=1, max_in_flight=32)
    executor = AsyncBatchExecutor(BackendGate(latency_client(), governor), max_concurrency=WIDTH)
    prompts = [f"governed task {i}" for i in range(48)]
    started = time.perf_counter()
    asyncio.run(executor.run(prompts))
    elapsed = time.perf_counter() - started
    rate = governor.stats.admitted / elapsed * 60.0
    print(f"\ngoverned fan-out: {governor.stats.admitted} calls in {elapsed:.2f}s "
          f"= {rate:.0f} requests/minute (quota 1200)")
    print(f"  throttled {governor.stats.throttled} dispatches, "
          f"peak in-flight {governor.stats.max_in_flight}")


if __name__ == "__main__":
    saturate()
    governed_fanout()
