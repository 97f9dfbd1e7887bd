"""Case study: asyncio-native execution with a rate-limited governor.

Run with:  python examples/async_pipeline.py

Against a real API every unit task is a network round-trip.  A thread pool
overlaps round-trips by paying one blocked OS thread per in-flight call; the
:class:`~repro.core.executor.AsyncBatchExecutor` awaits the same calls on a
single event loop instead: concurrency 64 costs 64 pending awaits, not 64
threads.

This example builds a simulated backend whose ``acomplete`` awaits a 20 ms
latency, then

1. saturates it through the thread executor and the async executor at the
   same width (64) and compares the wall-clock: at equal width they finish
   together, so the choice is about threads held, not speed,
2. re-runs the fan-out with the backend behind a
   :class:`~repro.core.BackendGate` whose
   :class:`~repro.core.ConcurrencyGovernor` has an RPM quota, showing
   dispatch pacing out at the configured rate.

Pipelines run on the thread executor only: ``engine.run_pipeline(spec)``.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro import SimulatedLLM
from repro.core import BackendGate, ConcurrencyGovernor
from repro.core.executor import AsyncBatchExecutor, BatchExecutor
from repro.data.flavors import FLAVORS, flavor_oracle

LATENCY_SECONDS = 0.02  # pretend each unit task is a 20 ms API round-trip
CALLS = 192
WIDTH = 64


class AsyncLatencyClient:
    """Simulated backend with a native async path.

    The sync path blocks a worker thread per call; the async path awaits the
    same latency on the event loop.  Both answer through the same seeded
    simulator, so results are identical either way.
    """

    def __init__(self) -> None:
        self._inner = SimulatedLLM(flavor_oracle(), seed=7)
        self.default_model = self._inner.default_model

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        time.sleep(LATENCY_SECONDS)
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )

    async def acomplete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        await asyncio.sleep(LATENCY_SECONDS)
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


def saturate() -> None:
    prompts = [f"Rate how chocolatey '{flavor}' is (task {i})." for i, flavor in
               enumerate(FLAVORS * (CALLS // len(FLAVORS)))]

    thread_executor = BatchExecutor(AsyncLatencyClient(), max_concurrency=WIDTH)
    started = time.perf_counter()
    thread_responses = thread_executor.run(prompts)
    thread_elapsed = time.perf_counter() - started

    async_executor = AsyncBatchExecutor(AsyncLatencyClient(), max_concurrency=WIDTH)
    started = time.perf_counter()
    async_responses = asyncio.run(async_executor.run(prompts))
    async_elapsed = time.perf_counter() - started

    assert [r.text for r in async_responses] == [r.text for r in thread_responses]
    print(f"{CALLS} unit tasks, {LATENCY_SECONDS * 1000:.0f} ms latency each, {WIDTH} in flight")
    print(f"  thread executor: {thread_elapsed:6.2f}s")
    print(f"  async executor:  {async_elapsed:6.2f}s "
          f"({threading.active_count()} thread(s) alive after it)")


def governed_fanout() -> None:
    # An RPM quota paces dispatch no matter how wide the fan-out is.  1200
    # requests/minute = 20/s with burst 1, so 48 calls take ~2.4s of pacing
    # even though the latency alone would finish in well under a second at
    # concurrency 64.  The gate admits every call that reaches the backend;
    # a session puts one below its response cache.
    governor = ConcurrencyGovernor(rpm=1200, burst=1, max_in_flight=32)
    executor = AsyncBatchExecutor(BackendGate(AsyncLatencyClient(), governor), max_concurrency=WIDTH)
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
