"""Case study: asyncio-native execution with a rate-limited governor.

Run with:  python examples/async_pipeline.py

Against a real API every unit task is a network round-trip, and the classic
way to overlap round-trips — a thread pool — pays one blocked OS thread per
in-flight call.  The :class:`~repro.core.executor.AsyncBatchExecutor` awaits
the same calls on a single event loop instead: concurrency 64 costs 64
pending awaits, not 64 threads.

This example builds a simulated backend whose ``acomplete`` awaits a 20 ms
latency, then

1. saturates it through the async executor at concurrency 64 and compares
   the wall-clock against the thread-pool path at its default pool size,
2. re-runs the fan-out with the backend behind a
   :class:`~repro.core.BackendGate` whose
   :class:`~repro.core.ConcurrencyGovernor` has an RPM quota, showing
   dispatch pacing out at the configured rate,
3. awaits a two-branch DAG pipeline on the asyncio scheduler
   (``asyncio.run(engine.run_pipeline_async(spec))``) and checks it
   produces the same report as ``engine.run_pipeline(spec)``.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro import DeclarativeEngine, SimulatedLLM
from repro.core import BackendGate, ConcurrencyGovernor
from repro.core.executor import DEFAULT_POOL_SIZE, AsyncBatchExecutor, BatchExecutor
from repro.core.spec import PipelineSpec, PipelineStep, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle

LATENCY_SECONDS = 0.02  # pretend each unit task is a 20 ms API round-trip
CALLS = 192
MODEL = "sim-gpt-3.5-turbo"


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

    thread_executor = BatchExecutor(AsyncLatencyClient(), max_concurrency=DEFAULT_POOL_SIZE)
    started = time.perf_counter()
    thread_responses = thread_executor.run(prompts)
    thread_elapsed = time.perf_counter() - started

    async_executor = AsyncBatchExecutor(AsyncLatencyClient(), max_concurrency=64)
    started = time.perf_counter()
    async_responses = asyncio.run(async_executor.run(prompts))
    async_elapsed = time.perf_counter() - started

    assert [r.text for r in async_responses] == [r.text for r in thread_responses]
    print(f"{CALLS} unit tasks, {LATENCY_SECONDS * 1000:.0f} ms latency each")
    print(f"  thread pool (x{DEFAULT_POOL_SIZE}):  {thread_elapsed:6.2f}s")
    print(f"  async loop  (x64): {async_elapsed:6.2f}s "
          f"({thread_elapsed / async_elapsed:.1f}x faster, "
          f"{threading.active_count()} thread(s) alive)")


def governed_fanout() -> None:
    # An RPM quota paces dispatch no matter how wide the fan-out is.  1200
    # requests/minute = 20/s with burst 1, so 48 calls take ~2.4s of pacing
    # even though the latency alone would finish in well under a second at
    # concurrency 64.  The gate admits every call that reaches the backend;
    # a session puts one below its response cache.
    governor = ConcurrencyGovernor(rpm=1200, burst=1, max_in_flight=32)
    executor = AsyncBatchExecutor(BackendGate(AsyncLatencyClient(), governor), max_concurrency=64)
    prompts = [f"governed task {i}" for i in range(48)]
    started = time.perf_counter()
    asyncio.run(executor.run(prompts))
    elapsed = time.perf_counter() - started
    rate = governor.stats.admitted / elapsed * 60.0
    print(f"\ngoverned fan-out: {governor.stats.admitted} calls in {elapsed:.2f}s "
          f"= {rate:.0f} requests/minute (quota 1200)")
    print(f"  throttled {governor.stats.throttled} dispatches, "
          f"peak in-flight {governor.stats.max_in_flight}")


def _merge(session, inputs):
    return list(inputs["left"].order) + list(inputs["right"].order)


def async_pipeline() -> None:
    pipeline = PipelineSpec(
        name="two-branch",
        steps=[
            PipelineStep("left", task=SortSpec(
                items=list(FLAVORS[:8]), criterion=CHOCOLATEY, strategy="rating")),
            PipelineStep("right", task=SortSpec(
                items=list(FLAVORS[8:16]), criterion=CHOCOLATEY, strategy="rating")),
            PipelineStep("merge", run=_merge, depends_on=("left", "right")),
        ],
    )

    def engine() -> DeclarativeEngine:
        return DeclarativeEngine(
            SimulatedLLM(flavor_oracle(), seed=21), default_model=MODEL, max_concurrency=4
        )

    thread_report = engine().run_pipeline(pipeline)
    async_report = asyncio.run(engine().run_pipeline_async(pipeline))
    assert async_report.results["merge"] == thread_report.results["merge"]
    assert async_report.total_calls == thread_report.total_calls
    print("\nDAG pipeline, run_pipeline_async vs run_pipeline:")
    print(f"  identical merge order ({len(async_report.results['merge'])} items), "
          f"identical call count ({async_report.total_calls})")
    print(f"  step order: {' -> '.join(async_report.step_order)}")


if __name__ == "__main__":
    saturate()
    governed_fanout()
    async_pipeline()
