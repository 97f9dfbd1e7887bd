"""Case study: batched concurrent execution of a pairwise sort.

Run with:  python examples/batched_sort.py

Every fine-grained strategy is a bag of independent unit tasks — here, the 190
pairwise comparisons behind a 20-item sort.  Passing ``max_concurrency`` to an
operator (or to ``DeclarativeEngine``/``PromptSession``) fans those unit tasks
out, that many in flight (threads join in when calls wait); at temperature 0
the results are identical to sequential execution, only the wall-clock changes.

Against the in-process simulator there is no latency to hide, so this example
wraps the client with a small artificial per-call delay to stand in for API
round-trips, then shows the sequential and concurrent runs producing the same
order while the concurrent one finishes ~4x sooner.
"""

from __future__ import annotations

import time

from repro import SimulatedLLM
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.metrics import kendall_tau_b
from repro.operators import SortOperator

LATENCY_SECONDS = 0.005  # pretend each unit task is a 5 ms API round-trip


class LatencyClient:
    """Adds a fixed delay per call, like a network round-trip would."""

    def __init__(self, inner, latency: float) -> None:
        self._inner = inner
        self._latency = latency
        self.default_model = getattr(inner, "default_model", "default")

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        time.sleep(self._latency)
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


def run_once(max_concurrency: int):
    operator = SortOperator(
        LatencyClient(SimulatedLLM(flavor_oracle(), seed=42), LATENCY_SECONDS),
        CHOCOLATEY,
        model="sim-gpt-3.5-turbo",
        max_concurrency=max_concurrency,
    )
    started = time.perf_counter()
    result = operator.run(list(FLAVORS), strategy="pairwise")
    elapsed = time.perf_counter() - started
    return result, elapsed


def main() -> None:
    sequential, sequential_elapsed = run_once(max_concurrency=1)
    concurrent, concurrent_elapsed = run_once(max_concurrency=4)

    print("Pairwise sort of 20 flavors (190 unit tasks, 5 ms simulated latency):")
    print(f"  sequential        : {sequential_elapsed:.2f}s, {sequential.usage.calls} calls")
    print(f"  max_concurrency=4 : {concurrent_elapsed:.2f}s, {concurrent.usage.calls} calls")
    print(f"  speedup           : {sequential_elapsed / concurrent_elapsed:.1f}x")
    print(f"  identical results : {concurrent.order == sequential.order}")
    print(f"  kendall tau-b     : {kendall_tau_b(concurrent.order, list(FLAVORS)):.3f}")


if __name__ == "__main__":
    main()
