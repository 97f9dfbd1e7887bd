"""Tests for the asyncio-native execution path (`repro.core.executor`).

Batteries:

* **Parity** — :class:`AsyncBatchExecutor.run` is element-wise identical to
  :class:`BatchExecutor.run` at temperature 0, for native-async and
  sync-only (thread-bridged) clients alike, across batch sizes and
  concurrencies.
* **Semantics** — ordered results, budget pre-checks, first-failure
  cancellation with deterministic propagation, duplicate-prompt dedup ahead
  of the cache.
* **Governor** — the shared admission point bounds async in-flight dispatch
  and is obeyed by the async sequential path.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.budget import Budget
from repro.core.executor import (
    DEFAULT_POOL_SIZE,
    AsyncBatchExecutor,
    BatchExecutor,
    BatchRequest,
)
from repro.core.governor import BackendGate, ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.llm.cache import CachedClient
from tests.doubles import AsyncEchoClient, EchoClient
from tests.doubles import rating_prompts as _rating_prompts
from tests.doubles import simulated_client as _simulated_client

BATCH_SIZES = (1, 2, 7, 64)
CONCURRENCIES = (1, 4)


class TestAsyncExecutorBasics:
    def test_results_in_input_order(self):
        client = AsyncEchoClient(latency=0.001)
        executor = AsyncBatchExecutor(client, max_concurrency=8)
        prompts = [f"prompt-{index}" for index in range(20)]
        responses = asyncio.run(executor.run(prompts))
        assert [response.text for response in responses] == [f"echo:{p}" for p in prompts]
        assert client.calls == 20

    def test_empty_batch(self):
        executor = AsyncBatchExecutor(AsyncEchoClient())
        assert asyncio.run(executor.run([])) == []

    def test_plain_strings_promoted_to_requests(self):
        executor = AsyncBatchExecutor(EchoClient())
        responses = asyncio.run(
            executor.run(["a", BatchRequest(prompt="b", model="other")])
        )
        assert responses[0].model == "echo"
        assert responses[1].model == "other"

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncBatchExecutor(AsyncEchoClient(), max_concurrency=0)

    def test_concurrency_is_actually_bounded(self):
        client = AsyncEchoClient(latency=0.002)
        executor = AsyncBatchExecutor(client, max_concurrency=3)
        asyncio.run(executor.run([f"p{i}" for i in range(24)]))
        assert client.peak_in_flight <= 3

    def test_native_async_fan_out_needs_no_proportional_threads(self):
        """64 calls in flight are 64 pending awaits on one loop, not 64 threads."""

        class ThreadCensus(AsyncEchoClient):
            peak_threads = 0

            async def acomplete(self, prompt, **params):
                self.peak_threads = max(self.peak_threads, threading.active_count())
                return await super().acomplete(prompt, **params)

        client = ThreadCensus(latency=0.005)
        baseline = threading.active_count()
        prompts = [f"p{i}" for i in range(128)]
        responses = asyncio.run(AsyncBatchExecutor(client, max_concurrency=64).run(prompts))
        assert [r.text for r in responses] == [f"echo:{prompt}" for prompt in prompts]
        assert client.calls == 128 and client.peak_in_flight == 64
        assert client.peak_threads <= baseline + 4

    def test_sync_only_client_is_bridged(self):
        client = EchoClient()
        executor = AsyncBatchExecutor(client, max_concurrency=4)
        responses = asyncio.run(executor.run([f"p{i}" for i in range(9)]))
        assert client.calls == 9
        assert [r.text for r in responses] == [f"echo:p{i}" for i in range(9)]


class TestSyncAsyncParity:
    """async run == sync run, element-wise, at temperature 0."""

    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_simulated_client(self, size, concurrency):
        prompts = _rating_prompts(size)
        sync_responses = BatchExecutor(
            _simulated_client(), max_concurrency=concurrency
        ).run(prompts)
        async_executor = AsyncBatchExecutor(
            _simulated_client(), max_concurrency=concurrency
        )
        async_responses = asyncio.run(async_executor.run(prompts))
        assert [r.text for r in async_responses] == [r.text for r in sync_responses]
        assert [r.usage for r in async_responses] == [r.usage for r in sync_responses]

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_cached_client(self, concurrency):
        prompts = _rating_prompts(7) * 2  # repeats exercise the dedup + cache
        sync_client = CachedClient(_simulated_client())
        async_client = CachedClient(_simulated_client())
        sync_responses = BatchExecutor(sync_client, max_concurrency=concurrency).run(prompts)
        async_responses = asyncio.run(
            AsyncBatchExecutor(async_client, max_concurrency=concurrency).run(prompts)
        )
        assert [r.text for r in async_responses] == [r.text for r in sync_responses]
        assert async_client.cache.stats.misses == sync_client.cache.stats.misses


class TestAsyncBudget:
    def test_exhausted_budget_stops_before_any_dispatch(self):
        budget = Budget(limit=1.0)
        budget.charge(1.0)
        client = AsyncEchoClient()
        session = PromptSession(client, budget=budget)
        executor = AsyncBatchExecutor(session.client(), max_concurrency=4, budget=budget)
        with pytest.raises(BudgetExceededError):
            asyncio.run(executor.run([f"p{i}" for i in range(10)]))
        assert client.calls == 0

    def test_budget_stops_sequential_batch_midway(self):
        budget = Budget(limit=1.0)
        client = EchoClient(budget=budget, charge=0.4)
        executor = AsyncBatchExecutor(client, max_concurrency=1, budget=budget)
        with pytest.raises(BudgetExceededError):
            asyncio.run(executor.run([f"p{i}" for i in range(10)]))
        # 0.4 + 0.4 fit, the third charge exceeds, the rest never dispatch —
        # exactly like the sync sequential path.
        assert client.calls == 3


class TestAsyncFirstFailure:
    def test_deterministic_propagation_of_earliest_error(self):
        class FailingClient(AsyncEchoClient):
            async def acomplete(self, prompt, **kwargs):
                if prompt.startswith("boom"):
                    raise ValueError(prompt)
                return await super().acomplete(prompt, **kwargs)

        executor = AsyncBatchExecutor(FailingClient(), max_concurrency=4)
        with pytest.raises(ValueError, match="boom-1"):
            asyncio.run(executor.run(["ok-0", "boom-1", "boom-2", "ok-3"]))

    def test_queued_tasks_are_not_dispatched_after_a_failure(self):
        class FailFastClient(AsyncEchoClient):
            async def acomplete(self, prompt, **kwargs):
                if prompt == "boom":
                    raise ValueError("boom")
                return await super().acomplete(prompt, **kwargs)

        client = FailFastClient(latency=0.001)
        executor = AsyncBatchExecutor(client, max_concurrency=2)
        with pytest.raises(ValueError):
            asyncio.run(executor.run(["boom"] + [f"queued-{i}" for i in range(40)]))
        # The queued tail was skipped once the failure surfaced; only tasks
        # already admitted by the semaphore ran.
        assert client.calls < 10


class TestAsyncDuplicateHandling:
    def test_duplicates_served_from_one_inner_call_through_cache(self):
        inner = EchoClient()
        executor = AsyncBatchExecutor(CachedClient(inner), max_concurrency=4)
        responses = asyncio.run(executor.run(["same"] * 8))
        assert inner.calls == 1
        assert [r.text for r in responses] == ["echo:same"] * 8
        assert all(r.metadata.get("cache_hit") is True for r in responses[1:])

    def test_nonzero_temperature_duplicates_stay_independent(self):
        client = EchoClient()
        executor = AsyncBatchExecutor(CachedClient(client), max_concurrency=4)
        asyncio.run(executor.run([BatchRequest(prompt="same", temperature=0.7)] * 6))
        assert client.calls == 6


class TestAsyncGovernor:
    def test_governor_slots_bound_async_in_flight(self):
        governor = ConcurrencyGovernor(max_in_flight=2)
        client = AsyncEchoClient(latency=0.002)
        executor = AsyncBatchExecutor(BackendGate(client, governor), max_concurrency=16)
        asyncio.run(executor.run([f"p{i}" for i in range(12)]))
        assert client.peak_in_flight <= 2
        assert governor.stats.admitted == 12
        assert governor.in_flight == 0

    def test_shared_governor_counts_both_paths(self):
        governor = ConcurrencyGovernor()
        sync_executor = BatchExecutor(BackendGate(EchoClient(), governor))
        async_executor = AsyncBatchExecutor(BackendGate(AsyncEchoClient(), governor))
        sync_executor.run(["a", "b"])
        asyncio.run(async_executor.run(["c", "d"]))
        assert governor.stats.admitted == 4


class TestDefaultPoolSizeConstant:
    def test_benchmark_reference_is_pinned(self):
        # benchmarks/perf's threaded workloads hard-code this documented
        # size; a silent change would make them measure something else.
        assert DEFAULT_POOL_SIZE == 8
