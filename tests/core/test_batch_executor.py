"""Tests for the batched/concurrent execution layer (`repro.core.executor`).

Covers ordered result return, the client-level ``complete_batch`` equivalence
with the sequential ``complete`` loop across batch sizes {1, 2, 7, 64} and
``max_concurrency`` {1, 4}, per-call retry integration, and budget-aware early
stopping.  :class:`TestEveryDriver` runs the decisions the executors share
through all three ways of driving them — sequential, thread pool, asyncio.
"""

from __future__ import annotations

import pytest

from repro.core.budget import Budget
from repro.core.executor import BatchExecutor, BatchRequest
from repro.core.governor import ConcurrencyGovernor
from repro.data.words import random_words
from repro.exceptions import BudgetExceededError, ConfigurationError, RateLimitError
from repro.llm.base import sequential_complete_batch
from repro.llm.cache import CachedClient
from repro.llm.tracker import TrackedClient, UsageTracker
from tests.doubles import CRITERION, DRIVERS, EchoClient, call, executor_for
from tests.doubles import rating_prompts as _rating_prompts
from tests.doubles import simulated_client as _simulated_client

BATCH_SIZES = (1, 2, 7, 64)
CONCURRENCIES = (1, 4)


class TestBatchExecutorBasics:
    def test_results_in_input_order(self):
        client = EchoClient()
        executor = BatchExecutor(client, max_concurrency=4)
        prompts = [f"prompt-{index}" for index in range(20)]
        responses = executor.run(prompts)
        assert [response.text for response in responses] == [f"echo:{p}" for p in prompts]
        assert client.calls == 20

    def test_empty_batch(self):
        executor = BatchExecutor(EchoClient())
        assert executor.run([]) == []

    def test_plain_strings_promoted_to_requests(self):
        executor = BatchExecutor(EchoClient())
        responses = executor.run(["a", BatchRequest(prompt="b", model="other")])
        assert responses[0].model == "echo"
        assert responses[1].model == "other"

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchExecutor(EchoClient(), max_concurrency=0)


class TestClientBatchEquivalence:
    """complete_batch == [complete(p) for p in prompts] at temperature 0."""

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_simulated_client(self, size):
        prompts = _rating_prompts(size)
        batch = _simulated_client().complete_batch(prompts)
        loop = sequential_complete_batch(_simulated_client(), prompts)
        assert [r.text for r in batch] == [r.text for r in loop]
        assert [r.usage for r in batch] == [r.usage for r in loop]

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_cached_client(self, size):
        # Repeat every prompt so within-batch dedup is exercised.
        prompts = _rating_prompts(size) * 2
        batch_client = CachedClient(_simulated_client())
        loop_client = CachedClient(_simulated_client())
        batch = batch_client.complete_batch(prompts)
        loop = sequential_complete_batch(loop_client, prompts)
        assert [r.text for r in batch] == [r.text for r in loop]
        assert [r.usage for r in batch] == [r.usage for r in loop]
        assert [r.metadata.get("cache_hit") for r in batch] == [
            r.metadata.get("cache_hit") for r in loop
        ]
        assert batch_client.cache.stats.hits == loop_client.cache.stats.hits
        assert batch_client.cache.stats.misses == loop_client.cache.stats.misses

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_tracked_client(self, size):
        prompts = _rating_prompts(size)
        batch_tracker, loop_tracker = UsageTracker(), UsageTracker()
        batch = TrackedClient(_simulated_client(), batch_tracker).complete_batch(
            prompts
        )
        loop = sequential_complete_batch(
            TrackedClient(_simulated_client(), loop_tracker), prompts
        )
        assert [r.text for r in batch] == [r.text for r in loop]
        assert batch_tracker.usage == loop_tracker.usage
        assert batch_tracker.calls == size

    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_executor_matches_sequential_loop(self, size, concurrency):
        prompts = _rating_prompts(size)
        executor_client = TrackedClient(
            CachedClient(_simulated_client()), UsageTracker()
        )
        executor = BatchExecutor(executor_client, max_concurrency=concurrency)
        reference = sequential_complete_batch(
            TrackedClient(CachedClient(_simulated_client()), UsageTracker()),
            prompts,
        )
        responses = executor.run(prompts)
        assert [r.text for r in responses] == [r.text for r in reference]
        assert [r.usage for r in responses] == [r.usage for r in reference]


class TestRetryIntegration:
    def test_validator_triggers_retries_and_stats(self):
        client = EchoClient()
        executor = BatchExecutor(
            client,
            max_concurrency=2,
            validator=lambda text: not text.endswith("bad"),
            max_retries=2,
        )
        responses = executor.run(["good-1", "bad", "good-2"])
        assert [r.text for r in responses] == ["echo:good-1", "echo:bad", "echo:good-2"]
        assert executor.retry_stats is not None
        # The rejected prompt was attempted 1 + max_retries times.
        assert executor.retry_stats.attempts == 2 + 3
        assert executor.retry_stats.retries == 2
        assert executor.retry_stats.failures == 1
        assert responses[1].metadata["attempts"] == 3
        # All attempts' usage is accumulated onto the returned response.
        assert responses[1].usage.calls == 3

    def test_no_validator_means_no_retry_stats(self):
        executor = BatchExecutor(EchoClient())
        executor.run(["a"])
        assert executor.retry_stats is None


class TestBudgetEarlyStopping:
    def test_exhausted_budget_stops_before_any_dispatch(self):
        budget = Budget(limit=1.0)
        budget.charge(1.0)
        client = EchoClient()
        executor = BatchExecutor(client, max_concurrency=1, budget=budget)
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(10)])
        assert client.calls == 0

    def test_budget_stops_batch_midway_sequentially(self):
        budget = Budget(limit=1.0)
        client = EchoClient(budget=budget, charge=0.4)
        executor = BatchExecutor(client, budget=budget)
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(10)])
        # 0.4 + 0.4 fit the budget, the third charge exceeds it, and the
        # remaining seven unit tasks are never dispatched.
        assert client.calls == 3

    def test_concurrent_workers_observe_exhaustion(self):
        budget = Budget(limit=0.5)
        budget.charge(0.5)
        client = EchoClient()
        executor = BatchExecutor(client, max_concurrency=4, budget=budget)
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(16)])
        assert client.calls == 0

    def test_unlimited_budget_never_stops(self):
        client = EchoClient()
        executor = BatchExecutor(client, budget=Budget())
        assert len(executor.run([f"p{i}" for i in range(5)])) == 5
        assert client.calls == 5


class TestConcurrentDuplicateHandling:
    """Duplicate temperature-0 prompts must not race past a downstream cache."""

    def test_duplicates_served_from_one_inner_call_through_cache(self):
        inner = EchoClient()
        executor = BatchExecutor(CachedClient(inner), max_concurrency=4)
        responses = executor.run(["same"] * 8)
        assert inner.calls == 1
        assert [r.text for r in responses] == ["echo:same"] * 8
        # The first occurrence is the real call; the rest are zero-usage hits,
        # exactly like the sequential loop.
        assert responses[0].metadata.get("cache_hit") is None
        assert all(r.metadata.get("cache_hit") is True for r in responses[1:])
        assert all(r.usage.calls == 0 for r in responses[1:])

    def test_duplicates_without_cache_each_pay_their_call(self):
        client = EchoClient()
        executor = BatchExecutor(client, max_concurrency=4)
        responses = executor.run(["same"] * 8)
        # Matches the sequential loop through an uncached client.
        assert client.calls == 8
        assert all(r.usage.calls == 1 for r in responses)

    def test_nonzero_temperature_duplicates_stay_independent(self):
        client = EchoClient()
        executor = BatchExecutor(CachedClient(client), max_concurrency=4)
        executor.run([BatchRequest(prompt="same", temperature=0.7)] * 6)
        assert client.calls == 6

    def test_dedup_keys_on_cache_key_not_full_request(self):
        # Requests differing only in max_tokens share a (model, prompt) cache
        # entry, so only one may go to the pool — like the sequential path,
        # where the second is a cache hit.
        inner = EchoClient()
        executor = BatchExecutor(CachedClient(inner), max_concurrency=4)
        responses = executor.run(
            [BatchRequest(prompt="same", max_tokens=100), BatchRequest(prompt="same", max_tokens=200)]
        )
        assert inner.calls == 1
        assert responses[1].metadata.get("cache_hit") is True

    def test_unit_task_error_stops_dispatching_queued_tasks(self):
        class FailingClient(EchoClient):
            def complete(self, prompt, **kwargs):
                if prompt == "boom":
                    with self._lock:
                        self.calls += 1
                    raise ValueError("simulated API failure")
                return super().complete(prompt, **kwargs)

        client = FailingClient()
        executor = BatchExecutor(client, max_concurrency=2)
        with pytest.raises(ValueError):
            executor.run(["ok-1", "boom"] + [f"queued-{i}" for i in range(40)])
        # The queued tail was cancelled once the failure surfaced; only the
        # few tasks already in flight (at most a handful) ran.
        assert client.calls < 10


class TestEngineBudgetEnforcement:
    """The engine threads its session budget into every operator's executor."""

    def test_operator_batch_stops_at_the_limit(self):
        from repro.core import DeclarativeEngine
        from repro.core.spec import SortSpec
        from repro.data.words import random_words
        from repro.exceptions import BudgetExceededError as Exceeded

        engine = DeclarativeEngine(
            _simulated_client(), budget=Budget(limit=1e-6), max_concurrency=1
        )
        words = random_words(12, seed=47)
        with pytest.raises(Exceeded):
            engine.sort(SortSpec(items=words, criterion=CRITERION, strategy="pairwise"))
        # The limit interrupted the 66-comparison batch near its start instead
        # of charging the whole batch after the fact.
        assert engine.session.tracker.calls < 5


class TestBatchExecutorMap:
    """map() runs arbitrary independent callables with outcome reporting."""

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_values_in_input_order(self, concurrency):
        executor = BatchExecutor(EchoClient(), max_concurrency=concurrency)
        outcomes = executor.map([(lambda index=index: index * 2) for index in range(17)])
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.value for outcome in outcomes] == [index * 2 for index in range(17)]

    def test_empty(self):
        assert BatchExecutor(EchoClient()).map([]) == []

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_failure_is_reported_not_raised(self, concurrency):
        def boom():
            raise ValueError("boom")

        executor = BatchExecutor(EchoClient(), max_concurrency=concurrency)
        outcomes = executor.map([lambda: 1, boom, lambda: 3])
        assert outcomes[0].ok and outcomes[0].value == 1
        assert isinstance(outcomes[1].error, ValueError)
        # Once a task fails, not-yet-started tasks are skipped (at
        # concurrency > 1 an in-flight sibling may still finish).
        if concurrency == 1:
            assert outcomes[2].skipped

    def test_sequential_failure_skips_the_rest(self):
        ran = []

        def boom():
            raise ValueError("boom")

        executor = BatchExecutor(EchoClient(), max_concurrency=1)
        outcomes = executor.map([lambda: ran.append("a"), boom, lambda: ran.append("c")])
        assert ran == ["a"]
        assert outcomes[2].skipped and not outcomes[2].ok

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_exhausted_budget_stops_dispatch(self, concurrency):
        budget = Budget(limit=1.0)
        budget.spent = 1.0
        executor = BatchExecutor(EchoClient(), max_concurrency=concurrency, budget=budget)
        outcomes = executor.map([lambda: 1, lambda: 2])
        # The tasks never ran: skipped, with the budget error attached to the
        # one(s) that failed the pre-dispatch check.
        assert not any(outcome.ok for outcome in outcomes)
        assert all(outcome.skipped for outcome in outcomes)
        errors = [outcome.error for outcome in outcomes if outcome.error is not None]
        assert errors and all(isinstance(error, BudgetExceededError) for error in errors)

    def test_budget_skip_outcome_parity_between_paths(self):
        # Pin: every task an exhausted budget prevents from running carries
        # the BudgetExceededError, on BOTH the sequential and the concurrent
        # path — not just the first one the pre-dispatch check happened to
        # reject.  Callers (the pipeline scheduler) rely on this to tell
        # budget skips from sibling-failure skips without caring which path
        # executed the batch.
        def shapes(concurrency: int) -> list[tuple[bool, bool, str | None]]:
            budget = Budget(limit=1.0)
            budget.spent = 1.0
            executor = BatchExecutor(
                EchoClient(), max_concurrency=concurrency, budget=budget
            )
            outcomes = executor.map([lambda: 1, lambda: 2, lambda: 3, lambda: 4])
            return [
                (o.ok, o.skipped, type(o.error).__name__ if o.error else None)
                for o in outcomes
            ]

        sequential = shapes(1)
        concurrent = shapes(4)
        assert sequential == concurrent
        assert sequential == [(False, True, "BudgetExceededError")] * 4

    def test_midway_exhaustion_attaches_error_to_every_budget_skip(self):
        # Tasks charge the budget as they run; once it dies, every task the
        # pre-dispatch check turned away must carry the error — and whatever
        # the thread timing, the budget's death is always visible on at
        # least one outcome (a skip with the error attached, or a mid-task
        # breach reported as a failure).
        for concurrency in CONCURRENCIES:
            budget = Budget(limit=1.0)
            executor = BatchExecutor(
                EchoClient(), max_concurrency=concurrency, budget=budget
            )

            def spend() -> str:
                budget.charge(0.5)
                return "ran"

            outcomes = executor.map([spend] * 6)
            budget_errors = [
                outcome
                for outcome in outcomes
                if isinstance(outcome.error, BudgetExceededError)
            ]
            assert budget_errors, f"budget death invisible at concurrency {concurrency}"
            # A skipped outcome carries either nothing (a sibling failed
            # mid-run first) or the budget error — never a different one.
            for outcome in outcomes:
                if outcome.skipped and outcome.error is not None:
                    assert isinstance(outcome.error, BudgetExceededError)
            # The sequential path is fully deterministic: two tasks fit the
            # budget, the other four are budget-skips with the error.
            if concurrency == 1:
                assert [outcome.ok for outcome in outcomes] == [True] * 2 + [False] * 4
                assert all(
                    outcome.skipped and isinstance(outcome.error, BudgetExceededError)
                    for outcome in outcomes[2:]
                )


@pytest.mark.parametrize("driver", DRIVERS)
class TestEveryDriver:
    """One executor core: what it decides does not depend on how it is driven."""

    def test_ordered_results_and_promoted_strings(self, driver):
        client = EchoClient()
        requests = [f"p{index}" for index in range(20)] + [BatchRequest("q", model="other")]
        responses = call(executor_for(driver, client), "run", requests)
        assert [r.text for r in responses] == [f"echo:p{index}" for index in range(20)] + ["echo:q"]
        assert [r.model for r in responses] == ["echo"] * 20 + ["other"]
        assert client.calls == 21
        assert call(executor_for(driver, client), "run", []) == []

    def test_dedup_is_keyed_on_the_cache_key(self, driver):
        # Requests differing only in max_tokens share a (model, prompt) cache
        # entry: one backend call, the other a hit.  A different model or a
        # sampling temperature is a different request.
        inner = EchoClient()
        bag = [
            BatchRequest("same", max_tokens=100),
            BatchRequest("same", max_tokens=200),
            BatchRequest("same", model="other"),
            BatchRequest("same", temperature=0.7),
            BatchRequest("same", temperature=0.7),
        ]
        responses = call(executor_for(driver, CachedClient(inner)), "run", bag)
        assert inner.calls == 4
        assert [r.metadata.get("cache_hit") for r in responses] == [None, True, None, None, None]

    def test_duplicates_without_a_cache_each_pay_their_call(self, driver):
        client = EchoClient()
        responses = call(executor_for(driver, client), "run", ["same"] * 8)
        assert client.calls == 8
        assert all(r.usage.calls == 1 for r in responses)

    def test_validator_retries_and_stats(self, driver):
        executor = executor_for(
            driver, EchoClient(), validator=lambda text: not text.endswith("bad"), max_retries=2
        )
        responses = call(executor, "run", ["good-1", "bad", "good-2"])
        assert [r.text for r in responses] == ["echo:good-1", "echo:bad", "echo:good-2"]
        assert vars(executor.retry_stats) == {"attempts": 5, "retries": 2, "failures": 1}
        assert responses[1].metadata["attempts"] == responses[1].usage.calls == 3

    def test_governor_hears_of_successes_and_rate_limits(self, driver):
        class Limited(EchoClient):
            def complete(self, prompt, **params):
                if prompt == "limited":
                    raise RateLimitError(retry_after=0.0)
                return super().complete(prompt, **params)

        governor = ConcurrencyGovernor(sleep=lambda seconds: None)
        executor = executor_for(driver, Limited(), governor=governor)
        assert len(call(executor, "run", ["a", "b", "c"])) == 3
        assert governor.stats.admitted == 3 and governor.stats.rate_limit_events == 0
        with pytest.raises(RateLimitError):
            call(executor, "run", ["limited"])
        assert governor.stats.rate_limit_events == 1
        assert governor.in_flight == 0

    def test_map_reports_the_first_failure_and_budget_skips(self, driver):
        def boom():
            raise ValueError("boom")

        executor = executor_for(driver, EchoClient(), concurrency=1)
        outcomes = call(executor, "map", [lambda: 1, boom, lambda: 3])
        assert (outcomes[0].ok, outcomes[0].value) == (True, 1)
        assert isinstance(outcomes[1].error, ValueError) and not outcomes[1].skipped
        assert outcomes[2].skipped and outcomes[2].error is None
        spent = Budget(limit=1.0)
        spent.spent = 1.0
        outcomes = call(executor_for(driver, EchoClient(), budget=spent), "map", [lambda: 1] * 4)
        assert all(o.skipped and isinstance(o.error, BudgetExceededError) for o in outcomes)
