"""Tests for the batched/concurrent execution layer (`repro.core.executor`).

Covers ordered result return, the client-level ``complete_batch`` equivalence
with the sequential ``complete`` loop across batch sizes {1, 2, 7, 64} and
``max_concurrency`` {1, 4}, per-call retry integration, and budget-aware early
stopping.  :class:`TestEveryDriver` runs what the executor decides through
all three ways of driving it — sequential, fanned out, awaited through one
thread hop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.budget import Budget
from repro.core.executor import (
    DEFAULT_POOL_SIZE,
    AsyncBatchExecutor,
    BatchExecutor,
    BatchRequest,
    backend_waits,
)
from repro.core.governor import BackendGate, ConcurrencyGovernor
from repro.core.session import BudgetScopedSession, PromptSession
from repro.data.words import random_words
from repro.exceptions import BudgetExceededError, ConfigurationError, RateLimitError
from repro.llm.base import sequential_complete_batch
from repro.llm.cache import CachedClient
from repro.llm.faulty import FaultyLLM
from repro.operators import FilterOperator
from tests.doubles import (
    CRITERION,
    DRIVERS,
    MAP_DRIVERS,
    EchoClient,
    call,
    executor_for,
)
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
    def test_session_book(self, size):
        prompts = _rating_prompts(size)
        batch_session = PromptSession(_simulated_client(), use_cache=False)
        loop_session = PromptSession(_simulated_client(), use_cache=False)
        batch = batch_session.client().complete_batch(prompts)
        loop = sequential_complete_batch(loop_session.client(), prompts)
        assert [r.text for r in batch] == [r.text for r in loop]
        assert batch_session.tracker.usage == loop_session.tracker.usage
        assert batch_session.tracker.calls == size

    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_executor_matches_sequential_loop(self, size, concurrency):
        prompts = _rating_prompts(size)
        executor = BatchExecutor(CachedClient(_simulated_client()), max_concurrency=concurrency)
        reference = sequential_complete_batch(CachedClient(_simulated_client()), prompts)
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
        session = PromptSession(client, budget=budget)
        executor = BatchExecutor(session.client(), max_concurrency=1)
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(10)])
        assert client.calls == 0

    def test_budget_stops_batch_midway_sequentially(self):
        # The backend charges the session's own budget: the gate checks it
        # before each call.
        budget = Budget(limit=1.0)
        client = EchoClient(budget=budget, charge=0.4)
        executor = BatchExecutor(PromptSession(client, budget=budget).client())
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(10)])
        # 0.4 + 0.4 fit the budget, the third charge exceeds it, and the
        # remaining seven unit tasks are never dispatched.
        assert client.calls == 3

    def test_concurrent_workers_observe_exhaustion(self):
        budget = Budget(limit=0.5)
        budget.charge(0.5)
        client = EchoClient()
        session = PromptSession(client, budget=budget)
        executor = BatchExecutor(session.client(), max_concurrency=4)
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(16)])
        assert client.calls == 0

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_a_gate_around_a_raw_client_refuses_a_spent_budget(self, concurrency):
        # The session client names a spent lease over an unlimited session
        # budget; the session's gate refuses to spend past it.
        client = EchoClient()
        session = PromptSession(client)
        lease = session.budget.lease(1.0)
        lease.charge(1.0)
        executor = BatchExecutor(session.client(lease), max_concurrency=concurrency)
        with pytest.raises(BudgetExceededError):
            executor.run([f"p{i}" for i in range(8)])
        assert client.calls == 0

    def test_unlimited_budget_never_stops(self):
        client = EchoClient()
        executor = BatchExecutor(PromptSession(client, budget=Budget()).client())
        assert len(executor.run([f"p{i}" for i in range(5)])) == 5
        assert client.calls == 5


#: Every surface that once took a ``budget=`` of its own, called with one.
BUDGET_SURFACES = {
    "BatchExecutor": lambda session, budget: BatchExecutor(session.client(), budget=budget),
    "AsyncBatchExecutor": lambda session, budget: AsyncBatchExecutor(
        session.client(), budget=budget
    ),
    "BaseOperator": lambda session, budget: FilterOperator(session.client(), "p", budget=budget),
    "PromptSession.complete": lambda session, budget: session.complete("p", budget=budget),
    "PromptSession.complete_batch": lambda session, budget: session.complete_batch(
        ["p"], budget=budget
    ),
    "SessionClient.complete": lambda session, budget: session.client().complete(
        "p", budget=budget
    ),
    "SessionClient.complete_batch": lambda session, budget: session.client().complete_batch(
        ["p"], budget=budget
    ),
    "batch_executor": lambda session, budget: session.batch_executor(budget=budget),
    "async_batch_executor": lambda session, budget: session.async_batch_executor(budget=budget),
}


class TestTheOneBudgetHandle:
    """The session client alone names what a call is charged to, and the
    first class down a client chain that declares ``gated`` says when a call
    waits."""

    @pytest.mark.parametrize("surface", sorted(BUDGET_SURFACES))
    def test_no_other_surface_takes_a_budget(self, surface):
        client = EchoClient()
        with pytest.raises(TypeError, match="budget"):
            BUDGET_SURFACES[surface](PromptSession(client), Budget(limit=1.0))
        assert client.calls == 0

    def test_a_scoped_sessions_executor_charges_its_lease(self):
        session = PromptSession(_simulated_client())
        lease = session.budget.lease(10.0)
        BudgetScopedSession(session, lease).batch_executor().run(_rating_prompts(4))
        assert lease.spent == session.budget.spent > 0

    def test_the_gated_class_attribute_is_the_one_gate_marker(self):
        session = PromptSession(EchoClient())
        scoped = BudgetScopedSession(session, session.budget.lease(1.0))
        for gated in (BackendGate(EchoClient()), CachedClient(BackendGate(EchoClient()))):
            assert backend_waits(gated) is None
        assert backend_waits(session.client()) is None and backend_waits(scoped) is None
        marked = EchoClient()
        marked.gated = True  # an instance attribute marks no gate
        assert backend_waits(marked) is False


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
        client = FaultyLLM(EchoClient(), {"boom": ValueError("simulated API failure")})
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

    @pytest.mark.parametrize("driver", MAP_DRIVERS)
    def test_map_reports_the_first_failure(self, driver):
        def boom():
            raise ValueError("boom")

        executor = executor_for(driver, EchoClient(), concurrency=1)
        outcomes = executor.map([lambda: 1, boom, lambda: 3])
        assert (outcomes[0].ok, outcomes[0].value) == (True, 1)
        assert isinstance(outcomes[1].error, ValueError) and not outcomes[1].skipped
        assert outcomes[2].skipped and outcomes[2].error is None

    @pytest.mark.parametrize("driver", MAP_DRIVERS)
    def test_a_task_that_raises_cancelled_error_is_a_failed_outcome_at_every_width(
        self, driver
    ):
        def cancelled():
            raise asyncio.CancelledError

        outcomes = executor_for(driver, EchoClient()).map([lambda: 1, cancelled])
        assert (outcomes[0].ok, outcomes[0].value) == (True, 1)
        assert isinstance(outcomes[1].error, asyncio.CancelledError)
        assert not outcomes[1].skipped


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
        executor = executor_for(driver, BackendGate(Limited(), governor))
        assert len(call(executor, "run", ["a", "b", "c"])) == 3
        assert governor.stats.admitted == 3 and governor.stats.rate_limit_events == 0
        with pytest.raises(RateLimitError):
            call(executor, "run", ["limited"])
        assert governor.stats.rate_limit_events == 1
        assert governor.in_flight == 0


def test_the_benchmark_pool_size_is_pinned():
    # benchmarks/perf's threaded workloads hard-code this documented
    # size; a silent change would make them measure something else.
    assert DEFAULT_POOL_SIZE == 8
