"""Tests for the rate-limited admission layer (`repro.core.governor`).

Covers the token bucket's virtual-scheduling pacing, the governor's RPM/TPM
caps (demonstrated wall-clock-free under the ``scripted_clock`` fixture), the
in-flight slot semaphore shared by sync and async dispatch, the adaptive
backoff driven by :class:`~repro.exceptions.RateLimitError` (including
``retry_after`` hints), and the :class:`~repro.core.governor.BackendGate`
that feeds it the calls reaching the backend — and only those.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.budget import CHARGE_TARGET, Budget
from repro.core.executor import BatchExecutor
from repro.core.governor import (
    BackendGate,
    ConcurrencyGovernor,
    ModelRate,
    TokenBucket,
    estimated_prompt_tokens,
    is_rate_limit,
)
from repro.core.session import BudgetScopedSession, PromptSession
from repro.core.spec import PipelineSpec, PipelineStep
from repro.core.workflow import Workflow
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    RateLimitError,
    ResponseParseError,
)
from repro.llm.faulty import FaultyLLM
from tests.doubles import CountingClient, ScriptedClock


class StampedClient(CountingClient):
    """Records the virtual time of every call that reaches it."""

    def __init__(self, clock: ScriptedClock) -> None:
        super().__init__()
        self.clock = clock
        self.stamps: list[float] = []

    def complete(self, prompt, **params):
        self.stamps.append(self.clock.now())
        return super().complete(prompt, **params)


class ParallelBatchClient(CountingClient):
    """Its native batch makes every call at once; records the peak in flight."""

    def __init__(self) -> None:
        super().__init__()
        self.in_flight = self.peak = 0

    def complete(self, prompt, **params):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.005)
        with self._lock:
            self.in_flight -= 1
        return super().complete(prompt, **params)

    def complete_batch(self, prompts, **params):
        with ThreadPoolExecutor(len(prompts)) as pool:
            return list(pool.map(lambda prompt: self.complete(prompt, **params), prompts))


class TestTokenBucket:
    def test_burst_admits_first_call_immediately(self):
        bucket = TokenBucket(60)  # 1/s, burst defaults to 1
        assert bucket.reserve() == 0.0

    def test_reservations_pace_linearly_at_the_rate(self, scripted_clock):
        bucket = TokenBucket(60, burst=1)
        # Four instantaneous reservations: the first rides the burst, the
        # k-th over-budget one owes k refill intervals (1s at 60/min).
        waits = [bucket.reserve() for _ in range(4)]
        assert waits == [0.0, 1.0, 2.0, 3.0]

    def test_refill_restores_capacity(self, scripted_clock):
        bucket = TokenBucket(60, burst=1)
        bucket.reserve()
        scripted_clock.advance(2.0)  # refill past full; capacity stays capped at burst
        assert bucket.reserve() == 0.0
        assert bucket.reserve() == pytest.approx(1.0)

    def test_token_weighted_reservations(self, scripted_clock):
        bucket = TokenBucket(600, burst=100)  # 10 tokens/s
        assert bucket.reserve(100) == 0.0  # burst covers it
        assert bucket.reserve(50) == pytest.approx(5.0)  # 50 tokens / 10 per s

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(0)
        with pytest.raises(ConfigurationError):
            TokenBucket(60, burst=0)
        with pytest.raises(ConfigurationError):
            TokenBucket(60).reserve(-1)


class TestEstimatedPromptTokens:
    def test_chars_over_four_with_floor(self):
        assert estimated_prompt_tokens("") == 1
        assert estimated_prompt_tokens("abcd" * 25) == 25


class TestRpmCap:
    """The governor demonstrably caps dispatch at the configured RPM."""

    def test_dispatch_rate_never_exceeds_rpm(self, scripted_clock):
        governor = ConcurrencyGovernor(rpm=120, burst=1)
        stamps = []
        for _ in range(13):
            with governor.admit("m"):
                stamps.append(scripted_clock.now())
        # 13 admissions at 120 RPM (0.5s spacing), the first free via the
        # burst: the run takes 12 intervals of virtual time, i.e. dispatch
        # proceeded at exactly — never above — the configured rate.
        assert stamps[-1] == pytest.approx(12 * 0.5)
        spacings = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(spacing >= 0.5 - 1e-9 for spacing in spacings)
        assert governor.stats.admitted == 13
        assert governor.stats.throttled == 12

    def test_tpm_quota_paces_by_estimated_tokens(self, scripted_clock):
        governor = ConcurrencyGovernor(tpm=600, burst=10)
        with governor.admit("m", estimated_tokens=10):
            pass
        assert scripted_clock.now() == 0.0  # burst covered it
        with governor.admit("m", estimated_tokens=20):
            pass
        # 20 tokens over an empty bucket at 10 tokens/s → a 2s wait.
        assert scripted_clock.now() == pytest.approx(2.0)

    def test_per_model_overrides_have_independent_buckets(self, scripted_clock):
        governor = ConcurrencyGovernor(rpm=60, model_rates={"fast": ModelRate(rpm=6000)}, burst=1)
        with governor.admit("slow"):
            pass
        with governor.admit("slow"):
            pass
        slow_elapsed = scripted_clock.now()
        assert slow_elapsed == pytest.approx(1.0)  # 60 RPM → 1s spacing
        for _ in range(10):
            with governor.admit("fast"):
                pass
        # 6000 RPM → 10ms spacing; the slow model's bucket is untouched.
        assert scripted_clock.now() - slow_elapsed == pytest.approx(9 * 0.01)

    def test_no_quotas_means_no_waiting(self, scripted_clock):
        governor = ConcurrencyGovernor()
        for _ in range(100):
            with governor.admit("m", estimated_tokens=1000):
                pass
        assert scripted_clock.now() == 0.0
        assert governor.stats.throttled == 0


class TestBackoff:
    def test_exponential_schedule_without_hint(self):
        governor = ConcurrencyGovernor(
            backoff_initial=0.5, backoff_multiplier=2.0, backoff_max=3.0
        )
        delays = [governor.record_failure(RateLimitError()) for _ in range(4)]
        assert delays == [0.5, 1.0, 2.0, 3.0]  # capped at backoff_max

    def test_retry_after_hint_dominates_when_larger(self, scripted_clock):
        governor = ConcurrencyGovernor(backoff_initial=0.5)
        delay = governor.record_failure(RateLimitError(retry_after=7.5))
        assert delay == 7.5
        # The next admission waits out the whole hinted cooldown.
        with governor.admit("m"):
            pass
        assert scripted_clock.sleeps == [pytest.approx(7.5)]

    def test_success_resets_the_streak(self):
        governor = ConcurrencyGovernor(backoff_initial=0.5)
        governor.record_failure(RateLimitError())
        governor.record_failure(RateLimitError())
        governor.record_success()
        assert governor.record_failure(RateLimitError()) == 0.5

    def test_cooldown_delays_the_next_admission(self, scripted_clock):
        governor = ConcurrencyGovernor(backoff_initial=2.0)
        governor.record_failure(RateLimitError())
        with governor.admit("m"):
            pass
        assert scripted_clock.now() == pytest.approx(2.0)
        assert governor.stats.rate_limit_events == 1

    def test_invalid_backoff_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ConcurrencyGovernor(backoff_initial=0.0)
        with pytest.raises(ConfigurationError):
            ConcurrencyGovernor(backoff_multiplier=0.5)


class TestInFlightSlots:
    def test_slot_cap_bounds_simultaneous_dispatch(self):
        governor = ConcurrencyGovernor(max_in_flight=2)
        peak = 0
        peak_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def dispatch() -> None:
            barrier.wait()
            with governor.admit("m"):
                with peak_lock:
                    nonlocal peak
                    peak = max(peak, governor.in_flight)
                time.sleep(0.005)

        threads = [threading.Thread(target=dispatch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert peak <= 2
        assert governor.stats.max_in_flight <= 2
        assert governor.in_flight == 0  # every slot was released

    def test_invalid_slot_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ConcurrencyGovernor(max_in_flight=0)


class TestExecutorIntegration:
    def test_rate_limit_failures_feed_the_backoff(self, scripted_clock):
        governor = ConcurrencyGovernor(backoff_initial=1.0)
        client = FaultyLLM(CountingClient(), {0: RateLimitError, 1: RateLimitError})
        executor = BatchExecutor(BackendGate(client, governor))
        with pytest.raises(RateLimitError):
            executor.run(["a"])
        with pytest.raises(RateLimitError):
            executor.run(["a"])
        assert governor.stats.rate_limit_events == 2
        # Each dispatch after a failure waits out its cooldown (1 s, then
        # 2 s), and one after a success waits nothing.
        executor.run(["a"])
        executor.run(["b"])
        assert scripted_clock.sleeps == [1.0, 2.0]
        assert governor.stats.admitted == 4

    def test_non_rate_limit_failures_do_not_back_off(self, scripted_clock):
        governor = ConcurrencyGovernor()

        client = FaultyLLM(CountingClient(), {"a": ResponseParseError("malformed")})
        executor = BatchExecutor(BackendGate(client, governor))
        with pytest.raises(ResponseParseError):
            executor.run(["a"])
        assert governor.stats.rate_limit_events == 0
        with governor.admit("m"):
            pass
        assert scripted_clock.sleeps == []  # no cooldown to wait out

    def test_sequential_batch_respects_the_governor(self, scripted_clock):
        # A homogeneous batch takes the native complete_batch path; the gate
        # admits each of its three calls on its own, so the quota still binds.
        governor = ConcurrencyGovernor(rpm=60, burst=1)
        client = CountingClient()
        executor = BatchExecutor(BackendGate(client, governor))
        executor.run(["a", "b", "c"])
        assert client.calls == 3
        assert scripted_clock.now() == pytest.approx(2.0)  # 3 calls at 1/s, first free

    @pytest.mark.parametrize("route", ["executor", "session"])
    def test_each_call_of_a_batch_is_admitted_and_paced_on_its_own(self, scripted_clock, route):
        # rpm=60 with a burst of 1 is one call a second, however the calls
        # were batched above the gate.
        governor = ConcurrencyGovernor(rpm=60, burst=1)
        client = StampedClient(scripted_clock)
        prompts = ["a", "b", "c", "d"]
        if route == "executor":
            BatchExecutor(BackendGate(client, governor)).run(prompts)
        else:
            PromptSession(client, governor=governor).complete_batch(prompts)
        assert client.stamps == [0.0, 1.0, 2.0, 3.0]
        assert scripted_clock.sleeps == [1.0, 1.0, 1.0]
        assert (governor.stats.admitted, governor.stats.throttled) == (4, 3)

    def test_each_call_of_a_batch_holds_its_own_slot(self):
        # The backend's native batch would make all six calls at once; the
        # gate sends them one by one, each inside its own slot.
        governor = ConcurrencyGovernor(max_in_flight=2)
        client = ParallelBatchClient()
        session = PromptSession(client, governor=governor)
        assert len(session.complete_batch([f"p{index}" for index in range(6)])) == 6
        assert client.calls == governor.stats.admitted == 6
        assert client.peak <= 2 and governor.in_flight == 0

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_only_calls_that_reach_the_backend_are_admitted_and_paced(
        self, scripted_clock, concurrency
    ):
        governor = ConcurrencyGovernor(rpm=120, burst=1)
        client = CountingClient()
        session = PromptSession(client, governor=governor)
        prompts = [f"Does item {index} pass the filter?" for index in range(12)]
        executor = session.batch_executor(max_concurrency=concurrency)
        cold = executor.run(prompts)
        # 12 calls at 2/s with a burst of 1: eleven half-second waits.
        assert (client.calls, governor.stats.admitted) == (12, 12)
        assert sum(scripted_clock.sleeps) == pytest.approx(5.5)
        scripted_clock.sleeps.clear()
        warm = executor.run(prompts)
        assert [r.text for r in warm] == [r.text for r in cold]
        waited = sum(scripted_clock.sleeps)
        assert (client.calls, governor.stats.admitted, waited) == (12, 12, 0.0)


class TestTheGateSeesEveryBackendCall:
    """However a call reaches the session, the governor admits it if it reaches the backend."""

    def test_direct_session_calls_are_admitted(self):
        governor = ConcurrencyGovernor()
        client = CountingClient()
        session = PromptSession(client, governor=governor)
        session.complete("a")
        session.complete_batch(["b", "c", "d"])
        assert client.calls == governor.stats.admitted == 4
        session.complete_batch(["a", "b"])  # cache hits: nothing to admit
        assert client.calls == governor.stats.admitted == 4
        assert governor.in_flight == 0

    def test_a_single_call_feeds_the_backoff(self, scripted_clock):
        governor = ConcurrencyGovernor()
        gate = BackendGate(FaultyLLM(CountingClient(), {0: RateLimitError}), governor)
        with pytest.raises(RateLimitError):
            gate.complete("a")
        assert gate.complete("a").text == "echo:a"
        assert scripted_clock.sleeps == [0.5]  # the backoff's first cooldown
        stats = governor.stats
        assert (stats.admitted, stats.rate_limit_events, governor.in_flight) == (2, 1, 0)

    def test_a_raw_call_inside_a_callable_step_is_admitted(self):
        def chatty(session, inputs):
            assert isinstance(session, BudgetScopedSession)
            return session.complete("Is this call admitted?").text

        pipeline = PipelineSpec(
            name="capped", steps=[PipelineStep("chatty", run=chatty)], budget_dollars=1.0
        )
        governor = ConcurrencyGovernor()
        client = CountingClient()
        report = Workflow.from_pipeline(pipeline).execute(PromptSession(client, governor=governor))
        assert report.step_reports["chatty"].status == "completed"
        assert client.calls == governor.stats.admitted == 1


class TestTheGateRefusesASpentChargeTarget:
    def test_a_call_under_a_spent_lease_never_reaches_the_backend(self):
        client = CountingClient()
        gate = BackendGate(client)
        parent = Budget(limit=1.0)
        lease = parent.lease(0.5)
        charging = CHARGE_TARGET.set(lease)
        try:
            gate.complete("p0")
            parent.charge(1.0)  # the lease is unspent; its parent is not
            with pytest.raises(BudgetExceededError):
                gate.complete("p1")
        finally:
            CHARGE_TARGET.reset(charging)
        assert client.calls == 1
        gate.complete("p2")  # with no charge target the gate does not refuse
        assert client.calls == 2


class TestIsRateLimit:
    def test_taxonomy_discrimination(self):
        assert is_rate_limit(RateLimitError())
        assert not is_rate_limit(ValueError("429"))
        assert not is_rate_limit(ResponseParseError("nope"))
