"""The caller-runs fan-out of :class:`~repro.core.executor.BatchExecutor`.

The dispatching thread drains a fanned-out bag itself and helper threads
join it only once a running call has stopped the bag's progress.  None of
these tests reads a clock: the regime where calls never wait is pinned by
raising the stall threshold out of reach, the regime where they do by tasks
that meet at a :class:`threading.Barrier` (or wait on a helper's exit) and
can only get past it if the bag really went wide.  Beside a thread spinning
in Python, bags that never wait must still run alone and ones that do must
still go wide.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from collections import deque

import pytest

from repro.core import executor as executor_module
from repro.core.budget import Budget
from repro.core.executor import BatchExecutor
from repro.core.session import PromptSession
from repro.exceptions import BudgetExceededError
from repro.obs.spans import SpanTracker, current_span_id
from repro.obs.spans import current_labels, trace_label
from tests.doubles import DRIVERS, EchoClient, call, executor_for

WIDTH = 8
#: Upper bound on any wait in this file; reaching it fails the test.
PATIENCE = 5.0


@pytest.fixture
def never_stalls(monkeypatch):
    """The regime where calls do not wait: no pause counts as a stall."""
    monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)


@pytest.fixture
def short_switch_interval():
    """Hand the interpreter lock over promptly, so the scout wakes on time."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def wait_for_helpers_to_exit(baseline: int) -> None:
    """Block the calling task until every helper thread of its bag has exited."""
    deadline = time.monotonic() + PATIENCE
    while threading.active_count() > baseline:
        assert time.monotonic() < deadline, "helper threads never exited"
        time.sleep(0.001)


class BarrierClient(EchoClient):
    """Every call waits for ``parties`` calls to be in flight at once."""

    def __init__(self, parties: int) -> None:
        super().__init__()
        self.barrier = threading.Barrier(parties, timeout=PATIENCE)
        self.in_flight = 0
        self.peak = 0
        self.threads: set[int] = set()

    def complete(self, prompt, **params):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.get_ident())
        try:
            if not prompt.startswith("fast"):
                self.barrier.wait()
            return super().complete(prompt, **params)
        finally:
            with self._lock:
                self.in_flight -= 1


class TestCallsThatNeverWait:
    """(a) the dispatching thread runs the whole bag and no thread is left behind."""

    def test_run_stays_on_the_calling_thread(self, never_stalls):
        threads = set()

        class Census(EchoClient):
            def complete(self, prompt, **params):
                threads.add(threading.get_ident())
                return super().complete(prompt, **params)

        baseline = threading.active_count()
        responses = BatchExecutor(Census(), max_concurrency=WIDTH).run(
            [f"p{index}" for index in range(200)]
        )
        assert [r.text for r in responses] == [f"echo:p{index}" for index in range(200)]
        assert threads == {threading.get_ident()}
        assert threading.active_count() == baseline

    def test_map_stays_on_the_calling_thread_in_order(self, never_stalls):
        ran = []
        baseline = threading.active_count()
        outcomes = BatchExecutor(EchoClient(), max_concurrency=WIDTH).map(
            [lambda index=index: ran.append((index, threading.get_ident())) for index in range(200)]
        )
        assert all(outcome.ok for outcome in outcomes)
        assert ran == [(index, threading.get_ident()) for index in range(200)]
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_failed_bag(self, never_stalls):
        def boom():
            raise ValueError("boom")

        baseline = threading.active_count()
        executor = BatchExecutor(EchoClient(), max_concurrency=WIDTH)
        outcomes = executor.map([lambda: 1, boom] + [lambda: 2] * 50)
        assert isinstance(outcomes[1].error, ValueError)
        assert all(outcome.skipped for outcome in outcomes[2:])
        assert threading.active_count() == baseline


class TestCallsThatWait:
    def test_a_small_bag_reaches_full_width_in_one_wave(self):
        # (b) Eight calls that each need the other seven in flight: a probe
        # call run to completion before the rest would never return.
        client = BarrierClient(WIDTH)
        baseline = threading.active_count()
        responses = BatchExecutor(client, max_concurrency=WIDTH).run(
            [f"p{index}" for index in range(WIDTH)]
        )
        assert [r.text for r in responses] == [f"echo:p{index}" for index in range(WIDTH)]
        assert client.peak == WIDTH
        assert len(client.threads) == WIDTH and threading.get_ident() in client.threads
        assert threading.active_count() == baseline

    def test_never_more_than_max_concurrency_in_flight(self):
        client = BarrierClient(WIDTH)
        BatchExecutor(client, max_concurrency=WIDTH).run([f"p{index}" for index in range(5 * WIDTH)])
        assert client.calls == 5 * WIDTH
        assert client.peak == WIDTH

    def test_map_tasks_overlap_too(self):
        barrier = threading.Barrier(WIDTH, timeout=PATIENCE)
        outcomes = BatchExecutor(EchoClient(), max_concurrency=WIDTH).map([barrier.wait] * WIDTH)
        assert sorted(outcome.value for outcome in outcomes) == list(range(WIDTH))

    def test_the_remainder_after_a_fast_prefix_overlaps(self):
        # (c) Helpers are not a decision taken once at the start of a bag.
        client = BarrierClient(WIDTH)
        prompts = [f"fast{index}" for index in range(100)] + [f"slow{index}" for index in range(WIDTH)]
        responses = BatchExecutor(client, max_concurrency=WIDTH).run(prompts)
        assert [r.text for r in responses] == [f"echo:{prompt}" for prompt in prompts]
        assert client.peak == WIDTH

    def test_a_narrow_bag_starts_no_more_helpers_than_it_has_bodies(self):
        barrier = threading.Barrier(3, timeout=PATIENCE)
        peak = []

        def task():
            barrier.wait()
            peak.append(threading.active_count())

        baseline = threading.active_count()
        BatchExecutor(EchoClient(), max_concurrency=WIDTH).map([task] * 3)
        assert max(peak) <= baseline + 2


class TestCallsThatCompute:
    def test_tasks_that_compute_start_no_helper(self, short_switch_interval):
        # Each task starts no body for three stall windows, but the dispatching
        # thread computes all along: a second thread would only take turns on
        # the interpreter lock.  A host that deschedules the dispatching thread
        # rightly looks stalled to the scout, so one of up to 40 bags must run
        # alone; every bag must run each task once.
        spin = 3 * executor_module._STALL_SECONDS
        baseline = threading.active_count()

        def task():
            began = time.thread_time()
            while time.thread_time() - began < spin:
                pass
            return threading.get_ident(), threading.active_count()

        runners = []
        for _ in range(40):
            outcomes = BatchExecutor(EchoClient(), max_concurrency=WIDTH).map([task] * 3)
            assert all(outcome.ok for outcome in outcomes)
            assert threading.active_count() == baseline
            runners.append({outcome.value for outcome in outcomes})
            # The scout, which never fired, is the one thread besides the caller.
            if runners[-1] == {(threading.get_ident(), baseline + 1)}:
                break
        assert runners[-1] == {(threading.get_ident(), baseline + 1)}, runners


@pytest.fixture
def spinner():
    """A second thread that computes in Python for as long as the test runs."""
    done = threading.Event()

    def spin():
        while not done.is_set():
            pass

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(PATIENCE)
        assert not thread.is_alive()


class TestOtherThreadsCompute:
    """A dispatching thread that waits for the interpreter lock is not a blocked call."""

    def test_zero_latency_bags_start_no_helper(self, spinner):
        # Each bag computes for several switch intervals, so the spinner takes
        # the interpreter lock from the dispatching thread again and again
        # (a scout that read the dispatching thread's clock alone started
        # helpers for one bag in three to six).  A host that deschedules the
        # dispatching thread rightly looks stalled (with both CPUs of a
        # two-CPU host busy, one bag in 40 here), so one of up to five rounds
        # must run alone.
        prompts = [f"p{index}" for index in range(4000)]

        def round_of_bags() -> set[int]:
            threads = set()

            class Census(EchoClient):
                def complete(self, prompt, **params):
                    threads.add(threading.get_ident())
                    return super().complete(prompt, **params)

            for _ in range(20):
                responses = BatchExecutor(Census(), max_concurrency=WIDTH).run(prompts)
                assert [r.text for r in responses] == [f"echo:{prompt}" for prompt in prompts]
            return threads

        rounds = []
        while len(rounds) < 5 and rounds[-1:] != [{threading.get_ident()}]:
            rounds.append(round_of_bags())
        assert rounds[-1] == {threading.get_ident()}, rounds

    def test_a_backend_that_waits_still_goes_wide(self, spinner):
        client = BarrierClient(WIDTH)
        responses = BatchExecutor(client, max_concurrency=WIDTH).run(
            [f"p{index}" for index in range(2 * WIDTH)]
        )
        assert [r.text for r in responses] == [f"echo:p{index}" for index in range(2 * WIDTH)]
        assert client.peak == WIDTH


class TestTheScoutWaitsForTheFirstBody:
    def test_no_helper_takes_a_body_while_the_dispatching_thread_is_held(self, monkeypatch):
        # The dispatching thread sleeps inside its first ``popleft``, fifty
        # stall windows with the whole process idle: the scout must not take
        # that body (or any other) before the dispatching thread has one.
        dispatcher = threading.get_ident()
        taken_by_others: list[int] = []
        during_hold: list[int] = []
        held: list[bool] = []

        class HeldQueue(deque):
            def popleft(self):
                if threading.get_ident() != dispatcher:
                    taken_by_others.append(threading.get_ident())
                elif not held:
                    held.append(True)
                    time.sleep(50 * executor_module._STALL_SECONDS)
                    during_hold.extend(taken_by_others)
                return super().popleft()

        monkeypatch.setattr(executor_module, "deque", HeldQueue)
        baseline = threading.active_count()
        prompts = [f"p{index}" for index in range(20)]
        responses = BatchExecutor(EchoClient(), max_concurrency=WIDTH).run(prompts)
        assert [r.text for r in responses] == [f"echo:{prompt}" for prompt in prompts]
        assert held and during_hold == []
        assert threading.active_count() == baseline


class TestAmbientContext:
    """(d) whichever thread runs a body, it sees the dispatching context and keeps its writes."""

    @pytest.mark.parametrize("blocking", [False, True], ids=["caller-run", "helper-run"])
    def test_labels_and_span_reach_every_task_and_writes_stay_inside_it(
        self, blocking, monkeypatch
    ):
        if not blocking:
            monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)
        scratch: contextvars.ContextVar[str] = contextvars.ContextVar("scratch", default="clean")
        barrier = threading.Barrier(WIDTH, timeout=PATIENCE)
        tracker = SpanTracker()

        def task():
            if blocking:
                barrier.wait()
            seen = (
                current_labels().step,
                current_labels().operator,
                current_span_id(tracker),
                scratch.get(),
                threading.get_ident(),
            )
            scratch.set("dirty")  # never reset: must not reach the next task or the caller
            return seen

        executor = BatchExecutor(EchoClient(), max_concurrency=WIDTH)
        with trace_label(step="screen", operator="filter"), tracker.span("step", "screen") as span:
            outcomes = executor.map([task] * (3 * WIDTH))
            assert scratch.get() == "clean"
        assert [outcome.value[:4] for outcome in outcomes] == [
            ("screen", "filter", span.span_id, "clean")
        ] * (3 * WIDTH)
        threads = {outcome.value[4] for outcome in outcomes}
        assert len(threads) == (WIDTH if blocking else 1) and threading.get_ident() in threads


class TestOutcomesDoNotDependOnTheRegime:
    """(e) failure, skipped and budget-stop outcomes with and without helper threads."""

    @staticmethod
    def shape(outcomes):
        return [
            (o.value, type(o.error).__name__ if o.error else None, o.skipped) for o in outcomes
        ]

    def failure_outcomes(self, blocking: bool):
        def boom():
            raise ValueError("boom")

        baseline = threading.active_count()

        def first():
            # Blocking: the dispatching thread is held in its first task
            # until the one helper has run ``boom``, recorded it and left.
            if blocking:
                wait_for_helpers_to_exit(baseline)
            return "first"

        executor = BatchExecutor(EchoClient(), max_concurrency=2)
        return self.shape(executor.map([first, boom, lambda: "third", lambda: "fourth"]))

    def budget_outcomes(self, blocking: bool):
        budget = Budget(limit=1.0)
        barrier = threading.Barrier(2, timeout=PATIENCE)

        def spend():
            budget.charge(0.5)
            if blocking:
                barrier.wait()
            return "ran"

        executor = BatchExecutor(EchoClient(), max_concurrency=2, budget=budget)
        return self.shape(executor.map([spend] * 6))

    def test_failure_and_skipped(self, monkeypatch):
        blocking = self.failure_outcomes(blocking=True)
        monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)
        assert blocking == self.failure_outcomes(blocking=False)
        assert blocking == [
            ("first", None, False),
            (None, "ValueError", False),
            (None, None, True),
            (None, None, True),
        ]

    def test_budget_stop(self, monkeypatch):
        blocking = self.budget_outcomes(blocking=True)
        monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)
        assert blocking == self.budget_outcomes(blocking=False)
        assert blocking == [("ran", None, False)] * 2 + [(None, "BudgetExceededError", True)] * 4

    def test_run_raises_the_earliest_failure(self, monkeypatch):
        class Failing(BarrierClient):
            def complete(self, prompt, **params):
                response = super().complete(prompt, **params)
                if prompt.endswith("boom"):
                    raise {"first boom": ValueError, "second boom": KeyError}[prompt](prompt)
                return response

        prompts = ["p0", "p1", "p2", "first boom", "p4", "second boom", "p6", "p7"]
        with pytest.raises(ValueError, match="first boom"):
            BatchExecutor(Failing(WIDTH), max_concurrency=WIDTH).run(prompts)
        monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)
        with pytest.raises(ValueError, match="first boom"):
            BatchExecutor(Failing(1), max_concurrency=WIDTH).run(prompts)

    def test_exhausted_budget_stops_run(self):
        budget = Budget(limit=1.0)
        budget.charge(1.0)
        client = BarrierClient(WIDTH)
        session = PromptSession(client, budget=budget)
        with pytest.raises(BudgetExceededError):
            BatchExecutor(session.client(), max_concurrency=WIDTH, budget=budget).run(
                ["a", "b", "c"]
            )
        assert client.calls == 0


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit], ids=lambda exc: exc.__name__)
class TestInterruptsAreNotOutcomes:
    """Ctrl-C inside a task ends the batch; it is not a failed step to carry on from."""

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_map_re_raises(self, driver, concurrency, interrupt):
        ran = []

        def boom():
            raise interrupt()

        executor = executor_for(driver, EchoClient(), concurrency=concurrency)
        with pytest.raises(interrupt):
            call(executor, "map", [boom, lambda: ran.append("after")])
        if concurrency == 1:
            assert ran == []

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_run_re_raises(self, driver, interrupt):
        class Interrupted(EchoClient):
            def complete(self, prompt, **params):
                raise interrupt()

        with pytest.raises(interrupt):
            call(executor_for(driver, Interrupted()), "run", ["a", "b", "c"])

    def test_one_raised_on_a_helper_surfaces_after_in_flight_tasks_finish(self, interrupt):
        finished = []
        baseline = threading.active_count()

        def held():
            wait_for_helpers_to_exit(baseline)  # the helper that ran ``boom``
            finished.append("held")

        def boom():
            raise interrupt()

        executor = BatchExecutor(EchoClient(), max_concurrency=2)
        with pytest.raises(interrupt):
            executor.map([held, boom, lambda: finished.append("never started")])
        assert finished == ["held"]
        assert threading.active_count() == baseline
