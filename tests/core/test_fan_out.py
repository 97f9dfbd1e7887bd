"""The caller-runs fan-out of :class:`~repro.core.executor.BatchExecutor`.

The dispatching thread drains a fanned-out bag itself, and helper threads
join it only when one of its calls reaches a backend that waits: the backend
gate says so before the call goes out, and an executor over a raw client
with no gate reads the client's ``waits`` when it starts.  None of these
tests reads a clock.  The regime where calls never wait is a double that
declares ``waits = False``; the regime where they do is a double that
declares ``waits = True`` and whose calls meet at a :class:`threading.Barrier`
(or wait on a helper's exit), so they can only get past it if the bag really
went wide.  Beside a thread spinning in Python, bags that never wait still
run alone and ones that do still go wide.
"""

from __future__ import annotations

import contextvars
import threading
import time

import pytest

from repro.core.budget import Budget
from repro.core.executor import BatchExecutor
from repro.core.engine import DeclarativeEngine
from repro.core.governor import BackendGate, ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec, PipelineStep, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import BudgetExceededError
from repro.llm.simulated import SimulatedLLM
from repro.obs.spans import SpanTracker, current_span_id
from repro.obs.spans import current_labels, trace_label
from tests.doubles import DRIVERS, MAP_DRIVERS, EchoClient, call, executor_for, hop

WIDTH = 8
MODEL = "sim-gpt-3.5-turbo"
#: Upper bound on any wait in this file; reaching it fails the test.
PATIENCE = 5.0


def wait_for_helpers_to_exit(baseline: int) -> None:
    """Block the calling task until every helper thread of its bag has exited."""
    deadline = time.monotonic() + PATIENCE
    while threading.active_count() > baseline:
        assert time.monotonic() < deadline, "helper threads never exited"
        time.sleep(0.001)


@pytest.fixture
def started(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs."""
    threads: list[threading.Thread] = []
    start = threading.Thread.start

    def spy(thread):
        threads.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return threads


class BarrierClient(EchoClient):
    """Every call waits for ``parties`` calls to be in flight at once."""

    waits = True

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


class HeldClient(EchoClient):
    """A backend that waits: each call returns once ``hold()`` has returned."""

    waits = True

    def __init__(self, hold) -> None:
        super().__init__()
        self.hold = hold

    def complete(self, prompt, **params):
        self.hold()
        return super().complete(prompt, **params)


class MeetingLLM(SimulatedLLM):
    """The simulator, except that it waits: each call waits for ``parties``
    calls to be in flight at once."""

    waits = True

    def __init__(self, parties: int) -> None:
        super().__init__(flavor_oracle(), seed=21)
        self.barrier = threading.Barrier(parties, timeout=PATIENCE)

    def complete(self, prompt, **params):
        self.barrier.wait()
        return super().complete(prompt, **params)


def sort_wave(*halves: list[str]) -> PipelineSpec:
    """One wave: an independent rating sort per half, one call per item."""
    return PipelineSpec(
        name="wave",
        steps=[
            PipelineStep(
                f"half{index}", task=SortSpec(items=items, criterion=CHOCOLATEY, strategy="rating")
            )
            for index, items in enumerate(halves)
        ],
    )


class TestCallsThatNeverWait:
    """(a) the dispatching thread runs the whole bag and no thread is left behind."""

    def test_run_stays_on_the_calling_thread(self):
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

    def test_map_stays_on_the_calling_thread_in_order(self):
        ran = []
        baseline = threading.active_count()
        outcomes = BatchExecutor(EchoClient(), max_concurrency=WIDTH).map(
            [lambda index=index: ran.append((index, threading.get_ident())) for index in range(200)]
        )
        assert all(outcome.ok for outcome in outcomes)
        assert ran == [(index, threading.get_ident()) for index in range(200)]
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_failed_bag(self):
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

    @pytest.mark.parametrize("governed", [False, True], ids=["plain", "governed"])
    def test_the_first_backend_call_brings_the_helpers_in_before_it_returns(self, governed):
        # Through a session, so the gate says that the call waits: the bag's
        # first call is still in flight when the other ``WIDTH - 1`` arrive.
        client = BarrierClient(WIDTH)
        session = PromptSession(client, governor=ConcurrencyGovernor() if governed else None)
        prompts = [f"p{index}" for index in range(WIDTH)]
        responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts)
        assert [r.text for r in responses] == [f"echo:{prompt}" for prompt in prompts]
        assert client.peak == WIDTH and threading.get_ident() in client.threads

    def test_map_tasks_overlap_too(self):
        # Each task's call crosses the session's gate to a backend that waits.
        client = BarrierClient(WIDTH)
        session = PromptSession(client)
        tasks = [lambda index=index: session.complete(f"p{index}").text for index in range(WIDTH)]
        outcomes = session.batch_executor(max_concurrency=WIDTH).map(tasks)
        assert [outcome.value for outcome in outcomes] == [f"echo:p{i}" for i in range(WIDTH)]
        assert client.peak == WIDTH

    def test_the_remainder_after_a_cached_prefix_overlaps(self):
        # (c) Helpers are not a decision taken once at the start of a bag:
        # the cached prefix goes out in runs, and the run that reaches the
        # backend brings the helpers in while it is in flight.
        client = BarrierClient(WIDTH)
        session = PromptSession(client)
        cached = [f"fast{index}" for index in range(100)]
        session.complete_batch(cached)
        prompts = cached + [f"slow{index}" for index in range(WIDTH)]
        responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts)
        assert [r.text for r in responses] == [f"echo:{prompt}" for prompt in prompts]
        assert client.peak == WIDTH

    def test_a_narrow_bag_starts_no_more_helpers_than_it_has_bodies(self):
        client = BarrierClient(3)
        session = PromptSession(client)
        peak = []

        def task(index):
            session.complete(f"p{index}")
            peak.append(threading.active_count())

        baseline = threading.active_count()
        session.batch_executor(max_concurrency=WIDTH).map([lambda i=i: task(i) for i in range(3)])
        assert len(client.threads) == 3 and max(peak) <= baseline + 2

    def test_a_waves_steps_overlap_through_the_outward_walk(self):
        # Two steps of two calls each, two wide: the first call of the first
        # step brings in its own fan-out's helper and the wave's, whose step
        # brings in its own; the four calls meet.
        engine = DeclarativeEngine(MeetingLLM(4), default_model=MODEL, max_concurrency=2)
        report = engine.run_pipeline(sort_wave(list(FLAVORS[:2]), list(FLAVORS[2:4])))
        assert report.waves == [["half0", "half1"]] and engine.session.tracker.usage.calls == 4


class TestCallsThatCompute:
    def test_tasks_that_compute_start_no_helper(self, started):
        # Tasks that compute and reach no backend that waits run in turn on
        # the dispatching thread: a second thread would only take turns on
        # the interpreter lock.
        def task():
            began = time.thread_time()
            while time.thread_time() - began < 0.003:
                pass
            return threading.get_ident()

        outcomes = BatchExecutor(EchoClient(), max_concurrency=WIDTH).map([task] * 3)
        assert [outcome.value for outcome in outcomes] == [threading.get_ident()] * 3
        assert started == []


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
        # the interpreter lock from the dispatching thread again and again:
        # nothing a busy host does to the dispatching thread brings helpers
        # in, only a call to a backend that waits.
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

        rounds = [round_of_bags()]
        assert rounds[-1] == {threading.get_ident()}, rounds

    def test_a_session_over_the_simulator_never_starts_a_thread(self, spinner, started):
        # Once, with no retry: a bag and a two-step wave, eight wide.
        engine = DeclarativeEngine(
            SimulatedLLM(flavor_oracle(), seed=21), default_model=MODEL, max_concurrency=WIDTH
        )
        prompts = [f"Is {index} a prime number?" for index in range(200)]
        assert len(engine.session.batch_executor().run(prompts)) == 200
        report = engine.run_pipeline(sort_wave(list(FLAVORS[:8]), list(FLAVORS[8:14])))
        assert report.waves == [["half0", "half1"]] and engine.session.tracker.usage.calls == 214
        assert started == []

    def test_a_backend_that_waits_still_goes_wide(self, spinner):
        client = BarrierClient(WIDTH)
        responses = BatchExecutor(client, max_concurrency=WIDTH).run(
            [f"p{index}" for index in range(2 * WIDTH)]
        )
        assert [r.text for r in responses] == [f"echo:p{index}" for index in range(2 * WIDTH)]
        assert client.peak == WIDTH


class TestAmbientContext:
    """(d) whichever thread runs a body, it sees the dispatching context and keeps its writes."""

    @pytest.mark.parametrize("blocking", [False, True], ids=["caller-run", "helper-run"])
    def test_labels_and_span_reach_every_task_and_writes_stay_inside_it(self, blocking):
        scratch: contextvars.ContextVar[str] = contextvars.ContextVar("scratch", default="clean")
        # A gate over a backend that waits: its calls meet, ``WIDTH`` at a time.
        gate = BackendGate(BarrierClient(WIDTH))
        tracker = SpanTracker()

        def task():
            if blocking:
                gate.complete("p")
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
    """(e) failure and skipped outcomes with and without helper threads."""

    @staticmethod
    def shape(outcomes):
        return [
            (o.value, type(o.error).__name__ if o.error else None, o.skipped) for o in outcomes
        ]

    def failure_outcomes(self, blocking: bool):
        def boom():
            raise ValueError("boom")

        baseline = threading.active_count()
        # Blocking: the dispatching thread's first task calls a backend that
        # waits, until the one helper has run ``boom``, recorded it and left.
        held = HeldClient(lambda: wait_for_helpers_to_exit(baseline))
        gate = BackendGate(held if blocking else EchoClient())

        def first():
            gate.complete("first")
            return "first"

        executor = BatchExecutor(gate, max_concurrency=2)
        return self.shape(executor.map([first, boom, lambda: "third", lambda: "fourth"]))

    def test_failure_and_skipped(self):
        blocking = self.failure_outcomes(blocking=True)
        assert blocking == self.failure_outcomes(blocking=False)
        assert blocking == [
            ("first", None, False),
            (None, "ValueError", False),
            (None, None, True),
            (None, None, True),
        ]

    def test_run_raises_the_earliest_failure(self):
        class Failing(BarrierClient):
            def complete(self, prompt, **params):
                response = super().complete(prompt, **params)
                if prompt.endswith("boom"):
                    raise {"first boom": ValueError, "second boom": KeyError}[prompt](prompt)
                return response

        prompts = ["p0", "p1", "p2", "first boom", "p4", "second boom", "p6", "p7"]
        with pytest.raises(ValueError, match="first boom"):
            BatchExecutor(Failing(WIDTH), max_concurrency=WIDTH).run(prompts)
        alone = Failing(1)
        alone.waits = False  # the dispatching thread runs the bag, in order
        with pytest.raises(ValueError, match="first boom"):
            BatchExecutor(alone, max_concurrency=WIDTH).run(prompts)

    def test_exhausted_budget_stops_run(self):
        budget = Budget(limit=1.0)
        budget.charge(1.0)
        client = BarrierClient(WIDTH)
        session = PromptSession(client, budget=budget)
        with pytest.raises(BudgetExceededError):
            BatchExecutor(session.client(), max_concurrency=WIDTH).run(["a", "b", "c"])
        assert client.calls == 0


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit], ids=lambda exc: exc.__name__)
class TestInterruptsAreNotOutcomes:
    """Ctrl-C inside a task ends the batch; it is not a failed step to carry on from."""

    @pytest.mark.parametrize("driver", MAP_DRIVERS)
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_map_re_raises(self, driver, concurrency, interrupt):
        ran = []

        def boom():
            raise interrupt()

        executor = executor_for(driver, EchoClient(), concurrency=concurrency)
        with pytest.raises(interrupt):
            executor.map([boom, lambda: ran.append("after")])
        if concurrency == 1:
            assert ran == []

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_run_re_raises(self, driver, interrupt):
        class Interrupted(EchoClient):
            def complete(self, prompt, **params):
                raise interrupt()

        with pytest.raises(interrupt):
            call(executor_for(driver, Interrupted()), "run", ["a", "b", "c"])

    @pytest.mark.parametrize("driver", ["sync", "asyncio"])
    def test_a_pipeline_step_re_raises(self, driver, interrupt):
        # An interrupt is not a failed step the scheduler reports: it leaves
        # ``run_pipeline``, and from an event loop, ``asyncio.run`` too.
        def boom(session, inputs):
            raise interrupt()

        engine = DeclarativeEngine(session=PromptSession(EchoClient(), max_concurrency=WIDTH))
        spec = PipelineSpec(
            name="interrupted",
            steps=[
                PipelineStep("boom", run=boom),
                PipelineStep("after", run=lambda session, inputs: 1, depends_on=("boom",)),
            ],
        )
        with pytest.raises(interrupt):
            hop(engine.run_pipeline, spec) if driver == "asyncio" else engine.run_pipeline(spec)
        assert engine.session.tracker.calls == 0

    def test_one_raised_on_a_helper_surfaces_after_in_flight_tasks_finish(self, interrupt):
        finished = []
        baseline = threading.active_count()
        # A backend that waits, until the helper that ran ``boom`` has left.
        gate = BackendGate(HeldClient(lambda: wait_for_helpers_to_exit(baseline)))

        def held():
            gate.complete("held")
            finished.append("held")

        def boom():
            raise interrupt()

        executor = BatchExecutor(gate, max_concurrency=2)
        with pytest.raises(interrupt):
            executor.map([held, boom, lambda: finished.append("never started")])
        assert finished == ["held"]
        assert threading.active_count() == baseline
