"""Runs: the thread executor sends fast unit tasks as native batches, where that is safe.

Until its scout sees a stall, :class:`~repro.core.executor.BatchExecutor`'s
dispatching thread takes runs of a fanned-out bag and sends each as one
native batch — one session settle, one cache pass, one bag hand-over per
run.  Only a bag that passes the native-batch rule (shared parameters, no
enforced budget or lease) is sent so, only on the thread executor, and only
before the scout has fired.  A governor does not stop it: the session's gate
admits the misses of each run.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import executor as executor_module
from repro.core.budget import Budget
from repro.core.executor import AsyncBatchExecutor, BatchExecutor, BatchRequest
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from tests.doubles import EchoClient, call, simulated_client

WIDTH = 8
#: Upper bound on any wait in this file; reaching it fails the test.
PATIENCE = 5.0


def prompts(count: int) -> list[str]:
    return [f"Is {index} a prime number?" for index in range(count)]


@pytest.fixture
def never_stalls(monkeypatch):
    """Calls that do not wait: no pause counts as a stall."""
    monkeypatch.setattr(executor_module, "_STALL_SECONDS", 60.0)


@pytest.fixture
def settles(monkeypatch) -> list[int]:
    """The number of calls each ``PromptSession._settle`` settled, in order."""
    sizes: list[int] = []
    settle = PromptSession._settle

    def spy(self, prompts, responses, *args):
        sizes.append(len(responses))
        return settle(self, prompts, responses, *args)

    monkeypatch.setattr(PromptSession, "_settle", spy)
    return sizes


class Census:
    """The simulator, noting the calling thread and how many threads were alive."""

    def __init__(self) -> None:
        self._inner = simulated_client()
        self.default_model = self._inner.default_model
        self.threads: set[int] = set()
        self.alive: set[int] = set()

    def complete(self, prompt, **params):
        self.threads.add(threading.get_ident())
        self.alive.add(threading.active_count())
        return self._inner.complete(prompt, **params)


def test_a_bag_that_never_waits_goes_out_in_runs_on_the_calling_thread(never_stalls, settles):
    client = Census()
    session = PromptSession(client)
    baseline = threading.active_count()
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts(600))
    assert len(responses) == 600 and len(session.spans.records()) == 600
    assert client.threads == {threading.get_ident()}
    assert client.alive == {baseline + 1}  # the scout, which never fired: no helper
    assert threading.active_count() == baseline
    assert sum(settles) == 600
    assert len(settles) < 600 / 10 and max(settles) > 1
    # The first call goes alone; so do the last ``WIDTH - 1``.
    assert settles[0] == 1 and settles[-(WIDTH - 1):] == [1] * (WIDTH - 1)


def test_a_governed_bag_goes_out_in_runs_and_each_backend_call_is_admitted(
    never_stalls, settles
):
    governor = ConcurrencyGovernor()
    session = PromptSession(simulated_client(), governor=governor)
    assert len(BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts(60))) == 60
    assert settles != [1] * 60 and sum(settles) == 60
    assert governor.stats.admitted == 60 and governor.in_flight == 0


@pytest.mark.parametrize("case", ["budget", "lease", "mixed parameters", "asyncio"])
def test_no_run_is_taken_where_it_is_not_safe(case, never_stalls, settles):
    session = PromptSession(simulated_client())
    requests: list = prompts(60)
    kind, options = BatchExecutor, {}
    if case == "budget":
        options["budget"] = Budget(limit=1000.0)
    elif case == "lease":
        options["budget"] = Budget(limit=1000.0).lease(100.0)
    elif case == "mixed parameters":
        requests = [
            BatchRequest(prompt, max_tokens=None if index % 2 else 50)
            for index, prompt in enumerate(requests)
        ]
    else:
        kind = AsyncBatchExecutor
    client = session.client(options.get("budget"))
    executor = kind(client, max_concurrency=WIDTH, **options)
    assert len(call(executor, "run", requests)) == 60
    assert settles == [1] * 60


def test_a_scout_that_fires_while_runs_are_taken_loses_no_call(settles):
    """A call that waits inside a run brings the helpers in while the run is
    in flight: every request is still answered once, in its place, and
    settled once."""
    inner = simulated_client()

    class Occasional:
        default_model = inner.default_model

        def complete(self, prompt, **params):
            if prompt.endswith("7 a prime number?"):
                time.sleep(0.002)
            return inner.complete(prompt, **params)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + PATIENCE
        for bag in range(20):
            assert time.monotonic() < deadline
            session = PromptSession(Occasional())
            asked = prompts(200 + bag)
            responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(asked)
            records = {record.call_id: record.prompt for record in session.spans.records()}
            assert [records[r.metadata["trace_call_id"]] for r in responses] == asked
            assert sum(settles) == len(asked) == len(records)
            settles.clear()
    finally:
        sys.setswitchinterval(interval)


def test_no_run_is_taken_once_the_scout_has_fired(settles, monkeypatch):
    """A call inside a run of fast calls waits long enough for the scout to
    fire; from then on no thread takes a run, even though the run it was in
    still measures fast on average."""
    baseline = threading.active_count()
    fired = threading.Event()
    taken_after_the_stall: list[int] = []
    batch = executor_module._ExecutorCore._batch

    def spy(self, prompts, like):
        if fired.is_set():
            taken_after_the_stall.append(len(prompts))
        return batch(self, prompts, like)

    monkeypatch.setattr(executor_module._ExecutorCore, "_batch", spy)
    callers: set[int] = set()

    class Stalling(EchoClient):
        def complete(self, prompt, **params):
            callers.add(threading.get_ident())
            if prompt == "stall":
                time.sleep(0.003)
                # A helper is running, or has run a call: the scout has fired.
                if threading.active_count() >= baseline + 2 or len(callers) > 1:
                    fired.set()
            return super().complete(prompt, **params)

    seen_firing = 0
    for _ in range(20):
        fired.clear()
        callers.clear()
        bag = prompts(100) + ["stall"] + prompts(2000)[100:]
        session = PromptSession(Stalling())
        responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(bag)
        assert [response.text for response in responses] == [f"echo:{p}" for p in bag]
        assert sum(settles) == len(bag)
        assert taken_after_the_stall == []
        assert threading.active_count() == baseline
        settles.clear()
        seen_firing += fired.is_set()
        if seen_firing == 3:
            break
    assert seen_firing == 3, "the scout never fired during a 3 ms wait"


def record_key(record) -> tuple:
    """A call record without what dispatch may change: its id and its timing."""
    return (record.prompt, record.response_text, record.prompt_tokens,
            record.completion_tokens, round(record.cost, 12), record.cache_hit, record.error)


def test_runs_double_from_one_call_up_to_32_at_the_real_stall_threshold(settles):
    """The shipped ``_STALL_SECONDS``: while the dispatching thread computes,
    runs go 1, 2, 4, ... and never take more than 32 calls, so a 600-call bag
    settles in 30 runs (the last ``WIDTH - 1`` calls alone).  A host that
    deschedules the dispatching thread rightly looks stalled to the scout, so
    the count and the doubling are asked of the best of ten bags; what every
    bag answers and records is asked of each."""
    asked = prompts(600)
    reference = PromptSession(simulated_client())
    expected = [response.text for response in BatchExecutor(reference.client()).run(asked)]
    expected_records = sorted(map(record_key, reference.spans.records()))
    shapes: list[list[int]] = []
    for _ in range(10):
        settles.clear()
        session = PromptSession(simulated_client())
        responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(asked)
        assert [response.text for response in responses] == expected
        assert sorted(map(record_key, session.spans.records())) == expected_records
        assert sum(settles) == 600 and max(settles) <= 32
        assert settles[-(WIDTH - 1):] == [1] * (WIDTH - 1)
        shapes.append(list(settles))
        if len(settles) <= 30:
            break
    best = min(shapes, key=len)
    assert len(best) <= 30, [len(shape) for shape in shapes]
    assert best[:6] == [1, 2, 4, 8, 16, 32]


def test_a_run_that_waited_sends_the_next_call_alone(never_stalls, settles):
    """Call 10 waits, inside the fourth run (calls 7 to 14): the next run is
    one call, and doubling starts over.  A descheduled host can make a run
    look like it waited too, so the shape is asked of one of ten bags."""
    inner = simulated_client()

    class WaitsOnce:
        default_model = inner.default_model

        def complete(self, prompt, **params):
            if prompt == "Is 10 a prime number?":
                time.sleep(0.002)
            return inner.complete(prompt, **params)

    shapes: list[list[int]] = []
    for _ in range(10):
        settles.clear()
        session = PromptSession(WaitsOnce())
        assert len(BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts(100))) == 100
        shapes.append(settles[:8])
        if shapes[-1] == [1, 2, 4, 8, 1, 2, 4, 8]:
            break
    assert shapes[-1] == [1, 2, 4, 8, 1, 2, 4, 8], shapes
