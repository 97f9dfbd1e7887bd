"""Runs: the thread executor sends fast unit tasks as native batches, where that is safe.

Until one of its calls reaches a backend that waits,
:class:`~repro.core.executor.BatchExecutor`'s dispatching thread takes runs
of a fanned-out bag and sends each as one native batch — one session settle,
one cache pass, one bag hand-over per run.  Only a bag that passes the
native-batch rule (shared parameters, no enforced budget or lease) is sent
so, and only until the backend gate has said that a call waits; an awaited
bag is the same bag, one thread hop away.  A governor does not stop it: the
session's gate admits the misses of each run.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.budget import Budget
from repro.core.executor import BatchExecutor, BatchRequest
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from tests.doubles import EchoClient, simulated_client

WIDTH = 8


def prompts(count: int) -> list[str]:
    return [f"Is {index} a prime number?" for index in range(count)]


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

    waits = False

    def __init__(self) -> None:
        self._inner = simulated_client()
        self.default_model = self._inner.default_model
        self.threads: set[int] = set()
        self.alive: set[int] = set()

    def complete(self, prompt, **params):
        self.threads.add(threading.get_ident())
        self.alive.add(threading.active_count())
        return self._inner.complete(prompt, **params)


def test_a_bag_that_never_waits_goes_out_in_runs_on_the_calling_thread(settles):
    client = Census()
    session = PromptSession(client)
    baseline = threading.active_count()
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts(600))
    assert len(responses) == 600 and len(session.spans.records()) == 600
    assert client.threads == {threading.get_ident()}
    assert client.alive == {baseline}  # no helper
    assert threading.active_count() == baseline
    assert sum(settles) == 600
    assert len(settles) < 600 / 10 and max(settles) > 1
    # The first call goes alone; so do the last ``WIDTH - 1``.
    assert settles[0] == 1 and settles[-(WIDTH - 1):] == [1] * (WIDTH - 1)


def test_a_governed_bag_goes_out_in_runs_and_each_backend_call_is_admitted(settles):
    governor = ConcurrencyGovernor()
    session = PromptSession(simulated_client(), governor=governor)
    assert len(BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts(60))) == 60
    assert settles != [1] * 60 and sum(settles) == 60
    assert governor.stats.admitted == 60 and governor.in_flight == 0


@pytest.mark.parametrize("case", ["budget", "lease", "mixed parameters"])
def test_no_run_is_taken_where_it_is_not_safe(case, settles):
    session = PromptSession(simulated_client())
    requests: list = prompts(60)
    options = {}
    if case == "budget":
        options["budget"] = Budget(limit=1000.0)
    elif case == "lease":
        options["budget"] = Budget(limit=1000.0).lease(100.0)
    else:
        requests = [
            BatchRequest(prompt, max_tokens=None if index % 2 else 50)
            for index, prompt in enumerate(requests)
        ]
    client = session.client(options.get("budget"))
    executor = BatchExecutor(client, max_concurrency=WIDTH, **options)
    assert len(executor.run(requests)) == 60
    assert settles == [1] * 60


class Waiting(EchoClient):
    """A backend that waits (it says so), noting the threads that called it.

    Behind a session whose cache holds a prefix of the bag, the bag goes out
    in runs until its first miss reaches the gate, which then brings the
    helpers in while that run is in flight.
    """

    waits = True

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[int] = set()

    def complete(self, prompt, **params):
        with self._lock:
            self.threads.add(threading.get_ident())
        return super().complete(prompt, **params)


def warm_session(client, cached: list[str]) -> PromptSession:
    session = PromptSession(client)
    session.complete_batch(cached)
    return session


@pytest.mark.parametrize("warm", [0, 50, 150])
def test_helpers_that_join_while_runs_are_taken_lose_no_call(warm, settles):
    """Every request is still answered once, in its place, and settled once."""
    asked = prompts(200)
    client = Waiting()
    session = warm_session(client, asked[:warm])
    settles.clear()
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(asked)
    records = {record.call_id: record.prompt for record in session.spans.records()}
    assert [records[r.metadata["trace_call_id"]] for r in responses] == asked
    assert [response.text for response in responses] == [f"echo:{p}" for p in asked]
    assert sum(settles) == len(asked) == client.calls  # warm ones once, before the bag
    assert len(client.threads) > 1


def test_no_run_is_taken_once_the_gate_has_said_a_call_waits(settles, monkeypatch):
    """The first miss, inside a run of cache hits, reaches the gate; from then
    on no thread takes a run, though the run it was in is still in flight."""
    baseline = threading.active_count()
    reached: list[bool] = []
    taken_after: list[int] = []
    batch = BatchExecutor._batch

    def spy(self, prompts, like):
        if reached:
            taken_after.append(len(prompts))
        return batch(self, prompts, like)

    monkeypatch.setattr(BatchExecutor, "_batch", spy)

    class Reached(Waiting):
        def complete(self, prompt, **params):
            reached.append(True)
            return super().complete(prompt, **params)

    bag = prompts(2000)
    session = warm_session(Reached(), bag[:100])
    reached.clear()
    settles.clear()
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(bag)
    assert [response.text for response in responses] == [f"echo:{p}" for p in bag]
    assert sum(settles) == len(bag)
    assert reached and taken_after == []
    assert threading.active_count() == baseline


def record_key(record) -> tuple:
    """A call record without what dispatch may change: its id and its timing."""
    return (record.prompt, record.response_text, record.prompt_tokens,
            record.completion_tokens, round(record.cost, 12), record.cache_hit, record.error)


def test_runs_double_from_one_call_up_to_32_at_the_real_stall_threshold(settles):
    """Over the simulator, which declares that it does not wait, runs go 1,
    2, 4, ... and never take more than 32 calls, so a 600-call bag settles
    in 30 runs (the last ``WIDTH - 1`` calls alone), however busy the host:
    asked of one bag."""
    asked = prompts(600)
    reference = PromptSession(simulated_client())
    expected = [response.text for response in BatchExecutor(reference.client()).run(asked)]
    expected_records = sorted(map(record_key, reference.spans.records()))
    settles.clear()
    session = PromptSession(simulated_client())
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(asked)
    assert [response.text for response in responses] == expected
    assert sorted(map(record_key, session.spans.records())) == expected_records
    assert sum(settles) == 600 and max(settles) <= 32
    assert settles[-(WIDTH - 1):] == [1] * (WIDTH - 1)
    best = list(settles)
    assert len(best) <= 30, len(best)
    assert best[:6] == [1, 2, 4, 8, 16, 32]
