"""Runs: the thread executor sends fast unit tasks as native batches, where that is safe.

Until one of its calls reaches a backend that waits,
:class:`~repro.core.executor.BatchExecutor`'s dispatching thread takes runs
of a fanned-out bag and sends each as one native batch — one session settle,
one cache pass, one bag hand-over per run.  Only a bag that passes the
native-batch rule (shared parameters) is sent so, and only until the backend
gate has said that a call waits; an awaited bag is the same bag, one thread
hop away.  Neither a governor nor a limit stops it: the session's gate
admits, checks and charges the misses of each run one by one.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.executor import BatchExecutor, BatchRequest
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.data.words import random_words
from repro.exceptions import BudgetExceededError
from repro.llm.faulty import FaultyLLM
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.tokenizer.cost import to_dollars, to_nanos
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
    """The simulator (or ``inner``), noting the calling thread and how many
    threads were alive."""

    waits = False

    def __init__(self, inner=None) -> None:
        self._inner = inner or simulated_client()
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
    # The first call goes alone, then runs of 32 to the end of the bag.
    assert settles == [1] + [32] * 18 + [23]


def test_a_governed_bag_goes_out_in_runs_and_each_backend_call_is_admitted(settles):
    governor = ConcurrencyGovernor()
    session = PromptSession(simulated_client(), governor=governor)
    assert len(BatchExecutor(session.client(), max_concurrency=WIDTH).run(prompts(60))) == 60
    assert settles != [1] * 60 and sum(settles) == 60
    assert governor.stats.admitted == 60 and governor.in_flight == 0


@pytest.mark.parametrize("case", ["mixed parameters"])
def test_no_run_is_taken_where_it_is_not_safe(case, settles):
    session = PromptSession(simulated_client())
    requests = [
        BatchRequest(prompt, max_tokens=None if index % 2 else 50)
        for index, prompt in enumerate(prompts(60))
    ]
    assert len(BatchExecutor(session.client(), max_concurrency=WIDTH).run(requests)) == 60
    assert settles == [1] * 60


def spend_of_the_first(count: int, asked: list[str]) -> int:
    """What the first ``count`` calls of ``asked`` cost, in n$."""
    probe = PromptSession(simulated_client())
    probe.complete_batch(asked[:count])
    return to_nanos(probe.budget.spent)


@pytest.mark.parametrize("case", ["budget", "lease"])
def test_a_limited_bag_takes_runs_and_stops_before_its_next_backend_call_once_spent(
    case, settles
):
    """The 20th call's charge crosses the limit, inside the run of 32 that
    starts at the 2nd: it is booked, and no later call is made."""
    asked = prompts(60)
    crossed = spend_of_the_first(20, asked)
    limit = to_dollars(crossed - 1)
    budget = Budget(limit=limit) if case == "budget" else Budget(limit=1000.0).lease(limit)
    backend = FaultyLLM(simulated_client())
    session = PromptSession(backend)
    executor = BatchExecutor(session.client(budget), max_concurrency=WIDTH)
    settles.clear()
    with pytest.raises(BudgetExceededError):
        executor.run(asked)
    assert settles == [1, 19]  # runs, the last cut at the crossing call
    assert backend.answered == asked[:20] and backend.calls == 20
    assert session.tracker.usage.calls == len(session.spans.records()) == 20
    assert budget.spent == to_dollars(session.tracker.cost()) == to_dollars(crossed)


class Waiting(EchoClient):
    """A backend that waits (it says so), noting the threads that called it,
    and the one that answered each prompt (``on``).

    Behind a session whose cache holds a prefix of the bag, the bag goes out
    in runs until its first miss reaches the gate, which then brings the
    helpers in and ends that run: its requests from that miss on go back to
    the queue.
    """

    waits = True

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[int] = set()
        self.on: dict[str, int] = {}

    def complete(self, prompt, **params):
        with self._lock:
            self.threads.add(threading.get_ident())
            self.on[prompt] = threading.get_ident()
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


def test_a_run_that_meets_a_miss_leaves_its_misses_to_the_helpers(settles):
    """Behind a warm cache that holds the first 32 requests and every other
    one after them, the run of 32 that starts at the 2nd request ends at its
    one miss, the 33rd, and the misses after it reach more than one thread:
    two of them, each held until the other arrives, meet (sent in series on
    one thread, the first would wait for good, and the barrier breaks after
    its timeout)."""
    bag = prompts(200)
    meet = threading.Barrier(2, timeout=10)
    backend = Waiting()
    client = FaultyLLM(backend, {bag[34]: meet.wait, bag[36]: meet.wait})
    session = warm_session(client, bag[:31] + bag[31::2])
    settles.clear()
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(bag)
    assert [response.text for response in responses] == [f"echo:{p}" for p in bag]
    assert settles[:2] == [1, 31]  # the run of 32 settled its hits before the miss
    assert len({backend.on[prompt] for prompt in bag[34:63:2]}) > 1


def test_no_run_is_taken_once_the_gate_has_said_a_call_waits(settles, monkeypatch):
    """The first miss, inside a run of cache hits, reaches the gate, which
    ends that run; from then on no thread takes a run."""
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


def test_runs_take_32_calls_after_the_first(settles):
    """Over the simulator, which declares that it does not wait, the first
    call goes alone and each run after it takes 32 calls, so a 600-call bag
    settles in 20 runs, however busy the host: asked of one bag."""
    asked = prompts(600)
    reference = PromptSession(simulated_client())
    expected = [response.text for response in BatchExecutor(reference.client()).run(asked)]
    expected_records = sorted(map(record_key, reference.spans.records()))
    settles.clear()
    session = PromptSession(simulated_client())
    responses = BatchExecutor(session.client(), max_concurrency=WIDTH).run(asked)
    assert [response.text for response in responses] == expected
    assert sorted(map(record_key, session.spans.records())) == expected_records
    assert settles == [1] + [32] * 18 + [23]


EARLY = "starts early in the alphabet"
ALPHABETICAL = "alphabetical order"


def job_oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_predicate(EARLY, lambda word: word[0] in "abcdefghijklm")
    oracle.register_key(ALPHABETICAL, key=lambda word: word)
    return oracle


def test_a_service_job_settles_four_times_on_the_calling_thread(settles):
    """A job of the service's shape at its tenant width of 4: a per-item
    filter of 8 words, then a pairwise sort of those 8 (28 pairs).  Each bag
    goes out as its first call, then one run of the rest."""
    for count in (8, 28):
        settles.clear()
        session = PromptSession(simulated_client())
        assert len(BatchExecutor(session.client(), max_concurrency=4).run(prompts(count))) == count
        assert settles == [1, count - 1]
    words = random_words(8, seed=11)
    spec = PipelineSpec(
        name="job",
        steps=[
            PipelineStep(
                "screen", task=FilterSpec(items=words, predicate=EARLY, strategy="per_item")
            ),
            PipelineStep(
                "rank",
                task=SortSpec(items=words, criterion=ALPHABETICAL, strategy="pairwise"),
                depends_on=("screen",),
            ),
        ],
    )
    reports, baseline = [], threading.active_count()
    for width in (1, 4):
        client = Census(SimulatedLLM(job_oracle(), seed=3))
        engine = DeclarativeEngine(session=PromptSession(client, max_concurrency=width))
        settles.clear()
        reports.append(engine.run_pipeline(spec))
    alone, wide = reports
    assert wide.results["screen"].kept == alone.results["screen"].kept
    assert wide.results["rank"].order == alone.results["rank"].order
    assert settles == [1, 7, 1, 27]
    assert engine.session.tracker.usage.calls == 36
    assert client.threads == {threading.get_ident()} and client.alive == {baseline}


def test_a_slow_tail_still_finds_a_full_width_of_helpers():
    """With no requests held back from the runs, the last 4 of 8 requests —
    cache misses, each held until all 4 arrive — still go out on 4 threads:
    the first miss ends its run, which queues the rest for the helpers (sent
    with fewer in flight, the barrier breaks after its timeout)."""
    bag = prompts(8)
    meet = threading.Barrier(4, timeout=10)
    client = FaultyLLM(EchoClient(), {prompt: meet.wait for prompt in bag[4:]})
    session = warm_session(client, bag[:4])
    responses = BatchExecutor(session.client(), max_concurrency=4).run(bag)
    assert [response.text for response in responses] == [f"echo:{p}" for p in bag]
    assert not meet.broken and sorted(client.answered[4:]) == bag[4:] and client.calls == 8
