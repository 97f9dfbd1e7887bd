"""The books agree on every driver, whatever call of a bag fails.

A bag that ends early — a call that raises, Ctrl-C — has still made the
calls that reached the backend before it.  Whichever way the bag was
dispatched (one native batch at width 1, runs or unit tasks on threads,
awaited through one thread hop), with or without the response cache, those calls are
tracked, charged, cached, recorded and admitted by the session's governor
exactly once, and nothing else is.  Money is counted in whole n$, so every
book's dollars are equal to the bit, and so is a bag's spend on every driver
and width, in any order of its requests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import Budget
from repro.core.executor import BatchExecutor, BatchRequest
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.exceptions import BackendConnectionError, BudgetExceededError
from repro.llm.cache import CachedClient
from repro.llm.faulty import FaultyLLM
from repro.llm.retry import RetryingClient
from repro.obs import trace_label
from repro.tokenizer.cost import to_dollars, to_nanos
from tests.doubles import ask, call, executor_for, rating_prompts, simulated_client

MODEL = "sim-gpt-3.5-turbo"
STEP, OPERATOR = "screen", "sort:rating"
#: (driver, width, whether the backend declares that its calls wait).
DRIVERS = {
    "sync@1": ("sync", 1, False),
    "threads@8": ("threads", 8, False),
    "threads@8, stalling": ("threads", 8, True),
    "async@8": ("async", 8, False),
}
POOL = rating_prompts(60)


def assert_the_books_agree(session: PromptSession, client: FaultyLLM, *, errors: int) -> None:
    """Tracker, budget, ring, metrics and stats all tell of the calls that came back."""
    reached = len(client.answered)
    records = session.spans.records()
    settled = [record for record in records if record.error is None]
    misses = [record for record in settled if not record.cache_hit]
    series = session.metrics.snapshot()
    assert len(misses) == reached == session.tracker.usage.calls
    assert sorted(record.prompt for record in misses) == sorted(client.answered)
    assert len(records) == len(settled) + errors
    spent = session.budget.spent
    assert to_dollars(session.tracker.cost()) == spent
    assert to_dollars(sum(to_nanos(record.cost) for record in settled)) == spent
    assert sum(series["repro_llm_calls_total"].values()) == len(settled)
    assert series["repro_call_duration_seconds"]['_count{tenant=""}'] == len(settled)
    assert series["repro_llm_cost_dollars_total"]['{tenant=""}'] == spent
    assert series["repro_budget_spent_dollars"]['{tenant=""}'] == spent
    assert sum(series.get("repro_llm_call_errors_total", {}).values()) == errors
    samples = {OPERATOR: len(records)} if records else {}
    latency = session.stats.export_state()["latency"]
    assert {label: len(kept) for label, kept in latency.items()} == samples


@settings(max_examples=150, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=60),
    shrink=st.integers(1, 4),
    data=st.data(),
    error=st.sampled_from([BackendConnectionError, KeyboardInterrupt]),
    use_cache=st.booleans(),
    driver=st.sampled_from(sorted(DRIVERS)),
)
def test_a_bag_books_the_calls_that_reached_the_backend(
    picks, shrink, data, error, use_cache, driver
):
    # ``shrink`` folds the picks onto fewer prompts: more repeats.
    prompts = [POOL[pick // shrink] for pick in picks]
    # The index of the failing call among those that reach the backend; at
    # the bag's size or beyond (with the cache, past its distinct prompts)
    # no call fails.
    trip = data.draw(st.integers(0, len(prompts)), label="trip")
    kind, width, stalling = DRIVERS[driver]
    # The ``trip``-th call to start raises; a stalling backend makes every call wait.
    client = FaultyLLM(simulated_client(), {trip: error}, delay=0.002 if stalling else 0.0)
    governor = ConcurrencyGovernor()
    session = PromptSession(client, use_cache=use_cache, governor=governor)
    with trace_label(step=STEP, operator=OPERATOR):
        executor = executor_for(kind, session.client(), concurrency=width)
        try:
            call(executor, "run", prompts)
            tripped = False
        except error:
            tripped = True
    assert tripped == (client.calls > trip)
    assert governor.stats.admitted == client.calls and governor.in_flight == 0
    assert_the_books_agree(
        session, client, errors=int(tripped and issubclass(error, Exception))
    )
    if use_cache:
        # The response cache holds exactly the prompts the backend answered.
        assert len(session.cache) == len(set(client.answered))
        assert all(session.cache.get(MODEL, prompt) for prompt in client.answered)


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=40),
    data=st.data(),
    use_cache=st.booleans(),
)
def test_a_bags_spend_is_bit_equal_on_every_driver_width_and_order(picks, data, use_cache):
    prompts = [POOL[pick] for pick in picks]
    spends = set()
    for kind, width in (("sync", 1), ("threads", 8), ("async", 1), ("async", 8)):
        order = data.draw(st.permutations(prompts), label=f"{kind}@{width}")
        session = PromptSession(simulated_client(), use_cache=use_cache)
        call(executor_for(kind, session.client(), concurrency=width), "run", order)
        spends.add(session.spent_dollars)
    assert len(spends) == 1


class TestAWrapperThatCannotMapThePrefixDropsIt:
    """What a failing inner batch answered is never passed on as a wrong prefix."""

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda inner: RetryingClient(inner, validator=lambda text: True),
        ],
        ids=["retry"],
    )
    def test_a_cache_above_it_caches_nothing_and_the_session_settles_nothing(self, wrap):
        prompts = rating_prompts(6)
        backend = FaultyLLM(simulated_client(), {prompts[3]: ConnectionError("backend down")})
        cached = CachedClient(wrap(backend))
        session = PromptSession(cached, use_cache=False)
        with pytest.raises(ConnectionError):
            session.complete_batch(prompts, model=MODEL)
        assert backend.answered == prompts[:3]  # made, but not mappable onto the batch
        assert len(cached.cache) == 0
        (record,) = session.spans.records()
        assert (record.prompt, record.error) == ("", "ConnectionError")
        assert session.tracker.usage.calls == 0 and session.budget.spent == 0.0


def limited(kind: str, session_limit: float | None, limit: float) -> tuple[Budget, Budget]:
    """The session's budget and what a bag is charged to: the session's own
    limited ``budget``, or a ``lease`` of ``limit`` over it."""
    if kind == "budget":
        budget = Budget(limit=limit)
        return budget, budget
    budget = Budget(limit=session_limit)
    return budget, budget.lease(limit)


def spend_of_the_first(count: int, prompts: list[str]) -> int:
    """What the first ``count`` calls of ``prompts`` cost, in n$."""
    probe = PromptSession(simulated_client())
    probe.complete_batch(prompts[:count], model=MODEL)
    return to_nanos(probe.budget.spent)


class Watching(FaultyLLM):
    """The fault double, counting the calls that started once ``watched`` was spent."""

    watched: Budget | None = None
    late = 0

    def complete(self, prompt, **params):
        if self.watched is not None and self.watched.exhausted:
            self.late += 1
        return super().complete(prompt, **params)


@pytest.mark.parametrize("governed", [False, True], ids=["ungoverned", "governed"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("kind", ["budget", "lease"])
class TestUnderALimit:
    """A limited budget or a lease, on every driver: the bag goes out as one
    native batch (``sync@1``) or in runs, and the gate checks and charges
    each backend call."""

    PROMPTS = POOL[:40]

    def run(self, session: PromptSession, charged: Budget, driver: str):
        kind, width, _ = DRIVERS[driver]
        with trace_label(step=STEP, operator=OPERATOR):
            client = session.client(None if charged is session.budget else charged)
            executor = executor_for(kind, client, concurrency=width)
            return call(executor, "run", self.PROMPTS)

    def test_spent_mid_bag_it_stops_before_the_next_backend_call(self, kind, driver, governed):
        crossed = spend_of_the_first(12, self.PROMPTS)
        budget, charged = limited(kind, 1000.0, to_dollars(crossed - 1))
        _, width, stalling = DRIVERS[driver]
        client = Watching(simulated_client(), delay=0.002 if stalling else 0.0)
        client.watched = charged
        governor = ConcurrencyGovernor() if governed else None
        session = PromptSession(client, budget=budget, governor=governor)
        with pytest.raises(BudgetExceededError):
            self.run(session, charged, driver)
        assert_the_books_agree(session, client, errors=0)
        assert charged.spent == budget.spent == to_dollars(session.tracker.cost())
        assert charged.exhausted and session.cache.stats.misses >= client.calls
        if governed:
            assert governor.stats.admitted == client.calls and governor.in_flight == 0
        if stalling:  # the calls in flight when the limit was crossed finish
            assert 12 <= client.calls < 12 + width and client.late < width
        else:  # the crossing call is the twelfth, and the last
            assert client.answered == self.PROMPTS[:12] and client.late == 0

    def test_a_failing_batch_raises_the_backends_error(self, kind, driver, governed):
        budget, charged = limited(kind, 1000.0, 100.0)
        client = FaultyLLM(simulated_client(), {9: BackendConnectionError("down")})
        governor = ConcurrencyGovernor() if governed else None
        session = PromptSession(client, budget=budget, governor=governor)
        with pytest.raises(BackendConnectionError):
            self.run(session, charged, driver)
        assert_the_books_agree(session, client, errors=1)
        assert charged.spent == budget.spent > 0 and not charged.exhausted
        if governed:
            assert governor.stats.admitted == client.calls and governor.in_flight == 0


class Keeping(FaultyLLM):
    """The fault double keeping the budget it watches as ``charged``: an
    attribute that marks no gate."""

    charged: Budget | None = None


@pytest.mark.parametrize("entry", ["complete", "complete_batch", "width 1", "width 8"])
def test_a_backend_with_a_charged_attribute_is_charged_and_stopped(entry):
    """Only the gate and the session client mark themselves ``gated``: the
    session's gate over this double charges each call and refuses the call
    after the one whose charge crossed the limit."""
    prompts = POOL[:10]
    crossed = spend_of_the_first(3, prompts)
    budget = Budget(limit=to_dollars(crossed - 1))
    client = Keeping(simulated_client())
    client.charged = budget
    session = PromptSession(client, budget=budget)
    with trace_label(step=STEP, operator=OPERATOR), pytest.raises(BudgetExceededError):
        if entry.startswith("width"):
            executor = BatchExecutor(session.client(), max_concurrency=int(entry[6:]))
            executor.run([BatchRequest(prompt, model=MODEL) for prompt in prompts])
        else:
            ask(session, entry, prompts, model=MODEL)
    assert client.answered == prompts[:3]
    assert budget.spent == to_dollars(crossed)
    assert_the_books_agree(session, client, errors=0)
    with pytest.raises(BudgetExceededError):
        session.complete(POOL[20], model=MODEL)
    assert client.calls == 3
