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

from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.exceptions import BackendConnectionError
from repro.llm.cache import CachedClient
from repro.llm.faulty import FaultyLLM
from repro.llm.retry import RetryingClient
from repro.obs import trace_label
from repro.tokenizer.cost import to_dollars, to_nanos
from tests.doubles import call, executor_for, rating_prompts, simulated_client

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
    assert session.stats.snapshot()["latency_samples"] == samples


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
