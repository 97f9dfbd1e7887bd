"""Conformance of the client stack: one behaviour, whichever way a call arrives.

Every wrapper derives its four entry points from one body, so at
temperature 0 a bag of prompts must come back with the same texts, usage,
metadata and side effects (cache, tracker, retry and escalation counters)
through ``complete`` in a loop, ``complete_batch``, ``acomplete`` in a loop
and ``acomplete_batch`` — over an inner client implementing the full
protocol, only ``complete``, or ``complete`` + ``acomplete``.  The first of
the four is the reference; it is the hand-written fast path where a wrapper
has one, which is what holds those to the body.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable

import pytest

from repro.core.session import PromptSession
from repro.llm.base import call_acomplete_batch
from repro.llm.cache import CachedClient
from repro.llm.retry import RetryingClient
from repro.llm.router import CascadeRouter, CascadeTier, EnsembleClient
from repro.llm.simulated import SimulatedLLM
from repro.llm.tracker import TrackedClient, UsageTracker
from repro.obs.replay import ReplayLLM
from tests.doubles import ENTRY_POINTS, SHAPES, ask, rating_prompts, shaped, simulated_client

#: Six distinct prompts, three of them repeated: exercises in-batch dedup.
PROMPTS = rating_prompts(6) + rating_prompts(3)

Observed = dict[str, Any]


def _odd_ratings_rejected(text: str) -> bool:
    return text.strip()[-1:] not in "1357"


def _cached(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    client = CachedClient(leaf)
    return client, lambda: {"hits": client.cache.stats.hits, "misses": client.cache.stats.misses}


def _tracked(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    tracker = UsageTracker()
    return TrackedClient(leaf, tracker), lambda: {"usage": tracker.usage, "calls": tracker.calls}


def _retrying(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    # Retries at temperature 0 repeat the rejected answer, so the rejected
    # prompts deterministically use every attempt and end as failures.
    client = RetryingClient(
        leaf, validator=_odd_ratings_rejected, max_retries=2, retry_temperature=0.0
    )
    return client, lambda: vars(client.stats).copy()


def _cascade(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    router = CascadeRouter(
        [CascadeTier("sim-small", leaf), CascadeTier("sim-gpt-3.5-turbo", leaf)],
        confidence_threshold=0.8,
    )
    return router, lambda: {"escalations": router.escalations}


def _ensemble(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    models = ("sim-gpt-3.5-turbo", "sim-claude", "sim-small")
    members = [CascadeTier(model, leaf) for model in models]
    return EnsembleClient(members), dict


def _session(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    session = PromptSession(leaf)

    def observe() -> Observed:
        records = session.spans.records()
        return {
            "calls": session.tracker.calls,
            "usage": session.tracker.usage,
            "spent": session.budget.spent,
            "hits": session.cache.stats.hits,
            "misses": session.cache.stats.misses,
            "trace": [(record.prompt, record.cache_hit, record.cost) for record in records],
        }

    return session.client(), observe


WRAPPERS = {
    "cached": _cached,
    "tracked": _tracked,
    "retrying": _retrying,
    "cascade": _cascade,
    "ensemble": _ensemble,
    "session": _session,
}


def _visible(responses: list) -> list[tuple]:
    return [
        (r.text, r.model, r.usage, r.finish_reason, r.confidence, r.metadata) for r in responses
    ]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_four_entry_points_agree(wrapper, shape):
    def run(entry_point: str) -> tuple[list[tuple], Observed]:
        client, observe = WRAPPERS[wrapper](shaped(simulated_client(), shape))
        return _visible(ask(client, entry_point, PROMPTS)), observe()

    reference = run("complete")
    assert len(reference[0]) == len(PROMPTS)
    for entry_point in ENTRY_POINTS[1:]:
        assert run(entry_point) == reference, entry_point


class CountingLLM(SimulatedLLM):
    """Overrides ``complete`` alone; must still see every call (the benchmark's does)."""

    calls = 0

    def complete(self, prompt, **params):
        self.calls += 1
        return super().complete(prompt, **params)


def _counting() -> CountingLLM:
    inner = simulated_client()
    return CountingLLM(inner.oracle, seed=inner.seed)


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_a_complete_only_override_counts_every_call(entry_point):
    leaf = _counting()
    ask(leaf, entry_point, PROMPTS)
    assert leaf.calls == len(PROMPTS)


@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_a_counting_leaf_counts_the_same_through_every_entry_point(wrapper):
    counts = {}
    for entry_point in ENTRY_POINTS:
        leaf = _counting()
        client, _ = WRAPPERS[wrapper](leaf)
        ask(client, entry_point, PROMPTS)
        counts[entry_point] = leaf.calls
    assert len(set(counts.values())) == 1, counts
    assert counts["complete"] >= 6  # six distinct prompts at the least


def test_replayed_calls_stay_on_the_event_loop():
    """A replay fixture answers from memory: no worker-thread hop per async call."""
    session = PromptSession(simulated_client())
    session.complete_batch(PROMPTS)
    threads: set[int] = set()

    class SpyingReplay(ReplayLLM):
        def complete(self, prompt, **params):
            threads.add(threading.get_ident())
            return super().complete(prompt, **params)

    replay = SpyingReplay(session.spans.records())

    async def replayed() -> tuple[int, list]:
        return threading.get_ident(), await call_acomplete_batch(replay, PROMPTS[:6])

    loop_thread, responses = asyncio.run(replayed())
    assert threads == {loop_thread}
    assert [response.text for response in responses] == [
        response.text for response in simulated_client().complete_batch(PROMPTS[:6])
    ]
