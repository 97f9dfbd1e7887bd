"""Conformance of the client stack: one behaviour, whichever way a call arrives.

Every wrapper derives both entry points from one ``_call``, so at temperature 0
a bag of prompts must come back with the same texts, usage, metadata and side
effects (cache, session book and retry counters) through ``complete`` in a loop
and through ``complete_batch`` — over an inner client implementing the full
protocol or only ``complete``, and for each wrapper alone as for two stacked
on one another.  The loop is the reference: a unit call is a ``Call`` of one
prompt handed straight to each wrapper's ``_call``, which is what holds the
unit path to the batch path.  The same holds for a bag run by an executor,
whichever driver runs it: sequentially, fanned out, or awaited through the
thread hop.  Whichever route a call takes, it reaches the leaf through the
entry point its shape asks for: a unit call through ``complete``, a batch
through a native ``complete_batch`` unless a governor admits it call by call.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest

from repro.core.governor import BackendGate, ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.llm.base import BaseClient, LLMResponse
from repro.llm.cache import CachedClient
from repro.llm.faulty import FaultyLLM
from repro.llm.retry import RetryingClient
from repro.llm.simulated import SimulatedLLM
from repro.tokenizer.cost import Usage
from tests.doubles import (
    DRIVERS,
    ENTRY_POINTS,
    SHAPES,
    ask,
    call,
    executor_for,
    rating_prompts,
    shaped,
    simulated_client,
)

#: Six distinct prompts, three of them repeated: exercises in-batch dedup.
PROMPTS = rating_prompts(6) + rating_prompts(3)

Observed = dict[str, Any]

#: The leaf shapes: a third-party client's, and the simulator behind a fault
#: double with no plan, which must change nothing.
LEAF_SHAPES = (*SHAPES, "faulty")


def _leaf(shape: str) -> Any:
    client = simulated_client()
    return FaultyLLM(client) if shape == "faulty" else shaped(client, shape)


def _odd_ratings_rejected(text: str) -> bool:
    return text.strip()[-1:] not in "1357"


def _cached(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    client = CachedClient(leaf)
    return client, lambda: {"hits": client.cache.stats.hits, "misses": client.cache.stats.misses}


def _retrying(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    # Retries at temperature 0 repeat the rejected answer, so the rejected
    # prompts deterministically use every attempt and end as failures.
    client = RetryingClient(
        leaf, validator=_odd_ratings_rejected, max_retries=2, retry_temperature=0.0
    )
    return client, lambda: vars(client.stats).copy()


def _session_book(session: PromptSession) -> Callable[[], Observed]:
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

    return observe


def _session(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    session = PromptSession(leaf)
    return session.client(), _session_book(session)


def _leased_session(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
    # A pipeline step's route: the session's client charged to a lease,
    # which forwards every dollar to the session budget.
    session = PromptSession(leaf)
    lease = session.budget.lease(1.0)
    observe = _session_book(session)
    return session.client(lease), lambda: {**observe(), "lease": lease.spent}


def _stacked(outer: Callable, inner: Callable) -> Callable:
    """``outer`` wrapped round ``inner`` round the leaf; both sides observed."""

    def build(leaf: Any) -> tuple[Any, Callable[[], Observed]]:
        middle, observe_inner = inner(leaf)
        client, observe_outer = outer(middle)
        return client, lambda: {"outer": observe_outer(), "inner": observe_inner()}

    return build


WRAPPERS = {
    "cached": _cached,
    "retrying": _retrying,
    "session": _session,
    "cached-retrying": _stacked(_cached, _retrying),
    "retrying-cached": _stacked(_retrying, _cached),
    "session-cached": _stacked(_session, _cached),
    "session-retrying": _stacked(_session, _retrying),
    "leased-session": _leased_session,
}


def _visible(responses: list) -> list[tuple]:
    return [
        (r.text, r.model, r.usage, r.finish_reason, r.confidence, r.metadata) for r in responses
    ]


@pytest.mark.parametrize("shape", LEAF_SHAPES)
@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_both_entry_points_agree(wrapper, shape):
    def run(entry_point: str) -> tuple[list[tuple], Observed]:
        client, observe = WRAPPERS[wrapper](_leaf(shape))
        return _visible(ask(client, entry_point, PROMPTS)), observe()

    reference = run("complete")
    assert len(reference[0]) == len(PROMPTS)
    assert run("complete_batch") == reference


def _in_any_order(observed: Observed) -> Observed:
    """``observed`` with the trace sorted: a fanned-out bag settles in any order."""
    return {
        key: sorted(value)
        if key == "trace"
        else _in_any_order(value)
        if isinstance(value, dict)
        else value
        for key, value in observed.items()
    }


@pytest.mark.parametrize("shape", LEAF_SHAPES)
@pytest.mark.parametrize("wrapper", WRAPPERS)
@pytest.mark.parametrize("driver", DRIVERS)
def test_every_executor_driver_agrees_with_the_loop(driver, wrapper, shape):
    def run(driven: bool) -> tuple[list[tuple], Observed]:
        client, observe = WRAPPERS[wrapper](_leaf(shape))
        if driven:
            responses = call(executor_for(driver, client), "run", PROMPTS)
        else:
            responses = ask(client, "complete", PROMPTS)
        return _visible(responses), _in_any_order(observe())

    assert run(driven=True) == run(driven=False)


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


class EntryPointLeaf:
    """A full-protocol leaf logging the entry point of each call, with its
    prompt count; every answer passes the retrying wrapper's validator."""

    waits = False

    def __init__(self) -> None:
        self.entries: list[tuple[str, int]] = []

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        self.entries.append(("complete", 1))
        return self._answer(prompt, model)

    def complete_batch(self, prompts, *, model=None, temperature=0.0, max_tokens=None):
        self.entries.append(("complete_batch", len(prompts)))
        return [self._answer(prompt, model) for prompt in prompts]

    @staticmethod
    def _answer(prompt: str, model: str | None) -> LLMResponse:
        usage = Usage(prompt_tokens=len(prompt.split()), completion_tokens=1, calls=1)
        return LLMResponse(text="4", model=model or "sim-gpt-3.5-turbo", usage=usage)


class BaseClientLeaf(EntryPointLeaf, BaseClient):
    """The same leaf on the library's base: both entry points overridden."""


LEAVES = {"duck-typed": EntryPointLeaf, "base-client": BaseClientLeaf}

#: Wrappers charged to a limited budget, whose gate sends a batch call by call.
LIMITED = {"leased-session"}
#: Routes that send a batch down whole: each wrapper alone, stacked, under
#: the session, and the governor-less backend gate.
UNGOVERNED: dict[str, Callable[[Any], Any]] = {
    **{
        name: lambda leaf, build=build: build(leaf)[0]
        for name, build in WRAPPERS.items()
        if name not in LIMITED
    },
    "gate": BackendGate,
}
#: Routes through a governed gate, which admits a batch call by call, and
#: those charged to a limited budget, which the gate checks call by call.
GOVERNED: dict[str, Callable[[Any], Any]] = {
    **{name: lambda leaf, build=WRAPPERS[name]: build(leaf)[0] for name in LIMITED},
    "gate-governed": lambda leaf: BackendGate(leaf, ConcurrencyGovernor()),
    "session-governed": lambda leaf: PromptSession(leaf, governor=ConcurrencyGovernor()).client(),
    "retrying-session-governed": lambda leaf: RetryingClient(
        PromptSession(leaf, governor=ConcurrencyGovernor()).client()
    ),
}
ROUTES = {**UNGOVERNED, **GOVERNED}


@pytest.mark.parametrize("leaf", LEAVES)
@pytest.mark.parametrize("route", ROUTES)
def test_a_unit_call_reaches_the_leaf_complete_once(route, leaf):
    reached = LEAVES[leaf]()
    ROUTES[route](reached).complete(rating_prompts(1)[0])
    assert reached.entries == [("complete", 1)]


@pytest.mark.parametrize("leaf", LEAVES)
@pytest.mark.parametrize("route", UNGOVERNED)
def test_a_batch_reaches_a_native_complete_batch_once(route, leaf):
    prompts = rating_prompts(6)
    assert len(set(prompts)) == 6
    reached = LEAVES[leaf]()
    UNGOVERNED[route](reached).complete_batch(prompts)
    assert reached.entries == [("complete_batch", 6)]


@pytest.mark.parametrize("leaf", LEAVES)
@pytest.mark.parametrize("route", GOVERNED)
def test_a_governed_batch_reaches_the_leaf_as_one_complete_per_prompt(route, leaf):
    reached = LEAVES[leaf]()
    GOVERNED[route](reached).complete_batch(rating_prompts(6))
    assert reached.entries == [("complete", 1)] * 6
