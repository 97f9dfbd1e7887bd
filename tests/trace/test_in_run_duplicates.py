"""In-run duplicates are calls like any other.

An operator handed a session's client dispatches through it as it is, so a
prompt repeated inside one operator run is answered by the session's cache:
a ``cache_hit`` ``call`` span, an ``AI_CALL`` line, a hit on the metrics and
the runtime stats — where a private cache in front of the session used to
answer it unseen.  What the run *paid for* does not move: ``usage`` and
``cost`` equal the values taken at the commit before this one.  An operator
whose client does not cache still dedupes, through one private cache.
"""

from __future__ import annotations

import logging

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep
from repro.llm.cache import CachedClient
from repro.llm.faulty import FaultyLLM
from repro.llm.oracle import Oracle
from repro.llm.retry import RetryingClient
from repro.llm.simulated import SimulatedLLM
from repro.operators.filter import FilterOperator
from tests.doubles import hop

MODEL = "sim-gpt-3.5-turbo"
PREDICATE = "starts early in the alphabet"
DISTINCT = ["apple", "banana", "cherry", "damson", "elder", "fig", "grape", "honeydew"]
ITEMS = DISTINCT + ["apple", "cherry", "fig"]  # 11 words, 3 of them repeats

#: ``step.cost`` and ``step.kept`` of the run below at the parent commit,
#: under every driver (the simulated model misjudges ``fig``, consistently).
PARENT_COST = 0.0009065
KEPT = ["apple", "banana", "cherry", "fig", "apple", "cherry", "fig"]

#: driver -> (max_concurrency, run from an event loop through one thread hop?)
DRIVERS = {"sync": (1, False), "threads": (8, False), "asyncio": (8, True)}


def backend() -> FaultyLLM:
    """The simulator behind a counter of the calls that reach it."""
    oracle = Oracle()
    oracle.register_predicate(PREDICATE, lambda item: item[0] in "abc")
    return FaultyLLM(SimulatedLLM(oracle, seed=11))


def screen(session: PromptSession, hopped: bool = False):
    spec = PipelineSpec(
        name="duplicates",
        steps=[
            PipelineStep(
                name="screen",
                task=FilterSpec(items=ITEMS, predicate=PREDICATE, strategy="per_item"),
            )
        ],
    )
    engine = DeclarativeEngine(session=session)
    report = hop(engine.run_pipeline, spec) if hopped else engine.run_pipeline(spec)
    return report.results["screen"]


class TestUnderASession:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_a_repeat_is_a_cache_hit_call_of_the_session(self, driver, caplog):
        width, hopped = DRIVERS[driver]
        client = backend()
        session = PromptSession(client, max_concurrency=width)
        with caplog.at_level(logging.DEBUG, logger="repro.calls"):
            step = screen(session, hopped)

        records = session.spans.records()
        assert len(records) == len(ITEMS)
        assert sum(record.cache_hit for record in records) == 3
        lines = [entry.getMessage() for entry in caplog.records if entry.name == "repro.calls"]
        assert len(lines) == len(ITEMS) and all(line.startswith("AI_CALL ") for line in lines)
        assert sum("cache_hit=True" in line for line in lines) == 3
        assert session.metrics.snapshot()["repro_llm_calls_total"] == {
            '{tenant="",cache="hit"}': 3,
            '{tenant="",cache="miss"}': 8,
        }
        assert session.stats.cache_hit_rate() == 3 / 11

        # What was paid for is what it was: eight calls, to the cent.
        assert client.calls == len(DISTINCT)
        assert step.usage.calls == session.tracker.usage.calls == len(DISTINCT)
        assert step.cost == session.budget.spent == PARENT_COST
        assert step.kept == KEPT

    def test_a_session_that_does_not_cache_leaves_the_operator_one_cache(self):
        client = backend()
        session = PromptSession(client, use_cache=False)
        step = screen(session)
        # The repeats are answered in front of the session, as before: it
        # sees, records and charges the eight calls that were made.
        assert client.calls == step.usage.calls == len(DISTINCT)
        assert len(session.spans.records()) == len(DISTINCT)
        assert step.cost == session.budget.spent == PARENT_COST
        assert step.kept == KEPT


class TestWithoutASession:
    @staticmethod
    def run(client):
        return FilterOperator(client, PREDICATE, model=MODEL).run(ITEMS, strategy="per_item")

    def test_a_bare_backend_still_pays_for_each_distinct_word_once(self):
        client = backend()
        result = self.run(client)
        assert client.calls == result.usage.calls == len(DISTINCT)
        assert result.kept == KEPT

    def test_so_does_a_wrapper_that_does_not_cache(self):
        client = backend()
        retrying = RetryingClient(client, validator=lambda text: True)
        result = self.run(retrying)
        assert client.calls == result.usage.calls == len(DISTINCT)
        assert result.kept == KEPT

    def test_a_client_that_caches_is_used_as_it_is(self):
        client = backend()
        cached = CachedClient(client)
        result = self.run(cached)
        assert client.calls == result.usage.calls == len(DISTINCT)
        # Its cache answered the repeats; none in front of it did.
        assert (cached.cache.stats.hits, cached.cache.stats.misses) == (3, 8)
