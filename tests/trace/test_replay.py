"""Trace-replay determinism: a recorded run re-executes with zero live calls."""

from __future__ import annotations

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.executor import BatchExecutor
from repro.core.session import PromptSession
from repro.core.spec import SortSpec
from repro.exceptions import ContextLengthExceededError, SpecError, TraceError
from repro.query import Dataset
from repro.trace import ReplayLLM, TraceRecord, replay_trace
from tests.doubles import FlakyClient, yes_no_validator
from tests.query.support import clean_engine, product_corpus


def _replay_engine(records) -> DeclarativeEngine:
    """An engine whose only client is the replay fixture (no live LLM)."""
    session = PromptSession(replay_trace(records))
    return DeclarativeEngine.from_session(session)


class TestEntityResolutionReplay:
    def test_er_pipeline_replays_to_identical_results(self):
        items, oracle = product_corpus(n_entities=6, variants=2)
        query = (
            Dataset(items, name="products")
            .filter("is a short name")
            .resolve()
            .top_k("important", k=3, strategy="pairwise_tournament")
        )
        engine = clean_engine(oracle)
        original = query.run(engine)
        records = engine.session.tracer.records()
        assert records  # the run was traced

        replay_eng = _replay_engine(records)
        replayed = query.run(replay_eng)

        assert replayed.items == original.items
        assert replayed.report.results.keys() == original.report.results.keys()
        # Identical call counts: the replayed run issued exactly the
        # recorded traffic (and all of it came from the trace).
        assert (
            replay_eng.session.tracker.usage.calls
            == engine.session.tracker.usage.calls
        )

    def test_divergent_replay_fails_instead_of_inventing_answers(self):
        items, oracle = product_corpus(n_entities=4, variants=1)
        engine = clean_engine(oracle)
        engine.sort(SortSpec(items=items, criterion="important", strategy="pairwise"))
        records = engine.session.tracer.records()
        replay_eng = _replay_engine(records)
        different = SortSpec(
            items=[f"{item} UNSEEN" for item in items],
            criterion="important",
            strategy="pairwise",
        )
        with pytest.raises(TraceError, match="live LLM call"):
            replay_eng.sort(different)


class TestCacheHeavyReplay:
    def test_cache_hit_heavy_run_replays_identically(self):
        items, oracle = product_corpus(n_entities=5, variants=1)
        spec = SortSpec(items=items, criterion="important", strategy="pairwise")
        engine = clean_engine(oracle)
        first = engine.sort(spec)
        second = engine.sort(spec)  # every call hits the session cache
        records = engine.session.tracer.records()
        assert any(record.cache_hit for record in records)
        assert second.order == first.order

        replay_eng = _replay_engine(records)
        replayed_first = replay_eng.sort(spec)
        replayed_second = replay_eng.sort(spec)
        assert replayed_first.order == first.order
        assert replayed_second.order == second.order

    def test_surplus_lookups_keep_serving_the_last_response(self):
        records = [
            TraceRecord(call_id=0, model="m", prompt="p", response_text="first"),
            TraceRecord(call_id=1, model="m", prompt="p", response_text="second"),
        ]
        replay = ReplayLLM(records)
        texts = [replay.complete("p", model="m").text for _ in range(4)]
        assert texts == ["first", "second", "second", "second"]
        assert replay.served == 4


class TestRetryReplay:
    def _run_with_retries(self, session: PromptSession) -> list[str]:
        executor = BatchExecutor(
            session.client(), validator=yes_no_validator, max_retries=2
        )
        return [response.text for response in executor.run(["is it a duplicate?"])]

    def test_retry_attempts_are_annotated_on_the_trace(self):
        session = PromptSession(FlakyClient(bad_attempts=1))
        texts = self._run_with_retries(session)
        assert texts == ["Yes."]
        records = session.tracer.records()
        assert len(records) == 2
        assert [record.attempt for record in records] == [0, 1]
        assert [record.parse_ok for record in records] == [False, True]

    def test_retry_containing_run_replays_identically(self):
        session = PromptSession(FlakyClient(bad_attempts=1))
        texts = self._run_with_retries(session)
        records = session.tracer.records()

        replay_session = PromptSession(replay_trace(records))
        replayed = self._run_with_retries(replay_session)
        assert replayed == texts
        replayed_records = replay_session.tracer.records()
        assert [record.attempt for record in replayed_records] == [0, 1]
        assert [record.parse_ok for record in replayed_records] == [False, True]
        # Both attempts were answered from the trace.
        assert replay_session.tracker.usage.calls == 2


class TestRecordedErrors:
    def test_recorded_taxonomy_error_re_raises(self):
        record = TraceRecord(call_id=0, model="m", prompt="p", error="SpecError")
        replay = ReplayLLM([record])
        with pytest.raises(SpecError):
            replay.complete("p", model="m")

    def test_recorded_context_overflow_rebuilds_structured_exception(self):
        record = TraceRecord(
            call_id=0,
            model="m",
            prompt="p",
            prompt_tokens=9000,
            error="ContextLengthExceededError",
        )
        replay = ReplayLLM([record])
        with pytest.raises(ContextLengthExceededError):
            replay.complete("p", model="m")

    def test_non_taxonomy_error_raises_trace_error(self):
        record = TraceRecord(call_id=0, model="m", prompt="p", error="KeyError")
        replay = ReplayLLM([record])
        with pytest.raises(TraceError, match="non-taxonomy"):
            replay.complete("p", model="m")

    def test_empty_trace_is_rejected(self):
        with pytest.raises(TraceError):
            replay_trace([])
