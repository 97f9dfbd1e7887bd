"""Tests for the call-record view of the span ring: labels, ids, store flush."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.session import PromptSession
from repro.data.flavors import FLAVORS, flavor_oracle
from repro.exceptions import UnknownModelError
from repro.llm.faulty import FaultyLLM
from repro.llm.simulated import SimulatedLLM
from repro.obs.spans import (
    CALL_ATTRIBUTES,
    SpanTracker,
    TraceLabels,
    TraceRecord,
    current_labels,
    summarize_records,
    trace_label,
)
from repro.store import Store
from repro.wire import to_wire
from tests.doubles import record_call


class TestTraceLabels:
    def test_default_labels_are_empty(self):
        assert current_labels() == TraceLabels()

    def test_trace_label_sets_and_restores(self):
        with trace_label(step="s1", operator="sort:pairwise"):
            assert current_labels() == TraceLabels(step="s1", operator="sort:pairwise")
        assert current_labels() == TraceLabels()

    def test_nested_labels_merge_with_enclosing(self):
        with trace_label(step="s1"):
            with trace_label(operator="filter:per_item"):
                labels = current_labels()
                assert labels.step == "s1"
                assert labels.operator == "filter:per_item"
            assert current_labels().operator is None


class TestTracerRing:
    def test_call_ids_come_from_the_span_sequence(self):
        spans = SpanTracker()
        with spans.span("step", "s") as step:
            ids = [record_call(spans, prompt=f"p{i}").call_id for i in range(5)]
        assert ids == [step.span_id + 1 + i for i in range(5)]
        records = spans.records()  # the step span is not a call record
        assert [record.call_id for record in records] == ids
        assert all(record.span_id == record.call_id for record in records)
        assert all(spans.get(i).parent_id == step.span_id for i in ids)

    def test_ring_evicts_oldest_and_counts_drops(self):
        spans = SpanTracker(capacity=3)
        for i in range(5):
            record_call(spans, prompt=f"p{i}")
        assert len(spans.records()) == 3
        assert spans.dropped_calls == 2
        assert [record.prompt for record in spans.records()] == ["p2", "p3", "p4"]

    def test_records_returns_copies(self):
        spans = SpanTracker()
        record_call(spans, prompt="p")
        snapshot = spans.records()[0]
        snapshot.model = "tampered"
        assert spans.records()[0].model == "m"

    def test_annotate_amends_and_reports_eviction(self):
        spans = SpanTracker(capacity=2)
        first = record_call(spans, prompt="p0")
        record_call(spans, prompt="p1")
        assert spans.annotate(first.call_id, attempt=2, parse_ok=False)
        assert spans.records()[0].attempt == 2
        record_call(spans, prompt="p2")  # evicts call 0
        assert not spans.annotate(first.call_id, attempt=3)

    def test_concurrent_records_get_unique_ids(self):
        spans = SpanTracker()
        with ThreadPoolExecutor(max_workers=8) as pool:
            records = list(
                pool.map(lambda i: record_call(spans, prompt=f"p{i}"), range(200))
            )
        ids = [record.call_id for record in records]
        assert sorted(ids) == list(range(1, 201))


class TestStoreFlush:
    def test_flush_round_trips_through_the_store(self):
        store = Store(":memory:")
        spans = SpanTracker(store=store, flush_every=1000)
        record_call(
            spans,
            step="s1",
            operator="sort:pairwise",
            temperature=0.0,
            prompt="compare a and b",
            response_text="A",
            prompt_tokens=12,
            completion_tokens=3,
            cost=0.001,
            duration_ms=4.5,
            cache_hit=True,
            parse_ok=True,
        )
        record_call(spans, prompt="boom", error="UnknownModelError")
        assert spans.flush() == 2
        loaded = store.trace_records(origin=spans.origin)
        assert [to_wire(record) for record in loaded] == [
            to_wire(record) for record in spans.records()
        ]
        assert store.trace_count() == 2

    def test_flush_is_idempotent_and_upserts_annotations(self):
        store = Store(":memory:")
        spans = SpanTracker(store=store, flush_every=1000)
        record = record_call(spans, prompt="p")
        assert spans.flush() == 1
        assert spans.flush() == 0  # nothing dirty
        spans.annotate(record.call_id, attempt=1, parse_ok=False)
        assert spans.flush() == 1  # re-flushed, not duplicated
        loaded = store.trace_records(origin=spans.origin)
        assert len(loaded) == 1
        assert loaded[0].attempt == 1
        assert loaded[0].parse_ok is False

    def test_auto_flush_after_flush_every_records(self):
        store = Store(":memory:")
        spans = SpanTracker(store=store, flush_every=4)
        for i in range(4):
            record_call(spans, prompt=f"p{i}")
        assert store.trace_count() == 4

    def test_store_failure_is_swallowed_and_retried(self):
        class FailingStore:
            def __init__(self) -> None:
                self.fail = True
                self.saved: list = []

            def save_spans(self, spans, *, origin):
                if self.fail:
                    raise RuntimeError("disk full")
                self.saved.extend(spans)

        store = FailingStore()
        spans = SpanTracker(store=store, flush_every=1)  # type: ignore[arg-type]
        record_call(spans, prompt="p")  # auto-flush fails silently
        assert store.saved == []
        store.fail = False
        assert spans.flush() == 1  # the record stayed dirty
        assert len(store.saved) == 1

    def test_trace_eviction_keeps_newest_rows(self):
        store = Store(":memory:", max_span_records=3)
        spans = SpanTracker(store=store, flush_every=1000)
        for i in range(5):
            record_call(spans, prompt=f"p{i}")
        spans.flush()
        loaded = store.trace_records()
        assert [record.prompt for record in loaded] == ["p2", "p3", "p4"]

    def test_mixed_kinds_share_the_cap_and_a_reflushed_span_keeps_its_place(self):
        store = Store(":memory:", max_span_records=6)
        spans = SpanTracker(store=store, flush_every=1000)
        with spans.span("step", "s"):
            with spans.span("operator", "o"):
                for i in range(3):
                    record_call(spans, prompt=f"p{i}")
                spans.flush()  # 5 rows: step, operator (both still open), p0-p2
            spans.flush()  # the closed operator is updated where it sits
            for i in range(3, 6):
                record_call(spans, prompt=f"p{i}")
        spans.flush()  # 8 spans against a cap of 6: the two oldest rows go
        assert store.load_spans(kind="step") == store.load_spans(kind="operator") == []
        assert [record.prompt for record in store.trace_records()] == [f"p{i}" for i in range(6)]
        assert store.span_count() == store.trace_count() == 6

    def test_store_rejects_nonpositive_span_cap(self):
        with pytest.raises(ValueError):
            Store(":memory:", max_span_records=0)


def full_call(spans: SpanTracker, prompt: str) -> TraceRecord:
    """Record one call carrying every record field, as a session's settle does."""
    record = TraceRecord(call_id=0, prompt=prompt, response_text="yes", cost=0.5)
    (span,) = spans.record_calls(
        [("m", "ok", {name: getattr(record, name) for name in CALL_ATTRIBUTES})]
    )
    return TraceRecord.from_span(span)


def stored_rows(store: Store) -> list[tuple[str, int | None]]:
    """``(kind, parent_id)`` of each stored row, oldest first: a ``calls``
    row's ``parent_id`` is how many calls it holds."""
    return store.db.execute("SELECT kind, parent_id FROM spans ORDER BY rowid")


class TestCallsRows:
    """A flush writes its call spans as one ``calls`` row."""

    def test_a_call_amended_after_its_flush_reads_back_amended_and_counts_once(self):
        store = Store(":memory:")
        spans = SpanTracker(store=store, flush_every=1000)
        first = full_call(spans, "p0")
        full_call(spans, "p1")
        assert spans.flush() == 2
        full_call(spans, "p2")
        assert spans.flush() == 1
        assert stored_rows(store) == [("calls", 2), ("calls", 1)]
        spans.annotate(first.call_id, attempt=1, parse_ok=False)
        assert spans.flush() == 1
        # Rewritten in the row that holds it: no third row.
        assert stored_rows(store) == [("calls", 2), ("calls", 1)]
        loaded = store.trace_records(origin=spans.origin)
        assert [record.prompt for record in loaded] == ["p0", "p1", "p2"]
        assert (loaded[0].attempt, loaded[0].parse_ok) == (1, False)
        assert [to_wire(record) for record in loaded] == [
            to_wire(record) for record in spans.records()
        ]
        assert store.trace_count() == store.span_count() == 3

    def test_a_call_resent_after_a_rollback_is_stored_once(self):
        store = Store(":memory:")
        spans = SpanTracker()
        full_call(spans, "p0")
        with pytest.raises(RuntimeError), store.db.atomic():
            store.save_spans(spans.spans(), origin="o")
            raise RuntimeError("the settle failed")
        store.save_spans(spans.spans(), origin="o")
        assert [record.prompt for record in store.trace_records()] == ["p0"]
        assert store.trace_count() == 1

    def test_the_cap_across_two_calls_rows_trims_the_older_row_oldest_calls_first(self):
        store = Store(":memory:", max_span_records=5)
        spans = SpanTracker(store=store, flush_every=1000)
        for index in range(4):
            full_call(spans, f"p{index}")
        spans.flush()
        for index in range(4, 7):
            full_call(spans, f"p{index}")
        spans.flush()  # 7 calls in two rows against a cap of 5
        assert stored_rows(store) == [("calls", 2), ("calls", 3)]
        assert [record.prompt for record in store.trace_records()] == [
            f"p{index}" for index in range(2, 7)
        ]
        for index in range(7, 10):
            full_call(spans, f"p{index}")
        spans.flush()  # the older row goes whole, the next loses its oldest call
        assert stored_rows(store) == [("calls", 2), ("calls", 3)]
        assert [record.prompt for record in store.trace_records()] == [
            f"p{index}" for index in range(5, 10)
        ]
        assert store.span_count() == store.trace_count() == 5

    def test_concurrent_flushes_and_amendments_store_each_call_once(self):
        store = Store(":memory:")
        spans = SpanTracker(store=store, flush_every=8)
        workers, per_worker = 6, 40

        def work(worker: int) -> None:
            for index in range(per_worker):
                record = full_call(spans, f"w{worker}-p{index}")
                if index % 3 == 0:
                    spans.annotate(record.call_id, attempt=1)
                if index % 5 == 0:
                    spans.flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        spans.flush()
        stored = store.trace_records()
        assert sorted(record.call_id for record in stored) == sorted(
            record.call_id for record in spans.records()
        )
        assert store.trace_count() == store.span_count() == workers * per_worker

    def test_a_namespace_view_reads_only_its_own_origins(self):
        store = Store(":memory:")
        for tenant in ("acme", "beta"):
            spans = SpanTracker(store=store.namespace(tenant))
            with spans.span("step", tenant):
                full_call(spans, f"{tenant}-p0")
                full_call(spans, f"{tenant}-p1")
            spans.flush()
        acme = store.namespace("acme")
        assert [record.prompt for record in acme.trace_records()] == ["acme-p0", "acme-p1"]
        assert [(span.kind, span.label) for span in acme.load_spans()] == [
            ("step", "acme"), ("call", "m"), ("call", "m")
        ]
        assert [span.label for span in acme.load_spans(kind="step")] == ["acme"]
        assert store.namespace("gamma").load_spans() == []
        assert len(store.trace_records()) == store.trace_count() == 4


class TestSessionIntegration:
    def test_every_session_call_is_traced(self):
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=7))
        session.complete("rate this", model="sim-gpt-3.5-turbo")
        session.complete_batch(["a?", "b?"], model="sim-gpt-3.5-turbo")
        records = session.spans.records()
        assert len(records) == 3
        assert all(record.model == "sim-gpt-3.5-turbo" for record in records)
        assert all(record.duration_ms >= 0.0 for record in records)
        assert all(record.error is None for record in records)

    def test_cache_hits_are_flagged_and_fed_to_stats(self):
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=7))
        session.complete("same prompt", model="sim-gpt-3.5-turbo")
        session.complete("same prompt", model="sim-gpt-3.5-turbo")
        records = session.spans.records()
        assert [record.cache_hit for record in records] == [False, True]
        assert session.stats.cache_hit_rate() == 0.5

    def test_latency_feeds_stats_only_under_an_operator_label(self):
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=7))
        session.complete("unlabelled", model="sim-gpt-3.5-turbo")
        assert not any(session.stats.export_state()["latency"].values())
        with trace_label(operator="sort:pairwise"):
            session.complete("labelled", model="sim-gpt-3.5-turbo")
        latency = session.stats.export_state()["latency"]
        assert [label for label, samples in latency.items() if samples] == ["sort:pairwise"]
        assert session.stats.latency_p50("sort:pairwise") is not None

    def test_failed_calls_record_the_taxonomy_error(self):
        outage = {"boom": UnknownModelError("simulated outage")}
        session = PromptSession(
            FaultyLLM(SimulatedLLM(flavor_oracle(), seed=7), outage), use_cache=False
        )
        with pytest.raises(UnknownModelError):
            session.complete("boom", model="sim-gpt-3.5-turbo")
        records = session.spans.records()
        assert len(records) == 1
        assert records[0].error == "UnknownModelError"
        assert records[0].response_text is None

    def test_session_with_store_flushes_on_save_profile(self):
        store = Store(":memory:")
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=7), store=store)
        session.complete("persist me", model="sim-gpt-3.5-turbo")
        session.save_profile()
        loaded = store.trace_records(origin=session.spans.origin)
        assert [record.prompt for record in loaded] == ["persist me"]


def test_summarize_records():
    records = [
        TraceRecord(call_id=0, cost=0.5, duration_ms=10.0, cache_hit=False),
        TraceRecord(call_id=1, cost=0.0, duration_ms=1.0, cache_hit=True),
        TraceRecord(call_id=2, duration_ms=2.0, error="UnknownModelError"),
    ]
    summary = summarize_records(records)
    assert summary["calls"] == 3
    assert summary["cache_hits"] == 1
    assert summary["cache_hit_rate"] == pytest.approx(1 / 3)
    assert summary["errors"] == 1
    assert summary["cost"] == pytest.approx(0.5)
    assert summary["duration_ms"] == pytest.approx(13.0)


def test_flavors_smoke():
    # The flavor corpus backs the session tests above; pin its availability.
    assert len(FLAVORS) >= 10
