"""Concurrency-safety of the stats snapshots the usage endpoint reads.

The service's ``GET /v1/tenants/{id}/usage`` handler reads governor stats
and trace summaries while the tenant's pipelines are mid-flight on worker
threads.  These tests hammer each snapshot with concurrent writers and
assert two things: no exceptions (no torn state), and every snapshot is
*internally consistent* — a copy taken from one snapshot of the state, not a
live view that mutates while the handler serialises it.
"""

from __future__ import annotations

import threading

from repro.core.governor import ConcurrencyGovernor, GovernorStats
from repro.obs import SpanTracker
from repro.trace.tracer import Tracer


class TestGovernorSnapshot:
    def test_snapshot_is_a_detached_copy(self):
        governor = ConcurrencyGovernor(rpm=600)
        with governor.admit(model="m", estimated_tokens=10):
            pass
        snap = governor.stats_snapshot()
        assert isinstance(snap, GovernorStats)
        assert snap is not governor.stats
        admitted = snap.admitted
        with governor.admit(model="m", estimated_tokens=10):
            pass
        # Later admissions must not leak into the already-taken snapshot.
        assert snap.admitted == admitted
        assert governor.stats_snapshot().admitted == admitted + 1

    def test_to_dict_is_json_shaped(self):
        governor = ConcurrencyGovernor(rpm=600)
        with governor.admit(model="m", estimated_tokens=5):
            pass
        data = governor.stats_snapshot().to_dict()
        assert data["admitted"] == 1
        assert set(data) >= {"admitted", "throttled", "wait_seconds", "rate_limit_events"}

    def test_snapshot_under_reader_writer_hammer(self):
        governor = ConcurrencyGovernor(rpm=1_000_000, max_in_flight=8)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                while not stop.is_set():
                    with governor.admit(model="m", estimated_tokens=3):
                        pass
            except BaseException as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def reader():
            try:
                last = -1
                while not stop.is_set():
                    snap = governor.stats_snapshot()
                    # admitted is monotone; a torn read could go backwards.
                    assert snap.admitted >= last
                    last = snap.admitted
                    snap.to_dict()
            except BaseException as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors


class TestTracerSummary:
    def test_summary_matches_module_level_aggregation(self):
        from repro.trace.tracer import summarize_records

        tracer = Tracer()
        for index in range(10):
            tracer.record(
                model="m",
                cost=0.1,
                duration_ms=2.0,
                cache_hit=index % 2 == 0,
                error="Boom" if index == 3 else None,
            )
        summary = tracer.summarize_records()
        expected = summarize_records(tracer.records())
        for key, value in expected.items():
            assert summary[key] == value
        assert summary["dropped"] == 0

    def test_summary_counts_ring_drops(self):
        tracer = Tracer(SpanTracker(capacity=4))
        for _ in range(10):
            tracer.record(model="m", cost=0.0)
        summary = tracer.summarize_records()
        assert summary["calls"] == 4
        assert summary["dropped"] == 6

    def test_summary_under_reader_writer_hammer(self):
        tracer = Tracer(SpanTracker(capacity=256))
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                while not stop.is_set():
                    record = tracer.record(model="m", cost=0.5, cache_hit=True)
                    tracer.annotate(record.call_id, attempt=1)
            except BaseException as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    summary = tracer.summarize_records()
                    # Internal consistency: every recorded call here is a
                    # cache hit costing exactly $0.5, so any torn aggregate
                    # breaks these identities.
                    assert summary["cache_hits"] == summary["calls"]
                    assert summary["cost"] == summary["calls"] * 0.5
                    if summary["calls"]:
                        assert summary["cache_hit_rate"] == 1.0
            except BaseException as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
