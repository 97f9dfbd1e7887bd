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
from repro.llm import Oracle, SimulatedLLM
from repro.obs import summarize_records
from repro.service.tenants import Tenant, TenantConfig
from repro.wire import to_wire
from tests.doubles import record_call


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

    def test_wire_form_is_json_shaped(self):
        governor = ConcurrencyGovernor(rpm=600)
        with governor.admit(model="m", estimated_tokens=5):
            pass
        data = to_wire(governor.stats_snapshot())
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
                    to_wire(snap)
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


def _tenant(capacity: int | None = None) -> Tenant:
    """A tenant whose usage view summarises the ring a test records into."""
    tenant = Tenant(TenantConfig("acme", "key"), client=SimulatedLLM(Oracle()), store=None)
    if capacity is not None:
        tenant.session.spans.capacity = capacity
    return tenant


class TestTracerSummary:
    def test_summary_matches_module_level_aggregation(self):
        tenant = _tenant()
        spans = tenant.session.spans
        for index in range(10):
            record_call(
                spans,
                cost=0.1,
                duration_ms=2.0,
                cache_hit=index % 2 == 0,
                error="Boom" if index == 3 else None,
            )
        summary = tenant.usage_snapshot()["traces"]
        expected = summarize_records(spans.records())
        for key, value in expected.items():
            assert summary[key] == value
        assert summary["dropped"] == 0

    def test_summary_counts_ring_drops(self):
        tenant = _tenant(capacity=4)
        for _ in range(10):
            record_call(tenant.session.spans, cost=0.0)
        summary = tenant.usage_snapshot()["traces"]
        assert summary["calls"] == 4
        assert summary["dropped"] == 6

    def test_summary_under_reader_writer_hammer(self):
        tenant = _tenant(capacity=256)
        spans = tenant.session.spans
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                while not stop.is_set():
                    record = record_call(spans, cost=0.5, cache_hit=True)
                    spans.annotate(record.call_id, attempt=1)
            except BaseException as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    summary = tenant.usage_snapshot()["traces"]
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
