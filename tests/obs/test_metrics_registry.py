"""MetricsRegistry unit tests: semantics, concurrency, and golden exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry


class TestRegistration:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "help", ("tenant",))
        second = registry.counter("repro_x_total", "ignored on re-register", ("tenant",))
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="different"):
            registry.gauge("repro_x_total")

    def test_label_set_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labelnames=("tenant",))
        with pytest.raises(ValueError, match="different"):
            registry.counter("repro_x_total", labelnames=("tenant", "status"))

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("repro_lat_seconds", buckets=(0.5, 1.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("ok_name", labelnames=("__reserved",))
        with pytest.raises(ValueError):
            registry.counter("ok_name", labelnames=("bad-dash",))
        with pytest.raises(ValueError):
            registry.histogram("repro_h", buckets=())

    def test_labels_must_match_declared_set(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labelnames=("tenant",))
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(other="x")
        with pytest.raises(ValueError, match="call .labels"):
            family.inc()  # labelled family has no default child


class TestInstrumentSemantics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        child = registry.counter("repro_x_total", labelnames=("t",)).labels(t="a")
        child.inc()
        child.inc(2.5)
        with pytest.raises(ValueError):
            child.inc(-1)
        assert child.value == 3.5

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert registry.snapshot()["repro_depth"][""] == 13.0

    def test_histogram_buckets_are_cumulative_in_samples(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 99.0):
            hist.observe(value)
        snap = registry.snapshot()["repro_lat_seconds"]
        assert snap['_bucket{le="1"}'] == 2.0
        assert snap['_bucket{le="5"}'] == 3.0
        assert snap['_bucket{le="+Inf"}'] == 4.0
        assert snap["_count"] == 4.0
        assert snap["_sum"] == pytest.approx(103.2)

    def test_same_labels_share_one_child(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labelnames=("t",))
        family.labels(t="a").inc()
        family.labels(t="a").inc()
        family.labels(t="b").inc()
        snap = registry.snapshot()["repro_x_total"]
        assert snap['{t="a"}'] == 2.0
        assert snap['{t="b"}'] == 1.0


class TestConcurrency:
    def test_parallel_writers_lose_no_updates(self):
        """The hammer: many threads on shared children, exact totals survive."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total", labelnames=("t",))
        gauge = registry.gauge("repro_level")
        hist = registry.histogram("repro_lat_seconds", buckets=(0.5,))
        threads_n, rounds = 8, 500
        start = threading.Barrier(threads_n)

        def worker(tenant):
            start.wait()
            child = counter.labels(t=tenant)
            for _ in range(rounds):
                child.inc()
                gauge.inc()
                hist.observe(0.1)
                registry.render()  # scrapes interleave with writes

        threads = [
            threading.Thread(target=worker, args=(f"t{i % 2}",)) for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snap = registry.snapshot()
        total = threads_n * rounds
        assert snap["repro_hits_total"]['{t="t0"}'] + snap["repro_hits_total"]['{t="t1"}'] == total
        assert snap["repro_level"][""] == float(total)
        assert snap["repro_lat_seconds"]["_count"] == float(total)
        assert snap["repro_lat_seconds"]['_bucket{le="0.5"}'] == float(total)

    def test_scrape_sees_consistent_histograms(self):
        """_sum and _count never disagree mid-observe under the shared lock."""
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(1.0,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe(2.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snap = registry.snapshot()["repro_lat_seconds"]
                assert snap["_sum"] == pytest.approx(2.0 * snap["_count"])
        finally:
            stop.set()
            thread.join()


class TestExposition:
    def test_a_counter_in_sub_units_renders_the_exact_decimal(self):
        # 0.1 + 0.2 summed as floats is 0.30000000000000004; in whole n$ it is 0.3.
        registry = MetricsRegistry()
        cost = registry.counter("repro_cost_dollars_total", per_unit=1_000_000_000)
        cost.inc(100_000_000)
        cost.inc(200_000_000)
        assert registry.render().endswith("repro_cost_dollars_total 0.3\n")
        assert registry.snapshot()["repro_cost_dollars_total"][""] == 0.3

    def test_golden_render(self):
        """Pinned Prometheus text exposition 0.0.4 output, byte for byte."""
        registry = MetricsRegistry()
        jobs = registry.counter(
            "repro_jobs_total", "Job lifecycle transitions.", ("tenant", "status")
        )
        jobs.labels(tenant="acme", status="succeeded").inc(3)
        jobs.labels(tenant="acme", status="failed").inc()
        registry.gauge("repro_jobs_active", "Jobs currently running.", ("tenant",)).labels(
            tenant="acme"
        ).set(1)
        hist = registry.histogram(
            "repro_call_duration_seconds",
            "Call wall-clock.",
            ("tenant",),
            buckets=(0.1, 1.0),
        ).labels(tenant="acme")
        hist.observe(0.0625)
        hist.observe(0.25)  # dyadic values keep the rendered _sum exact

        assert registry.render() == (
            "# HELP repro_call_duration_seconds Call wall-clock.\n"
            "# TYPE repro_call_duration_seconds histogram\n"
            'repro_call_duration_seconds_bucket{tenant="acme",le="0.1"} 1\n'
            'repro_call_duration_seconds_bucket{tenant="acme",le="1"} 2\n'
            'repro_call_duration_seconds_bucket{tenant="acme",le="+Inf"} 2\n'
            'repro_call_duration_seconds_sum{tenant="acme"} 0.3125\n'
            'repro_call_duration_seconds_count{tenant="acme"} 2\n'
            "# HELP repro_jobs_active Jobs currently running.\n"
            "# TYPE repro_jobs_active gauge\n"
            'repro_jobs_active{tenant="acme"} 1\n'
            "# HELP repro_jobs_total Job lifecycle transitions.\n"
            "# TYPE repro_jobs_total counter\n"
            'repro_jobs_total{tenant="acme",status="failed"} 1\n'
            'repro_jobs_total{tenant="acme",status="succeeded"} 3\n'
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labelnames=("path",)).labels(
            path='a\\b"c\nd'
        ).inc()
        rendered = registry.render()
        assert 'path="a\\\\b\\"c\\nd"' in rendered

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_render_ends_with_newline(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc()
        assert registry.render().endswith("\n")
