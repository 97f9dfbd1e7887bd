"""Latency percentiles and cache-aware discounts flowing into planner quotes."""

from __future__ import annotations

import pytest

from repro.core.physical import RuntimeStats
from repro.core.planner import CostEstimate, CostPlanner, PipelineQuote
from repro.core.spec import SortSpec
from repro.exceptions import ConfigurationError
from repro.tokenizer.cost import Usage
from tests.query.support import MODEL


class TestLatencyReservoir:
    def test_nearest_rank_percentiles_on_known_samples(self):
        stats = RuntimeStats()
        for value in [10.0, 20.0, 30.0, 40.0, 50.0]:
            stats.record_latency("sort:pairwise", value)
        assert stats.latency_p50("sort:pairwise") == 30.0
        assert stats.latency_percentile("sort:pairwise", 0.95) == 50.0
        assert stats.latency_percentile("sort:pairwise", 0.0) == 10.0
        assert stats.latency_percentile("sort:pairwise", 1.0) == 50.0

    def test_unknown_label_and_bad_quantile(self):
        stats = RuntimeStats()
        assert stats.latency_p50("sort:pairwise") is None
        stats.record_latency("sort:pairwise", 5.0)
        with pytest.raises(ConfigurationError):
            stats.latency_percentile("sort:pairwise", 1.5)

    def test_negative_durations_are_ignored(self):
        stats = RuntimeStats()
        stats.record_latency("sort:pairwise", -1.0)
        assert not any(stats.export_state()["latency"].values())

    def test_reservoir_caps_at_most_recent_samples(self):
        stats = RuntimeStats()
        total = RuntimeStats.LATENCY_SAMPLE_CAP + 100
        for i in range(total):
            stats.record_latency("sort:pairwise", float(i))
        # Only the newest LATENCY_SAMPLE_CAP samples survive, so the
        # minimum retained value is the first non-evicted one.
        floor = float(total - RuntimeStats.LATENCY_SAMPLE_CAP)
        assert stats.latency_percentile("sort:pairwise", 0.0) == floor

    def test_export_and_decay_merge(self):
        stats = RuntimeStats()
        for value in [10.0, 20.0, 30.0, 40.0]:
            stats.record_latency("sort:pairwise", value)
        stats.record_cache(hit=True)
        stats.record_cache(hit=False)
        state = stats.export_state()
        assert state["cache"] == [1, 2]
        assert state["latency"]["sort:pairwise"] == [10.0, 20.0, 30.0, 40.0]

        fresh = RuntimeStats()
        fresh.merge_state(state, weight=0.5)
        # Half the evidence mass: the two most recent samples survive, and
        # the cache ratio keeps its value with half the weight behind it.
        assert fresh.latency_percentile("sort:pairwise", 0.0) == 30.0
        assert fresh.latency_percentile("sort:pairwise", 1.0) == 40.0
        assert fresh.cache_hit_rate() == 0.5

    def test_merge_with_zero_weight_keeps_nothing(self):
        state = RuntimeStats()
        state.record_latency("sort:pairwise", 10.0)
        fresh = RuntimeStats()
        fresh.merge_state(state.export_state(), weight=0.0)
        assert not any(fresh.export_state()["latency"].values())


class TestCacheHitRate:
    def test_rate_is_none_until_traffic_is_recorded(self):
        assert RuntimeStats().cache_hit_rate() is None

    def test_rate_tracks_hits_over_requests(self):
        stats = RuntimeStats()
        stats.record_cache(hit=True, requests=3)
        stats.record_cache(hit=False, requests=1)
        assert stats.cache_hit_rate() == 0.75

    def test_nonpositive_request_counts_are_ignored(self):
        stats = RuntimeStats()
        stats.record_cache(hit=True, requests=0)
        assert stats.cache_hit_rate() is None


def _sort_spec() -> SortSpec:
    return SortSpec(
        items=["alpha", "beta", "gamma", "delta"],
        criterion="important",
        strategy="pairwise",
    )


class TestLatencyAwareQuotes:
    def test_seconds_is_calls_times_median_latency(self):
        stats = RuntimeStats()
        for value in [100.0, 200.0, 300.0]:
            stats.record_latency("sort:pairwise", value)
        planner = CostPlanner(MODEL, stats=stats)
        estimate = planner.estimate_spec(_sort_spec())
        assert estimate.seconds == pytest.approx(estimate.calls * 200.0 / 1000.0)

    def test_no_observed_latency_means_no_seconds(self):
        estimate = CostPlanner(MODEL).estimate_spec(_sort_spec())
        assert estimate.seconds is None

    def test_auto_strategy_looks_up_the_default_label(self):
        stats = RuntimeStats()
        stats.record_latency("sort:pairwise", 50.0)
        planner = CostPlanner(MODEL, stats=stats)
        auto = SortSpec(items=["a", "b", "c"], criterion="x", strategy="auto")
        estimate = planner.estimate_spec(auto)
        assert estimate.seconds is not None

    def test_total_seconds_sums_timed_steps_only(self):
        timed = CostEstimate(
            strategy="sort:pairwise", calls=2, usage=Usage(), dollars=0.1, seconds=1.5
        )
        untimed = CostEstimate(
            strategy="filter:per_item", calls=2, usage=Usage(), dollars=0.1
        )
        quote = PipelineQuote(pipeline="p", steps={"s1": timed, "s2": untimed})
        assert quote.total_seconds == 1.5
        bare = PipelineQuote(pipeline="p", steps={"s2": untimed})
        assert bare.total_seconds is None


class TestCacheAwareQuotes:
    def test_dollars_discounted_by_observed_hit_rate(self):
        stats = RuntimeStats()
        stats.record_cache(hit=True)
        stats.record_cache(hit=False)
        cold = CostPlanner(MODEL).estimate_spec(_sort_spec())
        warm = CostPlanner(MODEL, stats=stats).estimate_spec(_sort_spec())
        assert warm.dollars == pytest.approx(cold.dollars * 0.5)
        # Calls stay the logical work count.
        assert warm.calls == cold.calls

    def test_fully_cached_history_never_quotes_zero(self):
        stats = RuntimeStats()
        stats.record_cache(hit=True, requests=100)
        cold = CostPlanner(MODEL).estimate_spec(_sort_spec())
        warm = CostPlanner(MODEL, stats=stats).estimate_spec(_sort_spec())
        assert warm.dollars == pytest.approx(cold.dollars * 0.01)
        assert warm.dollars > 0.0

    def test_discount_note_renders_prior_and_observed(self):
        stats = RuntimeStats()
        stats.record_cache(hit=True)
        stats.record_cache(hit=False)
        note = CostPlanner(MODEL, stats=stats).cache_discount_note()
        assert note == (
            "cache hit-rate prior 0.00 -> observed 0.50 "
            "(dollar estimates discounted)"
        )

    def test_no_note_without_observed_hits(self):
        assert CostPlanner(MODEL).cache_discount_note() is None
        stats = RuntimeStats()
        stats.record_cache(hit=False)
        assert CostPlanner(MODEL, stats=stats).cache_discount_note() is None
