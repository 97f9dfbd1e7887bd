"""Tests for the proxy-resolve feedback loop (ROADMAP satellite items).

Two gaps closed here:

* proxy-rewritten dedups (embedding blocking + pair judgments) now record
  dedup survivor ratios, which previously only records-path resolves fed;
* the blocker's observed candidate-pair fraction of the k·n upper bound is
  recorded, and the next proxy quote is priced from it.
"""

from __future__ import annotations

import pytest

from repro.query.dataset import Dataset
from tests.query.support import clean_engine, product_corpus

N_ENTITIES = 12
VARIANTS = 3


def dedup_query(items) -> Dataset:
    return Dataset(list(items), name="feedback").resolve()


@pytest.fixture()
def executed_engine():
    """An engine that has run one proxy-rewritten dedup query."""
    items, oracle = product_corpus(n_entities=N_ENTITIES, variants=VARIANTS)
    engine = clean_engine(oracle)
    result = dedup_query(items).run(engine)
    return engine, items, result


class TestProxyResolveFeedsStats:
    def test_plan_actually_used_the_proxy(self, executed_engine):
        engine, items, result = executed_engine
        assert any("block" in name for name in result.report.step_reports)

    def test_dedup_survivor_ratio_recorded_from_proxy_path(self, executed_engine):
        engine, items, result = executed_engine
        ratio = engine.session.stats.dedup_survivor_ratio()
        assert ratio is not None
        # Clean oracle: every entity's variants merge, so survivors are the
        # unique entities exactly.
        assert ratio == pytest.approx(N_ENTITIES / len(set(items)))
        assert len(result.items) == N_ENTITIES

    def test_blocked_pair_rate_recorded_and_below_upper_bound(self, executed_engine):
        engine, items, result = executed_engine
        rate = engine.session.stats.blocked_pair_rate()
        assert rate is not None
        assert 0.0 < rate <= 1.0
        # Mutual-neighbor dedup makes the real candidate count strictly
        # smaller than k*n on any non-trivial corpus.
        assert rate < 1.0

    def test_second_quote_matches_observed_calls(self, executed_engine):
        engine, items, result = executed_engine
        requote = dedup_query(items).quote(planner=engine.planner())
        # The re-quote prices the blocked pairs from the observed rate; on
        # this deterministic workload that lands exactly on what ran.
        assert requote.total_calls == result.total_calls

    def test_second_quote_cheaper_than_cold_quote(self, executed_engine):
        engine, items, result = executed_engine
        cold = dedup_query(items).quote()
        warm = dedup_query(items).quote(planner=engine.planner())
        assert warm.total_calls < cold.total_calls

    def test_checkpoint_replays_do_not_double_count_evidence(self, tmp_path):
        from repro.store import Store

        items, oracle = product_corpus(n_entities=N_ENTITIES, variants=VARIANTS)
        with Store(tmp_path / "store.db") as store:
            engine = clean_engine(oracle)
            dedup_query(items).with_store(store).run(engine)
            ratio = engine.session.stats.dedup_survivor_ratio()
            baseline = engine.session.stats.export_state()["dedup"]
            # Two free replays: every judge step restores from checkpoints.
            dedup_query(items).with_store(store).run(engine)
            dedup_query(items).with_store(store).run(engine)
            after = engine.session.stats.export_state()["dedup"]
        assert ratio is not None
        # The evidence mass is unchanged — restored steps record nothing.
        assert after == baseline

    def test_degenerate_single_survivor_does_not_double_count(self):
        # A one-item dedup goes down the records path inside the engine,
        # which already records its ratio; the feedback hook must skip it.
        items, oracle = product_corpus(n_entities=1, variants=1)
        engine = clean_engine(oracle)
        dedup_query(items).run(engine)
        ratio = engine.session.stats.dedup_survivor_ratio()
        # Either nothing recorded (no dedup ran) or exactly one recording.
        assert ratio is None or ratio == 1.0
