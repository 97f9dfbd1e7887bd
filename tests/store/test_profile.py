"""Tests for workload profiles: save/load, decay merging, warm-start parity."""

from __future__ import annotations

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.physical import RuntimeStats
from repro.core.planner import CostPlanner
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep
from repro.exceptions import StoreError
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.store import Store, WorkloadProfile

MODEL = "sim-gpt-3.5-turbo"
PREDICATE = "mentions an animal"
ITEMS = [
    "the cat sat on the mat",
    "stock markets rallied today",
    "a dog barked all night",
    "the committee approved the budget",
    "elephants migrate across the savanna",
    "the recipe needs two cups of flour",
    "a flock of geese flew south",
    "the printer is out of toner",
    "wild horses roam the plains",
    "quarterly earnings beat expectations",
]


def animal_llm() -> SimulatedLLM:
    animals = ("cat", "dog", "elephant", "geese", "horse")
    oracle = Oracle()
    oracle.register_predicate(
        PREDICATE, lambda item: any(animal in item for animal in animals)
    )
    return SimulatedLLM(oracle, seed=61)


def observed_stats() -> RuntimeStats:
    stats = RuntimeStats()
    stats.record_filter(PREDICATE, evaluated=100, kept=30)
    stats.record_dedup(inputs=60, survivors=20)
    stats.record_pair_match(judged=50, duplicates=10)
    stats.record_join(left=40, matched=8)
    stats.record_blocked_pairs(candidates=66, upper_bound=100)
    stats.record_calls("sort:pairwise", estimated=10, actual=15)
    return stats


class TestStateRoundTrip:
    def test_ratios_survive_export_and_merge(self):
        stats = observed_stats()
        fresh = RuntimeStats()
        fresh.merge_state(stats.export_state())
        assert fresh.filter_selectivity(PREDICATE) == pytest.approx(0.3)
        assert fresh.dedup_survivor_ratio() == pytest.approx(20 / 60)
        assert fresh.pair_match_rate() == pytest.approx(0.2)
        assert fresh.join_selectivity() == pytest.approx(0.2)
        assert fresh.blocked_pair_rate() == pytest.approx(0.66)
        assert fresh.call_ratio("sort:pairwise") == pytest.approx(1.5)
        assert fresh.call_count("sort:pairwise") == 15
        assert fresh.run_count("sort:pairwise") == 1

    def test_decay_scales_evidence_not_ratios(self):
        stats = observed_stats()
        fresh = RuntimeStats()
        fresh.merge_state(stats.export_state(), weight=0.5)
        # Same ratio as saved (numerator and denominator scaled together)...
        assert fresh.filter_selectivity(PREDICATE) == pytest.approx(0.3)
        # ...but new evidence of equal raw size now outweighs the history
        # two to one instead of meeting it halfway.
        fresh.record_filter(PREDICATE, evaluated=100, kept=90)
        merged = fresh.filter_selectivity(PREDICATE)
        assert merged == pytest.approx((0.5 * 30 + 90) / (0.5 * 100 + 100))
        assert merged > 0.6  # fresh observations dominate

    def test_merge_with_zero_weight_is_a_no_op(self):
        fresh = RuntimeStats()
        fresh.merge_state(observed_stats().export_state(), weight=0.0)
        assert fresh.empty

    def test_profile_json_round_trip(self):
        profile = WorkloadProfile.from_stats(observed_stats())
        restored = WorkloadProfile.from_json(profile.to_json())
        assert restored.state == profile.state

    def test_malformed_payload_raises(self):
        with pytest.raises(StoreError):
            WorkloadProfile.from_json("{not json")

    def test_newer_profile_version_raises(self):
        with pytest.raises(StoreError, match="newer"):
            WorkloadProfile.from_json('{"version": 99, "state": {}}')

    def test_invalid_decay_rejected(self):
        profile = WorkloadProfile.from_stats(observed_stats())
        with pytest.raises(StoreError):
            profile.apply_to(RuntimeStats(), decay=0.0)


class TestStoreIntegration:
    def test_save_and_apply_through_store(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            store.save_profile(observed_stats())
            fresh = RuntimeStats()
            assert store.apply_profile(fresh) is True
            assert fresh.filter_selectivity(PREDICATE) == pytest.approx(0.3)

    def test_apply_without_saved_profile_is_false(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            assert store.apply_profile(RuntimeStats()) is False

    def test_unseeded_session_save_merges_instead_of_clobbering(self, tmp_path):
        # Process A saves a rich profile.  Process B (a session built
        # WITHOUT store=) runs one tiny pipeline against the same store:
        # the accumulated history must survive underneath, not be replaced.
        path = tmp_path / "store.db"
        with Store(path) as store:
            store.save_profile(observed_stats())
        with Store(path) as store:
            unseeded = PromptSession(animal_llm())  # no store=
            engine = DeclarativeEngine(session=unseeded)
            engine.run_pipeline(
                PipelineSpec(
                    name="tiny",
                    steps=[
                        PipelineStep(
                            name="screen",
                            task=FilterSpec(
                                items=ITEMS, predicate=PREDICATE, strategy="per_item"
                            ),
                        )
                    ],
                ),
                store=store,
            )
        with Store(path) as store:
            loaded = RuntimeStats()
            store.apply_profile(loaded)
        # The rich profile's dedup observation (which the tiny run never
        # touched) is still present.
        assert loaded.dedup_survivor_ratio() == pytest.approx(20 / 60)
        # And the tiny run's fresh filter evidence is in there too.
        assert loaded.filter_selectivity(PREDICATE) is not None

    def test_the_bytes_this_handle_last_wrote_are_not_written_again(self, tmp_path):
        def updated_seq(store: Store) -> int:
            return store.db.execute("SELECT updated_seq FROM profiles WHERE name = 'default'")[0][0]

        with Store(tmp_path / "store.db") as store:
            stats = observed_stats()
            store.save_profile(stats)
            first = updated_seq(store)
            store.save_profile(stats)
            assert updated_seq(store) == first  # same payload: no write
            stats.record_dedup(inputs=10, survivors=9)
            store.save_profile(stats)
            assert updated_seq(store) > first  # new evidence: written
            # A write that was rolled back is not "written": the next save
            # of the same bytes must reach the file.
            stats.record_dedup(inputs=10, survivors=8)
            with pytest.raises(RuntimeError, match="undo"), store.db.atomic():
                store.save_profile(stats)
                raise RuntimeError("undo")
            store.save_profile(stats)
            survivors = store.load_profile().to_json()
        with Store(tmp_path / "store.db") as store:
            assert store.load_profile().to_json() == survivors
            reloaded = RuntimeStats()
            store.apply_profile(reloaded, decay=1.0)
            assert reloaded.dedup_survivor_ratio() == stats.dedup_survivor_ratio()

    def test_named_profiles_are_independent(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            store.save_profile(observed_stats(), name="workload-a")
            assert store.load_profile(name="workload-b") is None
            assert store.load_profile(name="workload-a") is not None

    def test_session_save_profile_requires_a_store(self):
        session = PromptSession(animal_llm())
        with pytest.raises(StoreError, match="store"):
            session.save_profile()


class TestWarmStartParity:
    """A store-loaded session must quote like the warm session that saved."""

    def test_cold_session_with_profile_quotes_like_warm_session(self, tmp_path):
        spec = FilterSpec(items=ITEMS, predicate=PREDICATE, strategy="per_item")
        path = tmp_path / "store.db"

        # Session one runs the filter and saves its profile.
        with Store(path) as store:
            warm = PromptSession(animal_llm(), store=store)
            engine = DeclarativeEngine(session=warm)
            engine.filter(spec)
            warm_quote = engine.planner().estimate_spec(
                FilterSpec(items=ITEMS, predicate=PREDICATE, strategy="per_item")
            )
            warm_selectivity = warm.stats.filter_selectivity(PREDICATE)
            warm.save_profile()

        # Session two starts cold but loads the profile via the store.
        with Store(path) as store:
            cold = PromptSession(animal_llm(), store=store)
            engine2 = DeclarativeEngine(session=cold)
            cold_quote = engine2.planner().estimate_spec(
                FilterSpec(items=ITEMS, predicate=PREDICATE, strategy="per_item")
            )
            assert cold.stats.filter_selectivity(PREDICATE) == pytest.approx(
                warm_selectivity
            )
            assert cold_quote.calls == warm_quote.calls
            assert cold_quote.dollars == pytest.approx(warm_quote.dollars)

    def test_explain_annotations_match_warm_session(self, tmp_path):
        """Acceptance: the store-loaded session renders the same
        prior -> observed quote annotations as a warm in-process session."""
        from repro.query.dataset import Dataset

        path = tmp_path / "store.db"
        query = Dataset(ITEMS, name="annotated").filter(
            PREDICATE, expected_selectivity=0.5, strategy="per_item"
        )
        with Store(path) as store:
            warm = PromptSession(animal_llm(), store=store)
            engine = DeclarativeEngine(session=warm)
            query.with_store(store).run(engine)
            warm_explain = query.explain(planner=engine.planner())
        assert "-> observed" in warm_explain

        with Store(path) as store:
            cold = PromptSession(animal_llm(), store=store)
            cold_explain = query.explain(
                planner=DeclarativeEngine(session=cold).planner()
            )
        assert cold_explain == warm_explain

    def test_profile_feeds_downstream_estimates_without_stats_sharing(self, tmp_path):
        # The profile is the only channel: a fresh CostPlanner seeded from a
        # profile-loaded stats store prices the observed selectivity, a
        # planner without stats prices the prior.
        stats = observed_stats()
        with Store(tmp_path / "store.db") as store:
            store.save_profile(stats)
            loaded = RuntimeStats()
            store.apply_profile(loaded)
        spec = FilterSpec(items=ITEMS, predicate=PREDICATE, strategy="per_item")
        with_stats = CostPlanner(MODEL, stats=loaded).estimate_spec(spec)
        without = CostPlanner(MODEL).estimate_spec(spec)
        assert with_stats.calls == without.calls  # first predicate pass is fixed
        # A two-predicate chain shrinks by the observed 0.3, not the 0.5 prior.
        chain = FilterSpec(
            items=ITEMS, predicates=(PREDICATE, "second check"), strategy="per_item"
        )
        with_stats_chain = CostPlanner(MODEL, stats=loaded).estimate_spec(chain)
        without_chain = CostPlanner(MODEL).estimate_spec(chain)
        assert with_stats_chain.calls < without_chain.calls
