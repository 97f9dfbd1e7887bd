"""Tests for content-addressed pipeline checkpointing and crash resume."""

from __future__ import annotations

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    JoinSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
    TopKSpec,
)
from repro.llm.base import LLMResponse
from repro.llm.oracle import Oracle, prefix_margin
from repro.llm.simulated import SimulatedLLM
from repro.operators.filter import FilterResult
from repro.operators.join import JoinResult
from repro.operators.resolve import PairJudgment, PairJudgmentResult, ResolveResult
from repro.operators.sort import SortResult
from repro.store import Store, decode_result, encode_result, fingerprint_spec
from repro.tokenizer.cost import Usage
from tests.doubles import DyingClient

MODEL = "sim-gpt-3.5-turbo"
WORDS = ["apple", "banana", "cherry", "damson", "elder", "fig"]
PREDICATE = "starts early in the alphabet"


def corpus_llm(seed: int = 11) -> SimulatedLLM:
    oracle = Oracle()
    oracle.register_key("alphabetical order", key=lambda item: item)
    oracle.register_predicate(PREDICATE, lambda item: item[0] in "abc")
    oracle.register_entities({word: word[0] for word in WORDS})
    return SimulatedLLM(oracle, seed=seed)


def pipeline() -> PipelineSpec:
    return PipelineSpec(
        name="checkpointed",
        steps=[
            PipelineStep(
                name="filter",
                task=FilterSpec(items=WORDS, predicate=PREDICATE, strategy="per_item"),
            ),
            PipelineStep(
                name="sort",
                task=lambda inputs: SortSpec(
                    items=list(inputs["filter"].kept),
                    criterion="alphabetical order",
                    strategy="pairwise",
                ),
                depends_on=("filter",),
            ),
        ],
    )


def fresh_engine(store: Store | None = None) -> DeclarativeEngine:
    session = PromptSession(corpus_llm(), store=store)
    return DeclarativeEngine(session=session)


class TestResultCodecs:
    @pytest.mark.parametrize(
        "result",
        [
            SortResult(
                strategy="pairwise",
                order=["a", "b"],
                missing=["c"],
                hallucinated=["x"],
                scores={"a": 2.0, "b": 1.0},
            ),
            FilterResult(
                strategy="per_item",
                kept=["a"],
                decisions={"a": True, "b": False},
                votes_used=2,
            ),
            PairJudgmentResult(
                strategy="transitive",
                judgments=[
                    PairJudgment(left="a", right="b", is_duplicate=True, source="llm"),
                    PairJudgment(
                        left="b", right="c", is_duplicate=False, source="transitivity"
                    ),
                ],
            ),
            ResolveResult(strategy="pairwise", clusters=[[0, 1], [2]]),
            JoinResult(strategy="blocked", matches=[(0, 1), (2, 0)], candidate_pairs=6, llm_pairs=4),
        ],
        ids=lambda result: type(result).__name__,
    )
    def test_round_trip_preserves_fields(self, result):
        result.usage = Usage(prompt_tokens=100, completion_tokens=20, calls=7)
        result.cost = 0.0123
        result.metadata = {"note": "original"}
        restored = decode_result(encode_result(result))
        assert type(restored) is type(result)
        assert restored.strategy == result.strategy
        assert restored.usage.calls == 7
        assert restored.cost == pytest.approx(result.cost)
        assert restored.metadata == {"note": "original"}
        for attribute in ("order", "kept", "decisions", "clusters", "matches", "judgments"):
            if hasattr(result, attribute):
                assert getattr(restored, attribute) == getattr(result, attribute)

    def test_unknown_payload_type_decodes_to_none(self):
        assert decode_result('{"type": "Mystery", "version": 1, "fields": {}}') is None

    def test_newer_payload_version_decodes_to_none(self):
        payload = encode_result(SortResult(strategy="pairwise", order=["a"]))
        bumped = payload.replace('"version": 1', '"version": 99')
        assert decode_result(bumped) is None


class TestCheckpointStore:
    def test_save_load_and_metadata_marker(self, tmp_path):
        spec = SortSpec(items=("a", "b"), criterion="size", strategy="pairwise")
        result = SortResult(strategy="pairwise", order=["a", "b"])
        result.usage = Usage(calls=1)
        with Store(tmp_path / "store.db") as store:
            fingerprint = fingerprint_spec(spec)
            store.save_checkpoint(fingerprint, spec, result)
            restored = store.load_checkpoint(fingerprint)
            assert restored is not None
            assert restored.order == ["a", "b"]
            assert restored.metadata.get("checkpoint_hit") is True
            assert store.load_checkpoint("no-such-fingerprint") is None

    def test_checkpoint_lru_cap(self, tmp_path):
        with Store(tmp_path / "store.db", max_checkpoints=2) as store:
            fingerprints = []
            for index in range(3):
                spec = SortSpec(items=("a", "b"), criterion=f"c{index}", strategy="pairwise")
                fingerprint = fingerprint_spec(spec)
                fingerprints.append(fingerprint)
                store.save_checkpoint(
                    fingerprint, spec, SortResult(strategy="pairwise", order=["a", "b"])
                )
            assert store.checkpoint_count() == 2
            assert store.load_checkpoint(fingerprints[0]) is None
            assert store.load_checkpoint(fingerprints[2]) is not None


    def test_a_read_is_stamped_by_the_next_write_before_that_write_evicts(self, tmp_path):
        """A hit queues its recency stamp; the handle's next write transaction
        opens with it, so the LRU order is what a write per read would leave."""
        path = tmp_path / "store.db"
        result = SortResult(strategy="pairwise", order=["a", "b"])
        specs = [
            SortSpec(items=("a", "b"), criterion=f"c{index}", strategy="pairwise")
            for index in range(3)
        ]
        first, second, third = (fingerprint_spec(spec) for spec in specs)
        with Store(path, max_checkpoints=2) as store:
            store.save_checkpoint(first, specs[0], result)
            store.save_checkpoint(second, specs[1], result)
            statements: list[str] = []
            store.db._conn.set_trace_callback(statements.append)
            assert store.load_checkpoint(first) is not None
            assert [s.split()[0] for s in statements] == ["SELECT"]  # a read, no transaction
            store.db._conn.set_trace_callback(None)
            store.save_checkpoint(third, specs[2], result)  # evicts the least recent
            assert store.load_checkpoint(second) is None
            assert store.load_checkpoint(first) is not None
            assert store.load_checkpoint(third) is not None

    def test_close_writes_the_stamps_still_queued(self, tmp_path):
        path = tmp_path / "store.db"
        result = SortResult(strategy="pairwise", order=["a", "b"])
        specs = [
            SortSpec(items=("a", "b"), criterion=f"c{index}", strategy="pairwise")
            for index in range(2)
        ]
        first, second = (fingerprint_spec(spec) for spec in specs)
        with Store(path) as store:
            store.save_checkpoint(first, specs[0], result)
            store.save_checkpoint(second, specs[1], result)
            assert store.load_checkpoint(first) is not None
        with Store(path) as store:
            recency = dict(store.db.execute("SELECT fingerprint, access_seq FROM checkpoints"))
        assert recency[first] > recency[second]


class TestPipelineResume:
    def test_second_run_restores_every_step_with_zero_calls(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            cold = fresh_engine(store).run_pipeline(pipeline(), store=store)
        assert cold.total_calls > 0
        assert cold.restored_steps == []
        with Store(path) as store:
            warm = fresh_engine(store).run_pipeline(pipeline(), store=store)
        assert warm.total_calls == 0
        assert sorted(warm.restored_steps) == ["filter", "sort"]
        assert warm.results["sort"].order == cold.results["sort"].order
        assert warm.results["filter"].kept == cold.results["filter"].kept

    def test_changed_step_reruns_only_its_subtree(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            fresh_engine(store).run_pipeline(pipeline(), store=store)
        changed = pipeline()
        changed.steps[1].task = lambda inputs: SortSpec(
            items=list(inputs["filter"].kept),
            criterion="alphabetical order",
            strategy="rating",  # new strategy -> new fingerprint downstream
        )
        with Store(path) as store:
            engine = fresh_engine(store)
            report = engine.run_pipeline(changed, store=store)
        assert report.restored_steps == ["filter"]
        assert report.step_reports["sort"].restored is False
        # Only the changed sort step spent calls (one rating per item).
        assert report.total_calls == len(report.results["filter"].kept)

    def test_a_checkpoint_is_not_restored_for_another_model(self, tmp_path):
        """The model the step's calls go out with is part of the key: the
        cheap model's run must not report the expensive model's answers."""
        words = WORDS + ["grape", "honeydew", "iris", "jujube"]
        screen = PipelineSpec(
            name="screen",
            steps=[
                PipelineStep(
                    name="screen",
                    task=FilterSpec(items=words, predicate=PREDICATE, strategy="per_item"),
                )
            ],
        )

        def run(model: str):
            with Store(tmp_path / "store.db") as store:
                session = PromptSession(corpus_llm(), store=store)
                engine = DeclarativeEngine(session=session, default_model=model)
                return engine.run_pipeline(screen)

        first = run("sim-gpt-4")
        assert (first.restored_steps, first.total_calls) == ([], len(words))
        other = run("sim-small")
        assert (other.restored_steps, other.total_calls) == ([], len(words))
        for model in ("sim-gpt-4", "sim-small"):  # each model's own run is still there
            again = run(model)
            assert (again.restored_steps, again.total_calls) == (["screen"], 0)

    def test_killed_run_resumes_with_identical_results(self, tmp_path):
        """The acceptance criterion: kill after step k, resume for free."""
        reference_store = Store(tmp_path / "reference.db")
        uninterrupted = fresh_engine(reference_store).run_pipeline(
            pipeline(), store=reference_store
        )
        filter_calls = uninterrupted.step_reports["filter"].calls
        assert filter_calls > 0

        path = tmp_path / "store.db"
        with Store(path) as store:
            flaky = DyingClient(corpus_llm(), fail_after=filter_calls)
            session = PromptSession(flaky, store=store)
            engine = DeclarativeEngine(session=session)
            with pytest.raises(RuntimeError, match="simulated crash"):
                engine.run_pipeline(pipeline(), store=store)

        # The killed process checkpointed its completed filter step; a new
        # process resumes, restores it with zero calls, and finishes.
        with Store(path) as store:
            session = PromptSession(corpus_llm(), store=store)
            engine = DeclarativeEngine(session=session)
            resumed = engine.run_pipeline(pipeline(), store=store)
        assert resumed.restored_steps == ["filter"]
        assert resumed.step_reports["filter"].calls == filter_calls  # original run's
        assert resumed.total_calls == uninterrupted.total_calls - filter_calls
        assert resumed.results["sort"].order == uninterrupted.results["sort"].order
        assert resumed.results["filter"].kept == uninterrupted.results["filter"].kept
        reference_store.close()

    def test_budget_stopped_run_checkpoints_completed_steps(self, tmp_path):
        from repro.core.budget import Budget

        # A cheap filter (8 per-item checks) feeding an expensive pairwise
        # sort (15 comparisons over the 6 survivors): a budget of ~2.4x the
        # filter quote lets the filter finish on its lease and cuts the
        # sort off mid-way.
        words = WORDS + ["grape", "honeydew"]
        oracle = Oracle()
        oracle.register_key("alphabetical order", key=lambda item: item)
        oracle.register_predicate(PREDICATE, lambda item: item[0] in "abcdef")

        def stop_pipeline() -> PipelineSpec:
            return PipelineSpec(
                name="stoppable",
                steps=[
                    PipelineStep(
                        name="filter",
                        task=FilterSpec(items=words, predicate=PREDICATE, strategy="per_item"),
                    ),
                    PipelineStep(
                        name="sort",
                        task=lambda inputs: SortSpec(
                            items=list(inputs["filter"].kept),
                            criterion="alphabetical order",
                            strategy="pairwise",
                        ),
                        depends_on=("filter",),
                    ),
                ],
            )

        path = tmp_path / "store.db"
        probe = DeclarativeEngine(SimulatedLLM(oracle, seed=11))
        filter_dollars = probe.quote_pipeline(stop_pipeline()).steps["filter"].dollars
        with Store(path) as store:
            session = PromptSession(
                SimulatedLLM(oracle, seed=11),
                store=store,
                budget=Budget(filter_dollars * 2.4),
            )
            engine = DeclarativeEngine(session=session)
            stopped = engine.run_pipeline(stop_pipeline(), store=store)
        assert stopped.stopped_early
        assert stopped.step_reports["filter"].status == "completed"
        assert stopped.step_reports["sort"].status != "completed"
        with Store(path) as store:
            session = PromptSession(SimulatedLLM(oracle, seed=11), store=store)
            resumed = DeclarativeEngine(session=session).run_pipeline(
                stop_pipeline(), store=store
            )
        assert not resumed.stopped_early
        assert "filter" in resumed.restored_steps
        assert resumed.step_reports["filter"].calls == len(words)

    def test_crashed_run_still_saves_its_workload_profile(self, tmp_path):
        # Observations made before the crash are real; the resumed process
        # must warm-start its quotes from them.
        path = tmp_path / "store.db"
        with Store(path) as store:
            flaky = DyingClient(corpus_llm(), fail_after=len(WORDS))
            session = PromptSession(flaky, store=store)
            engine = DeclarativeEngine(session=session)
            with pytest.raises(RuntimeError):
                engine.run_pipeline(pipeline(), store=store)
            observed = session.stats.filter_selectivity(PREDICATE)
            assert observed is not None
        with Store(path) as store:
            resumed_session = PromptSession(corpus_llm(), store=store)
            assert resumed_session.stats.filter_selectivity(PREDICATE) == pytest.approx(
                observed
            )

    def test_store_attached_to_session_is_used_implicitly(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            engine = fresh_engine(store)
            engine.run_pipeline(pipeline())  # no store= argument
            assert store.checkpoint_count() == 2
        with Store(path) as store:
            warm = fresh_engine(store).run_pipeline(pipeline())
        assert warm.total_calls == 0

    def test_runs_without_store_are_unaffected(self):
        engine = fresh_engine(None)
        report = engine.run_pipeline(pipeline())
        assert report.restored_steps == []
        assert report.total_calls > 0


class TestQueryLayerResume:
    def test_dataset_with_store_round_trip(self, tmp_path):
        from repro.query.dataset import Dataset

        path = tmp_path / "store.db"
        query = lambda: (  # noqa: E731 - a fresh lazy query per run
            Dataset(WORDS, name="letters")
            .filter(PREDICATE, strategy="per_item")
            .sort("alphabetical order", strategy="pairwise")
        )
        with Store(path) as store:
            cold = query().with_store(store).run(fresh_engine(None))
        assert cold.total_calls > 0
        with Store(path) as store:
            warm = query().with_store(store).run(fresh_engine(None))
        assert warm.total_calls == 0
        assert warm.items == cold.items
        assert sorted(warm.report.restored_steps) == sorted(
            name for name in warm.report.step_reports
        )

    def test_a_restored_run_writes_once(self, tmp_path):
        """Every restored step's recency stamp, the span flush and the profile
        are one write transaction; the profile is not saved a second time
        with the same bytes."""
        from repro.query.dataset import Dataset

        path = tmp_path / "store.db"
        query = lambda: (  # noqa: E731 - a fresh lazy query per run
            Dataset(WORDS, name="letters")
            .filter(PREDICATE, strategy="per_item")
            .sort("alphabetical order", strategy="pairwise")
        )
        with Store(path) as store:
            query().with_store(store).run(fresh_engine(store))
        statements: list[str] = []
        with Store(path) as store:
            store.db._conn.set_trace_callback(statements.append)
            warm = query().with_store(store).run(fresh_engine(store))
            store.db._conn.set_trace_callback(None)
        assert warm.total_calls == 0 and len(warm.report.restored_steps) == 2
        assert sum(s.startswith("BEGIN") for s in statements) == 1
        assert sum("INTO profiles" in s for s in statements) == 1
        assert sum(s.startswith("UPDATE checkpoints SET access_seq") for s in statements) == 2
