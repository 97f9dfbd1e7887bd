"""A quote against a store prices what the run will restore, and the run
restores what the quote found.

After one run, a re-quote prices every step the next run restores at zero
calls and dollars (without probing their prompts) — factory steps too, keyed
by their declaration and their parents' result digests — and ``.explain()``
marks them.  The run loads them all in one statement before scheduling.
Each static step is fingerprinted exactly once per run, by the quote; a
declared factory is never fingerprinted over its spec.
"""

from __future__ import annotations

import re
import sqlite3

import pytest

import repro.store.fingerprint
from benchmarks.perf import corpus
from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import (
    FilterSpec,
    PipelineSpec,
    PipelineStep,
    SortSpec,
    TaskSpec,
    TopKSpec,
)
from repro.query import Dataset
from repro.store import PersistentResponseCache, Store
from repro.store.fingerprint import FingerprintError, fingerprint_spec

FEED = corpus.product_feed(1, 8)
#: A checkpoint key as the SQL trace shows it bound into a statement.
KEY = re.compile(r"'[0-9a-f]{64}'")
RESTORED_NOTE = "{} of {} steps restored from checkpoints, priced at zero"


def product_query() -> Dataset:
    """The ledger's ``filter -> resolve -> top_k`` query."""
    return (
        Dataset(FEED.items, name="products")
        .filter(corpus.SHORT_BRAND, strategy="per_item")
        .resolve()
        .top_k(corpus.IMPORTANCE, k=3, strategy="pairwise_tournament")
    )


def static_pipeline() -> PipelineSpec:
    """filter -> sort -> top_k, every step a concrete spec."""
    items = FEED.items[:8]
    return PipelineSpec(
        name="static",
        steps=[
            PipelineStep(
                "filter",
                FilterSpec(items=items, predicate=corpus.SHORT_BRAND, strategy="per_item"),
            ),
            PipelineStep(
                "sort",
                SortSpec(items=items, criterion=corpus.IMPORTANCE, strategy="pairwise"),
                depends_on=("filter",),
            ),
            PipelineStep(
                "top_k",
                TopKSpec(
                    items=items, criterion=corpus.IMPORTANCE, k=3, strategy="pairwise_tournament"
                ),
                depends_on=("sort",),
            ),
        ],
    )


def engine_on(store: Store) -> tuple[DeclarativeEngine, corpus.CountingLLM]:
    """A fresh session over ``store``, as a new process would build it."""
    llm = corpus.CountingLLM(FEED.oracle, seed=1, behavior=corpus.EXACT_ANSWERS)
    session = PromptSession(llm, store=store)
    return DeclarativeEngine.from_session(session, default_model=corpus.MODEL), llm


def patch_fingerprint(monkeypatch, function) -> None:
    """Replace ``fingerprint_spec`` where the planner's and the engine's
    ``step_key`` calls it."""
    monkeypatch.setattr(repro.store.fingerprint, "fingerprint_spec", function)


@pytest.fixture()
def fingerprints(monkeypatch) -> list[object]:
    """Every ``fingerprint_spec`` call the planner and the engine make, by spec."""
    calls: list[object] = []

    def counted(spec, *, model=None):
        calls.append(spec)
        return fingerprint_spec(spec, model=model)

    patch_fingerprint(monkeypatch, counted)
    return calls


def assert_zero(estimate) -> None:
    assert (estimate.calls, estimate.dollars, estimate.usage.calls) == (0, 0.0, 0)


class TestQuoteAgreesWithRestore:
    def test_product_query_requote_prices_every_restored_step(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
        assert cold.quote.restored_steps == () and cold.report.restored_steps == []

        with Store(path) as store:
            engine, llm = engine_on(store)
            quote = product_query().with_store(store).quote(planner=engine.planner())
            warm = product_query().with_store(store).run(engine)
        assert llm.reached == 0 and warm.total_calls == 0
        static = {step.name for step in warm.spec.steps if isinstance(step.task, TaskSpec)}
        assert static == {"s1_filter"}
        restored = ("s1_filter", "s2_resolve", "s3_top_k")
        assert quote.restored_steps == warm.quote.restored_steps == restored
        assert sorted(warm.report.restored_steps) == list(restored)
        for name in restored:
            assert_zero(quote.steps[name])
        assert quote.steps["s1_filter"].strategy == "filter:per_item"
        assert quote.steps["s2_resolve"].strategy == "resolve:pairwise"
        assert quote.steps["s3_top_k"].strategy == "top_k:pairwise_tournament"
        assert (quote.total_calls, quote.total_dollars) == (0, 0.0)
        assert warm.report.step_reports["s2_block"].status == "skipped"
        assert RESTORED_NOTE.format(3, 3) in quote.notes
        assert not any("persistent cache" in note for note in quote.notes)

    def test_the_explain_marks_the_restored_steps(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
            warm = product_query().with_store(store).run(engine)
        assert "(restored)" not in cold.explain
        marked = [line for line in warm.explain.splitlines() if "(restored)" in line]
        assert [line.split()[0] for line in marked] == ["s1_filter", "s2_resolve", "s3_top_k"]
        assert RESTORED_NOTE.format(3, 3) in warm.explain

    def test_static_pipeline_requote_is_free_and_matches_the_restore(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            engine, _ = engine_on(store)
            cold = engine.run_pipeline(static_pipeline())
            assert cold.total_calls > 0 and cold.quote.total_calls > 0
        with Store(path) as store:
            engine, llm = engine_on(store)
            quote = engine.quote_pipeline(static_pipeline())
            warm = engine.run_pipeline(static_pipeline(), quote=quote)
        assert llm.reached == 0
        assert sorted(quote.restored_steps) == sorted(warm.restored_steps) == [
            "filter",
            "sort",
            "top_k",
        ]
        for name in quote.restored_steps:
            assert_zero(quote.steps[name])
            strategy = cold.results[name].strategy
            assert quote.steps[name].strategy.endswith(f":{strategy}")
        assert (quote.total_calls, quote.total_dollars) == (0, 0.0)
        assert quote.notes[0] == RESTORED_NOTE.format(3, 3)

    def test_a_namespaced_store_quotes_only_its_own_checkpoints(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store.namespace("acme"))
            engine.run_pipeline(static_pipeline())
            again, _ = engine_on(store.namespace("acme"))
            other, _ = engine_on(store.namespace("other"))
            bare, _ = engine_on(store)
            assert len(again.quote_pipeline(static_pipeline()).restored_steps) == 3
            assert other.quote_pipeline(static_pipeline()).restored_steps == ()
            assert bare.quote_pipeline(static_pipeline()).restored_steps == ()

    def test_a_restored_run_probes_no_prompt_and_reads_checkpoints_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.db"
        with Store(path) as store:
            engine, _ = engine_on(store)
            product_query().with_store(store).run(engine)
        probes: list[int] = []
        bulk = PersistentResponseCache.contains_many

        def counted(self, model, prompts):
            probes.append(len(prompts))
            return bulk(self, model, prompts)

        monkeypatch.setattr(PersistentResponseCache, "contains_many", counted)
        statements: list[str] = []
        with Store(path) as store:
            engine, _ = engine_on(store)
            store.db._conn.set_trace_callback(statements.append)
            warm = product_query().with_store(store).run(engine)
            store.db._conn.set_trace_callback(None)
        assert len(warm.report.restored_steps) == 3
        assert probes == []
        # One lookup per dependency depth, then one load of all three rows.
        lookups = [s for s in statements if s.startswith("SELECT fingerprint, strategy")]
        loads = [s for s in statements if s.startswith("SELECT fingerprint, payload")]
        assert [len(KEY.findall(s)) for s in lookups] == [1, 1, 1]
        assert [len(KEY.findall(s)) for s in loads] == [3]
        assert not any("FROM cache" in s for s in statements)
        assert not any("FROM vector_indexes" in s for s in statements)
        assert sum(s.startswith("BEGIN") for s in statements) == 1


class TestQuotedAsBefore:
    def test_an_unfingerprintable_spec_is_quoted_and_run_as_before(
        self, tmp_path, monkeypatch
    ):
        pipeline = static_pipeline()
        refused = pipeline.steps[0].task

        def fingerprint(spec, *, model=None):
            if spec is refused:
                raise FingerprintError("no canonical form")
            return fingerprint_spec(spec, model=model)

        patch_fingerprint(monkeypatch, fingerprint)
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            engine.run_pipeline(pipeline)
            assert store.checkpoint_count() == 2
            quote = engine.quote_pipeline(pipeline)
            unstored = engine.planner().quote_pipeline(pipeline)
            assert quote.steps["filter"] == unstored.steps["filter"]
            assert quote.steps["filter"].calls > 0
            assert quote.restored_steps == ("sort", "top_k")
            assert quote.notes[0] == RESTORED_NOTE.format(2, 3)
            warm = engine.run_pipeline(pipeline, quote=quote)
        assert sorted(warm.restored_steps) == ["sort", "top_k"]

    def test_a_store_that_cannot_answer_is_quoted_as_before(self, tmp_path, monkeypatch):
        with Store(tmp_path / "store.db") as store:
            engine, llm = engine_on(store)
            engine.run_pipeline(static_pipeline())

            def locked(fingerprints):
                raise sqlite3.OperationalError("database is locked")

            monkeypatch.setattr(store, "checkpoint_digests", locked)
            quote = engine.quote_pipeline(static_pipeline())
            assert quote.restored_steps == () and quote.total_calls > 0
            paid = llm.reached
            report = engine.run_pipeline(static_pipeline(), quote=quote)
        # The run's own loads decide: every step is still restored.
        assert sorted(report.restored_steps) == ["filter", "sort", "top_k"]
        assert llm.reached == paid

    def test_a_checkpoint_deleted_after_the_quote_re_executes(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, llm = engine_on(store)
            engine.run_pipeline(static_pipeline())
            quote = engine.quote_pipeline(static_pipeline())
            assert "filter" in quote.restored_steps
            gone = quote.keys["filter"].fingerprint
            store.db.execute("DELETE FROM checkpoints WHERE fingerprint = ?", (gone,))
            paid = llm.reached
            report = engine.run_pipeline(static_pipeline(), quote=quote)
            assert sorted(report.restored_steps) == ["sort", "top_k"]
            assert report.step_reports["filter"].status == "completed"
            # Answered from the durable cache, and checkpointed again.
            assert llm.reached == paid
            digest = quote.keys["filter"].digest
            assert store.checkpoint_digests([gone]) == {gone: ("per_item", digest)}

    def test_a_quote_from_another_model_is_not_trusted_for_keys(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            engine.run_pipeline(static_pipeline())
            pipeline = static_pipeline()
            foreign = engine.physical.cost_planner("sim-gpt-4").quote_pipeline(
                pipeline, store=store
            )
            assert foreign.restored_steps == ()
            report = engine.run_pipeline(pipeline, quote=foreign)
        assert sorted(report.restored_steps) == ["filter", "sort", "top_k"]


class TestFingerprintedOncePerRun:
    def test_only_the_static_step_of_the_product_query_once(self, tmp_path, fingerprints):
        path = tmp_path / "store.db"
        for expected_restores in (0, 3):
            with Store(path) as store:
                engine, _ = engine_on(store)
                del fingerprints[:]
                result = product_query().with_store(store).run(engine)
            assert len(result.report.restored_steps) == expected_restores
            # The factory steps declare their lineage: keyed without a spec.
            assert fingerprints == [result.spec.steps[0].task]

    def test_each_static_step_once_with_or_without_a_quote(self, tmp_path, fingerprints):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            pipeline = static_pipeline()
            engine.run_pipeline(pipeline)
            assert len(fingerprints) == 3
            del fingerprints[:]
            quote = engine.quote_pipeline(pipeline)
            engine.run_pipeline(pipeline, quote=quote)
            assert len(fingerprints) == 3
            del fingerprints[:]
            engine.run_pipeline(static_pipeline())
        assert len(fingerprints) == 3

    def test_without_a_store_nothing_is_fingerprinted(self, fingerprints):
        engine, _ = engine_on(None)
        report = engine.run_pipeline(static_pipeline())
        assert report.quote.keys == {} and report.quote.restored_steps == ()
        assert fingerprints == []
