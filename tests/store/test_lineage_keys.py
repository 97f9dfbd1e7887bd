"""A checkpoint is keyed by its step's declaration plus its parents' result
digests, and a run restores what its quote found before scheduling.

A compiled factory step (the product query's resolve and top_k) has a key
before its spec exists, so a warm quote prices it at zero and a warm run
never builds it, nor runs the blocker that feeds it.  Keying by parent
*results* keeps restores right when a parent re-runs: with the answers it
had, its children still hit; with other answers, they miss.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from benchmarks.perf import corpus
from repro.core.declarations import _ResolveRecords
from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep
from repro.operators.filter import FilterResult
from repro.query import Dataset
from repro.store import Store, encode_result
from repro.store.checkpoint import CHECKPOINT_VERSION, encode_checkpoint
from repro.tokenizer.cost import Usage
from tests.query.support import MODEL, clean_behavior, product_corpus

RESTORED = ["s1_filter", "s2_resolve", "s3_top_k"]


def product_query() -> Dataset:
    """The ledger's ``filter -> resolve -> top_k`` query (a blocked resolve)."""
    feed = corpus.product_feed(1, 8)
    return (
        Dataset(feed.items, name="products")
        .filter(corpus.SHORT_BRAND, strategy="per_item")
        .resolve()
        .top_k(corpus.IMPORTANCE, k=3, strategy="pairwise_tournament")
    )


def engine_on(store, brand_is_short=None) -> tuple[DeclarativeEngine, corpus.CountingLLM]:
    """A fresh session over ``store``; ``brand_is_short`` overrides the
    oracle's filter answers."""
    feed = corpus.product_feed(1, 8)
    if brand_is_short is not None:
        feed.oracle.register_predicate(corpus.SHORT_BRAND, brand_is_short)
    llm = corpus.CountingLLM(feed.oracle, seed=1, behavior=corpus.EXACT_ANSWERS)
    session = PromptSession(llm, store=store)
    return DeclarativeEngine.from_session(session, default_model=corpus.MODEL), llm


def long_brand(item: str) -> bool:
    """Filter answers other than the oracle's: the other half of the brands."""
    return len(item.split()[0]) > 6


def key_of(store, engine, name: str) -> str:
    quote = product_query().with_store(store).quote(planner=engine.planner())
    return quote.keys[name].fingerprint


def statuses(result) -> dict[str, tuple[str, bool]]:
    return {
        name: (report.status, report.restored)
        for name, report in result.report.step_reports.items()
    }


class TestParentsReRun:
    def test_a_parent_re_run_with_other_answers_makes_its_children_miss(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
            gone = key_of(store, engine, "s1_filter")
            store.db.execute("DELETE FROM checkpoints WHERE fingerprint = ?", (gone,))
            store.db.execute("DELETE FROM cache")
            engine, llm = engine_on(store, long_brand)
            changed = product_query().with_store(store).run(engine)
        assert llm.reached > 0 and changed.report.restored_steps == []
        assert changed.step_result("filter").kept != cold.step_result("filter").kept
        # What a store that never saw the old answers computes.
        with Store(tmp_path / "fresh.db") as fresh:
            engine, _ = engine_on(fresh, long_brand)
            expected = product_query().with_store(fresh).run(engine)
        assert changed.items == expected.items
        assert changed.step_result("resolve") == expected.step_result("resolve")

    def test_a_parent_re_answered_by_the_cache_keeps_its_children_hitting(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
            gone = key_of(store, engine, "s1_filter")
            store.db.execute("DELETE FROM checkpoints WHERE fingerprint = ?", (gone,))
            engine, llm = engine_on(store)
            quote = product_query().with_store(store).quote(planner=engine.planner())
            warm = product_query().with_store(store).run(engine)
        # No parent held, so the quote could key no child.
        assert quote.restored_steps == () and set(quote.keys) == {"s1_filter"}
        assert llm.reached == 0 and warm.items == cold.items
        assert statuses(warm) == {
            "s1_filter": ("completed", False),
            "s2_block": ("completed", False),
            "s2_resolve": ("completed", True),
            "s3_top_k": ("completed", True),
        }

    def test_unoptimized_a_changed_filter_misses_top_k_past_an_equal_resolve(self, tmp_path):
        items, oracle = product_corpus(6, 2)
        predicate = "is stocked"

        def engine_for(kept_words: tuple[str, ...]) -> DeclarativeEngine:
            oracle.register_predicate(predicate, lambda text: text.split()[0] in kept_words)
            client = corpus.CountingLLM(oracle, seed=11, behavior=clean_behavior())
            return DeclarativeEngine(client, default_model=MODEL)

        query = (
            Dataset(items, name="p")
            .filter(predicate)
            .resolve()
            .top_k("important", k=1, strategy="pairwise_tournament")
        )
        with Store(tmp_path / "store.db") as store:
            first = query.with_store(store).run(engine_for(("laptop", "monitor")), optimized=False)
            compiled = query.with_store(store).compile(optimized=False)
            top_k = compiled.spec.steps[2]
            # Scheduled after the resolve alone, but keyed on what it reads.
            assert top_k.depends_on == ("s2_resolve",)
            assert top_k.task.parents == ("s2_resolve", "s1_filter")
            resolve_digest = compiled.quote.keys["s2_resolve"].digest

            store.db.execute(
                "DELETE FROM checkpoints WHERE fingerprint = ?",
                (compiled.quote.keys["s1_filter"].fingerprint,),
            )
            store.db.execute("DELETE FROM cache")
            engine = engine_for(("mouse", "webcam"))
            second = query.with_store(store).run(engine, optimized=False)
            again = query.with_store(store).compile(optimized=False)
        assert again.quote.keys["s2_resolve"].digest == resolve_digest
        assert second.step_result("resolve").clusters == first.step_result("resolve").clusters
        assert second.report.restored_steps == []
        assert first.items == ["laptop device"] and second.items == ["mouse device"]


class TestRestoredBeforeScheduling:
    @pytest.mark.parametrize(
        "damage", ["DELETE FROM checkpoints", "UPDATE checkpoints SET payload = 'x'"]
    )
    def test_a_row_lost_after_the_quote_re_runs_its_step_and_the_blocker(
        self, tmp_path, damage
    ):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
            engine, llm = engine_on(store)
            compiled = product_query().with_store(store).compile(planner=engine.planner())
            assert list(compiled.quote.restored_steps) == RESTORED
            lost = compiled.quote.keys["s2_resolve"].fingerprint
            store.db.execute(f"{damage} WHERE fingerprint = ?", (lost,))
            report = engine.run_pipeline(compiled.spec, quote=compiled.quote)
            assert store.checkpoint_digests([lost])[lost][1] == compiled.quote.keys[
                "s2_resolve"
            ].digest
        assert llm.reached == 0  # the re-run's calls are answered by the cache
        assert compiled.extract_output(report.results) == cold.items
        assert {name: (r.status, r.restored) for name, r in report.step_reports.items()} == {
            "s1_filter": ("completed", True),
            "s2_block": ("completed", False),
            "s2_resolve": ("completed", False),
            "s3_top_k": ("completed", True),
        }

    def test_a_parent_lost_after_the_quote_restores_none_of_its_children(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            product_query().with_store(store).run(engine)
            engine, llm = engine_on(store, long_brand)
            compiled = product_query().with_store(store).compile(planner=engine.planner())
            assert list(compiled.quote.restored_steps) == RESTORED
            lost = compiled.quote.keys["s1_filter"].fingerprint
            store.db.execute("DELETE FROM checkpoints WHERE fingerprint = ?", (lost,))
            store.db.execute("DELETE FROM cache")
            report = engine.run_pipeline(compiled.spec, quote=compiled.quote)
        # The children were keyed over the lost parent's old digest.
        assert llm.reached > 0 and report.restored_steps == []
        with Store(tmp_path / "fresh.db") as fresh:
            engine, _ = engine_on(fresh, long_brand)
            expected = product_query().with_store(fresh).run(engine)
        assert compiled.extract_output(report.results) == expected.items

    def test_a_step_restored_ahead_of_its_dependency_holds_back_its_dependents(
        self, tmp_path
    ):
        items = corpus.product_feed(1, 8).items[:6]

        def screen(subset: list[str]) -> FilterSpec:
            return FilterSpec(items=subset, predicate=corpus.SHORT_BRAND, strategy="per_item")

        pipeline = PipelineSpec(
            name="chain",
            steps=[
                PipelineStep("a", screen(items)),
                PipelineStep("b", screen(items[:3]), depends_on=("a",)),
                # Reads "a", two steps up: it must not run before "a" has.
                PipelineStep(
                    "c", lambda inputs: screen(sorted(inputs["a"].decisions)), depends_on=("b",)
                ),
            ],
        )
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = engine.run_pipeline(pipeline)
            quote = engine.quote_pipeline(pipeline)
            lost = quote.keys["a"].fingerprint
            store.db.execute("DELETE FROM checkpoints WHERE fingerprint = ?", (lost,))
            warm = engine.run_pipeline(pipeline, quote=quote)
        assert warm.restored_steps == ["b", "c"] and warm.step_order == ["b", "a", "c"]
        assert warm.results["c"].kept == cold.results["c"].kept

    @pytest.mark.parametrize("driver", ["sync", "asyncio"])
    def test_the_warm_product_query_is_free_and_never_blocks(self, tmp_path, driver):
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
            engine, llm = engine_on(store)
            compiled = product_query().with_store(store).compile(planner=engine.planner())
            events: list[tuple[str, bool]] = []

            def on_step(step_report) -> None:
                events.append((step_report.name, step_report.restored))

            if driver == "sync":
                report = engine.run_pipeline(compiled.spec, quote=compiled.quote, on_step=on_step)
            else:
                report = asyncio.run(
                    engine.run_pipeline_async(compiled.spec, quote=compiled.quote, on_step=on_step)
                )
        quote = compiled.quote
        assert report.quote is quote  # the restored results rode a copy of it
        assert (quote.total_calls, quote.total_dollars, quote.unquoted) == (0, 0.0, ("s2_block",))
        assert llm.reached == 0 and report.total_calls == 0
        assert report.step_reports["s2_block"].status == "skipped"
        assert report.waves and report.restored_steps == RESTORED == report.step_order
        assert events == [(name, True) for name in RESTORED]
        assert compiled.extract_output(report.results) == cold.items
        # Each restored step has its span under the run's pipeline span.
        step_spans = [
            span
            for span in engine.session.spans.subtree(report.span_id)
            if span.kind == "step"
        ]
        assert sorted(span.label for span in step_spans) == RESTORED
        assert {report.step_reports[n].span_id for n in RESTORED} == {
            span.span_id for span in step_spans
        }

    def test_a_namespace_keys_and_restores_the_same_way(self, tmp_path):
        with Store(tmp_path / "store.db") as store:
            acme, beta = store.namespace("acme"), store.namespace("beta")
            engine, _ = engine_on(acme)
            cold = product_query().with_store(acme).run(engine)
            engine, llm = engine_on(acme)
            warm = product_query().with_store(acme).run(engine)
            for view in (beta, store):
                other, _ = engine_on(view)
                quote = product_query().with_store(view).quote(planner=other.planner())
                assert quote.restored_steps == ()
            keys = {row[0] for row in store.db.execute("SELECT fingerprint FROM checkpoints")}
        assert llm.reached == 0 and warm.items == cold.items
        assert list(warm.quote.restored_steps) == warm.report.restored_steps == RESTORED
        assert len(keys) == 3 and all(key.startswith("acme::") for key in keys)

    def test_a_changed_budget_restores_every_step(self, tmp_path):
        funded = (
            Dataset(corpus.product_feed(1, 8).items, name="products")
            .filter(corpus.SHORT_BRAND, strategy="per_item", budget_dollars=5.0)
            .resolve(budget_dollars=2.0)
            .top_k(corpus.IMPORTANCE, k=3, strategy="pairwise_tournament", budget_dollars=1.0)
        )
        with Store(tmp_path / "store.db") as store:
            engine, _ = engine_on(store)
            cold = product_query().with_store(store).run(engine)
            engine, llm = engine_on(store)
            warm = funded.with_store(store).run(engine)
        assert llm.reached == 0 and warm.items == cold.items
        assert list(warm.quote.restored_steps) == warm.report.restored_steps == RESTORED


class TestResultDigest:
    RESULT = FilterResult(
        strategy="per_item", kept=["a"], decisions={"a": True, "b": False}, votes_used=2
    )

    def test_the_payload_is_the_json_of_the_whole_result(self):
        payload, _ = encode_checkpoint(self.RESULT)
        fields = {f.name: getattr(self.RESULT, f.name) for f in dataclasses.fields(self.RESULT)}
        fields["usage"] = {"prompt_tokens": 0, "completion_tokens": 0, "calls": 0}
        assert payload == encode_result(self.RESULT) == json.dumps(
            {"type": "FilterResult", "version": CHECKPOINT_VERSION, "fields": fields},
            sort_keys=True,
            default=str,
        )

    def test_the_digest_covers_answers_not_cost_or_strategy(self):
        digest = encode_checkpoint(self.RESULT)[1]
        paid = dataclasses.replace(
            self.RESULT,
            strategy="batch",
            usage=Usage(9, 9, 9),
            cost=1.5,
            metadata={"checkpoint_hit": True},
        )
        assert encode_checkpoint(paid)[1] == digest
        other = dataclasses.replace(self.RESULT, kept=["b"])
        assert encode_checkpoint(other)[1] != digest


def test_the_output_of_a_top_k_sink_reads_no_resolve_items(tmp_path, monkeypatch):
    with Store(tmp_path / "store.db") as store:
        engine, _ = engine_on(store)
        compiled = product_query().with_store(store).compile(planner=engine.planner())
        report = engine.run_pipeline(compiled.spec, quote=compiled.quote)
    reads: list[object] = []
    original = _ResolveRecords.output_items

    def spy(self, params, parent_items, result):
        reads.append(result)
        return original(self, params, parent_items, result)

    monkeypatch.setattr(_ResolveRecords, "output_items", spy)
    items = compiled.extract_output(report.results)
    assert reads == []
    assert items == list(report.results["s3_top_k"].top_items)
