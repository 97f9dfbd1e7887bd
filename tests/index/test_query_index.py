"""Query-layer integration: semantic search, persisted blocking, cached quotes.

Three index-layer behaviours surface through :class:`Dataset`:

* ``.search`` answers ad-hoc semantic lookups and persists its index;
* an optimized resolve routes blocking through a store-persisted index, so
  a re-run rebuilds nothing and the trace says so (``cache_hit=True``);
* quoting against a store prices statically-known prompts a previous
  session already paid for at zero dollars.
"""

from __future__ import annotations

import pytest

from repro.core.session import PromptSession
from repro.exceptions import SpecError
from repro.llm.simulated import SimulatedLLM
from repro.obs import replay_trace
from repro.query import Dataset
from repro.store import Store
from tests.query.support import MODEL, clean_behavior, clean_engine, product_corpus


class TestDatasetSearch:
    def test_search_returns_nearest_items_first(self):
        items, _ = product_corpus(6, 2)
        hits = Dataset(items, name="p").search("laptop device", k=3)
        assert hits[0][0] == "laptop device"
        assert [distance for _, distance in hits] == sorted(
            distance for _, distance in hits
        )

    def test_search_validates_inputs(self):
        items, _ = product_corpus(4, 1)
        dataset = Dataset(items, name="p")
        with pytest.raises(SpecError):
            dataset.search("")
        with pytest.raises(SpecError):
            dataset.search("laptop", k=0)

    def test_search_rejects_runtime_plans(self):
        items, _ = product_corpus(4, 2)
        with pytest.raises(SpecError, match="statically-known"):
            Dataset(items, name="p").resolve().search("laptop")

    def test_search_persists_its_index_and_reuses_it(self, tmp_path):
        items, _ = product_corpus(6, 2)
        with Store(tmp_path / "store.db") as store:
            dataset = Dataset(items, name="p").with_store(store)
            first = dataset.search("laptop device", k=3)
            names = [row[0] for row in store.db.execute("SELECT name FROM vector_indexes")]
            assert len(names) == 1 and names[0].startswith("search:")
            assert store.embedding_count() >= len(items)
            # Second search loads the stored index and embeds only the query.
            again = Dataset(items, name="p").with_store(store).search("laptop device", k=3)
            assert again == first


class TestResolveThroughPersistedIndex:
    def test_run_persists_block_index_then_reuses_it(self, tmp_path):
        items, oracle = product_corpus(6, 2)
        with Store(tmp_path / "store.db") as store:
            engine = clean_engine(oracle)
            result = Dataset(items, name="p").with_store(store).resolve().run(engine)
            assert result.items  # deduped survivors
            names = [row[0] for row in store.db.execute("SELECT name FROM vector_indexes")]
            assert any(name.startswith("block:") for name in names)
            assert store.embedding_count() == len(items)
            (built,) = [span for span in engine.session.spans.spans() if span.kind == "index"]
            assert built.attributes["cache_hit"] is False
            assert built.attributes["texts"] == len(items)

            # A fresh engine over the same store reuses the stored index
            # (the resolve's checkpoint is evicted, so its blocker runs).
            store.db.execute("DELETE FROM checkpoints")
            second = clean_engine(oracle)
            Dataset(items, name="p").with_store(store).resolve().run(second)
            (reused,) = [span for span in second.session.spans.spans() if span.kind == "index"]
            assert reused.attributes["cache_hit"] is True
            # Nothing was re-embedded for the unchanged corpus.
            assert store.embedding_count() == len(items)

    def test_results_match_runs_without_a_store(self, tmp_path):
        items, oracle = product_corpus(6, 2)
        with Store(tmp_path / "store.db") as store:
            stored = (
                Dataset(items, name="p").with_store(store).resolve().run(clean_engine(oracle))
            )
        plain = Dataset(items, name="p").resolve().run(clean_engine(oracle))
        assert stored.items == plain.items


class TestIndexBuildIsNotACall:
    def test_a_blocked_resolve_records_only_its_llm_calls(self):
        items, oracle = product_corpus(6, 2)
        engine = clean_engine(oracle)
        Dataset(items, name="p").resolve().run(engine)
        session = engine.session
        records = session.spans.records()
        calls = session.metrics.snapshot()["repro_llm_calls_total"]
        assert len(records) == session.tracker.usage.calls == sum(calls.values())
        assert replay_trace(records).default_model == MODEL
        # The build is a leaf span under the blocking step.
        (built,) = [span for span in session.spans.spans() if span.kind == "index"]
        assert session.spans.get(built.parent_id).kind == "step"


class TestCacheAwareQuotes:
    def test_fresh_session_quotes_known_prompts_at_zero(self, tmp_path):
        """The satellite acceptance: a previously-run workload quotes at $0."""
        items, oracle = product_corpus(4, 1)
        query = Dataset(items, name="p").filter("keeps everything")
        with Store(tmp_path / "store.db") as store:
            # First session pays for the filter calls and persists them.
            client = SimulatedLLM(oracle, seed=11, behavior=clean_behavior())
            session = PromptSession(client, store=store)
            query.run(session)

            # A brand-new process (fresh planner, fresh session) re-quotes:
            # the run checkpointed the filter, so the store will restore it.
            quote = query.with_store(store).quote()
            assert quote.total_dollars == 0.0
            assert quote.notes == (
                "1 of 1 steps restored from checkpoints, priced at zero",
            )

    def test_fresh_session_quotes_cached_prompts_at_zero(self, tmp_path):
        """Prompts paid outside a pipeline (no checkpoint) are probed and free."""
        from repro.llm.prompts import predicate_check_prompt

        items, oracle = product_corpus(4, 1)
        query = Dataset(items, name="p").filter("keeps everything")
        with Store(tmp_path / "store.db") as store:
            client = SimulatedLLM(oracle, seed=11, behavior=clean_behavior())
            session = PromptSession(client, store=store)
            session.complete_batch(
                [predicate_check_prompt(item, "keeps everything") for item in items]
            )
            assert store.checkpoint_count() == 0

            quote = query.with_store(store).quote()
            assert quote.total_dollars == 0.0
            assert quote.notes == (
                f"persistent cache: {len(items)} of {len(items)} statically-known "
                "calls already cached (priced at zero)",
            )

    def test_quote_without_history_is_not_discounted(self, tmp_path):
        items, _ = product_corpus(4, 1)
        query = Dataset(items, name="p").filter("keeps everything")
        with Store(tmp_path / "store.db") as store:
            quote = query.with_store(store).quote()
            assert quote.total_dollars > 0.0
            assert not any("persistent cache" in note for note in quote.notes)

    def test_each_static_step_is_probed_once_and_the_quote_reads_as_before(
        self, tmp_path, monkeypatch
    ):
        """One bulk probe per static step; per-prompt ``contains`` gives the same quote."""
        from repro.core.planner import CostPlanner
        from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep
        from repro.store import PersistentResponseCache

        items, oracle = product_corpus(4, 1)
        paid = Dataset(items[:2], name="p").filter("keeps everything")
        query = Dataset(items, name="p").filter("keeps everything")
        pipeline = PipelineSpec(
            name="two filters",
            steps=[
                PipelineStep("screen", FilterSpec(items=items, predicates=["keeps everything"])),
                PipelineStep("again", FilterSpec(items=items[:2], predicates=["keeps everything"])),
            ],
        )
        probes: list[int] = []
        bulk = PersistentResponseCache.contains_many

        def counted(self, model, prompts):
            probes.append(len(prompts))
            return bulk(self, model, prompts)

        with Store(tmp_path / "store.db") as store:
            client = SimulatedLLM(oracle, seed=11, behavior=clean_behavior())
            paid.run(PromptSession(client, store=store))

            monkeypatch.setattr(PersistentResponseCache, "contains_many", counted)
            quote = query.with_store(store).quote()
            assert probes == [len(items)]
            del probes[:]
            planner = CostPlanner(MODEL, response_cache=store.response_cache())
            pipeline_quote = planner.quote_pipeline(pipeline)
            assert probes == [len(items), 2]

            # A cache that can only answer one prompt at a time: same words, same numbers.
            monkeypatch.delattr(PersistentResponseCache, "contains_many")
            assert query.with_store(store).quote().to_dict() == quote.to_dict()
            planner = CostPlanner(MODEL, response_cache=store.response_cache())
            assert planner.quote_pipeline(pipeline).to_dict() == pipeline_quote.to_dict()
        note = "persistent cache: {} statically-known calls already cached (priced at zero)"
        assert quote.notes == (note.format("2 of 4"),)
        assert pipeline_quote.notes == (note.format("4 of 6"),)
        assert 0.0 < quote.total_dollars == pipeline_quote.total_dollars
        assert pipeline_quote.steps["again"].dollars == 0.0
