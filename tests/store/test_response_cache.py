"""Tests for the durable response cache (drop-in + LRU eviction)."""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.session import PromptSession
from repro.core.spec import SortSpec
from repro.core.stats import RuntimeStats
from repro.llm.base import LLMResponse
from repro.llm.cache import CachedClient, ResponseCacheLike
from repro.obs.spans import Span
from repro.operators.sort import SortResult
from repro.store import PersistentResponseCache, Store, encode_result, fingerprint_spec
from repro.store.checkpoint import CHECKPOINT_VERSION
from repro.store.fingerprint import spec_payload
from repro.store.jobs import JobRecord
from repro.store.profile import PROFILE_VERSION
from repro.tokenizer.cost import Usage
from tests.doubles import CountingClient


def response(text: str, *, prompt_tokens: int = 10) -> LLMResponse:
    return LLMResponse(
        text=text,
        model="sim-gpt-3.5-turbo",
        usage=Usage(prompt_tokens=prompt_tokens, completion_tokens=4, calls=1),
        confidence=0.75,
        metadata={"routing": "direct"},
    )


@contextmanager
def counted_statements(store):
    """The SQL text of every statement run through ``store.db.execute``."""
    statements: list[str] = []
    execute = store.db.execute
    store.db.execute = lambda sql, parameters=(): (
        statements.append(sql),
        execute(sql, parameters),
    )[1]
    try:
        yield statements
    finally:
        del store.db.execute


@pytest.fixture()
def store(tmp_path):
    with Store(tmp_path / "store.db") as handle:
        yield handle


class TestRoundTrip:
    def test_get_returns_put_response_field_for_field(self, store):
        cache = store.response_cache()
        original = response("forty-two")
        cache.put("m", "p", original)
        restored = cache.get("m", "p")
        assert restored is not None
        assert restored.text == original.text
        assert restored.model == original.model
        assert restored.confidence == original.confidence
        assert restored.metadata == original.metadata
        assert restored.usage.prompt_tokens == original.usage.prompt_tokens
        assert restored.usage.calls == original.usage.calls

    def test_miss_returns_none_and_counts(self, store):
        cache = store.response_cache()
        assert cache.get("m", "unknown") is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_hit_miss_accounting_matches_in_memory_semantics(self, store):
        cache = store.response_cache()
        cache.put("m", "p", response("x"))
        cache.get("m", "p")
        cache.get("m", "q")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_len_and_clear(self, store):
        cache = store.response_cache()
        cache.put("m", "a", response("1"))
        cache.put("m", "b", response("2"))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get("m", "a") is None

    def test_satisfies_cache_protocol(self, store):
        assert isinstance(store.response_cache(), ResponseCacheLike)

    @pytest.mark.parametrize("payload", ["not json", '{"model": "m"}', '{"text": 7, "model": "m"}'])
    def test_an_unreadable_row_is_a_miss_and_its_put_overwrites_it(self, store, payload):
        cache = store.response_cache()
        cache.put("m", "p", response("stale"))
        store.db.flush()
        store.db.execute("UPDATE cache SET payload = ?", (payload,))
        client = CountingClient()
        cached = CachedClient(client, cache=cache)
        assert cached.complete("p", model="m").text == "echo:p"
        assert (client.calls, cache.stats.hits, cache.stats.misses) == (1, 0, 1)
        assert cache.get("m", "p").text == "echo:p"
        assert cache.stats.hits == 1


class TestProbing:
    """``contains`` / ``contains_many``: what the quote path asks, without serving."""

    def test_contains_many_is_contains_summed(self, store):
        cache = store.response_cache()
        for index in range(0, 1200, 2):
            cache.put("m", f"p{index}", response(str(index)))
        cache.put("other", "p1", response("another model's entry"))
        prompts = [f"p{index}" for index in range(1200)] + ["p0", "p0", "p1", "absent"]
        expected = sum(cache.contains("m", prompt) for prompt in prompts)
        assert expected == 602
        assert cache.contains_many("m", prompts) == expected
        assert cache.contains_many("m", []) == 0
        assert cache.contains_many("m", ["absent"] * 3) == 0

    def test_one_query_for_any_number_of_distinct_keys(self, store):
        cache = store.response_cache()
        cache.put("m", "p0", response("x"))
        with counted_statements(store) as statements:
            assert cache.contains_many("m", [f"p{index % 90}" for index in range(180)]) == 2
            assert len(statements) == 1
            del statements[:]
            assert cache.contains_many("m", [f"p{index}" for index in range(1001)]) == 1
            assert len(statements) == 1

    def test_probing_counts_nothing_and_touches_no_recency(self, tmp_path):
        with Store(tmp_path / "store.db", max_cache_entries=2) as store:
            cache = store.response_cache()
            cache.put("m", "old", response("1"))
            cache.put("m", "new", response("2"))
            assert cache.contains("m", "old")
            assert cache.contains_many("m", ["old", "old", "absent"]) == 2
            assert (cache.stats.hits, cache.stats.misses) == (0, 0)
            cache.put("m", "newest", response("3"))  # evicts the LRU entry: still "old"
            assert not cache.contains("m", "old") and cache.contains("m", "new")

    def test_namespaces_do_not_see_each_other(self, store):
        ours = PersistentResponseCache(store.db, namespace="a")
        theirs = PersistentResponseCache(store.db, namespace="b")
        ours.put("m", "p", response("x"))
        assert ours.contains_many("m", ["p"]) == 1
        assert theirs.contains_many("m", ["p"]) == 0


class TestPersistence:
    def test_entries_survive_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            store.response_cache().put("m", "p", response("durable"))
        with Store(path) as reopened:
            restored = reopened.response_cache().get("m", "p")
            assert restored is not None
            assert restored.text == "durable"

    def test_drop_in_behind_cached_client_across_processes_equivalent(self, tmp_path):
        path = tmp_path / "store.db"
        # First "process": miss, served by the inner client.
        first_inner = CountingClient()
        with Store(path) as store:
            client = CachedClient(first_inner, store.response_cache())
            first = client.complete("what is 2+2")
        assert first_inner.calls == 1
        # Second "process": the disk cache answers; inner client untouched.
        second_inner = CountingClient()
        with Store(path) as store:
            client = CachedClient(second_inner, store.response_cache())
            second = client.complete("what is 2+2")
        assert second_inner.calls == 0
        assert second.text == first.text
        assert second.metadata.get("cache_hit") is True
        assert second.usage.calls == 0  # hits are free, like the in-memory cache

    def test_nonzero_temperature_bypasses_cache(self, tmp_path):
        inner = CountingClient()
        with Store(tmp_path / "store.db") as store:
            client = CachedClient(inner, store.response_cache())
            client.complete("p", temperature=0.7)
            client.complete("p", temperature=0.7)
        assert inner.calls == 2


class TestEviction:
    def test_lru_eviction_by_entry_count(self, tmp_path):
        with Store(tmp_path / "store.db", max_cache_entries=3) as store:
            cache = store.response_cache()
            for key in "abcd":
                cache.put("m", key, response(key))
            assert len(cache) == 3
            assert cache.get("m", "a") is None  # oldest entry evicted
            assert cache.get("m", "d") is not None

    def test_get_refreshes_recency(self, tmp_path):
        with Store(tmp_path / "store.db", max_cache_entries=3) as store:
            cache = store.response_cache()
            for key in "abc":
                cache.put("m", key, response(key))
            cache.get("m", "a")  # touch: "b" is now the LRU victim
            cache.put("m", "d", response("d"))
            assert cache.get("m", "a") is not None
            assert cache.get("m", "b") is None

    def test_put_of_existing_key_replaces_without_evicting(self, tmp_path):
        with Store(tmp_path / "store.db", max_cache_entries=2) as store:
            cache = store.response_cache()
            cache.put("m", "a", response("1"))
            cache.put("m", "b", response("2"))
            cache.put("m", "a", response("updated"))
            assert len(cache) == 2
            assert cache.get("m", "a").text == "updated"
            assert cache.get("m", "b") is not None

    def test_byte_cap_evicts_lru_first(self, tmp_path):
        with Store(tmp_path / "store.db", max_cache_bytes=2_000) as store:
            cache = store.response_cache()
            big = "x" * 600
            for key in ("a", "b", "c", "d", "e"):
                cache.put("m", key, response(big + key))
            assert cache.total_bytes() <= 2_000
            assert cache.get("m", "a") is None
            assert cache.get("m", "e") is not None

    def test_single_oversized_entry_is_kept(self, tmp_path):
        # One response larger than the whole cap must not thrash to empty.
        with Store(tmp_path / "store.db", max_cache_bytes=100) as store:
            cache = store.response_cache()
            cache.put("m", "huge", response("y" * 5_000))
            assert len(cache) == 1

    def test_invalid_limits_rejected(self, store):
        with pytest.raises(ValueError):
            PersistentResponseCache(store.db, max_entries=0)
        with pytest.raises(ValueError):
            PersistentResponseCache(store.db, max_bytes=0)


class TestOneLookupPerBatch:
    """A batch is looked up in one statement and each prompt hashed once."""

    def test_a_native_batch_of_distinct_prompts_is_one_cache_select(self, store):
        session = PromptSession(CountingClient(), store=store)
        prompts = [f"distinct prompt {index}" for index in range(12)]
        for expected_hits in (0, len(prompts)):  # cold, then every prompt stored
            with counted_statements(store) as statements:
                session.complete_batch(prompts)
            selects = [sql for sql in statements if sql.startswith("SELECT") and "cache" in sql]
            assert len(selects) == 1, statements
            assert session.cache.stats.hits == expected_hits

    def test_the_overlay_is_read_first(self, store):
        cache = store.response_cache()
        with store.db.step():
            cache.put("m", "buffered", response("b"))
            with counted_statements(store) as statements:
                found = cache.get_many("m", ["buffered", "buffered"])
            assert [hit.text for hit in found] == ["b", "b"]
            assert statements == []
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)

    def test_each_distinct_prompt_is_keyed_once(self, store, monkeypatch):
        from repro.store import response_cache

        keyed: Counter = Counter()
        key = response_cache._key

        def counted_key(model, prompt, namespace=""):
            keyed[prompt] += 1
            return key(model, prompt, namespace)

        monkeypatch.setattr(response_cache, "_key", counted_key)
        inner = CountingClient()
        client = CachedClient(inner, store.response_cache())
        prompts = ["a", "b", "a", "c", "b", "a"]
        client.complete_batch(prompts)  # three misses, three in-batch duplicates
        assert inner.calls == 3
        assert keyed == Counter({"a": 1, "b": 1, "c": 1})
        keyed.clear()
        client.complete("d")  # the unit path: a miss, then its put
        assert keyed == Counter({"d": 1})


class TestStoredBytes:
    """Every JSON row the store writes is what ``json.dumps`` writes."""

    ODD = {
        "routing": "direct",
        "when": datetime.date(2024, 1, 2),  # not JSON: stored as its str()
        "pair": (1, 2),
        "naïve": {"b": 1.5, "a": None, "c": float("inf")},
    }

    def test_cache_payload_including_metadata_that_is_not_json(self, store):
        original = response("forty-two")
        original.metadata = dict(self.ODD)
        store.response_cache().put("m", "p", original)
        (payload,) = store.db.execute("SELECT payload FROM cache")[0]
        assert payload == json.dumps(
            {
                "text": original.text,
                "model": original.model,
                "finish_reason": original.finish_reason,
                "confidence": original.confidence,
                "metadata": original.metadata,
                "usage": {"prompt_tokens": 10, "completion_tokens": 4, "calls": 1},
            },
            sort_keys=True,
            default=str,
        )

    def test_span_attributes(self, store):
        attributes = {"z": [1, 2.5, "é"], "a": {"nested": True}, "cost": 0.1}
        store.save_spans([Span(1, None, "call", "x", 0.0, 1.0, "ok", attributes)], origin="o")
        (stored,) = store.db.execute("SELECT attributes FROM spans")[0]
        assert stored == json.dumps(attributes, sort_keys=True)

    def test_job_quote_and_report(self, store):
        job = JobRecord(
            job_id="j",
            tenant="t",
            quote={"total": 0.5, "steps": {"b": 1, "a": 2}},
            report={"ok": True, "names": ["ü"]},
            steps={"s": {"calls": 3}},
        )
        store.save_job(job)
        quote, report = store.db.execute("SELECT quote, report FROM jobs")[0]
        assert quote == json.dumps(job.quote, sort_keys=True)
        assert report == json.dumps({"report": job.report, "steps": job.steps}, sort_keys=True)

    def test_profile(self, store):
        stats = RuntimeStats()
        stats.record_filter("is red", evaluated=5, kept=2)
        stats.record_latency("filter", 1.5)
        store.save_profile(stats)
        (payload,) = store.db.execute("SELECT payload FROM profiles")[0]
        assert payload == json.dumps(
            {"version": PROFILE_VERSION, "state": stats.export_state()}, sort_keys=True
        )

    def test_checkpoint_payload(self):
        result = SortResult(strategy="pairwise", order=["b", "a"], scores={"b": 2.0, "a": 1.0})
        result.usage = Usage(prompt_tokens=5, completion_tokens=1, calls=2)
        result.metadata = dict(self.ODD)
        fields = {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}
        fields["usage"] = {"prompt_tokens": 5, "completion_tokens": 1, "calls": 2}
        assert encode_result(result) == json.dumps(
            {"type": "SortResult", "version": CHECKPOINT_VERSION, "fields": fields},
            sort_keys=True,
            default=str,
        )

    def test_index_graphs(self, store):
        from repro.index import ExactIndex

        import numpy as np

        index = ExactIndex(2)
        index.add(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        graphs = {2: [[2, 1], [2, 0], [1, 0]], 1: [[2], [2], [1]]}
        store.save_vector_index("i", index, graphs)
        (stored,) = store.db.execute("SELECT graphs FROM vector_indexes")[0]
        assert stored == json.dumps(
            {str(k): graph for k, graph in graphs.items()}, separators=(",", ":")
        )

    def test_fingerprints(self):
        spec = SortSpec(items=("b", "ä"), criterion="size", strategy="pairwise")
        keyed = {"model": "m", **spec_payload(spec)}
        canonical = json.dumps(keyed, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        assert fingerprint_spec(spec, model="m") == hashlib.sha256(canonical.encode()).hexdigest()
