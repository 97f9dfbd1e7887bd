"""Tests for the durable response cache (drop-in + LRU eviction)."""

from __future__ import annotations

import pytest

from repro.llm.base import LLMResponse
from repro.llm.cache import CachedClient, ResponseCacheLike
from repro.store import PersistentResponseCache, Store
from repro.tokenizer.cost import Usage


def response(text: str, *, prompt_tokens: int = 10) -> LLMResponse:
    return LLMResponse(
        text=text,
        model="sim-gpt-3.5-turbo",
        usage=Usage(prompt_tokens=prompt_tokens, completion_tokens=4, calls=1),
        confidence=0.75,
        metadata={"routing": "direct"},
    )


class CountingClient:
    """Minimal client counting its completions (the cache's inner client)."""

    default_model = "sim-gpt-3.5-turbo"

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        self.calls += 1
        return LLMResponse(
            text=f"echo:{prompt}",
            model=model or self.default_model,
            usage=Usage(prompt_tokens=len(prompt.split()), completion_tokens=2, calls=1),
        )


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

    def test_one_query_per_chunk_of_distinct_keys(self, store):
        cache = store.response_cache()
        cache.put("m", "p0", response("x"))
        statements = []
        execute = store.db.execute
        store.db.execute = lambda sql, parameters=(): (
            statements.append(sql),
            execute(sql, parameters),
        )[1]
        try:
            assert cache.contains_many("m", [f"p{index % 90}" for index in range(180)]) == 2
            assert len(statements) == 1
            del statements[:]
            assert cache.contains_many("m", [f"p{index}" for index in range(1001)]) == 1
            assert len(statements) == 3
        finally:
            del store.db.execute

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
