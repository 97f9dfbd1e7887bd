"""Tests for the response cache and the usage tracker.

Includes the thread-safety hammer tests backing the batched execution layer:
the cache and tracker are pounded from a thread pool and must not lose a
single update (exact call/token totals, consistent hit/miss accounting).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.flavors import CHOCOLATEY, FLAVORS
from repro.llm.base import LLMResponse
from repro.llm.cache import CachedClient, ResponseCache
from repro.llm.prompts import PAIRWISE_COMPARISON, RATING
from repro.llm.registry import default_registry
from repro.llm.tracker import UsageTracker
from repro.tokenizer.cost import CostModel, PriceTable, Usage, to_dollars
from repro.exceptions import ConfigurationError
from tests.doubles import tokens


class TestResponseCache:
    def test_put_then_get(self):
        cache = ResponseCache()
        response = LLMResponse(text="yes", model="m", usage=Usage(10, 2, 1))
        cache.put("m", "prompt", response)
        assert cache.get("m", "prompt") is response
        assert cache.stats.hits == 1

    def test_miss_recorded(self):
        cache = ResponseCache()
        assert cache.get("m", "prompt") is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_lru_eviction(self):
        cache = ResponseCache(max_entries=2)
        for index in range(3):
            cache.put("m", f"prompt-{index}", LLMResponse(text=str(index), model="m"))
        assert cache.get("m", "prompt-0") is None  # evicted
        assert cache.get("m", "prompt-2") is not None

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ResponseCache(max_entries=0)

    def test_clear_resets_stats(self):
        cache = ResponseCache()
        cache.put("m", "p", LLMResponse(text="x", model="m"))
        cache.get("m", "p")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0


class TestCachedClient:
    def test_repeated_prompt_served_from_cache(self, flavor_llm):
        client = CachedClient(flavor_llm)
        prompt = PAIRWISE_COMPARISON.render([FLAVORS[0], FLAVORS[1]], (CHOCOLATEY,))
        first = client.complete(prompt)
        second = client.complete(prompt)
        assert second.metadata.get("cache_hit") is True
        assert tokens(second.usage) == 0
        assert second.text == first.text

    def test_nonzero_temperature_bypasses_cache(self, flavor_llm):
        client = CachedClient(flavor_llm)
        prompt = RATING.render([FLAVORS[0]], (CHOCOLATEY,))
        client.complete(prompt, temperature=0.7)
        second = client.complete(prompt, temperature=0.7)
        assert "cache_hit" not in second.metadata


class TestUsageTracker:
    def test_record_accumulates_per_model(self, flavor_llm):
        prices = default_registry().cost_model()
        tracker = UsageTracker(cost_model=prices)
        first = flavor_llm.complete(RATING.render([FLAVORS[0]], (CHOCOLATEY,)))
        second = flavor_llm.complete(RATING.render([FLAVORS[1]], (CHOCOLATEY,)), model="sim-claude")
        tracker.record(first)
        tracker.record_batch([second])
        assert tracker.calls == 2
        assert tracker.prompt_tokens > 0
        # Each call is priced at its own model's rates, in whole n$.
        assert (first.model, second.model) == ("sim-gpt-3.5-turbo", "sim-claude")
        assert tracker.cost() == (
            prices.cost(first.model, first.usage) + prices.cost(second.model, second.usage)
        )
        assert tracker.cost() > 0
        summary = tracker.summary()
        assert set(summary.by_model) == {"sim-gpt-3.5-turbo", "sim-claude"}
        assert summary.total_dollars == to_dollars(tracker.cost())

    def test_cost_zero_without_cost_model(self, flavor_llm):
        tracker = UsageTracker()
        tracker.record_batch([flavor_llm.complete(RATING.render([FLAVORS[0]], (CHOCOLATEY,)))])
        assert tracker.calls == 1
        assert tracker.cost() == 0

    def test_cost_sums_whole_nano_dollars_over_priced_models(self):
        tracker = UsageTracker(cost_model=CostModel({"a": PriceTable(0.1, 0.2)}))
        tracker.record_batch(
            [
                LLMResponse("", "a", Usage(3, 2, 1)),
                LLMResponse("", "a", Usage(7, 0, 1)),
                LLMResponse("", "unpriced", Usage(1_000, 1_000, 1)),
            ]
        )
        # (3 + 7) * 100 + 2 * 200 n$; a model without prices adds nothing.
        assert tracker.cost() == 1_400
        assert tracker.calls == 3

    def test_record_batch_accumulates_per_model(self):
        tracker = UsageTracker()
        tracker.record_batch([LLMResponse("", "embeddings", Usage(100, 0, 1))])
        tracker.record_batch([LLMResponse("", "embeddings", Usage(20, 0, 1))])
        assert tracker.usage.prompt_tokens == 120
        assert tracker.summary().by_model["embeddings"] == Usage(120, 0, 2)

    def test_reset(self, flavor_llm):
        tracker = UsageTracker()
        tracker.record_batch([flavor_llm.complete(RATING.render([FLAVORS[0]], (CHOCOLATEY,)))])
        tracker.reset()
        assert tracker.calls == 0


# Pinned in CI (see .github/workflows/ci.yml) so the hammer tests are
# reproducible across runners; locally defaults to 8 threads.
THREADS = int(os.environ.get("REPRO_TEST_THREADS", "8"))


class TestResponseCacheThreadSafety:
    def test_no_lost_hit_or_miss_updates(self):
        cache = ResponseCache()
        prompts = [f"prompt-{index}" for index in range(50)]
        for prompt in prompts:
            cache.put("m", prompt, LLMResponse(text=prompt, model="m"))
        rounds_per_worker = 40

        def hammer(worker: int) -> int:
            hits = 0
            for round_index in range(rounds_per_worker):
                for prompt in prompts:
                    if cache.get("m", prompt) is not None:
                        hits += 1
                # Sprinkle misses and puts into the mix.
                assert cache.get("m", f"missing-{worker}-{round_index}") is None
                cache.put("m", f"extra-{worker}-{round_index}", LLMResponse(text="x", model="m"))
            return hits

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            hit_counts = list(pool.map(hammer, range(THREADS)))

        expected_hits = THREADS * rounds_per_worker * len(prompts)
        expected_misses = THREADS * rounds_per_worker
        assert sum(hit_counts) == expected_hits
        assert cache.stats.hits == expected_hits
        assert cache.stats.misses == expected_misses
        assert cache.stats.requests == expected_hits + expected_misses

    def test_concurrent_puts_respect_capacity(self):
        cache = ResponseCache(max_entries=64)

        def hammer(worker: int) -> None:
            for index in range(200):
                cache.put("m", f"prompt-{worker}-{index}", LLMResponse(text="x", model="m"))
                assert len(cache) <= 64

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(hammer, range(THREADS)))
        assert len(cache) == 64


class TestUsageTrackerThreadSafety:
    def test_no_lost_usage_updates(self):
        tracker = UsageTracker()
        per_worker = 500

        def hammer(worker: int) -> None:
            model = f"model-{worker % 3}"
            for _ in range(per_worker):
                tracker.record(
                    LLMResponse(text="x", model=model, usage=Usage(3, 2, 1))
                )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(hammer, range(THREADS)))

        total_calls = THREADS * per_worker
        assert tracker.calls == total_calls
        assert tracker.prompt_tokens == 3 * total_calls
        assert tracker.completion_tokens == 2 * total_calls
        by_model = tracker.summary().by_model
        assert sum(usage.calls for usage in by_model.values()) == total_calls

    def test_no_lost_batch_updates(self):
        tracker = UsageTracker()
        batches_per_worker = 50
        batch_size = 10

        def hammer(worker: int) -> None:
            responses = [
                LLMResponse(text="x", model="m", usage=Usage(1, 1, 1)) for _ in range(batch_size)
            ]
            for _ in range(batches_per_worker):
                tracker.record_batch(responses)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(hammer, range(THREADS)))

        assert tracker.calls == THREADS * batches_per_worker * batch_size
