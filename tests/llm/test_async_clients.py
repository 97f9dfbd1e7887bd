"""Async-vs-sync equivalence for every client wrapper (`repro.llm.*`).

Each wrapper in the stack — :class:`SimulatedLLM`, :class:`CachedClient`,
:class:`TrackedClient`, :class:`RetryingClient`, :class:`CascadeRouter`,
:class:`EnsembleClient` — gained native ``acomplete`` / ``acomplete_batch``
methods.  At temperature 0 those must be element-wise identical to the sync
path (text, usage, metadata, and side effects such as cache stats and
tracker totals), for single calls and batches alike; sync-only clients keep
working through the :func:`~repro.llm.base.call_acomplete` bridge.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.llm.base import (
    LLMResponse,
    call_acomplete,
    call_acomplete_batch,
    sequential_acomplete_batch,
    sequential_complete_batch,
)
from repro.llm.cache import CachedClient
from repro.llm.retry import RetryingClient
from repro.llm.router import CascadeRouter, CascadeTier, EnsembleClient
from repro.llm.tracker import TrackedClient, UsageTracker
from tests.doubles import ConfidenceClient, EchoClient, FlakyClient, yes_no_validator
from tests.doubles import rating_prompts as _prompts
from tests.doubles import simulated_client as _simulated_client

SIZES = (1, 2, 7)


def _assert_equivalent(
    async_responses: list[LLMResponse], sync_responses: list[LLMResponse]
) -> None:
    assert [r.text for r in async_responses] == [r.text for r in sync_responses]
    assert [r.usage for r in async_responses] == [r.usage for r in sync_responses]
    assert [r.model for r in async_responses] == [r.model for r in sync_responses]


class TestSimulatedLLM:
    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equivalence(self, size):
        prompts = _prompts(size)
        sync_responses = _simulated_client().complete_batch(prompts)
        async_responses = asyncio.run(_simulated_client().acomplete_batch(prompts))
        _assert_equivalent(async_responses, sync_responses)

    def test_single_equivalence(self):
        prompt = _prompts(1)[0]
        sync_response = _simulated_client().complete(prompt)
        async_response = asyncio.run(_simulated_client().acomplete(prompt))
        assert async_response.text == sync_response.text
        assert async_response.usage == sync_response.usage


class TestCachedClient:
    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equivalence_with_dedup(self, size):
        prompts = _prompts(size) * 2  # repeats exercise within-batch dedup
        sync_client = CachedClient(_simulated_client())
        async_client = CachedClient(_simulated_client())
        sync_responses = sync_client.complete_batch(prompts)
        async_responses = asyncio.run(async_client.acomplete_batch(prompts))
        _assert_equivalent(async_responses, sync_responses)
        assert [r.metadata.get("cache_hit") for r in async_responses] == [
            r.metadata.get("cache_hit") for r in sync_responses
        ]
        assert async_client.cache.stats.hits == sync_client.cache.stats.hits
        assert async_client.cache.stats.misses == sync_client.cache.stats.misses

    def test_single_call_hits_after_miss(self):
        client = CachedClient(_simulated_client())
        prompt = _prompts(1)[0]

        async def twice():
            first = await client.acomplete(prompt)
            second = await client.acomplete(prompt)
            return first, second

        first, second = asyncio.run(twice())
        assert first.text == second.text
        assert second.metadata.get("cache_hit") is True
        assert second.usage.calls == 0


class TestTrackedClient:
    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equivalence_and_tracking(self, size):
        prompts = _prompts(size)
        sync_tracker, async_tracker = UsageTracker(), UsageTracker()
        sync_responses = TrackedClient(_simulated_client(), sync_tracker).complete_batch(
            prompts
        )
        async_responses = asyncio.run(
            TrackedClient(_simulated_client(), async_tracker).acomplete_batch(prompts)
        )
        _assert_equivalent(async_responses, sync_responses)
        assert async_tracker.usage == sync_tracker.usage
        assert async_tracker.calls == sync_tracker.calls

    def test_single_call_is_recorded(self):
        tracker = UsageTracker()
        client = TrackedClient(_simulated_client(), tracker)
        asyncio.run(client.acomplete(_prompts(1)[0]))
        assert tracker.calls == 1


class TestRetryingClient:
    def test_async_retries_match_sync(self):
        sync_client = RetryingClient(
            FlakyClient(bad_attempts=2), validator=yes_no_validator, max_retries=3
        )
        async_client = RetryingClient(
            FlakyClient(bad_attempts=2), validator=yes_no_validator, max_retries=3
        )
        sync_response = sync_client.complete("p")
        async_response = asyncio.run(async_client.acomplete("p"))
        assert async_response.text == sync_response.text == "Yes."
        assert async_response.metadata["attempts"] == sync_response.metadata["attempts"] == 3
        assert async_response.usage == sync_response.usage
        assert async_client.stats.attempts == sync_client.stats.attempts
        assert async_client.stats.retries == sync_client.stats.retries

    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equivalence(self, size):
        prompts = _prompts(size)
        sync_client = RetryingClient(
            _simulated_client(), validator=lambda text: True, max_retries=1
        )
        async_client = RetryingClient(
            _simulated_client(), validator=lambda text: True, max_retries=1
        )
        sync_responses = sync_client.complete_batch(prompts)
        async_responses = asyncio.run(async_client.acomplete_batch(prompts))
        _assert_equivalent(async_responses, sync_responses)

    def test_exhausted_retries_return_last_response(self):
        client = RetryingClient(
            FlakyClient(bad_attempts=10), validator=yes_no_validator, max_retries=2
        )
        response = asyncio.run(client.acomplete("p"))
        assert response.text == "garbled ???"
        assert response.metadata["attempts"] == 3
        assert client.stats.failures == 1


def _cascade(low_confidence: float) -> CascadeRouter:
    return CascadeRouter(
        [
            CascadeTier("cheap", ConfidenceClient("cheap", low_confidence)),
            CascadeTier("expensive", ConfidenceClient("expensive", 0.99)),
        ],
        confidence_threshold=0.8,
    )


class TestCascadeRouter:
    @pytest.mark.parametrize("low_confidence", (0.3, 0.95))
    def test_single_equivalence(self, low_confidence):
        sync_response = _cascade(low_confidence).complete("p")
        async_response = asyncio.run(_cascade(low_confidence).acomplete("p"))
        assert async_response.text == sync_response.text
        assert async_response.usage == sync_response.usage
        assert async_response.metadata.get("cascade_tiers") == sync_response.metadata.get(
            "cascade_tiers"
        )

    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equivalence_with_escalation(self, size):
        prompts = [f"p{i}" for i in range(size)]
        sync_router = _cascade(0.3)
        async_router = _cascade(0.3)
        sync_responses = sync_router.complete_batch(prompts)
        async_responses = asyncio.run(async_router.acomplete_batch(prompts))
        _assert_equivalent(async_responses, sync_responses)
        assert async_router.escalations == sync_router.escalations

    def test_escalation_accumulates_usage(self):
        response = asyncio.run(_cascade(0.3).acomplete("p"))
        assert response.text == "expensive:p"
        assert response.usage.calls == 2  # cheap attempt + escalation


class TestEnsembleClient:
    def _ensemble(self) -> EnsembleClient:
        return EnsembleClient(
            [
                CascadeTier("a", ConfidenceClient("a", 0.9)),
                CascadeTier("b", ConfidenceClient("b", 0.9)),
                CascadeTier("c", ConfidenceClient("c", 0.9)),
            ]
        )

    def test_complete_all_equivalence(self):
        sync_ensemble = self._ensemble().complete_all("p")
        async_ensemble = asyncio.run(self._ensemble().acomplete_all("p"))
        assert [r.text for r in async_ensemble.responses] == [
            r.text for r in sync_ensemble.responses
        ]
        assert async_ensemble.usage == sync_ensemble.usage

    def test_single_returns_first_member(self):
        assert asyncio.run(self._ensemble().acomplete("p")).text == "a:p"

    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equivalence(self, size):
        prompts = [f"p{i}" for i in range(size)]
        sync_responses = self._ensemble().complete_batch(prompts)
        async_responses = asyncio.run(self._ensemble().acomplete_batch(prompts))
        _assert_equivalent(async_responses, sync_responses)


class TestSyncBridge:
    """Clients with no async methods work through the duck-typed dispatchers."""

    def test_call_acomplete_bridges_sync_only_clients(self):
        response = asyncio.run(call_acomplete(EchoClient(), "p"))
        assert response.text == "echo:p"

    def test_call_acomplete_batch_uses_native_sync_batch(self):
        prompts = _prompts(4)
        sync_responses = _simulated_client().complete_batch(prompts)

        class SyncOnly:
            def __init__(self):
                self.inner = _simulated_client()

            def complete(self, prompt, **kwargs):
                return self.inner.complete(prompt, **kwargs)

            def complete_batch(self, prompts, **kwargs):
                return self.inner.complete_batch(prompts, **kwargs)

        async_responses = asyncio.run(call_acomplete_batch(SyncOnly(), prompts))
        _assert_equivalent(async_responses, sync_responses)

    def test_sequential_acomplete_batch_matches_sync_loop(self):
        prompts = _prompts(4)
        sync_responses = sequential_complete_batch(_simulated_client(), prompts)
        async_responses = asyncio.run(
            sequential_acomplete_batch(_simulated_client(), prompts)
        )
        _assert_equivalent(async_responses, sync_responses)
