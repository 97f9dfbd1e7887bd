"""Response caching.

Data-processing workflows re-issue many identical unit tasks (the transitivity
augmentation in Table 3, for example, asks about overlapping neighbor pairs).
Caching identical (model, prompt, temperature-0) calls is the cheapest
cost-reduction technique available, so the library makes it a first-class
wrapper that any client can be composed with.

The cache is thread-safe: the :class:`~repro.core.executor.BatchExecutor`
dispatches unit tasks from several threads, so ``get``/``put`` (and the hit/miss
counters they maintain) are serialised behind a lock.  ``CachedClient``
additionally deduplicates identical prompts *within* one batch so that N
copies of a prompt cost exactly one inner call — the same guarantee the
sequential path gets from the cache, preserved when the whole batch is handed
downstream at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.exceptions import ConfigurationError
from repro.llm.base import (
    BaseClient,
    Body,
    Call,
    LLMClient,
    LLMResponse,
    answered_prefix,
    carry_answered,
)
from repro.tokenizer.cost import Usage


@runtime_checkable
class ResponseCacheLike(Protocol):
    """The cache surface :class:`CachedClient` (and sessions) rely on.

    Both the in-memory :class:`ResponseCache` and the durable
    :class:`~repro.store.PersistentResponseCache` satisfy this, so anything
    accepting a cache can take either interchangeably.
    """

    stats: "CacheStats"

    def get(self, model: str, prompt: str) -> LLMResponse | None: ...  # pragma: no cover

    def put(self, model: str, prompt: str, response: LLMResponse) -> None: ...  # pragma: no cover

    def __len__(self) -> int: ...  # pragma: no cover

    def clear(self) -> None: ...  # pragma: no cover


@dataclass
class CacheStats:
    """Hit/miss counters for a :class:`ResponseCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class ResponseCache:
    """A bounded LRU cache of LLM responses keyed by (model, prompt).

    All public methods are safe to call concurrently from multiple threads;
    hit/miss accounting never loses updates.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[str, str], LLMResponse] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, model: str, prompt: str) -> LLMResponse | None:
        key = (model, prompt)
        with self._lock:
            response = self._entries.get(key)
            if response is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return response

    def put(self, model: str, prompt: str, response: LLMResponse) -> None:
        key = (model, prompt)
        with self._lock:
            self._entries[key] = response
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


def _cache_hit_copy(cached: LLMResponse) -> LLMResponse:
    """A fresh response representing a cache hit: zero usage, marked metadata."""
    return LLMResponse(
        text=cached.text,
        model=cached.model,
        usage=Usage(),
        finish_reason=cached.finish_reason,
        confidence=cached.confidence,
        metadata={**cached.metadata, "cache_hit": True},
    )


class CachedClient(BaseClient):
    """Client wrapper that serves repeated temperature-0 calls from a cache.

    Cached responses are returned with zero-token usage (the call never went
    out), with a ``"cache_hit"`` marker in the metadata so downstream trackers
    can still count logical requests if they want to.
    """

    def __init__(self, client: LLMClient, cache: ResponseCacheLike | None = None) -> None:
        self._client = client
        # `cache or ResponseCache()` would discard an *empty* cache (it is
        # falsy because it defines __len__), so test for None explicitly.
        self.cache: ResponseCacheLike = cache if cache is not None else ResponseCache()

    def _cache_key_model(self, model: str | None) -> str:
        return model or getattr(self._client, "default_model", "default")

    def _body(self, call: Call) -> Body:
        """Serve the call through the cache, with within-batch dedup.

        Element-wise equivalent to one call per prompt in order:
        already-cached prompts are hits, the first occurrence of each novel
        prompt is a miss forwarded to the inner client (all misses as one
        inner call), and duplicate occurrences within the batch become hits
        served from the just-filled cache — so per-prompt hit/miss accounting
        matches the sequential path exactly while novel prompts cost one
        inner call each.  ``get``/``put`` take microseconds, so on the async
        path they run on the event loop; only a miss waits on the inner
        client.  Two *concurrent* misses on one prompt may both reach it —
        the executors' dispatch-level dedup is what prevents that upstream.

        When the inner call raises part-way, the misses it answered are
        cached all the same, and the answered prefix of this call's prompts
        — hits, answered misses and their in-batch duplicates, up to the
        first miss left unanswered — goes up with the error
        (:func:`~repro.llm.base.carry_answered`).
        """
        if call.temperature != 0.0:
            return (yield call.to(self._client))
        cache, key_model, prompts = self.cache, self._cache_key_model(call.model), call.prompts
        results: list[LLMResponse | None] = [None] * len(prompts)
        pending_indices: list[int] = []
        pending_prompts: list[str] = []
        scheduled: set[str] = set()
        for index, prompt in enumerate(prompts):
            if prompt in scheduled:
                # Duplicate of an in-batch miss: resolved from the cache after
                # the inner call returns, exactly like the sequential path.
                continue
            cached = cache.get(key_model, prompt)
            if cached is not None:
                results[index] = _cache_hit_copy(cached)
            else:
                scheduled.add(prompt)
                pending_indices.append(index)
                pending_prompts.append(prompt)
        if not pending_prompts:
            return results
        try:
            responses = yield call.to(self._client, pending_prompts)
        except BaseException as exc:
            answered = answered_prefix(exc, pending_prompts)
            if answered is not None:
                self._fill(results, key_model, pending_indices, pending_prompts, answered)
                end = pending_indices[len(answered)]
                carry_answered(exc, prompts, self._duplicates(results[:end], key_model, prompts))
            raise
        self._fill(results, key_model, pending_indices, pending_prompts, responses)
        return self._duplicates(results, key_model, prompts)

    def _fill(
        self,
        results: list[LLMResponse | None],
        key_model: str,
        indices: list[int],
        prompts: list[str],
        responses: list[LLMResponse],
    ) -> None:
        """Cache the answered misses and put them in their places."""
        for index, prompt, response in zip(indices, prompts, responses):
            self.cache.put(key_model, prompt, response)
            results[index] = response

    def _duplicates(
        self, results: list[LLMResponse | None], key_model: str, prompts: list[str]
    ) -> list[LLMResponse]:
        """``results`` with every in-batch duplicate served as a hit on its
        first occurrence's response, which is cached by now."""
        for index, response in enumerate(results):
            if response is None:
                cached = self.cache.get(key_model, prompts[index])
                assert cached is not None  # its first occurrence was just put
                results[index] = _cache_hit_copy(cached)
        return results  # type: ignore[return-value]

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        """:meth:`_body` for one sync call, written out (see ``BaseClient``)."""
        if temperature == 0.0:
            key_model = self._cache_key_model(model)
            cached = self.cache.get(key_model, prompt)
            if cached is not None:
                return _cache_hit_copy(cached)
        response = self._client.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )
        if temperature == 0.0:
            self.cache.put(key_model, prompt, response)
        return response
