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
from typing import Any, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError
from repro.llm.base import (
    BaseClient,
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

    def get_many(
        self, model: str, prompts: list[str], keys: dict[str, Any] | None = None
    ) -> list[LLMResponse | None]: ...  # pragma: no cover

    def put(
        self, model: str, prompt: str, response: LLMResponse, key: Any = None
    ) -> None: ...  # pragma: no cover

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
        return self.get_many(model, [prompt])[0]

    def get_many(
        self, model: str, prompts: list[str], keys: dict[str, Any] | None = None
    ) -> list[LLMResponse | None]:
        """What consecutive :meth:`get` calls would return for ``prompts``,
        except that a prompt which already missed in this call is not asked
        again: its later occurrences are ``None`` and count nothing (the
        caller serves them once the first is answered).

        A key here is the ``(model, prompt)`` pair, so ``keys`` — the
        persistent cache's memo of hashed keys — is left as it is.
        """
        results: list[LLMResponse | None] = [None] * len(prompts)
        missed: set[str] = set()
        entries, stats = self._entries, self.stats
        with self._lock:
            for index, prompt in enumerate(prompts):
                key = (model, prompt)
                response = entries.get(key)
                if response is not None:
                    entries.move_to_end(key)
                    stats.hits += 1
                    results[index] = response
                elif prompt not in missed:
                    missed.add(prompt)
                    stats.misses += 1
        return results

    def put(self, model: str, prompt: str, response: LLMResponse, key: Any = None) -> None:
        """Store ``response``; ``key`` is ignored (the pair is the key)."""
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

    def _call(self, call: Call) -> list[LLMResponse]:
        """Serve the call through the cache, with within-batch dedup.

        Element-wise equivalent to one call per prompt in order:
        already-cached prompts are hits, the first occurrence of each novel
        prompt is a miss forwarded to the inner client (all misses as one
        inner call), and duplicate occurrences within the batch become hits
        served from the just-filled cache — so per-prompt hit/miss accounting
        matches the sequential path exactly while novel prompts cost one
        inner call each.  The batch is looked up with one ``get_many``, which
        hashes each distinct prompt's key once and hands the misses' keys on
        to their ``put``.  Two *concurrent* misses on one prompt may both
        reach it — the executors' dispatch-level dedup is what prevents that
        upstream.

        When the inner call answers a prefix of the misses — it raised
        part-way, or returned early (a gate ending an executor's run) — the
        misses it answered are cached all the same, and the answered prefix
        of this call's prompts — hits, answered misses and their in-batch
        duplicates, up to the first miss left unanswered, or all of them —
        is returned, or goes up with the error
        (:func:`~repro.llm.base.carry_answered`).
        """
        if call.temperature != 0.0:
            return call.to(self._client).run()
        prompts = call.prompts
        key_model = call.model or getattr(self._client, "default_model", "default")
        keys: dict[str, Any] = {}  # prompt -> cache key, hashed once per call
        results = self.cache.get_many(key_model, prompts, keys)
        misses: dict[str, int] = {}  # each missed prompt -> its first index, in order
        repeats: list[int] = []  # later occurrences of a miss
        for index, cached in enumerate(results):
            if cached is not None:
                results[index] = _cache_hit_copy(cached)
            elif prompts[index] in misses:
                # Served from the cache once the inner call has answered the
                # first occurrence, like the sequential path.
                repeats.append(index)
            else:
                misses[prompts[index]] = index
        if not misses:
            return results
        sent = list(misses)
        try:
            responses = call.to(self._client, sent).run()
        except BaseException as exc:
            answered = answered_prefix(exc, sent)
            if answered is not None:
                filled = self._fill(results, prompts, key_model, keys, misses, repeats, answered)
                carry_answered(exc, prompts, filled)
            raise
        return self._fill(results, prompts, key_model, keys, misses, repeats, responses)

    def _fill(
        self,
        results: list[LLMResponse | None],
        prompts: list[str],
        key_model: str,
        keys: dict[str, Any],
        misses: dict[str, int],
        repeats: list[int],
        responses: list[LLMResponse],
    ) -> list[LLMResponse]:
        """Cache the answered misses (``responses``, a prefix of them) and put
        them in their places, serve each repeat of one before the first
        unanswered miss as a hit on its first occurrence's response, and
        return the answered prefix of ``results``."""
        cache = self.cache
        for (prompt, index), response in zip(misses.items(), responses):
            cache.put(key_model, prompt, response, keys.get(prompt))
            results[index] = response
        end = len(prompts)
        if len(responses) < len(misses):
            end = list(misses.values())[len(responses)]
            repeats = [index for index in repeats if index < end]
        if repeats:
            served = cache.get_many(key_model, [prompts[index] for index in repeats], keys)
            for index, cached in zip(repeats, served):
                assert cached is not None  # its first occurrence was just put
                results[index] = _cache_hit_copy(cached)
        return results[:end]  # type: ignore[return-value]
