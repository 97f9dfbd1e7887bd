"""A durable, LRU-evicting response cache backed by the store database.

:class:`PersistentResponseCache` is a drop-in replacement for the in-memory
:class:`~repro.llm.cache.ResponseCache` behind
:class:`~repro.llm.cache.CachedClient`: it implements the same
``get``/``put``/``__len__``/``clear`` surface and the same hit/miss
accounting, but entries live in SQLite, so identical temperature-0 prompts
are answered for free *across process lifetimes* — the cheapest possible way
to serve heavy repeat traffic.

Differences from the in-memory cache, by design:

* Keys are SHA-256 of ``(model, prompt)`` rather than the raw strings, so
  arbitrarily long prompts index a fixed-width primary key.
* Eviction is LRU by both **entry count** (``max_entries``) and **payload
  bytes** (``max_bytes``): recency is a monotonic sequence number from the
  store (deterministic — no wall clocks), and a ``get`` refreshes it.
* ``stats`` counts this instance's hits/misses (matching the in-memory
  semantics of a fresh cache); the entries themselves are shared with every
  other instance on the same file.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Sequence

from repro.llm.base import LLMResponse
from repro.llm.cache import CacheStats
from repro.store.db import StoreDB
from repro.tokenizer.cost import Usage


#: Keys per ``IN`` query of :meth:`PersistentResponseCache.contains_many`:
#: under SQLite's historical limit of 999 bound parameters per statement.
_PROBE_CHUNK = 500


def _key(model: str, prompt: str, namespace: str = "") -> str:
    digest = hashlib.sha256()
    if namespace:
        # A namespaced key can never collide with a default-namespace key
        # for any (model, prompt): the prefix is length-delimited.
        digest.update(f"ns:{len(namespace)}:{namespace}".encode("utf-8"))
        digest.update(b"\x00")
    digest.update(model.encode("utf-8", "surrogatepass"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def encode_response(response: LLMResponse) -> str:
    """Serialise a response to the JSON payload stored on disk."""
    return json.dumps(
        {
            "text": response.text,
            "model": response.model,
            "finish_reason": response.finish_reason,
            "confidence": response.confidence,
            "metadata": response.metadata,
            "usage": {
                "prompt_tokens": response.usage.prompt_tokens,
                "completion_tokens": response.usage.completion_tokens,
                "calls": response.usage.calls,
            },
        },
        sort_keys=True,
        default=str,  # non-JSON metadata values degrade to strings, not errors
    )


def decode_response(payload: str) -> LLMResponse:
    """Rebuild a response from its stored JSON payload."""
    data = json.loads(payload)
    usage = data.get("usage", {})
    return LLMResponse(
        text=data["text"],
        model=data["model"],
        usage=Usage(
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
            calls=int(usage.get("calls", 0)),
        ),
        finish_reason=data.get("finish_reason", "stop"),
        confidence=float(data.get("confidence", 1.0)),
        metadata=dict(data.get("metadata", {})),
    )


class PersistentResponseCache:
    """Durable LRU cache of LLM responses keyed by (model, prompt).

    Args:
        db: the store database entries live in.
        max_entries: entry-count cap; least-recently-used rows are evicted.
        max_bytes: optional cap on total stored payload bytes (prompt +
            response); ``None`` leaves size unbounded.
        namespace: optional isolation prefix mixed into every key digest.
            Views with different namespaces share the file (and its LRU
            budget) but can never see each other's entries — the unit of
            tenant isolation in the multi-tenant service.
    """

    def __init__(
        self,
        db: StoreDB,
        *,
        max_entries: int = 100_000,
        max_bytes: int | None = None,
        namespace: str = "",
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when set")
        self._db = db
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.namespace = namespace
        self.stats = CacheStats()
        # Eviction needs COUNT/SUM scans; amortize them on large
        # entry-capped caches (the overshoot between checks is bounded by
        # the interval) while staying exact — every put checks — for small
        # caps and whenever a byte cap is set (one oversized payload could
        # blow far past a byte budget within an amortization window).
        if max_bytes is not None:
            self._evict_interval = 1
        else:
            self._evict_interval = max(1, min(64, max_entries // 100))
        self._puts_since_evict = 0

    #: One-statement LRU ordinal: the next sequence is one past the table's
    #: current maximum, so a hit's touch and a put's insert are each a
    #: single autocommit statement on the per-LLM-call hot path (no
    #: separate counter transaction).  Cross-process ties are harmless —
    #: only the relative eviction order matters.
    _NEXT_SEQ = "(SELECT COALESCE(MAX(access_seq), 0) + 1 FROM cache)"

    def get(self, model: str, prompt: str) -> LLMResponse | None:
        key = _key(model, prompt, self.namespace)
        with self._db.lock:
            rows = self._db.execute("SELECT payload FROM cache WHERE key = ?", (key,))
            if not rows:
                self.stats.misses += 1
                return None
            # LRU touch: a hit becomes the most recently used entry.
            self._db.execute(
                f"UPDATE cache SET access_seq = {self._NEXT_SEQ} WHERE key = ?",
                (key,),
            )
            self.stats.hits += 1
            return decode_response(rows[0][0])

    def contains(self, model: str, prompt: str) -> bool:
        """Whether a response is stored, without counting or touching it.

        The quote path uses this to pre-probe statically-known prompts: a
        quote must not perturb this instance's hit/miss accounting nor the
        entries' LRU recency — quoting a workload is not serving it.
        """
        key = _key(model, prompt, self.namespace)
        return bool(self._db.execute("SELECT 1 FROM cache WHERE key = ?", (key,)))

    def contains_many(self, model: str, prompts: Sequence[str]) -> int:
        """How many of ``prompts`` are stored: :meth:`contains` summed, in bulk.

        A prompt listed twice counts twice.  One ``IN`` query per
        :data:`_PROBE_CHUNK` distinct keys rather than one ``SELECT`` per
        prompt; like :meth:`contains` it counts no hit or miss and touches
        no entry's recency.
        """
        uses = Counter(_key(model, prompt, self.namespace) for prompt in prompts)
        keys = list(uses)
        found = 0
        for start in range(0, len(keys), _PROBE_CHUNK):
            chunk = keys[start : start + _PROBE_CHUNK]
            marks = ",".join("?" * len(chunk))
            rows = self._db.execute(f"SELECT key FROM cache WHERE key IN ({marks})", chunk)
            found += sum(uses[key] for (key,) in rows)
        return found

    def put(self, model: str, prompt: str, response: LLMResponse) -> None:
        payload = encode_response(response)
        size = len(payload.encode("utf-8")) + len(prompt.encode("utf-8", "surrogatepass"))
        with self._db.lock:
            self._db.execute(
                "INSERT OR REPLACE INTO cache "
                "(key, model, prompt, payload, size, access_seq) "
                f"VALUES (?, ?, ?, ?, ?, {self._NEXT_SEQ})",
                (_key(model, prompt, self.namespace), model, prompt, payload, size),
            )
            self._puts_since_evict += 1
            if self._puts_since_evict >= self._evict_interval:
                self._puts_since_evict = 0
                self._evict()

    def _evict(self) -> None:
        """Delete least-recently-used rows until both caps are satisfied."""
        rows = self._db.execute("SELECT COUNT(*), COALESCE(SUM(size), 0) FROM cache")
        count, total_bytes = rows[0]
        over_entries = max(0, count - self.max_entries)
        if over_entries:
            self._db.execute(
                "DELETE FROM cache WHERE key IN "
                "(SELECT key FROM cache ORDER BY access_seq ASC LIMIT ?)",
                (over_entries,),
            )
        if self.max_bytes is None:
            return
        rows = self._db.execute("SELECT COUNT(*), COALESCE(SUM(size), 0) FROM cache")
        count, total_bytes = rows[0]
        while total_bytes > self.max_bytes and count > 1:
            # Evict one LRU victim at a time; sizes vary per row, so the
            # count to delete is not computable up front.  At least one
            # entry is always kept — a single oversized response must not
            # leave the cache permanently empty and thrashing.
            victim = self._db.execute(
                "SELECT key, size FROM cache ORDER BY access_seq ASC LIMIT 1"
            )
            self._db.execute("DELETE FROM cache WHERE key = ?", (victim[0][0],))
            count -= 1
            total_bytes -= victim[0][1]

    def __len__(self) -> int:
        return int(self._db.execute("SELECT COUNT(*) FROM cache")[0][0])

    def total_bytes(self) -> int:
        """Total stored payload bytes (what ``max_bytes`` is enforced over)."""
        return int(self._db.execute("SELECT COALESCE(SUM(size), 0) FROM cache")[0][0])

    def clear(self) -> None:
        self._db.execute("DELETE FROM cache")
        self.stats = CacheStats()

    def snapshot(self) -> dict[str, Any]:
        """Debug view: entry count, byte total, and this instance's hit rate."""
        return {
            "entries": len(self),
            "bytes": self.total_bytes(),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
        }
