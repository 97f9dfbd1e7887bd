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
  store (deterministic — no wall clocks), and a ``get`` refreshes it.  The
  caps are enforced when rows are written (see :meth:`StoreDB.flush`): at
  once outside a pipeline step, at the step's settle inside one.
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

    def get(self, model: str, prompt: str) -> LLMResponse | None:
        key = _key(model, prompt, self.namespace)
        db = self._db
        with db.lock:
            row = db.pending.get(key)
            if row is not None:
                payload = row[2]
            else:
                rows = db.execute("SELECT payload FROM cache WHERE key = ?", (key,))
                if not rows:
                    self.stats.misses += 1
                    return None
                payload = rows[0][0]
            # LRU touch: a hit becomes the most recently used entry.
            db.buffer(key)
            self.stats.hits += 1
        return decode_response(payload)

    def contains(self, model: str, prompt: str) -> bool:
        """Whether a response is stored, without counting or touching it.

        The quote path uses this to pre-probe statically-known prompts: a
        quote must not perturb this instance's hit/miss accounting nor the
        entries' LRU recency — quoting a workload is not serving it.
        """
        key = _key(model, prompt, self.namespace)
        with self._db.lock:
            return self._db.pending.get(key) is not None or bool(
                self._db.execute("SELECT 1 FROM cache WHERE key = ?", (key,))
            )

    def contains_many(self, model: str, prompts: Sequence[str]) -> int:
        """How many of ``prompts`` are stored: :meth:`contains` summed, in bulk.

        A prompt listed twice counts twice.  Unwritten rows of the handle's
        overlay count; the rest is one ``IN`` query per :data:`_PROBE_CHUNK`
        distinct keys rather than one ``SELECT`` per prompt.  Like
        :meth:`contains` it counts no hit or miss and touches no entry's
        recency.
        """
        uses = Counter(_key(model, prompt, self.namespace) for prompt in prompts)
        with self._db.lock:
            pending = self._db.pending
            keys = [key for key in uses if pending.get(key) is None]
            found = sum(uses.values()) - sum(uses[key] for key in keys)
            for start in range(0, len(keys), _PROBE_CHUNK):
                chunk = keys[start : start + _PROBE_CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = self._db.execute(f"SELECT key FROM cache WHERE key IN ({marks})", chunk)
                found += sum(uses[key] for (key,) in rows)
        return found

    def put(self, model: str, prompt: str, response: LLMResponse) -> None:
        payload = encode_response(response)
        size = len(payload.encode("utf-8")) + len(prompt.encode("utf-8", "surrogatepass"))
        self._db.buffer(
            _key(model, prompt, self.namespace),
            (model, prompt, payload, size, self.max_entries, self.max_bytes),
        )

    def __len__(self) -> int:
        self._db.flush()
        return int(self._db.execute("SELECT COUNT(*) FROM cache")[0][0])

    def total_bytes(self) -> int:
        """Total stored payload bytes (what ``max_bytes`` is enforced over)."""
        self._db.flush()
        return int(self._db.execute("SELECT COALESCE(SUM(size), 0) FROM cache")[0][0])

    def clear(self) -> None:
        with self._db.lock:
            self._db.pending.clear()
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
