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
from typing import Sequence

from repro.llm.base import LLMResponse
from repro.llm.cache import CacheStats
from repro.store.db import StoreDB
from repro.wire import from_wire, to_wire


#: The payload format's one encoder (``json.dumps`` builds one per call):
#: non-JSON metadata values degrade to strings, not errors.
_PAYLOAD = json.JSONEncoder(sort_keys=True, default=str)


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
    return _PAYLOAD.encode(to_wire(response))


def _stored(db: StoreDB, keys: list[str], columns: str) -> list[tuple]:
    """``columns`` of the stored rows among ``keys``, in one statement.

    Keys are hex digests, so joining them is a JSON array as it stands.
    """
    if len(keys) == 1:
        return db.execute(f"SELECT {columns} FROM cache WHERE key = ?", keys)
    return db.execute(
        f"SELECT {columns} FROM cache WHERE key IN (SELECT value FROM json_each(?))",
        ('["' + '","'.join(keys) + '"]',),
    )


def decode_response(payload: str) -> LLMResponse:
    """Rebuild a response from its stored JSON payload (``ValueError`` or
    ``TypeError`` when the payload holds none)."""
    return from_wire(LLMResponse, json.loads(payload))


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
        return self.get_many(model, [prompt])[0]

    def get_many(
        self, model: str, prompts: list[str], keys: dict[str, str] | None = None
    ) -> list[LLMResponse | None]:
        """What consecutive :meth:`get` calls would return for ``prompts``.

        The handle's overlay of unwritten rows is read first; the keys it
        does not hold are looked up in one statement.  Hits are counted and
        touched (made most recently used) once per occurrence, in order.  A
        prompt which already missed in this call is not asked again: its
        later occurrences are ``None`` and count nothing (the caller serves
        them once the first is answered).  A stored payload that holds no
        readable response counts as a miss, and the miss's :meth:`put`
        overwrites it.  ``keys`` (prompt -> key, for ``model``) supplies
        known keys and receives those hashed here, so a miss's :meth:`put`
        does not hash it again.
        """
        if keys is None:
            keys = {}
        namespace = self.namespace
        for prompt in prompts:
            if prompt not in keys:
                keys[prompt] = _key(model, prompt, namespace)
        responses: list[LLMResponse | None] = [None] * len(prompts)
        db = self._db
        with db.lock:
            found: dict[str, str] = {}
            absent: list[str] = []
            for key in dict.fromkeys(keys[prompt] for prompt in prompts):
                row = db.pending.get(key)
                if row is not None:
                    found[key] = row[2]
                else:
                    absent.append(key)
            if absent:
                found.update(_stored(db, absent, "key, payload"))
            missed: set[str] = set()
            for index, prompt in enumerate(prompts):
                key = keys[prompt]
                payload = found.get(key)
                try:
                    response = None if payload is None else decode_response(payload)
                except (ValueError, TypeError):  # unreadable: a miss, which its put overwrites
                    response = None
                if response is not None:
                    db.buffer(key)  # LRU touch: a hit becomes the most recently used entry
                    self.stats.hits += 1
                    responses[index] = response
                elif key not in missed:
                    missed.add(key)
                    self.stats.misses += 1
        return responses

    def contains(self, model: str, prompt: str) -> bool:
        """Whether a response is stored, without counting or touching it.

        The quote path uses this to pre-probe statically-known prompts: a
        quote must not perturb this instance's hit/miss accounting nor the
        entries' LRU recency — quoting a workload is not serving it.
        """
        key = _key(model, prompt, self.namespace)
        with self._db.lock:
            return self._db.pending.get(key) is not None or bool(_stored(self._db, [key], "key"))

    def contains_many(self, model: str, prompts: Sequence[str]) -> int:
        """How many of ``prompts`` are stored: :meth:`contains` summed, in bulk.

        A prompt listed twice counts twice.  Unwritten rows of the handle's
        overlay count; the rest is one statement, as in :meth:`get_many`.
        Like :meth:`contains` it counts no hit or miss and touches no entry's
        recency.
        """
        uses = {
            _key(model, prompt, self.namespace): count for prompt, count in Counter(prompts).items()
        }
        with self._db.lock:
            pending = self._db.pending
            absent = [key for key in uses if pending.get(key) is None]
            found = sum(uses.values()) - sum(uses[key] for key in absent)
            if absent:
                found += sum(uses[key] for (key,) in _stored(self._db, absent, "key"))
        return found

    def put(
        self, model: str, prompt: str, response: LLMResponse, key: str | None = None
    ) -> None:
        """Store ``response``; ``key`` is the prompt's key when :meth:`get_many`
        already hashed it."""
        payload = encode_response(response)
        size = len(payload.encode("utf-8")) + len(prompt.encode("utf-8", "surrogatepass"))
        self._db.buffer(
            _key(model, prompt, self.namespace) if key is None else key,
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
