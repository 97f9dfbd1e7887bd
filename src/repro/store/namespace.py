"""Tenant-isolated views over one shared :class:`~repro.store.Store`.

The multi-tenant service keeps every tenant in one database file — one WAL,
one LRU budget, one operational artifact — but tenants must never observe
each other's state: a cache hit on another tenant's paid-for response is a
cross-tenant information leak, and a checkpoint restore across tenants would
hand one tenant results priced against another's budget.

:class:`StoreNamespace` is the isolation mechanism: a thin view exposing the
exact surface sessions, engines, and span rings consume (``response_cache``,
profile save/apply, checkpoint save/load, span flush, job rows), with the
namespace prefix mixed into every key before it reaches the shared tables:

* cache keys — the prefix is hashed into the SHA-256 key digest
  (:func:`repro.store.response_cache._key`), so entries are unreachable
  from any other namespace by construction;
* profile names and checkpoint fingerprints — prefixed with ``<ns>::``
  (raw fingerprints are bare hex, so a prefixed key can never collide with
  an unprefixed one);
* span origins — prefixed the same way, so a tenant's usage summary can
  aggregate exactly its own rows.

A namespaced view is what :class:`~repro.service.tenants.TenantRegistry`
attaches to each tenant's :class:`~repro.core.session.PromptSession`; the
session neither knows nor cares that its "store" is a view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.exceptions import StoreError
from repro.store.jobs import JobRecord
from repro.store.profile import DEFAULT_DECAY, WorkloadProfile
from repro.store.response_cache import PersistentResponseCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.physical import RuntimeStats
    from repro.core.spec import TaskSpec
    from repro.obs.spans import Span, TraceRecord
    from repro.operators.base import OperatorResult
    from repro.store.store import Store


class StoreNamespace:
    """One namespace's view of a shared store (see module docstring).

    Args:
        store: the underlying shared store.
        prefix: non-empty namespace id (the service uses the tenant id).
    """

    def __init__(self, store: "Store", prefix: str) -> None:
        if not prefix:
            raise StoreError("a store namespace needs a non-empty prefix")
        if "::" in prefix:
            raise StoreError("a store namespace prefix must not contain '::'")
        self.store = store
        self.prefix = prefix

    def _scoped(self, key: str) -> str:
        return f"{self.prefix}::{key}"

    @property
    def path(self) -> str:
        return self.store.path

    @property
    def db(self):
        return self.store.db

    # -- the session/engine surface ----------------------------------------------

    def response_cache(self) -> PersistentResponseCache:
        """A cache view that can only see this namespace's entries."""
        return self.store.response_cache(namespace=self.prefix)

    def save_profile(
        self,
        stats: "RuntimeStats",
        *,
        name: str = "default",
        merge: bool = False,
        decay: float = DEFAULT_DECAY,
    ) -> None:
        self.store.save_profile(
            stats, name=self._scoped(name), merge=merge, decay=decay
        )

    def load_profile(self, *, name: str = "default") -> WorkloadProfile | None:
        return self.store.load_profile(name=self._scoped(name))

    def apply_profile(
        self,
        stats: "RuntimeStats",
        *,
        name: str = "default",
        decay: float = DEFAULT_DECAY,
    ) -> bool:
        return self.store.apply_profile(stats, name=self._scoped(name), decay=decay)

    def save_checkpoint(
        self, fingerprint: str, spec: "TaskSpec", result: "OperatorResult"
    ) -> None:
        self.store.save_checkpoint(self._scoped(fingerprint), spec, result)

    def load_checkpoint(self, fingerprint: str) -> "OperatorResult | None":
        return self.store.load_checkpoint(self._scoped(fingerprint))

    def embedding_cache(self):
        """The shared embedding cache — deliberately *not* namespaced.

        A stored vector is a pure function of ``(text, embedder config)``
        computed locally at zero dollars: a cross-tenant hit reuses
        arithmetic, not another tenant's paid-for content, and the cache
        exposes no way to enumerate entries — so sharing it is safe and
        makes the whole deployment embed each distinct text once.
        """
        return self.store.embedding_cache()

    def save_vector_index(self, name: str, index) -> None:
        self.store.save_vector_index(self._scoped(name), index)

    def load_vector_index(self, name: str):
        return self.store.load_vector_index(self._scoped(name))

    def delete_vector_index(self, name: str) -> None:
        self.store.delete_vector_index(self._scoped(name))

    def trace_records(self, *, origin: str | None = None) -> "list[TraceRecord]":
        return self.store.trace_records(
            origin=None if origin is None else self._scoped(origin)
        )

    def save_spans(self, spans: "list[Span]", *, origin: str) -> None:
        self.store.save_spans(spans, origin=self._scoped(origin))

    def load_spans(self, *, origin: str | None = None) -> "list[Span]":
        return self.store.load_spans(
            origin=None if origin is None else self._scoped(origin)
        )

    # -- jobs ---------------------------------------------------------------------
    # Job rows are already tenant-scoped by their ``tenant`` column; the view
    # forwards them so a namespaced store is a complete drop-in.

    def save_job(self, job: JobRecord) -> None:
        self.store.save_job(job)

    def load_job(self, job_id: str) -> JobRecord | None:
        return self.store.load_job(job_id)

    def list_jobs(
        self, *, tenant: str | None = None, status: str | None = None
    ) -> list[JobRecord]:
        return self.store.list_jobs(tenant=tenant, status=status)

    def snapshot(self) -> dict[str, Any]:
        return {"namespace": self.prefix, **self.store.snapshot()}


__all__ = ["StoreNamespace"]
