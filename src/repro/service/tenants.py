"""Tenants: one API key, one isolated execution universe.

The service multiplexes many callers over one process and one store file,
but the paper's economics are *per customer*: each tenant pays for its own
LLM calls, benefits from its own cache hits, and is throttled by its own
rate envelope.  A :class:`Tenant` therefore owns a full
:class:`~repro.core.session.PromptSession` — its own
:class:`~repro.core.budget.Budget`, its own
:class:`~repro.core.governor.ConcurrencyGovernor`, its own store namespace
(``store.namespace(tenant_id)``, a :class:`~repro.store.Store` whose keys
carry the tenant id), its own span ring and runtime stats —
and a :class:`~repro.core.engine.DeclarativeEngine` running over it.
Nothing observable crosses tenants except the shared database file and the
shared LLM client underneath.

:class:`TenantRegistry` maps API keys to tenants, constructing each tenant's
universe lazily on first authentication and caching it for the process
lifetime (a tenant's budget is process-lifetime state: re-building the
session per request would forget the spend).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.exceptions import ConfigurationError
from repro.llm.base import LLMClient
from repro.obs import MetricsRegistry, summarize_records
from repro.wire import to_wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.registry import ModelRegistry
    from repro.store import Store


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's declared envelope.

    Attributes:
        tenant_id: stable identifier; the store namespace and job owner.
        api_key: the secret presented in the ``x-api-key`` header.
        budget_dollars: lifetime spend cap; ``None`` means unlimited.
        rpm / tpm / max_in_flight: this tenant's governor envelope; all
            ``None`` means no governor (unthrottled).
        max_concurrency: scheduler width for this tenant's pipelines.
        max_queue_depth: admission cap on queued-plus-running jobs.
        default_model: model the tenant's engine plans against.
    """

    tenant_id: str
    api_key: str
    budget_dollars: float | None = None
    rpm: float | None = None
    tpm: float | None = None
    max_in_flight: int | None = None
    max_concurrency: int = 4
    max_queue_depth: int = 16
    default_model: str | None = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if not self.api_key:
            raise ConfigurationError(f"tenant {self.tenant_id!r} needs an api_key")
        if self.max_queue_depth <= 0:
            raise ConfigurationError("max_queue_depth must be positive")
        if self.max_concurrency <= 0:
            raise ConfigurationError("max_concurrency must be positive")


class Tenant:
    """One tenant's live execution universe (session + engine + governor)."""

    def __init__(
        self,
        config: TenantConfig,
        *,
        client: LLMClient,
        store: "Store | None",
        registry: "ModelRegistry | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        governor: ConcurrencyGovernor | None = None
        if (
            config.rpm is not None
            or config.tpm is not None
            or config.max_in_flight is not None
        ):
            governor = ConcurrencyGovernor(
                rpm=config.rpm, tpm=config.tpm, max_in_flight=config.max_in_flight
            )
        self.governor = governor
        namespaced = store.namespace(config.tenant_id) if store is not None else None
        self.session = PromptSession(
            client,
            registry=registry,
            budget=Budget(limit=config.budget_dollars),
            max_concurrency=config.max_concurrency,
            governor=governor,
            store=namespaced,
            metrics=metrics,
            tenant_label=config.tenant_id,
        )
        self.engine = DeclarativeEngine.from_session(
            self.session, default_model=config.default_model
        )

    @property
    def tenant_id(self) -> str:
        return self.config.tenant_id

    def usage_snapshot(self) -> dict[str, Any]:
        """The tenant's usage view: spend, governor stats, trace summary.

        Every component read here is a lock-consistent snapshot
        (:meth:`ConcurrencyGovernor.stats_snapshot`, one copy of the span
        ring), so concurrent request handlers can poll usage while the
        tenant's pipelines run.  ``traces.dropped`` counts the call records
        the ring has evicted, so a summary over an overflowing ring is
        recognisable as partial.
        """
        budget = self.session.budget
        spans = self.session.spans
        cache_stats = getattr(self.session.cache, "stats", None)
        return {
            "tenant": self.tenant_id,
            "budget": {
                "limit": budget.limit,
                "spent": budget.spent,
                "remaining": None if budget.unlimited else budget.remaining,
                "unlimited": budget.unlimited,
            },
            "governor": (
                None if self.governor is None else to_wire(self.governor.stats_snapshot())
            ),
            "traces": {**summarize_records(spans.records()), "dropped": spans.dropped_calls},
            "cache": (
                None
                if cache_stats is None
                else {"hits": cache_stats.hits, "misses": cache_stats.misses}
            ),
        }


class TenantRegistry:
    """API-key authentication and lazy tenant construction.

    Args:
        client: the shared LLM client every tenant's session wraps (each
            tenant adds its own cache/budget/governor around it).
        configs: the declared tenants.
        store: optional shared durable store; each tenant gets its own
            namespace view of it.
        registry: optional shared model registry.
    """

    def __init__(
        self,
        client: LLMClient,
        configs: Iterable[TenantConfig],
        *,
        store: "Store | None" = None,
        registry: "ModelRegistry | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._client = client
        self._store = store
        self._registry = registry
        #: One registry across every tenant: series are kept apart by the
        #: ``tenant`` label, and ``GET /metrics`` renders them all at once.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._configs: dict[str, TenantConfig] = {}
        self._by_key: dict[str, str] = {}
        for config in configs:
            if config.tenant_id in self._configs:
                raise ConfigurationError(f"duplicate tenant id {config.tenant_id!r}")
            if config.api_key in self._by_key:
                raise ConfigurationError(
                    f"api key of tenant {config.tenant_id!r} collides with "
                    f"tenant {self._by_key[config.api_key]!r}"
                )
            self._configs[config.tenant_id] = config
            self._by_key[config.api_key] = config.tenant_id
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    @property
    def store(self) -> "Store | None":
        return self._store

    def authenticate(self, api_key: str | None) -> Tenant | None:
        """The tenant owning ``api_key``, or ``None`` (reject the request)."""
        if not api_key:
            return None
        tenant_id = self._by_key.get(api_key)
        return None if tenant_id is None else self.get(tenant_id)

    def get(self, tenant_id: str) -> Tenant | None:
        """The tenant by id, constructing its universe on first use."""
        if tenant_id not in self._configs:
            return None
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                tenant = Tenant(
                    self._configs[tenant_id],
                    client=self._client,
                    store=self._store,
                    registry=self._registry,
                    metrics=self.metrics,
                )
                self._tenants[tenant_id] = tenant
            return tenant


__all__ = ["Tenant", "TenantConfig", "TenantRegistry"]
