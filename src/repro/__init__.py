"""Declarative prompt engineering via crowdsourcing principles.

A reproduction of "Revisiting Prompt Engineering via Declarative
Crowdsourcing" (CIDR 2024).  The package treats LLMs as noisy oracles and
provides declarative data-processing operators (sort, resolve, impute,
filter, top-k, cluster) with multiple prompting strategies per operator, a
budget-aware execution engine, quality control drawn from the crowdsourcing
literature, and a simulated LLM substrate so everything runs offline.

Quickstart (the fluent declarative API)::

    from repro import Dataset, DeclarativeEngine, SimulatedLLM
    from repro.data import FLAVORS, flavor_oracle

    engine = DeclarativeEngine(SimulatedLLM(flavor_oracle()))
    result = (
        Dataset(list(FLAVORS), name="flavors")
        .sort("chocolatey", strategy="pairwise")
        .top_k("chocolatey", k=3)
        .run(engine)
    )
    print(result.items, result.total_cost)
"""

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.executor import AsyncBatchExecutor
from repro.core.governor import ConcurrencyGovernor, ModelRate
from repro.core.physical import PhysicalPlanner, RuntimeStats
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
    TopKSpec,
)
from repro.core.spec_codec import (
    pipeline_from_dict,
    pipeline_from_json,
    pipeline_to_dict,
    pipeline_to_json,
    spec_from_dict,
    spec_to_dict,
)
from repro.core.workflow import Workflow
from repro.obs import (
    MetricsRegistry,
    SessionInstruments,
    Span,
    SpanTracker,
    TraceRecord,
    critical_path,
    render_timeline,
    replay_trace,
    summarize_records,
    trace_label,
)
from repro.query import Dataset, LogicalPlan, QueryResult, compile_plan, optimize
from repro.service import (
    ServiceApp,
    ServiceClient,
    TenantConfig,
    TenantRegistry,
)
from repro.store import (
    JobRecord,
    PersistentResponseCache,
    Store,
    WorkloadProfile,
    fingerprint_spec,
)
from repro.exceptions import (
    BudgetExceededError,
    ContextLengthExceededError,
    RateLimitError,
    ReproError,
    ResponseParseError,
    SpecError,
    StoreError,
    UnknownStrategyError,
)
from repro.llm import HashingEmbedder, Oracle, SimulatedLLM
from repro.operators import (
    ClusterOperator,
    FilterOperator,
    ImputeOperator,
    ResolveOperator,
    SortOperator,
    TopKOperator,
)

__version__ = "0.1.0"

__all__ = [
    "AsyncBatchExecutor",
    "Budget",
    "BudgetExceededError",
    "CategorizeSpec",
    "ConcurrencyGovernor",
    "ModelRate",
    "RateLimitError",
    "ClusterOperator",
    "ClusterSpec",
    "ContextLengthExceededError",
    "Dataset",
    "DeclarativeEngine",
    "FilterOperator",
    "FilterSpec",
    "HashingEmbedder",
    "ImputeOperator",
    "ImputeSpec",
    "JobRecord",
    "JoinSpec",
    "LogicalPlan",
    "MetricsRegistry",
    "Oracle",
    "PersistentResponseCache",
    "PhysicalPlanner",
    "PipelineSpec",
    "PipelineStep",
    "PromptSession",
    "QueryResult",
    "ReproError",
    "ResolveOperator",
    "ResolveSpec",
    "RuntimeStats",
    "ResponseParseError",
    "ServiceApp",
    "ServiceClient",
    "SessionInstruments",
    "SimulatedLLM",
    "Span",
    "SpanTracker",
    "SortOperator",
    "SortSpec",
    "SpecError",
    "Store",
    "StoreError",
    "TenantConfig",
    "TenantRegistry",
    "TopKSpec",
    "TraceRecord",
    "UnknownStrategyError",
    "Workflow",
    "WorkloadProfile",
    "__version__",
    "compile_plan",
    "critical_path",
    "fingerprint_spec",
    "optimize",
    "pipeline_from_dict",
    "pipeline_from_json",
    "pipeline_to_dict",
    "pipeline_to_json",
    "render_timeline",
    "replay_trace",
    "spec_from_dict",
    "spec_to_dict",
    "summarize_records",
    "trace_label",
]
