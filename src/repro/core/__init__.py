"""The declarative engine — the paper's primary contribution.

Users declare *what* data-processing operation they want (sort, resolve,
impute, ...), a budget, and optionally an accuracy target plus a labelled
validation sample; the engine decides *how* — which prompting strategy, which
model, how many unit tasks — and runs it while enforcing the budget.
"""

from repro.core.budget import Budget
from repro.core.dag import topological_waves, transitive_dependencies
from repro.core.engine import DeclarativeEngine
from repro.core.executor import (
    AsyncBatchExecutor,
    BatchExecutor,
    BatchRequest,
    TaskOutcome,
)
from repro.core.governor import (
    BackendGate,
    ConcurrencyGovernor,
    GovernorStats,
    ModelRate,
    TokenBucket,
    estimated_prompt_tokens,
)
from repro.core.physical import (
    PhysicalPlan,
    PhysicalPlanner,
    ResolvedStep,
    ResolvedStrategy,
    RuntimeStats,
)
from repro.core.planner import CostEstimate, CostPlanner, PipelineQuote
from repro.core.session import BudgetScopedSession, PromptSession
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
    TaskSpec,
    TopKSpec,
)
from repro.core.workflow import Workflow, WorkflowReport

# The fluent query frontend compiles onto this package's engine; imported
# last so repro.query can import the core submodules above.
from repro.query import Dataset, LogicalPlan, QueryResult, compile_plan, optimize

__all__ = [
    "AsyncBatchExecutor",
    "BatchExecutor",
    "BatchRequest",
    "Budget",
    "BackendGate",
    "ConcurrencyGovernor",
    "GovernorStats",
    "ModelRate",
    "TokenBucket",
    "estimated_prompt_tokens",
    "BudgetScopedSession",
    "CategorizeSpec",
    "ClusterSpec",
    "CostEstimate",
    "CostPlanner",
    "Dataset",
    "DeclarativeEngine",
    "FilterSpec",
    "ImputeSpec",
    "JoinSpec",
    "LogicalPlan",
    "PhysicalPlan",
    "PhysicalPlanner",
    "PipelineQuote",
    "PipelineSpec",
    "PipelineStep",
    "PromptSession",
    "QueryResult",
    "ResolveSpec",
    "ResolvedStep",
    "ResolvedStrategy",
    "RuntimeStats",
    "SortSpec",
    "TaskOutcome",
    "TaskSpec",
    "TopKSpec",
    "compile_plan",
    "optimize",
    "topological_waves",
    "transitive_dependencies",
    "Workflow",
    "WorkflowReport",
]
