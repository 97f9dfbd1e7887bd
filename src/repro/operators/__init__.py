"""Declarative data-processing operators.

Each operator implements one primitive from the paper's vision (sort, resolve,
impute, filter, top-k, cluster) and exposes several *strategies* for it
— the coarse single-prompt approach, fine-grained unit tasks, hybrid
coarse-to-fine schemes, and LLM/non-LLM hybrids — behind one declarative call.
The strategy name is the only thing a caller changes to move along the
cost–accuracy tradeoff curve.
"""

from repro.operators.base import OperatorResult
from repro.operators.categorize import CategorizeOperator, CategorizeResult
from repro.operators.cluster import ClusterOperator, ClusterResult
from repro.operators.filter import FilterOperator, FilterResult
from repro.operators.impute import ImputeOperator, ImputeResult
from repro.operators.join import JoinOperator, JoinResult
from repro.operators.resolve import PairJudgment, ResolveOperator, ResolveResult
from repro.operators.sort import SortOperator, SortResult
from repro.operators.top_k import TopKOperator, TopKResult

__all__ = [
    "CategorizeOperator",
    "CategorizeResult",
    "ClusterOperator",
    "ClusterResult",
    "FilterOperator",
    "FilterResult",
    "ImputeOperator",
    "ImputeResult",
    "JoinOperator",
    "JoinResult",
    "OperatorResult",
    "PairJudgment",
    "ResolveOperator",
    "ResolveResult",
    "SortOperator",
    "SortResult",
    "TopKOperator",
    "TopKResult",
]
