"""Evaluation metrics used by the case studies and benchmarks.

``kendall_tau_b``, ``kendall_tau_b_from_scores`` and ``spearman_rho`` are
scipy's (the paper's reference numbers for Tables 1–2), and the first call to
any of them in a process imports ``scipy.stats`` — about 0.8 s and 70 MB,
once.  Everything else here, and ``import repro`` itself, loads without scipy.
"""

from repro.metrics.classification import (
    BinaryConfusion,
    accuracy,
    confusion_from_pairs,
    f1_score,
    precision,
    recall,
)
from repro.metrics.clustering import adjusted_rand_index, pairwise_cluster_f1
from repro.metrics.ranking import kendall_tau_b, ranking_alignment, spearman_rho

__all__ = [
    "BinaryConfusion",
    "accuracy",
    "adjusted_rand_index",
    "confusion_from_pairs",
    "f1_score",
    "kendall_tau_b",
    "pairwise_cluster_f1",
    "precision",
    "ranking_alignment",
    "recall",
    "spearman_rho",
]
