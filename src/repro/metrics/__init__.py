"""Evaluation metrics used by the case studies and benchmarks.

``kendall_tau_b`` is scipy's (the paper's reference numbers for Tables 1–2),
and its first call in a process imports ``scipy.stats`` — about 0.8 s and
70 MB, once.  Everything else here, and ``import repro`` itself, loads
without scipy.
"""

from repro.metrics.classification import (
    BinaryConfusion,
    accuracy,
    confusion_from_pairs,
    f1_score,
    precision,
    recall,
)
from repro.metrics.clustering import pairwise_cluster_f1
from repro.metrics.ranking import kendall_tau_b, order_agreement

__all__ = [
    "BinaryConfusion",
    "accuracy",
    "confusion_from_pairs",
    "f1_score",
    "kendall_tau_b",
    "order_agreement",
    "pairwise_cluster_f1",
    "precision",
    "recall",
]
