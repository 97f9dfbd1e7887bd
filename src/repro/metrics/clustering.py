"""Clustering / grouping metrics for whole-list entity resolution.

When entity resolution is run as a single grouping task (Example 1.1 of the
paper), the output is a partition of the records; pairwise F1 compares that
partition against the ground-truth entity assignment.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

from repro.metrics.classification import BinaryConfusion


def _pairs_in_clusters(clusters: Iterable[Sequence[Hashable]]) -> set[frozenset[Hashable]]:
    pairs: set[frozenset[Hashable]] = set()
    for cluster in clusters:
        for left, right in combinations(cluster, 2):
            pairs.add(frozenset((left, right)))
    return pairs


def pairwise_cluster_f1(
    predicted_clusters: Iterable[Sequence[Hashable]],
    true_labels: Mapping[Hashable, Hashable],
) -> BinaryConfusion:
    """Pairwise precision/recall/F1 of a predicted clustering.

    Every unordered pair of items that co-occurs in a predicted cluster is a
    positive prediction; every pair sharing a true label is a positive label.
    """
    predicted_clusters = [list(cluster) for cluster in predicted_clusters]
    items = sorted({item for cluster in predicted_clusters for item in cluster} | set(true_labels))
    predicted_pairs = _pairs_in_clusters(predicted_clusters)
    confusion = BinaryConfusion()
    for left, right in combinations(items, 2):
        predicted = frozenset((left, right)) in predicted_pairs
        actual = (
            left in true_labels
            and right in true_labels
            and true_labels[left] == true_labels[right]
        )
        confusion.add(predicted, actual)
    return confusion
