"""Tests for ranking, classification, and clustering metrics."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError
from repro.metrics.classification import (
    BinaryConfusion,
    accuracy,
    confusion_from_pairs,
    f1_score,
    precision,
    recall,
)
from repro.metrics.clustering import pairwise_cluster_f1
from repro.metrics.ranking import kendall_tau_b


class TestKendallTau:
    def test_identical_orders_score_one(self):
        items = ["a", "b", "c", "d"]
        assert kendall_tau_b(items, items) == pytest.approx(1.0)

    def test_reversed_order_scores_minus_one(self):
        items = ["a", "b", "c", "d"]
        assert kendall_tau_b(list(reversed(items)), items) == pytest.approx(-1.0)

    def test_partial_overlap_ignores_unshared_items(self):
        predicted = ["a", "x", "b", "c"]
        truth = ["a", "b", "c", "d"]
        assert kendall_tau_b(predicted, truth) == pytest.approx(1.0)

    def test_single_shared_item_raises(self):
        with pytest.raises(DatasetError):
            kendall_tau_b(["a"], ["a", "b"])

class TestClassification:
    def test_confusion_counts(self):
        confusion = confusion_from_pairs([True, True, False, False], [True, False, True, False])
        assert confusion.true_positives == 1
        assert confusion.false_positives == 1
        assert confusion.false_negatives == 1
        assert confusion.true_negatives == 1
        assert confusion.accuracy == 0.5

    def test_precision_recall_f1(self):
        predictions = [True, True, True, False, False]
        labels = [True, True, False, True, False]
        assert precision(predictions, labels) == pytest.approx(2 / 3)
        assert recall(predictions, labels) == pytest.approx(2 / 3)
        assert f1_score(predictions, labels) == pytest.approx(2 / 3)

    def test_degenerate_cases_return_zero(self):
        empty = BinaryConfusion()
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0
        assert empty.accuracy == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_from_pairs([True], [True, False])

    def test_exact_match_accuracy(self):
        truth = {"a": "Austin", "b": "Chicago"}
        assert accuracy({"a": "austin ", "b": "Chicago"}, truth) == 1.0
        assert accuracy({"a": "Dallas", "b": "Chicago"}, truth) == 0.5
        assert accuracy({}, truth) == 0.0
        assert accuracy({"a": "x"}, {}) == 0.0


class TestClustering:
    def test_perfect_clustering(self):
        clusters = [["a", "b"], ["c"]]
        labels = {"a": 1, "b": 1, "c": 2}
        confusion = pairwise_cluster_f1(clusters, labels)
        assert confusion.f1 == pytest.approx(1.0)

    def test_over_merged_clustering_loses_precision(self):
        clusters = [["a", "b", "c"]]
        labels = {"a": 1, "b": 1, "c": 2}
        confusion = pairwise_cluster_f1(clusters, labels)
        assert confusion.recall == pytest.approx(1.0)
        assert confusion.precision < 1.0
