"""Tests for transitivity and ranking repair."""

from __future__ import annotations

import pytest

from repro.consistency.ranking_repair import (
    alignment_insert_position,
    best_consistent_order,
    count_inversions,
    minimum_feedback_edges,
)
from repro.consistency.transitivity import MatchGraph


class TestMatchGraph:
    def test_transitive_connection(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_non_match("a", "c")
        assert graph.connected("a", "c") is True
        assert graph._graph.has_edge("a", "c") is False
        assert frozenset(("a", "c")) in graph._non_matches

    def test_conflicts_are_the_flippable_pairs(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_non_match("a", "c")
        graph.add_non_match("a", "d")
        conflicts = graph.conflicts()
        assert frozenset(("a", "c")) in conflicts
        assert frozenset(("a", "d")) not in conflicts

    def test_components(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_node("z")
        components = graph.components()
        assert {"a", "b"} in components
        assert {"z"} in components

    def test_unknown_nodes_not_connected(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        assert graph.connected("a", "zzz") is False

    def test_self_connection(self):
        graph = MatchGraph()
        graph.add_node("a")
        assert graph.connected("a", "a") is True

    def test_transitive_matches_cover_whole_component(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_match("c", "d")
        closure = graph.transitive_matches()
        assert frozenset(("a", "d")) in closure
        assert len(closure) == 6  # C(4, 2)


class TestFromAnEdgeList:
    @staticmethod
    def graph(edges) -> MatchGraph:
        graph = MatchGraph()
        for left, right in edges:
            graph.add_match(left, right)
        return graph

    def test_connected_components(self):
        components = self.graph([("a", "b"), ("c", "d"), ("b", "e")]).components()
        assert {"a", "b", "e"} in components
        assert {"c", "d"} in components

    def test_transitive_closure_pairs(self):
        closure = self.graph([("a", "b"), ("b", "c")]).transitive_matches()
        assert frozenset(("a", "c")) in closure

    @pytest.mark.parametrize(
        ("edges", "entities"),
        [
            ([], []),
            ([("a", "b")], [{"a", "b"}]),
            ([("a", "b"), ("b", "c"), ("c", "d")], [{"a", "b", "c", "d"}]),
            ([("hub", leaf) for leaf in "wxyz"], [{"hub", "w", "x", "y", "z"}]),
            ([("a", "b"), ("b", "c"), ("c", "a")], [{"a", "b", "c"}]),
            ([("a", "b"), ("c", "d"), ("e", "f")], [{"a", "b"}, {"c", "d"}, {"e", "f"}]),
            ([("a", "a")], [{"a"}]),
            ([(1, 2), (3, 4), (2, 3), (5, 6)], [{1, 2, 3, 4}, {5, 6}]),
        ],
        ids=["empty", "pair", "chain", "star", "cycle", "disjoint", "self-loop", "bridged"],
    )
    def test_entities_and_their_closure(self, edges, entities):
        graph = self.graph(edges)
        found = graph.components()
        assert sorted(map(sorted, found)) == sorted(map(sorted, entities))
        assert graph.transitive_matches() == {
            frozenset((left, right))
            for entity in entities
            for left in entity
            for right in entity
            if left != right
        }


class TestAlignmentInsertion:
    def test_perfect_comparisons_give_correct_position(self):
        sorted_items = ["apple", "banana", "cherry", "date"]
        # "coconut" belongs between "cherry" and "date" alphabetically? No:
        # apple < banana < cherry < coconut < date.
        comparisons = {item: "coconut" < item for item in sorted_items}
        assert alignment_insert_position(sorted_items, comparisons) == 3

    def test_single_early_mistake_does_not_derail(self):
        sorted_items = ["apple", "banana", "cherry", "date", "elder"]
        comparisons = {item: "dew" < item for item in sorted_items}
        comparisons["apple"] = True  # wrong answer at the very first index
        assert alignment_insert_position(sorted_items, comparisons) == 4

    def test_insert_at_front_and_back(self):
        sorted_items = ["b", "c", "d"]
        assert alignment_insert_position(sorted_items, {item: True for item in sorted_items}) == 0
        assert alignment_insert_position(sorted_items, {item: False for item in sorted_items}) == 3

    def test_empty_list_inserts_at_zero(self):
        assert alignment_insert_position([], {}) == 0


class TestRankingRepair:
    def test_count_inversions(self):
        comparisons = {("a", "b"): True, ("b", "c"): True, ("a", "c"): False}
        assert count_inversions(["a", "b", "c"], comparisons) == 1
        assert count_inversions(["c", "b", "a"], comparisons) == 2

    def test_minimum_feedback_edges_exact_small(self):
        # One contradictory edge in an otherwise consistent triangle.
        comparisons = {("a", "b"): True, ("b", "c"): True, ("a", "c"): False}
        assert minimum_feedback_edges(["a", "b", "c"], comparisons) == 1

    def test_consistent_comparisons_need_no_flips(self):
        comparisons = {("a", "b"): True, ("b", "c"): True, ("a", "c"): True}
        assert minimum_feedback_edges(["a", "b", "c"], comparisons) == 0

    def test_best_consistent_order_recovers_truth_with_few_errors(self):
        items = list("abcdefgh")
        comparisons = {}
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                comparisons[(items[i], items[j])] = True  # a before b before c ...
        # Inject two wrong comparisons.
        comparisons[("a", "b")] = False
        comparisons[("c", "f")] = False
        order = best_consistent_order(items, comparisons)
        assert count_inversions(order, comparisons) <= 2
        # The order should still be close to the truth: 'a' near the front.
        assert order.index("a") <= 1
