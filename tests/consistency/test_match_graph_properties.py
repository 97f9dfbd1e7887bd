"""MatchGraph against a brute-force closure, and against networkx where it exists.

``MatchGraph`` keeps its judgments in adjacency sets and answers by
breadth-first search.  Its contract includes an *order*: ``nodes`` in insertion
order and ``components()`` by each component's first-inserted node — the order
``networkx.connected_components`` yields, which the structure replaced and
which resolve's cluster lists were built on.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.consistency.transitivity import MatchGraph

_RECORDS = st.integers(0, 7)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), _RECORDS),
        st.tuples(st.just("add_match"), _RECORDS, _RECORDS),  # self-pairs and repeats included
        st.tuples(st.just("add_non_match"), _RECORDS, _RECORDS),
    ),
    max_size=30,
)


def _build(operations) -> MatchGraph:
    graph = MatchGraph()
    for method, *records in operations:
        getattr(graph, method)(*records)
    return graph


def _brute_force(operations):
    """Nodes in first-mention order, match edges, and reachability by fixpoint."""
    nodes: list[int] = []
    matches: set[frozenset[int]] = set()
    non_matches: set[frozenset[int]] = set()
    for method, *records in operations:
        nodes.extend(record for record in dict.fromkeys(records) if record not in nodes)
        if method == "add_match":
            matches.add(frozenset(records))
        elif method == "add_non_match":
            non_matches.add(frozenset(records))
    reach = {(a, b) for a in nodes for b in nodes if a == b or frozenset((a, b)) in matches}
    while True:
        longer = {(a, c) for (a, b) in reach for (b2, c) in reach if b == b2} - reach
        if not longer:
            break
        reach |= longer
    components: list[set[int]] = []
    for node in nodes:
        if not any(node in component for component in components):
            components.append({other for other in nodes if (node, other) in reach})
    return nodes, matches, non_matches, reach, components


@given(_OPERATIONS)
def test_match_graph_equals_the_brute_force_closure(operations):
    graph = _build(operations)
    nodes, matches, non_matches, reach, components = _brute_force(operations)
    assert graph.nodes == nodes
    assert graph.components() == components  # a list: the order is part of the contract
    closure = {frozenset(pair) for c in components for pair in combinations(c, 2)}
    assert graph.transitive_matches() == closure
    conflicts = graph.conflicts()
    assert len(conflicts) == len(set(conflicts))
    assert set(conflicts) == non_matches & closure
    for left in range(8):  # absent records included
        for right in range(8):
            assert graph.connected(left, right) is ((left, right) in reach)
            pair = frozenset((left, right))
            assert (right in graph._graph._neighbors.get(left, ())) is (pair in matches)
            assert (pair in graph._non_matches) is (pair in non_matches)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@given(_OPERATIONS)
def test_match_graph_equals_networkx(nx, operations):
    graph = _build(operations)
    reference = nx.Graph()
    for method, *records in operations:
        if method == "add_match":
            reference.add_edge(*records)
        else:
            reference.add_nodes_from(records)
    assert graph.nodes == list(reference.nodes)
    assert graph.components() == [set(c) for c in nx.connected_components(reference)]
    for left in reference.nodes:
        for right in reference.nodes:
            assert graph.connected(left, right) is nx.has_path(reference, left, right)
            assert (right in graph._graph._neighbors[left]) is reference.has_edge(left, right)
