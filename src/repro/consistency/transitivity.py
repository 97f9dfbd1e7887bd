"""Transitivity over duplicate judgments.

The entity-resolution case study (Table 3) flips "No" answers to "Yes"
whenever the two records are connected by a path of "Yes" edges — i.e. it
takes the transitive closure of the match graph.  :class:`MatchGraph` stores
the pairwise judgments and exposes exactly that operation, plus the connected
components used to turn pairwise matches into entity clusters.

The graph is a dict of adjacency sets and a breadth-first search — the three
graph operations this module needs do not justify importing a graph library
with every ``import repro``.
"""

from __future__ import annotations

from typing import Hashable


class _Adjacency:
    """An undirected graph as adjacency sets, nodes kept in insertion order."""

    def __init__(self) -> None:
        self._neighbors: dict[Hashable, set[Hashable]] = {}

    def __contains__(self, node: Hashable) -> bool:
        return node in self._neighbors

    def __iter__(self):
        return iter(self._neighbors)

    def add_node(self, node: Hashable) -> None:
        self._neighbors.setdefault(node, set())

    def add_edge(self, left: Hashable, right: Hashable) -> None:
        self._neighbors.setdefault(left, set()).add(right)
        self._neighbors.setdefault(right, set()).add(left)

    def has_edge(self, left: Hashable, right: Hashable) -> bool:
        return right in self._neighbors.get(left, ())

    def component_of(self, start: Hashable) -> set[Hashable]:
        """Every node reachable from ``start`` (which must be a node), itself included."""
        seen = {start}
        frontier = [start]
        while frontier:
            reached = []
            for node in frontier:
                for neighbor in self._neighbors[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        reached.append(neighbor)
            frontier = reached
        return seen

    def components(self) -> list[set[Hashable]]:
        """Connected components, ordered by each one's first-inserted node."""
        seen: set[Hashable] = set()
        found = []
        for node in self._neighbors:
            if node not in seen:
                component = self.component_of(node)
                seen |= component
                found.append(component)
        return found


class MatchGraph:
    """An undirected graph of match ("Yes") judgments over records.

    Nodes are record identifiers (any hashable); an edge means some task
    judged the two records duplicates.  Non-match judgments are tracked
    separately so that :meth:`conflicts` can name the ones the closure
    contradicts.
    """

    def __init__(self) -> None:
        self._graph = _Adjacency()
        self._non_matches: set[frozenset[Hashable]] = set()

    def add_node(self, node: Hashable) -> None:
        """Ensure a record participates in the graph even with no judgments."""
        self._graph.add_node(node)

    def add_match(self, left: Hashable, right: Hashable) -> None:
        """Record a positive (duplicate) judgment."""
        self._graph.add_edge(left, right)

    def add_non_match(self, left: Hashable, right: Hashable) -> None:
        """Record a negative (not duplicate) judgment."""
        self._graph.add_node(left)
        self._graph.add_node(right)
        self._non_matches.add(frozenset((left, right)))

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> list[Hashable]:
        return list(self._graph)

    def connected(self, left: Hashable, right: Hashable) -> bool:
        """Whether a path of positive judgments connects the two records."""
        if left not in self._graph or right not in self._graph:
            return False
        return right in self._graph.component_of(left)

    def components(self) -> list[set[Hashable]]:
        """Connected components of the match graph (the inferred entities)."""
        return self._graph.components()

    def transitive_matches(self) -> set[frozenset[Hashable]]:
        """All unordered pairs connected by the transitive closure."""
        closure: set[frozenset[Hashable]] = set()
        for component in self._graph.components():
            members = list(component)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    closure.add(frozenset((members[i], members[j])))
        return closure

    def conflicts(self) -> list[frozenset[Hashable]]:
        """Negative judgments contradicted by the transitive closure.

        These are exactly the pairs the paper's strategy flips from "No" to
        "Yes"; returning them explicitly lets callers audit the repair.
        """
        closure = self.transitive_matches()
        return [pair for pair in self._non_matches if pair in closure]
