"""Internal-consistency enforcement (paper Section 3.3).

A batch of interrelated unit tasks must satisfy global constraints: pairwise
duplicate judgments must respect transitivity, and pairwise comparisons must
admit a topological order.  LLMs violate these constraints when they make
random mistakes; patching the batch after the fact recovers accuracy.
:class:`MatchGraph` takes the transitive closure of duplicate judgments, and
:mod:`repro.consistency.ranking_repair` turns inconsistent comparisons into
one order (minimum feedback edges, alignment-based insertion).

The package is plain Python over dicts and sets: the match graph is adjacency
sets searched breadth-first (``transitivity._Adjacency``), so importing it
loads no graph library.
"""

from repro.consistency.ranking_repair import (
    alignment_insert_position,
    best_consistent_order,
    count_inversions,
    minimum_feedback_edges,
)
from repro.consistency.transitivity import MatchGraph

__all__ = [
    "MatchGraph",
    "alignment_insert_position",
    "best_consistent_order",
    "count_inversions",
    "minimum_feedback_edges",
]
