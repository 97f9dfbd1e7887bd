"""Internal-consistency enforcement (paper Section 3.3).

A batch of interrelated unit tasks must satisfy global constraints: pairwise
duplicate judgments must respect transitivity, and pairwise comparisons must
admit a topological order.  LLMs violate these constraints when they make
random mistakes; patching the batch after the fact recovers accuracy.

The package is plain Python over dicts and sets: the match graph is adjacency
sets searched breadth-first (``transitivity._Adjacency``), so importing it
loads no graph library.
"""

from repro.consistency.graph_repair import EvidenceRepairResult, repair_with_evidence
from repro.consistency.ranking_repair import (
    alignment_insert_position,
    best_consistent_order,
    count_inversions,
    minimum_feedback_edges,
)
from repro.consistency.transitivity import (
    MatchGraph,
    connected_components,
    transitive_closure_pairs,
)

__all__ = [
    "EvidenceRepairResult",
    "MatchGraph",
    "alignment_insert_position",
    "best_consistent_order",
    "connected_components",
    "count_inversions",
    "minimum_feedback_edges",
    "repair_with_evidence",
    "transitive_closure_pairs",
]
