"""Voting-based aggregation of repeated or multi-model answers.

Majority voting over several models (or over several temperature-sampled
responses from one model — "self-consistency") is the simplest quality-control
aggregator from Section 3.5.  Weighted voting folds in per-voter accuracy
estimates when they are available.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.exceptions import QualityControlError


@dataclass
class VoteResult:
    """Outcome of a vote.

    Attributes:
        winner: the winning answer.
        support: fraction of the total (weighted) vote mass behind the winner.
        counts: raw (weighted) vote mass per distinct answer.
    """

    winner: Hashable
    support: float
    counts: dict[Hashable, float]


def majority_vote(votes: Sequence[Hashable]) -> VoteResult:
    """Plain majority vote; ties broken by first appearance order."""
    if not votes:
        raise QualityControlError("cannot vote over zero answers")
    counts = Counter(votes)
    top = max(counts.values())
    winner = next(vote for vote in votes if counts[vote] == top)
    return VoteResult(
        winner=winner,
        support=top / len(votes),
        counts={key: float(value) for key, value in counts.items()},
    )


def weighted_vote(votes: Mapping[Hashable, Hashable], weights: Mapping[Hashable, float]) -> VoteResult:
    """Vote where each voter's ballot is weighted by its estimated accuracy.

    Args:
        votes: voter id → answer.
        weights: voter id → weight (e.g. estimated accuracy); missing voters
            default to weight 1.
    """
    if not votes:
        raise QualityControlError("cannot vote over zero answers")
    mass: dict[Hashable, float] = {}
    for voter, answer in votes.items():
        mass[answer] = mass.get(answer, 0.0) + float(weights.get(voter, 1.0))
    total = sum(mass.values())
    winner = max(mass, key=mass.get)
    return VoteResult(winner=winner, support=mass[winner] / total if total else 0.0, counts=mass)
