"""Ranking-comparison metrics.

The paper reports Kendall Tau-b for its sorting case studies (Tables 1 and 2).
Kendall Tau-b handles ties in either ranking, which matters for the
rating-based strategy where many items share a 1–7 rating.

Tau-b and Spearman's rho are computed by ``scipy.stats``, which each of the
three functions that needs it imports when called: it is most of a second and
about 70 MB of start-up that a process which never scores a ranking — a run of
operators, the job service — should not pay on ``import repro``.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.exceptions import DatasetError


def _positions(order: Sequence[Hashable]) -> dict[Hashable, int]:
    return {item: index for index, item in enumerate(order)}


def kendall_tau_b(
    predicted_order: Sequence[Hashable],
    true_order: Sequence[Hashable],
) -> float:
    """Kendall Tau-b correlation between two orderings of the same items.

    Both arguments are item sequences from best (rank 1) to worst.  Items that
    appear in only one of the two orderings are ignored — this is how a
    predicted sort with dropped items is scored *after* the caller has decided
    how to handle the drops (Table 2 inserts them at random positions first).

    Returns a value in [-1, 1]; 1 means identical orderings.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_order if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    predicted_ranks = list(range(len(shared)))
    true_ranks = [true_positions[item] for item in shared]
    from scipy import stats

    statistic = stats.kendalltau(predicted_ranks, true_ranks, variant="b").statistic
    return float(statistic)


def kendall_tau_b_from_scores(
    predicted_scores: dict[Hashable, float],
    true_order: Sequence[Hashable],
) -> float:
    """Kendall Tau-b between score-induced ranking (ties allowed) and a true order.

    The rating-based sorting strategy produces integer scores with many ties;
    scoring those against the ground truth requires the tie-aware Tau-b
    variant, so this helper passes the raw scores through directly.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_scores if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    # Higher score = better rank, so negate to align directions with positions.
    predicted = [-predicted_scores[item] for item in shared]
    truth = [true_positions[item] for item in shared]
    from scipy import stats

    return float(stats.kendalltau(predicted, truth, variant="b").statistic)


def spearman_rho(
    predicted_order: Sequence[Hashable],
    true_order: Sequence[Hashable],
) -> float:
    """Spearman rank correlation between two orderings of the same items."""
    true_positions = _positions(true_order)
    shared = [item for item in predicted_order if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    predicted_ranks = list(range(len(shared)))
    true_ranks = [true_positions[item] for item in shared]
    from scipy import stats

    return float(stats.spearmanr(predicted_ranks, true_ranks).statistic)


def ranking_alignment(
    predicted_order: Sequence[Hashable],
    true_order: Sequence[Hashable],
) -> float:
    """Fraction of item pairs ordered consistently with the ground truth.

    A simple, always-defined alternative to Tau-b (it equals ``(tau + 1) / 2``
    in the absence of ties) that is convenient for property-based tests.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_order if item in true_positions]
    if len(shared) < 2:
        return 1.0
    agreements = 0
    total = 0
    for i in range(len(shared)):
        for j in range(i + 1, len(shared)):
            total += 1
            if true_positions[shared[i]] < true_positions[shared[j]]:
                agreements += 1
    return agreements / total
