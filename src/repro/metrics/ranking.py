"""Ranking-comparison metrics.

The paper reports Kendall Tau-b for its sorting case studies (Tables 1 and 2).
Kendall Tau-b handles ties in either ranking, which matters for the
rating-based strategy where many items share a 1–7 rating.

Tau-b is computed by ``scipy.stats``, which :func:`kendall_tau_b` imports
when called: it is most of a second and about 70 MB of start-up that a
process which never scores a ranking — a run of operators, the job service —
should not pay on ``import repro``.
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


def order_agreement(predicted_order: Sequence[Hashable], true_order: Sequence[Hashable]) -> float:
    """Kendall Tau-b rescaled to [0, 1], so a ranking scores beside accuracy and F1."""
    return (kendall_tau_b(predicted_order, true_order) + 1.0) / 2.0
