"""Quality control for LLM answers (paper Section 3.5).

Techniques drawn from the crowdsourcing literature for estimating and
improving the accuracy of noisy oracles: validation-set accuracy estimation
and majority / weighted voting.  The declared forms — the filter and
categorize ``ensemble_vote`` strategies and categorize's ``self_consistency``
— vote through :mod:`repro.quality.voting`.
"""

from repro.quality.validation import AccuracyEstimate, estimate_accuracy, wilson_interval
from repro.quality.voting import VoteResult, majority_vote, weighted_vote

__all__ = [
    "AccuracyEstimate",
    "VoteResult",
    "estimate_accuracy",
    "majority_vote",
    "weighted_vote",
    "wilson_interval",
]
