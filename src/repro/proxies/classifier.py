"""Threshold-based similarity proxies.

The cheapest possible duplicate detector: a string-similarity score with two
thresholds.  Pairs above the upper threshold are accepted, pairs below the
lower threshold are rejected, and only the "confusing" band in between is
forwarded to the LLM — the CrowdER-style hybrid workflow of Section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.proxies.similarity import jaccard_similarity


@dataclass(frozen=True)
class ProxyDecision:
    """Decision of the proxy for one pair.

    Attributes:
        label: ``True`` (duplicate), ``False`` (not duplicate), or ``None``
            when the proxy abstains and the pair must go to the LLM.
        score: the underlying similarity score.
    """

    label: bool | None
    score: float

    @property
    def abstained(self) -> bool:
        return self.label is None


class SimilarityMatchProxy:
    """Two-threshold similarity classifier with an abstention band.

    Args:
        accept_threshold: similarity at or above which the pair is a duplicate.
        reject_threshold: similarity at or below which the pair is not.
        similarity: similarity function over two strings; defaults to Jaccard.
    """

    def __init__(
        self,
        *,
        accept_threshold: float = 0.85,
        reject_threshold: float = 0.25,
        similarity: Callable[[str, str], float] = jaccard_similarity,
    ) -> None:
        if not 0.0 <= reject_threshold <= accept_threshold <= 1.0:
            raise ConfigurationError(
                "thresholds must satisfy 0 <= reject_threshold <= accept_threshold <= 1"
            )
        self.accept_threshold = accept_threshold
        self.reject_threshold = reject_threshold
        self.similarity = similarity

    def decide(self, left: str, right: str) -> ProxyDecision:
        """Classify a pair, abstaining inside the uncertainty band."""
        score = self.similarity(left, right)
        if score >= self.accept_threshold:
            return ProxyDecision(label=True, score=score)
        if score <= self.reject_threshold:
            return ProxyDecision(label=False, score=score)
        return ProxyDecision(label=None, score=score)
