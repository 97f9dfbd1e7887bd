"""String-similarity functions used by the non-LLM proxies."""

from __future__ import annotations

import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"\w+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def jaccard_similarity(first: str, second: str) -> float:
    """Jaccard similarity of the token sets of two strings, in [0, 1]."""
    tokens_first = set(_tokens(first))
    tokens_second = set(_tokens(second))
    if not tokens_first and not tokens_second:
        return 1.0
    if not tokens_first or not tokens_second:
        return 0.0
    return len(tokens_first & tokens_second) / len(tokens_first | tokens_second)


def token_cosine(first: str, second: str) -> float:
    """Cosine similarity of the token-count vectors of two strings, in [0, 1]."""
    counts_first = Counter(_tokens(first))
    counts_second = Counter(_tokens(second))
    if not counts_first or not counts_second:
        return 1.0 if counts_first == counts_second else 0.0
    dot = sum(counts_first[token] * counts_second[token] for token in counts_first)
    norm_first = math.sqrt(sum(value * value for value in counts_first.values()))
    norm_second = math.sqrt(sum(value * value for value in counts_second.values()))
    return dot / (norm_first * norm_second)
