"""Tokenization and pricing utilities.

LLM pricing is per-token, so every simulated call needs a deterministic way to
count prompt and completion tokens and convert them into dollars.  The
tokenizer here is a lightweight approximation of a BPE tokenizer: it is *not*
intended to match any provider's exact counts, only to be stable, monotone in
text length, and cheap.
"""

from repro.tokenizer.cost import CostModel, PriceTable, Usage
from repro.tokenizer.simple import SimpleTokenizer

__all__ = [
    "CostModel",
    "PriceTable",
    "SimpleTokenizer",
    "Usage",
]
