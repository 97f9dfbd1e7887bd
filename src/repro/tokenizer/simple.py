"""A small deterministic tokenizer used for token accounting.

Real LLM providers charge per BPE token.  We approximate BPE with a rule that
is close in aggregate: words are split into chunks of at most four characters,
and punctuation/whitespace boundaries start new tokens.  The resulting counts
track the usual "one token is roughly four characters of English" heuristic,
which is all the cost model needs.

The whole rule is one regular expression, ``\\w{1,chunk_size}|[^\\w\\s]``:
scanning left to right, a greedy ``\\w{1,n}`` cuts every maximal word run into
chunks of at most ``n`` characters, and any other non-space character is its
own token.  Whitespace never joins or belongs to a token, so counts are
additive across it: ``count(a + " " + b) == count(a) + count(b)``.

``count`` uses that: a newline is whitespace, so a text's count is the sum of
its lines' counts — equal, not approximate — and the process memo holds lines
and short single-line texts, never whole prompts.  A prompt is a template
applied to an example: every line it shares with a text already counted (the
instruction lines of every call of a bag after the first) is one dict lookup,
and only its own lines (``[0] <item>``) are scanned.  A single-line text, a
process's first prompt of a template and a line over ``_MEMO_MAX_CHARS`` cost
one scan each, as they always did.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError

#: Maximum number of characters folded into a single token chunk.
_CHUNK_SIZE = 4

#: Longest string the memo keeps.  Its keys are the strings themselves: lines
#: of prompts (instruction lines run to ~140 characters before a criterion or
#: predicate is interpolated) and single-line texts (items, labels, short
#: completions).  Anything longer is scanned each time it is met, so the memo
#: never pins it; worst case the keys hold 256 × 65 536 characters, 16 MB.
_MEMO_MAX_CHARS = 256

#: Upper bound on a memo's entries.  A full memo is emptied and starts over
#: (one-off item lines fill it, the templates in use are back after one prompt
#: each); threads that race past the check can overshoot by one entry apiece.
_MEMO_MAX_ENTRIES = 65536

#: The process's memos, one per ``chunk_size``: a count is a pure function of
#: the text and the chunk size, so every tokenizer of one size shares one.
_MEMOS: dict[int, dict[str, int]] = {}


@dataclass
class SimpleTokenizer:
    """Deterministic whitespace + chunking tokenizer.

    Attributes:
        chunk_size: maximum characters per token chunk for long words.
    """

    chunk_size: int = _CHUNK_SIZE
    _cache: dict[str, int] = field(init=False, repr=False, compare=False)
    _findall: Callable[[str], list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be a positive integer, got {self.chunk_size!r}"
            )
        self._cache = _MEMOS.setdefault(self.chunk_size, {})
        self._findall = re.compile(rf"\w{{1,{self.chunk_size:d}}}|[^\w\s]").findall

    def tokenize(self, text: str) -> list[str]:
        """Return the list of tokens for ``text``."""
        return self._findall(text)

    def count(self, text: str) -> int:
        """Return the number of tokens in ``text``: the sum of its lines' counts,
        each line (as a short single-line text) looked up in and kept by the memo."""
        cache = self._cache
        total = cache.get(text)
        if total is not None:
            return total
        total = 0
        for line in text.split("\n"):
            n = cache.get(line)
            if n is None:
                n = len(self._findall(line))
                if len(line) <= _MEMO_MAX_CHARS:
                    if len(cache) >= _MEMO_MAX_ENTRIES:
                        cache.clear()
                    cache[line] = n
            total += n
        return total


_DEFAULT_TOKENIZER = SimpleTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens in ``text`` using the module-level default tokenizer."""
    return _DEFAULT_TOKENIZER.count(text)
