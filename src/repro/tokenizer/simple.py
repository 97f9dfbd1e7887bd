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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError

#: Maximum number of characters folded into a single token chunk.
_CHUNK_SIZE = 4

#: Texts longer than this are counted afresh each time instead of memoized:
#: the memo's keys are the texts themselves, and long texts are whole prompts
#: that rarely repeat, so keeping them would only pin memory.  Items, labels
#: and short completions (the texts that do repeat) sit well below it.
_MEMO_MAX_CHARS = 128

#: Upper bound on a memo's entries, so distinct short texts cannot grow it forever.
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
        """Return the number of tokens in ``text`` (short texts are memoized)."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        n = len(self._findall(text))
        if len(text) <= _MEMO_MAX_CHARS and len(self._cache) < _MEMO_MAX_ENTRIES:
            self._cache[text] = n
        return n


_DEFAULT_TOKENIZER = SimpleTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens in ``text`` using the module-level default tokenizer."""
    return _DEFAULT_TOKENIZER.count(text)
