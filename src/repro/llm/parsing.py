"""Extracting structured answers from free-text LLM responses.

The paper (Section 4, "Mitigating Prompt Brittleness") points out that turning
an LLM's free-text response back into a programmatic answer is itself error
prone: the model may preface its answer, bury it mid-sentence, or contradict
itself.  These helpers centralise the extraction logic so operators never
regex over raw responses themselves, and every helper raises
:class:`ResponseParseError` instead of silently guessing when no answer can be
recovered.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.exceptions import ResponseParseError, SpecError

_YES_RE = re.compile(r"\byes\b", re.IGNORECASE)
_NO_RE = re.compile(r"\bno\b", re.IGNORECASE)
_INT_RE = re.compile(r"-?\d+")
_NUMBERED_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s*)(?P<text>.+?)\s*$")
_NUMBERED_RATING_RE = re.compile(r"^\s*\d+[.)]\s*(-?\d+)", re.MULTILINE)


def extract_yes_no(text: str) -> bool:
    """Extract a boolean from a Yes/No style response.

    The first occurrence wins, which mirrors the paper's prompt design of
    "Start your response with Yes or No" and avoids the chain-of-thought trap
    where the model ends with the opposite token it started with.
    """
    yes = _YES_RE.search(text)
    no = _NO_RE.search(text)
    if yes is None and no is None:
        raise ResponseParseError("no Yes/No answer found in response", text)
    if yes is None:
        return False
    if no is None:
        return True
    return yes.start() < no.start()


def extract_choice(text: str, options: Sequence[str]) -> str:
    """Extract the first matching option label (e.g. ``"A"`` / ``"B"``).

    An option matches where no word character touches either end, so one
    with a punctuated edge (``"C++"``, ``"(none)"``) matches too; at one
    position the longest option wins, so ``"C"`` never wins inside ``"C++"``.
    """
    if not options:
        raise SpecError("options must not be empty")
    longest_first = sorted(options, key=len, reverse=True)
    pattern = re.compile(
        r"(?<!\w)(" + "|".join(re.escape(option) for option in longest_first) + r")(?!\w)"
    )
    match = pattern.search(text)
    if match is None:
        raise ResponseParseError(
            f"none of the options {list(options)} found in response", text
        )
    return match.group(1)


def extract_integer(text: str, *, minimum: int | None = None, maximum: int | None = None) -> int:
    """Extract the first integer in the response, optionally clamped to a range."""
    match = _INT_RE.search(text)
    if match is None:
        raise ResponseParseError("no integer found in response", text)
    value = int(match.group(0))
    if minimum is not None and value < minimum:
        value = minimum
    if maximum is not None and value > maximum:
        value = maximum
    return value


def extract_ratings(text: str, expected: int) -> list[int]:
    """Extract ``expected`` integer ratings from a (possibly multi-line) response.

    Used by the batched rating strategy where several items are rated in one
    prompt; the response carries one ``<n>. <rating>`` line per item, and
    when it has such lines only they are read, so a number in a preamble
    ("Ratings for the 3 items:") is not taken for a rating.  Otherwise every
    integer counts, read as alternating index/rating pairs when there are
    exactly twice ``expected`` of them.  Raises when fewer than ``expected``
    ratings can be found.
    """
    values = [int(match) for match in _NUMBERED_RATING_RE.findall(text)]
    if not values:
        values = [int(match) for match in _INT_RE.findall(text)]
        if len(values) == expected * 2:
            values = values[1::2]
    if len(values) < expected:
        raise ResponseParseError(
            f"expected {expected} ratings but found {len(values)}", text
        )
    return values[:expected]


def extract_list(text: str) -> list[str]:
    """Extract a numbered or bulleted list of items from the response.

    Lines that do not look like list entries (greetings, explanations) are
    skipped, matching how one would post-process a real model's "Sure! Here is
    the sorted list:" preamble.
    """
    items: list[str] = []
    for line in text.splitlines():
        match = _NUMBERED_ITEM_RE.match(line)
        if match:
            items.append(match.group("text").strip())
    if not items:
        raise ResponseParseError("no list items found in response", text)
    return items


def extract_groups(text: str) -> list[list[int]]:
    """Extract groups of item indices, one comma-separated group per line."""
    groups: list[list[int]] = []
    for line in text.splitlines():
        indices = [int(match) for match in _INT_RE.findall(line)]
        if indices:
            groups.append(indices)
    if not groups:
        raise ResponseParseError("no index groups found in response", text)
    return groups


def extract_value(text: str) -> str:
    """Extract a short free-form value (e.g. an imputed attribute).

    Uses the last non-empty line, stripped of common prefixes such as
    ``"Answer:"`` and surrounding quotes.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ResponseParseError("empty response", text)
    value = lines[-1]
    for prefix in ("answer:", "value:", "the value is", "prediction:"):
        if value.lower().startswith(prefix):
            value = value[len(prefix) :].strip()
    return value.strip().strip('"').strip("'")
