"""The structured task format, and the task templates declared in it.

Every unit-task prompt carries a machine-parsable header (task kind,
criterion, options), the data items, then natural-language instructions.
:func:`parse_structured_prompt` reads back what :func:`build_structured_prompt`
writes, the way the simulated LLM recovers the task — deterministically.
Each task an operator sends is a :class:`TaskTemplate`: data declaring the
prompt over the task's fixed fields, the reply it asks for and the
:mod:`repro.llm.parsing` extractor that reads that reply.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.exceptions import ResponseParseError
from repro.llm import parsing


# ---------------------------------------------------------------------------
# Structured task prompts
# ---------------------------------------------------------------------------

_TASK_RE = re.compile(r"^### TASK: (?P<task>[\w-]+)\s*$", re.MULTILINE)
_FIELD_RE = re.compile(r"^### (?P<key>[A-Z_]+): (?P<value>.*)$", re.MULTILINE)
_ITEM_RE = re.compile(r"^\[(?P<index>\d+)\] (?P<text>.*)$", re.MULTILINE)


@dataclass
class StructuredPrompt:
    """Parsed form of a structured unit-task prompt.

    Attributes:
        task: task kind, e.g. ``"pairwise_comparison"`` or ``"sort_list"``.
        fields: header key/value pairs (criterion, options, attribute, ...).
        items: data items embedded in the prompt, in order.
        instructions: the free-text instructions that followed the data block.
        has_examples: whether few-shot examples were included in the prompt.
    """

    task: str
    fields: dict[str, str] = field(default_factory=dict)
    items: list[str] = field(default_factory=list)
    instructions: str = ""
    has_examples: bool = False


def build_structured_prompt(
    task: str,
    *,
    fields: Mapping[str, str] | None = None,
    items: Iterable[str] = (),
    instructions: str = "",
    examples: Iterable[Mapping[str, str]] | None = None,
) -> str:
    """Build a unit-task prompt in the structured format.

    The format is plain readable text — a header describing the task, the data
    items as a numbered list, then natural-language instructions — so that it
    would also be a sensible prompt for a real LLM.
    """
    head, tail = _frame(task, fields, instructions, examples)
    return head + _data(list(items)) + tail


def _frame(task: str, fields, instructions: str, examples) -> tuple[str, str]:
    """A prompt's text before and after its ``### DATA:`` block."""
    lines = [f"### TASK: {task}"]
    lines += [f"### {key.upper()}: {value}" for key, value in (fields or {}).items()]
    if examples:
        lines.append("### EXAMPLES:")
        for example in examples:
            lines.append(f"Input: {example['input']}")
            lines.append(f"Output: {example['output']}")
    tail = f"\n### INSTRUCTIONS:\n{instructions}" if instructions else ""
    return "\n".join(lines), tail


def _data(items: Sequence[str]) -> str:
    """The ``### DATA:`` block, one ``[i] <text>`` line per item; none for no items."""
    if not items:
        return ""
    return "\n### DATA:\n" + "\n".join([f"[{index}] {text}" for index, text in enumerate(items)])


def parse_structured_prompt(prompt: str) -> StructuredPrompt:
    """Parse a prompt produced by :func:`build_structured_prompt`.

    Raises:
        ResponseParseError: if the prompt does not carry a task header.
    """
    task_match = _TASK_RE.search(prompt)
    if task_match is None:
        raise ResponseParseError("prompt has no '### TASK:' header", prompt)
    fields: dict[str, str] = {}
    for match in _FIELD_RE.finditer(prompt):
        key = match.group("key")
        if key in {"TASK", "DATA", "INSTRUCTIONS", "EXAMPLES"}:
            continue
        fields[key.lower()] = match.group("value").strip()
    items = [match.group("text") for match in _ITEM_RE.finditer(prompt)]
    instructions = ""
    marker = "### INSTRUCTIONS:"
    if marker in prompt:
        instructions = prompt.split(marker, 1)[1].strip()
    return StructuredPrompt(
        task=task_match.group("task"),
        fields=fields,
        items=items,
        instructions=instructions,
        has_examples="### EXAMPLES:" in prompt,
    )


# ---------------------------------------------------------------------------
# The task templates operators send
# ---------------------------------------------------------------------------


class _Joined(tuple):
    """A list-valued fixed field; its format spec is the separator (``{0:, }``)."""

    def __format__(self, separator: str) -> str:
        return separator.join(self)


class TaskTemplate(NamedTuple):
    """A unit task declared as data: its prompt, its reply and how to read it.

    ``header`` and ``instructions`` are formats over the fixed fields, a
    tuple (criterion, predicate, categories, ...).  Each item sits on a
    ``[i] <text>`` line of its own and the tokenizer never joins tokens
    across whitespace, so a prompt's count is its *scaffold* — the template
    rendered over empty item texts — plus its items' own counts, exactly.

    Attributes:
        task: the ``### TASK:`` kind.
        arity: items per prompt; 0 when one prompt takes a list of them.
        header: ``(key, format)`` header lines.
        instructions: the instructions' format.
        answer: a typical reply to one call, or to one item of a list
            prompt, formatted with the fixed fields — the completion prior
            before any call of the strategy has been observed.
        reader: ``reader(text, items, fields)``, the :mod:`repro.llm.parsing`
            extractor with the arguments the instructions fix.
    """

    task: str
    arity: int
    header: tuple[tuple[str, str], ...]
    instructions: str
    answer: str
    reader: Callable[[str, Sequence[str], tuple], Any]

    def render(self, items: Sequence[str], fields: tuple = (), examples=None) -> str:
        """The prompt over ``items`` under the (hashable) fixed ``fields``.

        ``examples`` — in-context ``{"input", "output"}`` pairs — are the one
        part of a prompt that is neither an item nor a fixed field.
        """
        head, tail = self._frame(fields, examples) if examples else _framed(self, fields)
        return head + _data(items) + tail

    def read(self, text: str, items: Sequence[str] = (), fields: tuple = ()) -> Any:
        """The answer a reply to :meth:`render` gives; raises ``ResponseParseError``."""
        return self.reader(text, items, fields)

    def _frame(self, fields: tuple, examples) -> tuple[str, str]:
        values = [_Joined(value) if isinstance(value, (list, tuple)) else value for value in fields]
        header = {key: value.format(*values) for key, value in self.header}
        return _frame(self.task, header, self.instructions.format(*values), examples)


@functools.lru_cache(maxsize=4096)
def _framed(template: TaskTemplate, fields: tuple) -> tuple[str, str]:
    """The frame once per process: formatting it costs more than the rest of a render."""
    return template._frame(fields, None)


def _text(extract: Callable[[str], Any]) -> Callable[[str, Sequence[str], tuple], Any]:
    """A reader that needs nothing but the reply text."""
    return lambda text, items, fields: extract(text)


_CRITERION = (("criterion", "{0}"),)
_SCALED = (("criterion", "{0}"), ("scale", "1-7"))

SORT_LIST = TaskTemplate(
    "sort_list", 0, _CRITERION,
    "Sort ALL of the items above by '{0}', from most to least. "
    "Return the full sorted list, one item per line, numbered.",
    "", _text(parsing.extract_list),
)
PAIRWISE_COMPARISON = TaskTemplate(
    "pairwise_comparison", 2, _CRITERION,
    "Which item ranks higher on '{0}'? "
    "Answer with exactly 'A' for the first item or 'B' for the second item.",
    "A. The first item is labeled A and the second is labeled B.",
    lambda text, items, fields: parsing.extract_choice(text, ("A", "B")),
)
RATING = TaskTemplate(
    "rating", 1, _SCALED,
    "Rate the item above on '{0}' from 1 (least) to 7 (most). Answer with a single integer.",
    "4", lambda text, items, fields: parsing.extract_integer(text, minimum=1, maximum=7),
)
RATING_BATCH = TaskTemplate(
    "rating", 0, _SCALED,
    "Rate EACH item above on '{0}' from 1 (least) to 7 (most). "
    "Answer with one line per item in the form '<item number>. <rating>'.",
    "1. 4",
    lambda text, items, fields: [
        min(7, max(1, n)) for n in parsing.extract_ratings(text, len(items))
    ],
)
DUPLICATE_CHECK = TaskTemplate(
    "duplicate_check", 2, (),
    "Are Citation A and Citation B the same? Citation A is the first item, "
    "Citation B is the second item. Start your response with Yes or No.",
    "No, these two citations appear to be different works.", _text(parsing.extract_yes_no),
)
GROUP_RECORDS = TaskTemplate(
    "group_records", 0, (),
    "Group the records above into sets of duplicates. Return one group per "
    "line as comma-separated item indices, e.g. '0, 3' for a group of two.",
    "", _text(parsing.extract_groups),
)
IMPUTE = TaskTemplate(
    "impute", 1, (("attribute", "{0}"),),
    "Predict the value of the missing attribute '{0}' for the record above. "
    "Answer with just the value.",
    "unknown", _text(parsing.extract_value),
)
#: Answered with one of its categories, the one fixed field.
CATEGORIZE = TaskTemplate(
    "categorize", 1, (("categories", "{0:; }"),),
    "Assign the item above to exactly one of these categories: {0:, }. "
    "Answer with the category name only.",
    "{0[0]}", lambda text, items, fields: parsing.extract_choice(text, fields[0]),
)
PREDICATE_CHECK = TaskTemplate(
    "predicate_check", 1, (("predicate", "{0}"),),
    "Does the item above satisfy the condition '{0}'? Start your response with Yes or No.",
    "Yes.", _text(parsing.extract_yes_no),
)


def predicate_check_prompt(item: str, predicate: str) -> str:
    """:data:`PREDICATE_CHECK` over one item (the perf harness sends these)."""
    return PREDICATE_CHECK.render([item], (predicate,))
