"""Prompt templates and the structured task format.

Operators assemble prompts from templates here so that every unit-task prompt
carries a machine-parsable header (task kind, criterion, options) followed by
the data items.  The same module defines :func:`parse_structured_prompt`, used
by the simulated LLM to recover the task from the prompt text — exactly the
way a real LLM recovers the task from natural-language instructions, but
deterministic.  Keeping the builder and the parser side by side guarantees the
two never drift apart.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.exceptions import ResponseParseError


class PromptTemplate:
    """A named prompt template with ``{placeholder}`` substitution.

    Few-shot examples can be attached; they are rendered above the task body
    in the conventional ``Input:`` / ``Output:`` layout used by the paper's
    imputation case study.
    """

    def __init__(self, template: str, *, name: str = "template") -> None:
        self.name = name
        self.template = template
        self._fields = {
            field_name
            for _, field_name, _, _ in string.Formatter().parse(template)
            if field_name
        }

    @property
    def fields(self) -> set[str]:
        """Placeholder names that must be supplied to :meth:`render`."""
        return set(self._fields)

    def render(self, *, examples: Iterable[Mapping[str, str]] | None = None, **values: str) -> str:
        """Render the template with ``values`` and optional few-shot examples."""
        missing = self._fields - set(values)
        if missing:
            raise KeyError(f"missing template fields: {sorted(missing)}")
        body = self.template.format(**values)
        if not examples:
            return body
        example_lines = []
        for example in examples:
            example_lines.append(f"Input: {example['input']}")
            example_lines.append(f"Output: {example['output']}")
        return "Here are some examples:\n" + "\n".join(example_lines) + "\n\n" + body


# ---------------------------------------------------------------------------
# Structured task prompts
# ---------------------------------------------------------------------------

_TASK_HEADER = "### TASK: {task}"
_FIELD_LINE = "### {key}: {value}"
_ITEM_LINE = "[{index}] {text}"

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
    lines = [_TASK_HEADER.format(task=task)]
    for key, value in (fields or {}).items():
        lines.append(_FIELD_LINE.format(key=key.upper(), value=value))
    if examples:
        lines.append("### EXAMPLES:")
        for example in examples:
            lines.append(f"Input: {example['input']}")
            lines.append(f"Output: {example['output']}")
    item_list = list(items)
    if item_list:
        lines.append("### DATA:")
        lines.extend(
            _ITEM_LINE.format(index=index, text=text) for index, text in enumerate(item_list)
        )
    if instructions:
        lines.append("### INSTRUCTIONS:")
        lines.append(instructions)
    return "\n".join(lines)


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
# Canonical task prompts used by the operators
# ---------------------------------------------------------------------------


def sort_list_prompt(items: Iterable[str], criterion: str) -> str:
    """Single prompt asking the model to sort every item at once (Section 3.1)."""
    return build_structured_prompt(
        "sort_list",
        fields={"criterion": criterion},
        items=items,
        instructions=(
            f"Sort ALL of the items above by '{criterion}', from most to least. "
            "Return the full sorted list, one item per line, numbered."
        ),
    )


def pairwise_comparison_prompt(item_a: str, item_b: str, criterion: str) -> str:
    """Unit task comparing two items on a criterion (Section 3.1)."""
    return build_structured_prompt(
        "pairwise_comparison",
        fields={"criterion": criterion},
        items=[item_a, item_b],
        instructions=(
            f"Which item ranks higher on '{criterion}'? "
            "Answer with exactly 'A' for the first item or 'B' for the second item."
        ),
    )


def rating_prompt(item: str, criterion: str, scale_min: int = 1, scale_max: int = 7) -> str:
    """Unit task rating one item on an integer scale (Section 3.1)."""
    return build_structured_prompt(
        "rating",
        fields={"criterion": criterion, "scale": f"{scale_min}-{scale_max}"},
        items=[item],
        instructions=(
            f"Rate the item above on '{criterion}' from {scale_min} (least) to "
            f"{scale_max} (most). Answer with a single integer."
        ),
    )


def rating_batch_prompt(
    items: Iterable[str], criterion: str, scale_min: int = 1, scale_max: int = 7
) -> str:
    """Unit task rating several items in one prompt (batching ablation)."""
    return build_structured_prompt(
        "rating",
        fields={"criterion": criterion, "scale": f"{scale_min}-{scale_max}"},
        items=items,
        instructions=(
            f"Rate EACH item above on '{criterion}' from {scale_min} (least) to "
            f"{scale_max} (most). Answer with one line per item in the form "
            "'<item number>. <rating>'."
        ),
    )


def duplicate_check_prompt(record_a: str, record_b: str) -> str:
    """Unit task asking whether two records refer to the same entity (Section 3.3)."""
    return build_structured_prompt(
        "duplicate_check",
        items=[record_a, record_b],
        instructions=(
            "Are Citation A and Citation B the same? Citation A is the first item, "
            "Citation B is the second item. Start your response with Yes or No."
        ),
    )


def group_records_prompt(records: Iterable[str]) -> str:
    """Single prompt asking the model to group duplicate records (Section 1)."""
    return build_structured_prompt(
        "group_records",
        items=records,
        instructions=(
            "Group the records above into sets of duplicates. Return one group per "
            "line as comma-separated item indices, e.g. '0, 3' for a group of two."
        ),
    )


def impute_prompt(
    serialized_record: str,
    attribute: str,
    examples: Iterable[Mapping[str, str]] | None = None,
) -> str:
    """Unit task asking the model to fill in one missing attribute (Section 3.4)."""
    return build_structured_prompt(
        "impute",
        fields={"attribute": attribute},
        items=[serialized_record],
        instructions=(
            f"Predict the value of the missing attribute '{attribute}' for the record "
            "above. Answer with just the value."
        ),
        examples=examples,
    )


def categorize_prompt(item: str, categories: Iterable[str]) -> str:
    """Unit task assigning one item to one of a fixed set of categories."""
    category_list = list(categories)
    return build_structured_prompt(
        "categorize",
        fields={"categories": "; ".join(category_list)},
        items=[item],
        instructions=(
            "Assign the item above to exactly one of these categories: "
            + ", ".join(category_list)
            + ". Answer with the category name only."
        ),
    )


def predicate_check_prompt(item: str, predicate: str) -> str:
    """Unit task asking whether one item satisfies a predicate (filtering)."""
    return build_structured_prompt(
        "predicate_check",
        fields={"predicate": predicate},
        items=[item],
        instructions=(
            f"Does the item above satisfy the condition '{predicate}'? "
            "Start your response with Yes or No."
        ),
    )


def estimate_count_prompt(items: Iterable[str], predicate: str) -> str:
    """Coarse 'eyeballing' task estimating how many items satisfy a predicate."""
    return build_structured_prompt(
        "estimate_count",
        fields={"predicate": predicate},
        items=items,
        instructions=(
            f"Estimate how many of the items above satisfy the condition '{predicate}'. "
            "Answer with a single integer."
        ),
    )


def verify_answer_prompt(question: str, proposed_answer: str) -> str:
    """Follow-up verification task (Section 3.5 quality control)."""
    return build_structured_prompt(
        "verify_answer",
        fields={"question": question},
        items=[proposed_answer],
        instructions=(
            "Is the proposed answer above correct for the question? "
            "Start your response with Yes or No."
        ),
    )


# ---------------------------------------------------------------------------
# The templates operators send, as the cost planner prices them
# ---------------------------------------------------------------------------


class TaskTemplate(NamedTuple):
    """One of the task prompts above, declared as data the cost planner counts.

    Every item sits on a ``[i] <text>`` line of its own, and the tokenizer
    never joins tokens across whitespace, so a prompt's count is its
    *scaffold* — the template rendered over empty item texts — plus its
    items' own counts, exactly.

    Attributes:
        build: the prompt function; its leading arguments are the item texts,
            the rest are the fixed fields (criterion, predicate, ...).
        arity: item texts per prompt, each its own argument; 0 when the
            prompt takes one list of them.
        answer: a typical reply of the shape the instructions ask for — to
            one call, or to one item of a list prompt — formatted with the
            fixed fields.  Its count prices completions before any call of
            the strategy has been observed.
    """

    build: Callable[..., str]
    arity: int
    answer: str = ""

    def render(self, items: Sequence[str], fields: tuple = ()) -> str:
        """The prompt ``build`` makes of ``items`` under the fixed ``fields``."""
        if self.arity:
            return self.build(*items, *fields)
        return self.build(list(items), *fields)


SORT_LIST = TaskTemplate(sort_list_prompt, 0)
PAIRWISE_COMPARISON = TaskTemplate(
    pairwise_comparison_prompt, 2, "A. The first item is labeled A and the second is labeled B."
)
RATING = TaskTemplate(rating_prompt, 1, "4")
RATING_BATCH = TaskTemplate(rating_batch_prompt, 0, "1. 4")
DUPLICATE_CHECK = TaskTemplate(
    duplicate_check_prompt, 2, "No, these two citations appear to be different works."
)
GROUP_RECORDS = TaskTemplate(group_records_prompt, 0)
IMPUTE = TaskTemplate(impute_prompt, 1, "unknown")
#: Answered with one of its categories (the fixed field).
CATEGORIZE = TaskTemplate(categorize_prompt, 1, "{0[0]}")
PREDICATE_CHECK = TaskTemplate(predicate_check_prompt, 1, "Yes.")
