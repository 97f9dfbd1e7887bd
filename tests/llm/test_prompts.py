"""Tests for the canonical prompts and the structured prompt round-trip."""

from __future__ import annotations

import pytest

from repro.exceptions import ResponseParseError
from repro.llm.prompts import (
    CATEGORIZE,
    DUPLICATE_CHECK,
    GROUP_RECORDS,
    IMPUTE,
    PAIRWISE_COMPARISON,
    PREDICATE_CHECK,
    RATING,
    RATING_BATCH,
    SORT_LIST,
    build_structured_prompt,
    parse_structured_prompt,
)


class TestStructuredPromptRoundTrip:
    def test_round_trip_preserves_task_fields_items(self):
        prompt = build_structured_prompt(
            "pairwise_comparison",
            fields={"criterion": "chocolatey"},
            items=["dark chocolate", "lemon sorbet"],
            instructions="Answer A or B.",
        )
        parsed = parse_structured_prompt(prompt)
        assert parsed.task == "pairwise_comparison"
        assert parsed.fields["criterion"] == "chocolatey"
        assert parsed.items == ["dark chocolate", "lemon sorbet"]
        assert "Answer A or B." in parsed.instructions
        assert parsed.has_examples is False

    def test_examples_flag_round_trips(self):
        prompt = build_structured_prompt(
            "impute",
            fields={"attribute": "city"},
            items=["name is X"],
            instructions="Answer.",
            examples=[{"input": "name is Y", "output": "Austin"}],
        )
        parsed = parse_structured_prompt(prompt)
        assert parsed.has_examples is True

    def test_unstructured_prompt_raises(self):
        with pytest.raises(ResponseParseError):
            parse_structured_prompt("please sort these words for me")

    def test_items_keep_order(self):
        items = [f"item {index}" for index in range(10)]
        parsed = parse_structured_prompt(build_structured_prompt("sort_list", items=items))
        assert parsed.items == items


#: In-context examples for the impute-with-examples case.
EXAMPLES = (
    {"input": "name: Cafe Rio; phone: 512-555-0101", "output": "Austin"},
    {"input": "name: Blue Door; phone: 206-555-0199", "output": "Seattle"},
)

#: Every template rendered over fixed inputs, and the exact prompt text.  The
#: simulator seeds each reply on the prompt and the response cache keys on
#: it, so any byte that moves here changes every recorded result.
GOLDEN = [
    pytest.param(
        SORT_LIST,
        ['dark chocolate', 'lemon sorbet', 'milk chocolate'],
        ('chocolatey',),
        None,
        '### TASK: sort_list\n'
        '### CRITERION: chocolatey\n'
        '### DATA:\n'
        '[0] dark chocolate\n'
        '[1] lemon sorbet\n'
        '[2] milk chocolate\n'
        '### INSTRUCTIONS:\n'
        "Sort ALL of the items above by 'chocolatey', from most to least. Return the full sorted list, one item per line, numbered.",
        id='sort_list',
    ),
    pytest.param(
        PAIRWISE_COMPARISON,
        ['dark chocolate', 'lemon sorbet'],
        ('chocolatey',),
        None,
        '### TASK: pairwise_comparison\n'
        '### CRITERION: chocolatey\n'
        '### DATA:\n'
        '[0] dark chocolate\n'
        '[1] lemon sorbet\n'
        '### INSTRUCTIONS:\n'
        "Which item ranks higher on 'chocolatey'? Answer with exactly 'A' for the first item or 'B' for the second item.",
        id='pairwise',
    ),
    pytest.param(
        RATING,
        ['dark chocolate'],
        ('chocolatey',),
        None,
        '### TASK: rating\n'
        '### CRITERION: chocolatey\n'
        '### SCALE: 1-7\n'
        '### DATA:\n'
        '[0] dark chocolate\n'
        '### INSTRUCTIONS:\n'
        "Rate the item above on 'chocolatey' from 1 (least) to 7 (most). Answer with a single integer.",
        id='rating',
    ),
    pytest.param(
        RATING_BATCH,
        ['dark chocolate', 'lemon sorbet', 'milk chocolate'],
        ('chocolatey',),
        None,
        '### TASK: rating\n'
        '### CRITERION: chocolatey\n'
        '### SCALE: 1-7\n'
        '### DATA:\n'
        '[0] dark chocolate\n'
        '[1] lemon sorbet\n'
        '[2] milk chocolate\n'
        '### INSTRUCTIONS:\n'
        "Rate EACH item above on 'chocolatey' from 1 (least) to 7 (most). Answer with one line per item in the form '<item number>. <rating>'.",
        id='rating_batch',
    ),
    pytest.param(
        DUPLICATE_CHECK,
        ['J. Gray. Transactions. VLDB 1981.', "Gray J, Transaction concept, VLDB '81"],
        (),
        None,
        '### TASK: duplicate_check\n'
        '### DATA:\n'
        '[0] J. Gray. Transactions. VLDB 1981.\n'
        "[1] Gray J, Transaction concept, VLDB '81\n"
        '### INSTRUCTIONS:\n'
        'Are Citation A and Citation B the same? Citation A is the first item, Citation B is the second item. Start your response with Yes or No.',
        id='duplicate_check',
    ),
    pytest.param(
        GROUP_RECORDS,
        ['J. Gray. Transactions.', 'Gray J, Transactions', 'E. Codd. Relations.'],
        (),
        None,
        '### TASK: group_records\n'
        '### DATA:\n'
        '[0] J. Gray. Transactions.\n'
        '[1] Gray J, Transactions\n'
        '[2] E. Codd. Relations.\n'
        '### INSTRUCTIONS:\n'
        "Group the records above into sets of duplicates. Return one group per line as comma-separated item indices, e.g. '0, 3' for a group of two.",
        id='group_records',
    ),
    pytest.param(
        IMPUTE,
        ['name: Cafe Ole; phone: 512-555-0142'],
        ('city',),
        None,
        '### TASK: impute\n'
        '### ATTRIBUTE: city\n'
        '### DATA:\n'
        '[0] name: Cafe Ole; phone: 512-555-0142\n'
        '### INSTRUCTIONS:\n'
        "Predict the value of the missing attribute 'city' for the record above. Answer with just the value.",
        id='impute',
    ),
    pytest.param(
        IMPUTE,
        ['name: Cafe Ole; phone: 512-555-0142'],
        ('city',),
        EXAMPLES,
        '### TASK: impute\n'
        '### ATTRIBUTE: city\n'
        '### EXAMPLES:\n'
        'Input: name: Cafe Rio; phone: 512-555-0101\n'
        'Output: Austin\n'
        'Input: name: Blue Door; phone: 206-555-0199\n'
        'Output: Seattle\n'
        '### DATA:\n'
        '[0] name: Cafe Ole; phone: 512-555-0142\n'
        '### INSTRUCTIONS:\n'
        "Predict the value of the missing attribute 'city' for the record above. Answer with just the value.",
        id='impute_examples',
    ),
    pytest.param(
        CATEGORIZE,
        ['cheddar'],
        (('fruit', 'dairy', 'C++'),),
        None,
        '### TASK: categorize\n'
        '### CATEGORIES: fruit; dairy; C++\n'
        '### DATA:\n'
        '[0] cheddar\n'
        '### INSTRUCTIONS:\n'
        'Assign the item above to exactly one of these categories: fruit, dairy, C++. Answer with the category name only.',
        id='categorize',
    ),
    pytest.param(
        PREDICATE_CHECK,
        ['a bright {sunny} flat'],
        ("is a 'quiet' {studio}",),
        None,
        '### TASK: predicate_check\n'
        "### PREDICATE: is a 'quiet' {studio}\n"
        '### DATA:\n'
        '[0] a bright {sunny} flat\n'
        '### INSTRUCTIONS:\n'
        "Does the item above satisfy the condition 'is a 'quiet' {studio}'? Start your response with Yes or No.",
        id='predicate_check',
    ),
    pytest.param(
        PREDICATE_CHECK,
        [''],
        ('is positive',),
        None,
        '### TASK: predicate_check\n'
        '### PREDICATE: is positive\n'
        '### DATA:\n'
        '[0] \n'
        '### INSTRUCTIONS:\n'
        "Does the item above satisfy the condition 'is positive'? Start your response with Yes or No.",
        id='predicate_check_scaffold',
    ),
]


def _render(template, items, fields, examples):
    """The prompt ``template`` renders, with impute's in-context examples."""
    return template.render(items, fields, examples)


class TestCanonicalPrompts:
    @pytest.mark.parametrize(("template", "items", "fields", "examples", "expected"), GOLDEN)
    def test_every_template_renders_its_recorded_text(
        self, template, items, fields, examples, expected
    ):
        assert _render(template, items, fields, examples) == expected

    @pytest.mark.parametrize(("template", "items", "fields", "examples", "expected"), GOLDEN)
    def test_every_rendered_prompt_parses_back(self, template, items, fields, examples, expected):
        parsed = parse_structured_prompt(_render(template, items, fields, examples))
        assert parsed.items == list(items)
        assert parsed.has_examples is (examples is not None)

    def test_rating_prompt_carries_scale(self):
        parsed = parse_structured_prompt(RATING.render(["item"], ("size",)))
        assert parsed.fields["scale"] == "1-7"

    def test_impute_prompt_with_examples(self):
        examples = [{"input": "name is Y", "output": "Austin"}]
        prompt = IMPUTE.render(["name is X"], ("city",), examples)
        parsed = parse_structured_prompt(prompt)
        assert parsed.has_examples is True
        assert parsed.fields["attribute"] == "city"


class TestTemplateReaders:
    """Each template reads the reply its instructions ask for."""

    @pytest.mark.parametrize(
        ("template", "reply", "items", "fields", "answer"),
        [
            (SORT_LIST, "Sure:\n1. b\n2. a", ["a", "b"], ("size",), ["b", "a"]),
            (PAIRWISE_COMPARISON, "B. The second item.", ["a", "b"], ("size",), "B"),
            (RATING, "9", ["a"], ("size",), 7),
            (RATING, "0", ["a"], ("size",), 1),
            (RATING_BATCH, "1. 9\n2. 3\n3. 0", ["a", "b", "c"], ("size",), [7, 3, 1]),
            (DUPLICATE_CHECK, "No, they differ.", ["a", "b"], (), False),
            (GROUP_RECORDS, "0, 2\n1", ["a", "b", "c"], (), [[0, 2], [1]]),
            (IMPUTE, 'Answer: "Austin"', ["name is X"], ("city",), "Austin"),
            (CATEGORIZE, "It is C++.", ["x"], (("C", "C++"),), "C++"),
            (PREDICATE_CHECK, "Yes, it does.", ["x"], ("is big",), True),
        ],
    )
    def test_read(self, template, reply, items, fields, answer):
        assert template.read(reply, items, fields) == answer

    def test_an_unreadable_reply_raises(self):
        with pytest.raises(ResponseParseError):
            PAIRWISE_COMPARISON.read("neither", ["a", "b"], ("size",))

    def test_a_render_never_reuses_the_frame_of_other_fields(self):
        first = PREDICATE_CHECK.render(["x"], ("is big",))
        assert PREDICATE_CHECK.render(["x"], ("is big",)) == first
        assert PREDICATE_CHECK.render(["x"], ("is small",)) != first
