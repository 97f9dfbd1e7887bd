"""Tests for the canonical prompts and the structured prompt round-trip."""

from __future__ import annotations

import pytest

from repro.exceptions import ResponseParseError
from repro.llm.prompts import (
    build_structured_prompt,
    categorize_prompt,
    duplicate_check_prompt,
    estimate_count_prompt,
    group_records_prompt,
    impute_prompt,
    pairwise_comparison_prompt,
    parse_structured_prompt,
    predicate_check_prompt,
    rating_batch_prompt,
    rating_prompt,
    sort_list_prompt,
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


class TestCanonicalPrompts:
    @pytest.mark.parametrize(
        ("builder", "args", "expected_task"),
        [
            (sort_list_prompt, (["a", "b"], "size"), "sort_list"),
            (pairwise_comparison_prompt, ("a", "b", "size"), "pairwise_comparison"),
            (rating_prompt, ("a", "size"), "rating"),
            (rating_batch_prompt, (["a", "b"], "size"), "rating"),
            (duplicate_check_prompt, ("cite a", "cite b"), "duplicate_check"),
            (group_records_prompt, (["r1", "r2"],), "group_records"),
            (impute_prompt, ("name is X", "city"), "impute"),
            (predicate_check_prompt, ("item", "is positive"), "predicate_check"),
            (estimate_count_prompt, (["a", "b"], "is positive"), "estimate_count"),
            (categorize_prompt, ("item", ["fruit", "dairy"]), "categorize"),
        ],
    )
    def test_builders_produce_parsable_prompts(self, builder, args, expected_task):
        parsed = parse_structured_prompt(builder(*args))
        assert parsed.task == expected_task

    def test_rating_prompt_carries_scale(self):
        parsed = parse_structured_prompt(rating_prompt("item", "size", 1, 5))
        assert parsed.fields["scale"] == "1-5"

    def test_impute_prompt_with_examples(self):
        prompt = impute_prompt("name is X", "city", [{"input": "name is Y", "output": "Austin"}])
        parsed = parse_structured_prompt(prompt)
        assert parsed.has_examples is True
        assert parsed.fields["attribute"] == "city"
