"""Tests for answer extraction from free-text responses."""

from __future__ import annotations

import pytest

from repro.exceptions import ResponseParseError, SpecError
from repro.llm.parsing import (
    extract_choice,
    extract_groups,
    extract_integer,
    extract_list,
    extract_ratings,
    extract_value,
    extract_yes_no,
)


class TestExtractYesNo:
    def test_plain_yes(self):
        assert extract_yes_no("Yes, they are the same.") is True

    def test_plain_no(self):
        assert extract_yes_no("No, these differ.") is False

    def test_first_occurrence_wins(self):
        # The chain-of-thought trap from the paper: starts No, ends Yes.
        assert extract_yes_no("No... although on reflection, yes they match.") is False

    def test_case_insensitive(self):
        assert extract_yes_no("YES definitely") is True

    def test_no_answer_raises(self):
        with pytest.raises(ResponseParseError):
            extract_yes_no("I cannot tell.")

    def test_word_boundaries_respected(self):
        # "Nothing" contains "no" but not as a standalone word... actually
        # "no" in "nothing" is not a word boundary match, so this must raise.
        with pytest.raises(ResponseParseError):
            extract_yes_no("Nothing conclusive here")


class TestExtractChoice:
    def test_choice_a(self):
        assert extract_choice("A. The first item is more chocolatey", ["A", "B"]) == "A"

    def test_choice_b_with_preamble(self):
        assert extract_choice("I would say B is ranked higher", ["A", "B"]) == "B"

    def test_missing_choice_raises(self):
        with pytest.raises(ResponseParseError):
            extract_choice("neither seems right", ["A", "B"])

    def test_empty_options_raise(self):
        with pytest.raises(SpecError):
            extract_choice("anything", [])

    @pytest.mark.parametrize(
        ("text", "options", "expected"),
        [
            ("C++", ["C++", "Java"], "C++"),
            ("I would file it under C#.", ["C#", "Java"], "C#"),
            ("Category: (none)", ["tools", "(none)"], "(none)"),
            # At one position the longer option wins, whatever the order.
            ("C++ is the answer", ["C", "C++"], "C++"),
            ("C, not Java", ["C++", "C"], "C"),
        ],
    )
    def test_options_with_a_punctuated_edge_match(self, text, options, expected):
        assert extract_choice(text, options) == expected

    def test_a_word_option_still_needs_its_own_word(self):
        ledger = ["office", "studio", "travel"]
        assert extract_choice("a studious office worker", ledger) == "office"


class TestExtractInteger:
    def test_simple_integer(self):
        assert extract_integer("5") == 5

    def test_integer_with_text(self):
        assert extract_integer("I would rate this a 6 out of 7") == 6

    def test_clamped_to_range(self):
        assert extract_integer("42", minimum=1, maximum=7) == 7
        assert extract_integer("-3", minimum=1, maximum=7) == 1

    def test_missing_integer_raises(self):
        with pytest.raises(ResponseParseError):
            extract_integer("no number here")


class TestExtractRatings:
    def test_one_rating_per_line(self):
        assert extract_ratings("1. 5\n2. 3\n3. 7", expected=3) == [5, 3, 7]

    def test_bare_ratings(self):
        assert extract_ratings("4 6", expected=2) == [4, 6]

    def test_a_preamble_number_is_not_a_rating(self):
        text = "Ratings for the 3 items:\n1. 5\n2. 4\n3. 6"
        assert extract_ratings(text, expected=3) == [5, 4, 6]

    def test_unnumbered_index_rating_pairs_still_read(self):
        assert extract_ratings("1 5 2 4", expected=2) == [5, 4]

    def test_too_few_ratings_raises(self):
        with pytest.raises(ResponseParseError):
            extract_ratings("only 1", expected=3)


class TestExtractList:
    def test_numbered_list(self):
        text = "Here is the sorted list:\n1. alpha\n2. beta\n3. gamma"
        assert extract_list(text) == ["alpha", "beta", "gamma"]

    def test_bulleted_list(self):
        assert extract_list("- one\n- two") == ["one", "two"]

    def test_parenthesis_numbering(self):
        assert extract_list("1) first\n2) second") == ["first", "second"]

    def test_preamble_lines_skipped(self):
        text = "Sure! Sorted by size:\n1. big\n2. small\nHope that helps."
        assert extract_list(text) == ["big", "small"]

    def test_no_items_raises(self):
        with pytest.raises(ResponseParseError):
            extract_list("I refuse to provide a list.")


class TestExtractGroups:
    def test_groups_per_line(self):
        assert extract_groups("0, 3\n1\n2, 4, 5") == [[0, 3], [1], [2, 4, 5]]

    def test_no_groups_raises(self):
        with pytest.raises(ResponseParseError):
            extract_groups("no indices at all")


class TestExtractValue:
    def test_last_line_wins(self):
        assert extract_value("Let me think.\nThe answer is clear.\nSan Francisco") == "San Francisco"

    def test_answer_prefix_stripped(self):
        assert extract_value("Answer: TomTom") == "TomTom"

    def test_quotes_stripped(self):
        assert extract_value('"Elgato"') == "Elgato"

    def test_empty_raises(self):
        with pytest.raises(ResponseParseError):
            extract_value("   \n  ")
