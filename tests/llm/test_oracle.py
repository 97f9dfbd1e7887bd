"""Tests for the ground-truth oracle."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.llm.oracle import Oracle, prefix_margin


class TestPrefixMargin:
    def test_identical_strings_have_zero_margin(self):
        assert prefix_margin("apple", "Apple") == 0.0

    def test_different_first_letter_is_easy(self):
        assert prefix_margin("apple", "zebra") > 0.8

    def test_long_shared_prefix_is_hard(self):
        assert prefix_margin("abandonment", "abandonments") < 0.2

    def test_empty_string_is_easy(self):
        assert prefix_margin("", "anything") == 1.0

    def test_margin_has_floor(self):
        assert prefix_margin("aaaa", "aaab") >= 0.05


class TestScoreCriteria:
    def test_register_and_score(self):
        oracle = Oracle()
        oracle.register_scores("size", {"ant": 1.0, "elephant": 10.0})
        assert oracle.score("elephant", "size") == 10.0
        assert oracle.has_scores("size")
        assert oracle.true_order(["elephant", "ant"], "size") == ["elephant", "ant"]

    def test_empty_scores_rejected(self):
        with pytest.raises(ConfigurationError):
            Oracle().register_scores("size", {})

    def test_compare_follows_scores(self):
        oracle = Oracle()
        oracle.register_scores("size", {"ant": 1.0, "elephant": 10.0, "cat": 1.0})
        assert oracle.compare("elephant", "ant", "size") == 1
        assert oracle.compare("ant", "elephant", "size") == -1
        assert oracle.compare("ant", "cat", "size") == 0

    def test_margin_normalised_to_unit_interval(self):
        oracle = Oracle()
        oracle.register_scores("size", {"a": 0.0, "b": 5.0, "c": 10.0})
        assert oracle.margin("a", "c", "size") == pytest.approx(1.0)
        assert oracle.margin("a", "b", "size") == pytest.approx(0.5)

    def test_normalized_score(self):
        oracle = Oracle()
        oracle.register_scores("size", {"a": 0.0, "b": 10.0})
        assert oracle.normalized_score("a", "size") == 0.0
        assert oracle.normalized_score("b", "size") == 1.0

    def test_true_order_descending_scores(self):
        oracle = Oracle()
        oracle.register_scores("size", {"a": 1.0, "b": 3.0, "c": 2.0})
        assert oracle.true_order(["a", "b", "c"], "size") == ["b", "c", "a"]

    def test_unknown_criterion_raises(self):
        with pytest.raises(KeyError):
            Oracle().compare("a", "b", "nope")


class TestKeyCriteria:
    def test_key_based_compare(self):
        oracle = Oracle()
        oracle.register_key("alpha", lambda word: word.lower())
        assert oracle.compare("apple", "zebra", "alpha") == 1
        assert oracle.compare("zebra", "apple", "alpha") == -1

    def test_reverse_key(self):
        oracle = Oracle()
        oracle.register_key("reverse-alpha", lambda word: word.lower(), reverse=True)
        assert oracle.compare("apple", "zebra", "reverse-alpha") == -1

    def test_key_based_score_raises(self):
        oracle = Oracle()
        oracle.register_key("alpha", lambda word: word.lower())
        with pytest.raises(KeyError):
            oracle.score("apple", "alpha")

    def test_true_order_with_key(self):
        oracle = Oracle()
        oracle.register_key("alpha", lambda word: word.lower())
        assert oracle.true_order(["cherry", "Apple", "banana"], "alpha") == [
            "Apple",
            "banana",
            "cherry",
        ]

    def test_margin_defaults_to_prefix_margin(self):
        oracle = Oracle()
        oracle.register_key("alpha", lambda word: word.lower())
        assert oracle.margin("aardvark", "aardwolf", "alpha") < oracle.margin(
            "aardvark", "zebra", "alpha"
        )


class TestEntitiesValuesPredicates:
    def test_entities(self):
        oracle = Oracle()
        oracle.register_entities({"rec a": "e1", "rec b": "e1", "rec c": "e2"})
        assert oracle.same_entity("rec a", "rec b") is True
        assert oracle.same_entity("rec a", "rec c") is False
        assert oracle.entity_id("rec a") == "e1"
        with pytest.raises(KeyError):
            oracle.entity_id("rec z")

    def test_values(self):
        oracle = Oracle()
        oracle.register_value("name is X", "city", "Austin")
        assert oracle.true_value("name is X", "city") == "Austin"
        with pytest.raises(KeyError):
            oracle.true_value("name is X", "state")

    def test_predicates(self):
        oracle = Oracle()
        oracle.register_predicate("is long", lambda item: len(item) > 5)
        assert oracle.satisfies("elephant", "is long") is True
        assert oracle.satisfies("ant", "is long") is False
        with pytest.raises(KeyError):
            oracle.satisfies("elephant", "other")
