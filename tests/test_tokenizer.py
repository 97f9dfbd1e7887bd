"""Tests for the tokenizer and the pricing / usage accounting layer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, UnknownModelError
from repro.tokenizer import simple
from repro.tokenizer.cost import CostModel, CostSummary, PriceTable, Usage
from repro.tokenizer.simple import SimpleTokenizer, count_tokens

_PIECE_RE = re.compile(r"\w+|[^\w\s]")


def reference_tokenize(text: str, chunk_size: int) -> list[str]:
    """The original piecewise algorithm, kept as the oracle for the one-regex
    tokenizer: maximal word runs cut left to right into ``chunk_size`` chunks,
    every other non-space character its own token."""
    tokens: list[str] = []
    for piece in _PIECE_RE.findall(text):
        if len(piece) <= chunk_size:
            tokens.append(piece)
        else:
            tokens.extend(
                piece[i : i + chunk_size] for i in range(0, len(piece), chunk_size)
            )
    return tokens


# Full Unicode, weighted towards the classes the rule distinguishes: word
# characters of several scripts, ``_``, digits, combining marks, punctuation
# and every kind of whitespace.
_text = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from("ab_09é\u0301\u4e2d\u6587\u0663 \t\n\r\u00a0\u2003,.!-'\"$"),
    ),
    max_size=80,
)
_chunk_size = st.integers(1, 8)


@pytest.fixture(autouse=True)
def empty_token_memo():
    """The token memo belongs to the process: empty around every test here, so
    none depends on what ran before it and a poisoned entry never leaves."""

    def clear() -> None:
        for memo in simple._MEMOS.values():
            memo.clear()

    clear()
    yield
    clear()


class TestSimpleTokenizer:
    def test_empty_string_has_zero_tokens(self):
        assert SimpleTokenizer().count("") == 0

    def test_single_short_word_is_one_token(self):
        assert SimpleTokenizer().count("cat") == 1

    def test_long_word_is_chunked(self):
        # 12 characters at 4 characters per chunk -> 3 tokens.
        assert SimpleTokenizer().count("abcdefghijkl") == 3

    def test_punctuation_counts_as_tokens(self):
        tokens = SimpleTokenizer().tokenize("hello, world!")
        assert "," in tokens
        assert "!" in tokens

    def test_count_is_monotone_in_text_length(self):
        tokenizer = SimpleTokenizer()
        short = tokenizer.count("alpha beta")
        long = tokenizer.count("alpha beta gamma delta epsilon")
        assert long > short

    def test_count_is_deterministic(self):
        tokenizer = SimpleTokenizer()
        text = "the quick brown fox jumps over the lazy dog"
        assert tokenizer.count(text) == tokenizer.count(text)

    def test_memoization_returns_same_result(self):
        tokenizer = SimpleTokenizer()
        first = tokenizer.count("memoized text")
        second = tokenizer.count("memoized text")
        assert first == second

    def test_module_level_count_tokens(self):
        # Three words of at most four characters each -> exactly three tokens.
        assert count_tokens("one two six") == 3

    def test_unicode_text_tokenizes(self):
        assert SimpleTokenizer().count("café résumé") >= 2

    @pytest.mark.parametrize("chunk_size", [0, -3, 2.5, "4", None])
    def test_invalid_chunk_size_rejected_at_construction(self, chunk_size):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            SimpleTokenizer(chunk_size=chunk_size)

    def test_long_texts_are_not_memoized(self):
        tokenizer = SimpleTokenizer()
        long_texts = [f"prompt {i} " + "word " * 40 for i in range(500)]
        assert all(len(text) > simple._MEMO_MAX_CHARS for text in long_texts)
        for text in long_texts:
            assert tokenizer.count(text) == len(tokenizer.tokenize(text))
        # In nobody's memo: not this instance's, not the process's.
        assert tokenizer._cache == {}
        assert not any(simple._MEMOS.values())

    def test_short_repeated_texts_hit_the_memo(self):
        tokenizer = SimpleTokenizer()
        # A planner item (~90 characters) must stay memoizable.
        listing = "Listing 0042: refurbished espresso machine, 15 bar pump, stainless steel, 1 year warranty"
        assert 85 <= len(listing) <= simple._MEMO_MAX_CHARS
        expected = len(tokenizer.tokenize(listing))
        assert tokenizer.count(listing) == expected
        assert simple._MEMOS[tokenizer.chunk_size] == {listing: expected}
        # A poisoned entry proves a *second* tokenizer is served the first
        # one's count: the memo is the process's, not the instance's.
        simple._MEMOS[tokenizer.chunk_size][listing] = -1
        assert SimpleTokenizer().count(listing) == -1
        assert count_tokens(listing) == -1

    def test_the_entry_bound_holds_across_instances(self, monkeypatch):
        monkeypatch.setattr(simple, "_MEMO_MAX_ENTRIES", 3)
        first, second = SimpleTokenizer(), SimpleTokenizer()
        for index in range(4):
            first.count(f"left {index}")
            second.count(f"right {index}")
        assert sorted(simple._MEMOS[first.chunk_size]) == ["left 0", "left 1", "right 0"]
        # Past the bound a text is still counted, just not kept.
        assert second.count("right 3") == 3  # "righ", "t", "3"

    def test_different_chunk_sizes_never_share(self):
        fine, coarse = SimpleTokenizer(chunk_size=2), SimpleTokenizer(chunk_size=8)
        assert (fine.count("abcdefgh"), coarse.count("abcdefgh")) == (4, 1)
        assert (fine.count("abcdefgh"), coarse.count("abcdefgh")) == (4, 1)
        assert simple._MEMOS[2] == {"abcdefgh": 4} and simple._MEMOS[8] == {"abcdefgh": 1}
        assert SimpleTokenizer().count("abcdefgh") == 2


class TestOneRegexMatchesReference:
    @given(text=_text, chunk_size=_chunk_size)
    @settings(max_examples=300)
    def test_tokens_and_count_equal_the_piecewise_reference(self, text, chunk_size):
        tokenizer = SimpleTokenizer(chunk_size=chunk_size)
        expected = reference_tokenize(text, chunk_size)
        assert tokenizer.tokenize(text) == expected
        assert tokenizer.count(text) == len(expected)
        assert tokenizer.count(text) == len(expected)  # memoized answer too

    @given(first=_text, second=_text, chunk_size=_chunk_size)
    @settings(max_examples=200)
    def test_count_is_additive_across_a_space(self, first, second, chunk_size):
        tokenizer = SimpleTokenizer(chunk_size=chunk_size)
        joined = tokenizer.count(first + " " + second)
        assert joined == tokenizer.count(first) + tokenizer.count(second)

    @given(text=_text, keep=st.integers(0, 100), chunk_size=_chunk_size)
    @settings(max_examples=200)
    def test_truncating_to_k_tokens_counts_k(self, text, keep, chunk_size):
        # The simulator truncates completions as " ".join(tokens[:k]) and
        # bills count() of the result.
        tokenizer = SimpleTokenizer(chunk_size=chunk_size)
        truncated = " ".join(tokenizer.tokenize(text)[:keep])
        assert tokenizer.count(truncated) == min(keep, tokenizer.count(text))


class TestUsage:
    def test_defaults_are_zero(self):
        usage = Usage()
        assert usage.prompt_tokens == 0
        assert usage.completion_tokens == 0
        assert usage.calls == 0
        assert usage.total_tokens == 0

    def test_add_accumulates_in_place(self):
        usage = Usage(10, 5, 1)
        usage.add(Usage(3, 2, 1))
        assert usage.prompt_tokens == 13
        assert usage.completion_tokens == 7
        assert usage.calls == 2

    def test_addition_operator_returns_new_usage(self):
        first = Usage(1, 2, 1)
        second = Usage(3, 4, 1)
        combined = first + second
        assert combined.prompt_tokens == 4
        assert combined.completion_tokens == 6
        assert first.prompt_tokens == 1  # unchanged

    def test_copy_is_independent(self):
        usage = Usage(5, 5, 1)
        duplicate = usage.copy()
        duplicate.add(Usage(1, 1, 1))
        assert usage.prompt_tokens == 5


class TestPriceTable:
    def test_cost_is_linear_in_tokens(self):
        table = PriceTable(prompt_price_per_million=1.0, completion_price_per_million=2.0)
        assert table.cost(Usage(1_000_000, 0, 1)) == pytest.approx(1.0)
        assert table.cost(Usage(0, 1_000_000, 1)) == pytest.approx(2.0)
        assert table.cost(Usage(500_000, 500_000, 1)) == pytest.approx(1.5)

    def test_negative_prices_rejected(self):
        with pytest.raises(ConfigurationError):
            PriceTable(-1.0, 0.0)


class TestCostModel:
    def test_register_and_cost(self):
        model = CostModel()
        model.register("m", PriceTable(2.0, 4.0))
        assert model.has_model("m")
        assert model.cost("m", Usage(1_000_000, 1_000_000, 2)) == pytest.approx(6.0)

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            CostModel().cost("missing", Usage(1, 1, 1))

    def test_models_sorted(self):
        model = CostModel({"b": PriceTable(1, 1), "a": PriceTable(1, 1)})
        assert model.models() == ["a", "b"]


class TestCostSummary:
    def test_totals_aggregate_models(self):
        summary = CostSummary(
            by_model={"a": Usage(10, 5, 1), "b": Usage(20, 10, 2)},
            dollars_by_model={"a": 0.5, "b": 1.5},
        )
        assert summary.total_usage.prompt_tokens == 30
        assert summary.total_usage.calls == 3
        assert summary.total_dollars == pytest.approx(2.0)
