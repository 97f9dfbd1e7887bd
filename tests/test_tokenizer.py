"""Tests for the tokenizer and the pricing / usage accounting layer."""

from __future__ import annotations

import itertools
import os
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.declarations import DECLARATIONS, declaration_for
from repro.core.spec import (
    CategorizeSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    ResolveSpec,
    SortSpec,
)
from repro.exceptions import ConfigurationError, UnknownModelError
from repro.llm import prompts
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.tokenizer import simple
from repro.tokenizer.cost import CostModel, CostSummary, PriceTable, Usage, to_dollars, to_nanos
from repro.tokenizer.simple import SimpleTokenizer

_PIECE_RE = re.compile(r"\w+|[^\w\s]")

#: Pinned by CI's ``batch-layer`` job so the memo hammer runs the same everywhere.
THREADS = int(os.environ.get("REPRO_TEST_THREADS", "8"))


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

    def test_unicode_text_tokenizes(self):
        assert SimpleTokenizer().count("café résumé") >= 2

    @pytest.mark.parametrize("chunk_size", [0, -3, 2.5, "4", None])
    def test_invalid_chunk_size_rejected_at_construction(self, chunk_size):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            SimpleTokenizer(chunk_size=chunk_size)

    def test_long_texts_are_not_memoized(self):
        tokenizer = SimpleTokenizer()
        long_texts = [f"prompt {i} " + "word " * 60 for i in range(500)]
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

    def test_the_entry_bound_holds_across_instances(self, monkeypatch):
        monkeypatch.setattr(simple, "_MEMO_MAX_ENTRIES", 3)
        first, second = SimpleTokenizer(), SimpleTokenizer()
        memo = simple._MEMOS[first.chunk_size]
        texts = [f"{side} {index}" for index in range(4) for side in ("left", "right")]
        before = []
        for text, tokenizer in zip(texts, itertools.cycle((first, second))):
            before.append(tokenizer.count(text))
            assert len(memo) <= 3
            # A full memo starts over: a text met after the bound is kept too.
            assert memo[text] == before[-1]
        assert before == [2, 3] * 4  # "left", "0" / "righ", "t", "0"
        # Eight texts through a memo of three: it was emptied on the way, and
        # what it forgot is counted as it was before.
        assert sorted(memo) == ["left 3", "right 3"]
        assert [second.count(text) for text in texts] == before
        assert len(memo) <= 3

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


# Every character ``\\s`` matches besides the newline the rule splits on.
_SPACES = " \t\r\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u2029"
_short_line = st.text(alphabet=st.sampled_from("ab_09é\u4e2d,.!-'" + _SPACES), max_size=24)
_line = st.one_of(
    _short_line,
    st.just(""),
    # The same kind of line, repeated until it is over the memo's cap.
    _short_line.filter(len).map(lambda piece: piece * (simple._MEMO_MAX_CHARS // len(piece) + 1)),
)


@st.composite
def _multi_line_text(draw) -> str:
    lines = draw(st.lists(_line, max_size=12))
    text = "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)
    return text if draw(st.booleans()) else text.removesuffix("\n")


#: Two short items and one whose ``[n] <item>`` line is over the memo's cap.
_ITEMS = ["espresso machine", "garden hose", "a " + "very " * 70 + "long listing"]
_PREDICATES = ["is an appliance", "fits in a car"]
_CATEGORIES = ["kitchen", "garden"]
_RECORD = "name: Chez Nous; city: ?"


def _small_specs(data) -> list:
    """One spec per declaration that declares prompts (top_k and cluster declare none)."""
    return [
        SortSpec(items=_ITEMS, criterion="size"),
        ResolveSpec(records=_ITEMS),
        ResolveSpec(pairs=[(_ITEMS[0], _ITEMS[1]), (_ITEMS[1], _ITEMS[2])]),
        ImputeSpec(data=data, n_examples=0),
        FilterSpec(items=_ITEMS, predicates=_PREDICATES),
        CategorizeSpec(items=_ITEMS, categories=_CATEGORIES),
        JoinSpec(left=_ITEMS[:2], right=_ITEMS[1:]),
    ]


def _rendered_prompts(data) -> list[str]:
    """Every template once, and every declared prompt of a small spec."""
    rendered = [
        prompts.SORT_LIST.render(_ITEMS, ("size",)),
        prompts.PAIRWISE_COMPARISON.render([_ITEMS[0], _ITEMS[1]], ("size",)),
        prompts.RATING.render([_ITEMS[0]], ("size",)),
        prompts.RATING_BATCH.render(_ITEMS, ("size",)),
        prompts.DUPLICATE_CHECK.render([_ITEMS[0], _ITEMS[2]]),
        prompts.GROUP_RECORDS.render(_ITEMS),
        prompts.IMPUTE.render([_RECORD], ("city",)),
        prompts.IMPUTE.render([_RECORD], ("city",), [{"input": "name: Al", "output": "Rome"}]),
        prompts.CATEGORIZE.render([_ITEMS[1]], (tuple(_CATEGORIES),)),
        prompts.predicate_check_prompt(_ITEMS[0], _PREDICATES[0]),
        prompts.build_structured_prompt("free_form", instructions="Line one.\r\n\nLine three.\n"),
    ]
    declared = set()
    for spec in _small_specs(data):
        declaration = declaration_for(spec).for_spec(spec)
        declared.add(type(declaration))
        for render in declaration.prompts.values():
            rendered.extend(render(spec))
    # No declaration's prompts go unrendered (resolve has one per mode).
    assert declared >= {type(d) for d in DECLARATIONS.values() if d.prompts}
    return rendered


def _oracle(data) -> Oracle:
    """Ground truth for everything ``_rendered_prompts`` asks about."""
    oracle = data.oracle()
    oracle.register_key("size", len)
    oracle.register_entities({item: item for item in _ITEMS})
    oracle.register_value(_RECORD, "city", "Paris")
    oracle.register_categories({item: _CATEGORIES[0] for item in _ITEMS})
    for predicate in _PREDICATES:
        oracle.register_predicate(predicate, lambda item: "machine" in item)
    return oracle


class _CountingTokenizer(SimpleTokenizer):
    """Counts entries into the public ``count`` and characters handed to the regex."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.entered, self.scanned = 0, []
        findall = self._findall
        self._findall = lambda text: self.scanned.append(text) or findall(text)

    def count(self, text: str) -> int:
        self.entered += 1
        return super().count(text)


class TestCountIsTheSumOverLines:
    @given(text=_multi_line_text(), chunk_size=_chunk_size)
    @settings(max_examples=300)
    def test_any_mix_of_lines_counts_as_the_whole_text(self, text, chunk_size):
        tokenizer = SimpleTokenizer(chunk_size=chunk_size)
        tokenizer._cache.clear()
        expected = len(tokenizer.tokenize(text))
        assert tokenizer.count(text) == expected  # cold
        assert tokenizer.count(text) == expected  # its lines memoized
        assert not any("\n" in key or len(key) > simple._MEMO_MAX_CHARS for key in tokenizer._cache)

    def test_every_prompt_the_repo_renders_counts_as_the_whole_text(self, restaurant_data):
        tokenizer = SimpleTokenizer()
        llm = SimulatedLLM(_oracle(restaurant_data))
        rendered = _rendered_prompts(restaurant_data)
        assert len(rendered) > 30 and all("\n" in prompt for prompt in rendered)
        for prompt in rendered:
            expected = len(tokenizer.tokenize(prompt))
            assert tokenizer.count(prompt) == expected
            assert llm.complete(prompt).usage.prompt_tokens == expected

    @pytest.mark.parametrize(
        "render, own_lines",
        [
            (lambda i: prompts.predicate_check_prompt(f"listing {i}", "is an appliance"), 1),
            # Its instruction line (136 characters) is why the cap is sized for lines.
            (lambda i: prompts.DUPLICATE_CHECK.render([f"record {i}", f"entry {i}"]), 2),
        ],
        ids=["predicate_check", "duplicate_check"],
    )
    def test_a_second_prompt_of_a_template_scans_only_its_own_lines(self, render, own_lines):
        tokenizer, tokenize = _CountingTokenizer(), SimpleTokenizer().tokenize
        first, second = render(1), render(2)
        assert tokenizer.count(first) == len(tokenize(first))
        assert tokenizer.scanned == first.split("\n")
        tokenizer.scanned.clear()
        assert tokenizer.count(second) == len(tokenize(second))
        own = [line for line in second.split("\n") if line not in first.split("\n")]
        assert tokenizer.scanned == own and len(own) == own_lines
        # One entry into the public ``count`` per text: the lines are counted
        # below it, so a wrapper around ``count`` sees the counts asked for.
        assert tokenizer.entered == 2

    def test_the_memo_holds_lines_not_prompts(self):
        tokenizer = SimpleTokenizer()
        for index in range(1000):
            items = [f"listing {index}-{n}" for n in range(4)] + [f"{index} " + "long " * 60]
            prompt = prompts.SORT_LIST.render(items, ("size",))
            assert prompt.count("\n") == 9
            tokenizer.count(prompt)
        memo = simple._MEMOS[tokenizer.chunk_size]
        # Five template lines, four short item lines per prompt; no long line.
        assert len(memo) == 5 + 4 * 1000 <= simple._MEMO_MAX_ENTRIES
        assert not any("\n" in key or len(key) > simple._MEMO_MAX_CHARS for key in memo)

    def test_threads_read_the_same_counts_while_the_memo_keeps_clearing(self, monkeypatch):
        texts = [
            prompts.predicate_check_prompt(f"listing {index}", "is an appliance")
            for index in range(200)
        ]
        reference = [len(SimpleTokenizer().tokenize(text)) for text in texts]
        monkeypatch.setattr(simple, "_MEMO_MAX_ENTRIES", 16)
        results: dict[int, list[int]] = {}

        def work(slot: int) -> None:
            tokenizer = SimpleTokenizer()
            for _ in range(5):
                results[slot] = [tokenizer.count(text) for text in texts]
                if results[slot] != reference:
                    return

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[slot] for slot in range(THREADS)] == [reference] * THREADS
        # Racing threads may each slip one entry past the check, no more.
        assert len(simple._MEMOS[SimpleTokenizer().chunk_size]) < 16 + THREADS


class _Label(str):
    """A ``str`` subclass item: counted as its text."""


_countable = st.one_of(
    _multi_line_text(),
    _line,
    st.builds(_Label, _short_line),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False),
    st.none(),
)


class TestCountsIsCountOverEachText:
    @given(
        texts=st.lists(_countable, max_size=20),
        warm=st.lists(st.booleans(), max_size=20),
        chunk_size=_chunk_size,
    )
    @settings(max_examples=300)
    def test_counts_equal_count_over_each_text(self, texts, warm, chunk_size):
        tokenizer = SimpleTokenizer(chunk_size=chunk_size)
        tokenizer._cache.clear()
        for text, seen in zip(texts, warm):  # some texts met before, some not
            if seen:
                tokenizer.count(str(text))
        expected = [len(tokenizer.tokenize(str(text))) for text in texts]
        assert tokenizer.counts(texts) == expected
        assert tokenizer.counts(iter(texts)) == expected  # any iterable, memoized now
        assert [tokenizer.count(str(text)) for text in texts] == expected

    def test_a_memo_emptied_mid_call_keeps_the_counts(self, monkeypatch):
        monkeypatch.setattr(simple, "_MEMO_MAX_ENTRIES", 3)
        tokenizer = SimpleTokenizer()
        memo = simple._MEMOS[tokenizer.chunk_size]
        seen = ["left one", "right two"]
        for text in seen:
            tokenizer.count(text)
        fresh = [f"new item number {index}" for index in range(5)]
        texts = [seen[0], *fresh, seen[1], seen[0]]
        expected = [len(tokenizer.tokenize(text)) for text in texts]
        assert tokenizer.counts(texts) == expected
        # The fallbacks filled the memo past its bound and emptied it on the way.
        assert seen[0] not in memo and len(memo) <= 3

    def test_one_pass_over_known_texts_enters_count_for_none(self):
        tokenizer = _CountingTokenizer()
        texts = ["espresso machine", "garden hose"]
        first = tokenizer.counts(texts)
        assert tokenizer.entered == 2
        assert tokenizer.counts(texts) == first == [4, 3]
        assert tokenizer.entered == 2  # all memoized: the pass never called count
        # A value that is not a ``str`` is counted as its text, through count.
        assert tokenizer.counts([42, ["a", "b"]]) == [1, 9]
        assert tokenizer.entered == 4


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
        assert table.cost(Usage(1_000_000, 0, 1)) == to_nanos(1.0)
        assert table.cost(Usage(0, 1_000_000, 1)) == to_nanos(2.0)
        assert table.cost(Usage(500_000, 500_000, 1)) == to_nanos(1.5)

    def test_prices_are_whole_nano_dollars_per_token(self):
        table = PriceTable(0.15, 0.001)
        assert (table.prompt_nanos, table.completion_nanos) == (150, 1)
        # 7 tokens at 0.2 $/M: 7 * 0.2 / 1e6 is 1.4000000000000001e-06 in floats.
        assert to_dollars(PriceTable(0.2, 0).cost(Usage(7, 0, 1))) == 1.4e-06

    def test_negative_prices_rejected(self):
        with pytest.raises(ConfigurationError):
            PriceTable(-1.0, 0.0)

    def test_a_price_finer_than_one_nano_dollar_a_token_is_rejected(self):
        with pytest.raises(ConfigurationError):
            PriceTable(0.0005, 0.0)


class TestMoneyConversions:
    def test_round_trip_is_exact(self):
        for nanos in (0, 1, 70_776_000, 56_199_000, 123_456_789_012):
            assert to_nanos(to_dollars(nanos)) == nanos
        assert to_dollars(70_776_000) == 0.070776

    def test_an_amount_without_a_whole_nano_dollar_count_is_rejected(self):
        for dollars in (float("inf"), float("-inf"), float("nan"), 1e300):
            with pytest.raises(ConfigurationError):
                to_nanos(dollars)
        assert to_nanos(1e299) == round(1e299 * 1e9)


class TestCostModel:
    def test_register_and_cost(self):
        model = CostModel()
        model.register("m", PriceTable(2.0, 4.0))
        assert model.has_model("m")
        assert model.cost("m", Usage(1_000_000, 1_000_000, 2)) == to_nanos(6.0)

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
        assert summary.total_dollars == 2.0

    def test_total_dollars_is_added_in_whole_nano_dollars(self):
        # 0.1 + 0.2 is 0.30000000000000004 in floats.
        summary = CostSummary(dollars_by_model={"a": 0.1, "b": 0.2})
        assert summary.total_dollars == 0.3
