"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import contextlib
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.ranking_repair import alignment_insert_position, count_inversions
from repro.consistency.transitivity import MatchGraph
from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.executor import BatchRequest
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec, PipelineStep
from repro.core.workflow import Workflow
from repro.exceptions import BudgetExceededError
from repro.llm.base import LLMResponse, answered_prefix, sequential_complete_batch
from repro.llm.cache import CachedClient, ResponseCache, _cache_hit_copy
from repro.llm.faulty import FaultyLLM
from repro.llm.prompts import build_structured_prompt, parse_structured_prompt
from repro.metrics.classification import BinaryConfusion, confusion_from_pairs
from repro.metrics.ranking import kendall_tau_b
from repro.proxies.similarity import jaccard_similarity
from repro.quality.validation import wilson_interval
from repro.quality.voting import majority_vote
from repro.store import Store
from repro.tokenizer.cost import PriceTable, Usage, to_dollars, to_nanos
from repro.tokenizer.simple import SimpleTokenizer
from tests.doubles import EchoClient, call, executor_for

# Text strategies: printable-ish words without newlines or the prompt markers.
_word = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)
_words = st.lists(_word, min_size=2, max_size=15, unique=True)


class TestTokenizerProperties:
    @given(st.text(max_size=300))
    @settings(max_examples=60)
    def test_token_count_non_negative_and_bounded(self, text):
        count = SimpleTokenizer().count(text)
        assert count >= 0
        assert count <= max(1, len(text))

    @given(st.text(max_size=150), st.text(max_size=150))
    @settings(max_examples=60)
    def test_concatenation_is_superadditive_up_to_boundary(self, first, second):
        tokenizer = SimpleTokenizer()
        combined = tokenizer.count(first + " " + second)
        assert combined >= max(tokenizer.count(first), tokenizer.count(second))


class TestUsageAndPricingProperties:
    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        # Prices are whole n$ per token: 0.001 $/M steps up to 100 $/M.
        st.integers(0, 100_000).map(lambda nanos: nanos / 1000),
        st.integers(0, 100_000).map(lambda nanos: nanos / 1000),
    )
    @settings(max_examples=60)
    def test_cost_non_negative_and_monotone(self, prompt, completion, p_price, c_price):
        table = PriceTable(p_price, c_price)
        usage = Usage(prompt, completion, 1)
        bigger = Usage(prompt + 10, completion + 10, 1)
        assert table.cost(usage) >= 0
        assert table.cost(bigger) >= table.cost(usage)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), max_size=20))
    @settings(max_examples=40)
    def test_usage_addition_is_commutative(self, pairs):
        total_forward = Usage()
        total_backward = Usage()
        usages = [Usage(p, c, 1) for p, c in pairs]
        for usage in usages:
            total_forward.add(usage)
        for usage in reversed(usages):
            total_backward.add(usage)
        assert total_forward.prompt_tokens == total_backward.prompt_tokens
        assert total_forward.completion_tokens == total_backward.completion_tokens


class TestStructuredPromptProperties:
    @given(_words, st.dictionaries(st.sampled_from(["criterion", "scale", "predicate"]), _word, max_size=3))
    @settings(max_examples=60)
    def test_round_trip_items_and_fields(self, items, fields):
        prompt = build_structured_prompt("sort_list", fields=fields, items=items, instructions="Go.")
        parsed = parse_structured_prompt(prompt)
        assert parsed.items == items
        for key, value in fields.items():
            assert parsed.fields[key] == value


class TestRankingMetricProperties:
    @pytest.fixture(autouse=True, scope="class")
    def scipy_stats_imported(self):
        # The first ``kendall_tau_b`` of a process imports ``scipy.stats``
        # (over a second): take it here, so a deadline times the property.
        kendall_tau_b(["a", "b"], ["a", "b"])

    @given(_words)
    @settings(max_examples=60)
    def test_identity_permutation_scores_one(self, items):
        assert kendall_tau_b(items, items) == pytest.approx(1.0)

    @given(_words, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_tau_is_symmetric_under_swap_of_arguments(self, items, rng):
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert kendall_tau_b(shuffled, items) == kendall_tau_b(items, shuffled)

    @given(_words, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_tau_bounded(self, items, rng):
        shuffled = list(items)
        rng.shuffle(shuffled)
        value = kendall_tau_b(shuffled, items)
        assert -1.0 <= value <= 1.0


class TestClassificationProperties:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_confusion_counts_sum_to_total(self, pairs):
        predictions = [p for p, _ in pairs]
        labels = [l for _, l in pairs]
        confusion = confusion_from_pairs(predictions, labels)
        assert confusion.total == len(pairs)
        assert 0.0 <= confusion.precision <= 1.0
        assert 0.0 <= confusion.recall <= 1.0
        assert 0.0 <= confusion.f1 <= 1.0

    @given(st.integers(0, 200), st.integers(1, 200))
    @settings(max_examples=60)
    def test_wilson_interval_contains_proportion(self, successes, trials):
        successes = min(successes, trials)
        lower, upper = wilson_interval(successes, trials)
        assert 0.0 <= lower <= upper <= 1.0
        assert lower <= successes / trials + 1e-9
        assert upper >= successes / trials - 1e-9


class TestConsistencyProperties:
    @given(st.lists(st.tuples(_word, _word), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_transitive_closure_is_reflexively_consistent(self, edges):
        graph = MatchGraph()
        for left, right in edges:
            graph.add_match(left, right)
        closure = graph.transitive_matches()
        # Every direct edge between distinct nodes appears in the closure.
        for left, right in edges:
            if left != right:
                assert frozenset((left, right)) in closure

    @given(_words, st.data())
    @settings(max_examples=60)
    def test_alignment_insert_position_in_bounds(self, items, data):
        comparisons = {item: data.draw(st.booleans()) for item in items}
        position = alignment_insert_position(items, comparisons)
        assert 0 <= position <= len(items)

    @given(_words, st.data())
    @settings(max_examples=40)
    def test_count_inversions_bounded_by_number_of_comparisons(self, items, data):
        comparisons = {}
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                comparisons[(items[i], items[j])] = data.draw(st.booleans())
        assert 0 <= count_inversions(items, comparisons) <= len(comparisons)


class TestProxyProperties:
    @given(_word, _word)
    @settings(max_examples=60)
    def test_similarity_bounds_and_symmetry(self, first, second):
        value = jaccard_similarity(first, second)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(second, first)


class TestVotingAndBudgetProperties:
    @given(st.lists(st.sampled_from(["yes", "no", "maybe"]), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_majority_winner_has_maximal_count(self, votes):
        result = majority_vote(votes)
        assert result.counts[result.winner] == max(result.counts.values())
        assert 0.0 < result.support <= 1.0

    @given(st.lists(st.floats(0, 0.1, allow_nan=False), max_size=20))
    @settings(max_examples=60)
    def test_budget_spent_equals_sum_of_charges(self, charges):
        budget = Budget(limit=None)
        for charge in charges:
            budget.charge(charge)
        # Each charge is counted as its nearest whole n$, and their sum is exact.
        assert budget.spent == to_dollars(sum(map(to_nanos, charges)))


class _CountingEchoClient:
    """Deterministic echo client that counts how many calls actually go out."""

    default_model = "echo"
    waits = False

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        self.calls += 1
        return LLMResponse(
            text=f"echo:{prompt}", model=model or self.default_model, usage=Usage(1, 1, 1)
        )


class TestCachedBatchProperties:
    """Properties of CachedClient.complete_batch on random prompt lists."""

    @given(st.lists(_word, min_size=1, max_size=12), st.data())
    @settings(max_examples=60)
    def test_same_responses_and_strictly_fewer_inner_calls(self, prompts, data):
        # Force at least one duplicate so "strictly fewer" is well-defined.
        prompts = prompts + [data.draw(st.sampled_from(prompts))]
        uncached = _CountingEchoClient()
        inner = _CountingEchoClient()
        cached = CachedClient(inner)
        plain_responses = sequential_complete_batch(uncached, prompts)
        cached_responses = cached.complete_batch(prompts)
        assert [r.text for r in cached_responses] == [r.text for r in plain_responses]
        assert inner.calls < uncached.calls
        assert uncached.calls == len(prompts)

    @given(st.lists(_word, min_size=1, max_size=12), st.data())
    @settings(max_examples=60)
    def test_duplicates_within_one_batch_share_a_single_inner_call(self, prompts, data):
        prompts = prompts + [data.draw(st.sampled_from(prompts))]
        inner = _CountingEchoClient()
        CachedClient(inner).complete_batch(prompts)
        assert inner.calls == len(set(prompts))

    @given(st.lists(_word, min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_batch_equals_sequential_loop_through_the_cache(self, prompts):
        batch_client = CachedClient(_CountingEchoClient())
        loop_client = CachedClient(_CountingEchoClient())
        batch = batch_client.complete_batch(prompts)
        loop = sequential_complete_batch(loop_client, prompts)
        assert [r.text for r in batch] == [r.text for r in loop]
        assert [r.usage for r in batch] == [r.usage for r in loop]
        assert [r.metadata.get("cache_hit") for r in batch] == [
            r.metadata.get("cache_hit") for r in loop
        ]
        assert batch_client.cache.stats.hits == loop_client.cache.stats.hits
        assert batch_client.cache.stats.misses == loop_client.cache.stats.misses


def _per_prompt_batch(cache, inner, model, prompts):
    """A cached batch as the per-prompt path serves it: one ``get`` per prompt
    (a duplicate of an in-batch miss waits), one inner batch for the misses,
    their ``put``s, then one ``get`` per duplicate.  Returns the responses (on
    a failure, the answered prefix) and whether the inner batch raised."""
    results = [None] * len(prompts)
    pending_indices, pending_prompts = [], []
    for index, prompt in enumerate(prompts):
        if prompt in pending_prompts:
            continue
        cached = cache.get(model, prompt)
        if cached is not None:
            results[index] = _cache_hit_copy(cached)
        else:
            pending_indices.append(index)
            pending_prompts.append(prompt)
    failed = False
    try:
        answered = sequential_complete_batch(inner, pending_prompts)
        end = len(prompts)
    except ValueError as exc:
        answered, failed = answered_prefix(exc, pending_prompts), True
        end = pending_indices[len(answered)]
    for index, prompt, response in zip(pending_indices, pending_prompts, answered):
        cache.put(model, prompt, response)
        results[index] = response
    for index in range(end):
        if results[index] is None:
            results[index] = _cache_hit_copy(cache.get(model, prompts[index]))
    return results[:end], failed


def _cache_state(cache, store):
    """What a later call could observe: entries in recency order."""
    if store is None:
        return list(cache._entries.items())
    return (
        store.db.execute(
            "SELECT key, model, prompt, payload, size, access_seq FROM cache ORDER BY access_seq"
        ),
        list(store.db.pending.items()),
    )


class TestCachedBatchOverEitherCache:
    """``CachedClient``'s one-statement batch equals the per-prompt path over
    the in-memory and the persistent cache, on disk or in a step's overlay:
    responses, hits and misses, inner calls, recency, in-batch duplicates and
    the answered prefix of a batch that fails."""

    @given(
        st.sampled_from(["memory", "store", "store in a step"]),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "boom"]), min_size=1, max_size=10),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_the_per_prompt_path(self, kind, prompts, warm):
        outcomes = []
        for serve in ("batch", "per prompt"):
            with contextlib.ExitStack() as stack:
                store = None if kind == "memory" else stack.enter_context(Store(":memory:"))
                cache = ResponseCache() if store is None else store.response_cache()
                if kind == "store in a step":
                    stack.enter_context(store.db.step())
                for prompt in warm:
                    cache.put("echo", prompt, LLMResponse(text=f"warm:{prompt}", model="echo"))
                inner = FaultyLLM(EchoClient(), {"boom": ValueError("boom")})
                if serve == "batch":
                    try:
                        got, failed = CachedClient(inner, cache).complete_batch(prompts), False
                    except ValueError as exc:
                        got, failed = answered_prefix(exc, prompts), True
                else:
                    got, failed = _per_prompt_batch(cache, inner, "echo", prompts)
                outcomes.append(
                    (
                        failed,
                        [(r.text, r.usage, r.metadata) for r in got],
                        (inner.calls, inner.answered),
                        (cache.stats.hits, cache.stats.misses),
                        _cache_state(cache, store),
                    )
                )
        assert outcomes[0] == outcomes[1]


#: (driver, concurrency): the sequential forms must agree exactly; the
#: concurrent ones exactly when nothing stops the bag, and up to which of the
#: not-yet-started tasks still ran when something does.
_DRIVERS = (("sync", 1), ("async", 1), ("threads", 4), ("async", 4))

_bags = st.lists(
    st.builds(
        BatchRequest,
        prompt=st.sampled_from(["p0", "p1", "p2", "p3"]),  # few prompts: duplicates
        model=st.sampled_from([None, "a", "b"]),
        temperature=st.sampled_from([0.0, 0.7]),
    ),
    min_size=1,
    max_size=10,
)


def _outcome_shape(outcome):
    value = outcome.value
    if isinstance(value, LLMResponse):
        value = (value.text, value.model, value.usage, value.metadata)
    return (outcome.ok, outcome.skipped, type(outcome.error), value)


class TestDriverEquivalenceProperties:
    """One bag, every driver: sequential, fanned out and awaited agree
    (``map``, which only :class:`BatchExecutor` has, on the first two).

    The bag has duplicate prompts and mixed models and temperatures;
    optionally one request fails, or the budget affords only the first few
    calls (every backend call charges a dollar).
    """

    @staticmethod
    def _drive(driver, concurrency, bag, afford, method):
        budget = Budget(limit=float(afford)) if afford is not None else None
        client = FaultyLLM(EchoClient(budget=budget, charge=1.0), {"boom": ValueError("boom")})
        if method == "run":
            # Behind a cache: ``run`` keeps temperature-0 duplicates from
            # racing each other past it, so hits and misses must agree too.
            executor = executor_for(
                driver, CachedClient(client), concurrency=concurrency, budget=budget
            )
            try:
                responses = call(executor, "run", bag)
            except (ValueError, BudgetExceededError) as exc:
                return type(exc)
            return [(r.text, r.model, r.usage, r.metadata) for r in responses]
        # ``map`` tasks are opaque callables with no such protection, so they
        # go to the backend directly: nothing they return depends on timing.
        executor = executor_for(driver, client, concurrency=concurrency, budget=budget)
        tasks = [
            lambda request=request: client.complete(
                request.prompt, model=request.model, temperature=request.temperature
            )
            for request in bag
        ]
        return [_outcome_shape(outcome) for outcome in call(executor, "map", tasks)]

    @given(_bags, st.data())
    @settings(max_examples=40, deadline=None)
    def test_run_returns_the_same_responses_or_raises_the_same_error(self, bag, data):
        scenario = data.draw(st.sampled_from(["clean", "one fails", "budget dies"]))
        afford = None
        if scenario == "one fails":
            index = data.draw(st.integers(0, len(bag) - 1))
            bag = bag[:index] + [BatchRequest(prompt="boom")] + bag[index + 1 :]
        elif scenario == "budget dies":
            afford = data.draw(st.integers(0, len(bag)))
        reference = self._drive("sync", 1, bag, afford, "run")
        assert {
            "clean": isinstance(reference, list),
            "one fails": reference is ValueError,
            "budget dies": isinstance(reference, list) or reference is BudgetExceededError,
        }[scenario]
        for driver, concurrency in _DRIVERS[1:]:
            outcome = self._drive(driver, concurrency, bag, afford, "run")
            if concurrency == 1 or scenario != "budget dies":
                assert outcome == reference, (driver, concurrency)
            else:
                # In-flight calls may overshoot where the loop would have
                # stopped, never the other way round: a bag the loop could
                # not afford is not affordable concurrently either.
                assert outcome == reference or outcome is BudgetExceededError

    @given(_bags, st.data())
    @settings(max_examples=40, deadline=None)
    def test_map_produces_the_same_outcomes(self, bag, data):
        scenario = data.draw(st.sampled_from(["clean", "one fails", "budget dies"]))
        afford, failing = None, None
        if scenario == "one fails":
            failing = data.draw(st.integers(0, len(bag) - 1))
            bag = bag[:failing] + [BatchRequest(prompt="boom")] + bag[failing + 1 :]
        elif scenario == "budget dies":
            afford = data.draw(st.integers(0, len(bag)))
        reference = self._drive("sync", 1, bag, afford, "map")
        outcomes = self._drive("threads", 4, bag, afford, "map")
        if scenario == "clean":
            assert outcomes == reference
        elif scenario == "one fails":
            # Everything before the failure ran, the failure is reported
            # in place, and each later task either still ran (it was in
            # flight) or was skipped.
            assert outcomes[: failing + 1] == reference[: failing + 1]
            assert all(ok or skipped for ok, skipped, _, _ in outcomes[failing + 1 :])
        else:
            # Several tasks can pass the pre-check on the last dollar and
            # breach mid-task, which cancels the queue behind them: what
            # did not complete names the budget, or is a bare skip behind
            # such a breach — and the budget's death shows on some outcome.
            stopped = [(skipped, error) for ok, skipped, error, _ in outcomes if not ok]
            assert all(
                error is BudgetExceededError or (skipped and error is type(None))
                for skipped, error in stopped
            )
            assert not stopped or any(error is BudgetExceededError for _, error in stopped)


@st.composite
def _callable_dags(draw):
    """A random DAG of callable steps: each depends on a subset of its predecessors."""
    edges = []
    for index in range(draw(st.integers(1, 8))):
        upstream = draw(st.sets(st.integers(0, index - 1))) if index else set()
        edges.append(tuple(f"s{dep}" for dep in sorted(upstream)))

    def step(index):
        def run(session, inputs):
            echoed = session.complete(f"step {index}").text
            return (echoed, sorted(inputs.items()))

        return run

    return PipelineSpec(
        name="random-dag",
        steps=[
            PipelineStep(f"s{index}", run=step(index), depends_on=depends_on)
            for index, depends_on in enumerate(edges)
        ],
    )


class TestPipelineEntryPointProperties:
    """One description, both ways in: the scheduler alone and the engine run
    the same rounds over the same spec."""

    @given(_callable_dags(), st.sampled_from([1, 4]))
    @settings(max_examples=40, deadline=None)
    def test_entry_points_agree_on_results_order_and_waves(self, spec, concurrency):
        def session():
            return PromptSession(EchoClient(), max_concurrency=concurrency)

        def shape(report):
            return (report.results, report.step_order, report.waves)

        reference = shape(Workflow.from_pipeline(spec).execute(session()))
        assert reference[2] == spec.waves()
        assert sorted(reference[1]) == sorted(step.name for step in spec.steps)
        engine = DeclarativeEngine.from_session(session())
        assert shape(engine.run_pipeline(spec)) == reference
