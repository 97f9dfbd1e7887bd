"""Benchmark-owned inputs, backends and scorers.

Everything the workloads feed the program is generated here from the
``--seed`` (item strings embed the seed, so a second seed is a different
input set), together with the ground truth the outputs are scored against.
Nothing is imported from ``tests/``: the benchmark must keep working when
the test tree is reshaped.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.consistency.transitivity import MatchGraph
from repro.core.spec import (
    CategorizeSpec,
    FilterSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
)
from repro.core.spec_codec import pipeline_to_dict
from repro.llm.behaviors import BehaviorConfig
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.metrics import pairwise_cluster_f1

MODEL = "sim-gpt-3.5-turbo"

FILTER_PREDICATE = "is a premium listing"
SHORT_BRAND = "has a short brand word"
IMPORTANCE = "important to stock"
EARLY_LETTER = "starts early in the alphabet"
ALPHABETICAL = "alphabetical order"

_SYLLABLES = (
    "ka", "lo", "mi", "ren", "tos", "vil", "dor", "pex", "zan", "qui",
    "bre", "sol", "tam", "nor", "fen", "gul", "ari", "eku", "ivo", "oda",
)
_KINDS = (
    "laptop", "monitor", "keyboard", "router", "speaker", "printer",
    "tablet", "charger", "webcam", "headset",
)
_CATEGORIES = ("office", "studio", "travel")


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


# -- backends ---------------------------------------------------------------------


class CountingLLM(SimulatedLLM):
    """The simulator plus a count of completions that reached it.

    ``llm_calls`` is the paper's cost axis; counting at the backend (not in
    a session tracker) means cache hits and restored checkpoints read 0.
    Every other entry point of :class:`SimulatedLLM` funnels into
    ``complete``, so one override counts them all.
    """

    def __init__(
        self, oracle: Oracle, *, seed: int, behavior: BehaviorConfig | None = None
    ) -> None:
        super().__init__(oracle, seed=seed, behavior=behavior)
        self.reached = 0
        self._reached_lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._reached_lock:
            self.reached += 1
        return super().complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


#: The product query's backend answers from ground truth without error.
#: Downstream work there depends on upstream answers (a wrongly kept
#: listing is resolved and ranked too; top-k compares every pair of
#: clusters), so under the default error model the number of LLM calls
#: swings by 2x from seed to seed and no timing could be compared across
#: seeds.  With exact answers the work depends on the feed's structure
#: only, and ``quality`` reads 1 unless the framework itself loses an answer.
EXACT_ANSWERS = BehaviorConfig(
    predicate_error=0.0,
    duplicate_sharpness=1e3,
    duplicate_false_positive_rate=0.0,
    comparison_base_error=0.0,
    comparison_floor_error=0.0,
    comparison_position_bias=0.0,
)


class LatencyClient:
    """A backend that costs a fixed round-trip per call.

    The sync path blocks its worker thread, the async path awaits on the
    loop — the difference between the two executors.  Deliberately no
    ``complete_batch``: each unit task pays its own round-trip, which is
    what an executor is supposed to overlap.
    """

    def __init__(self, inner: Any, latency_seconds: float) -> None:
        self._inner = inner
        self.latency_seconds = latency_seconds

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        time.sleep(self.latency_seconds)
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )

    async def acomplete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        await asyncio.sleep(self.latency_seconds)
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


# -- corpora ----------------------------------------------------------------------


@dataclass
class FilterCorpus:
    """Items for the ``per_item`` filter workloads plus their labels."""

    items: list[str]
    truth: dict[str, bool]
    oracle: Oracle


def filter_corpus(seed: int, n_items: int) -> FilterCorpus:
    """``n_items`` distinct listings, ~40 % of which satisfy the predicate."""
    rng = random.Random(f"filter-{seed}")
    items = [
        f"{_word(rng, 2)} {rng.choice(_KINDS)} lot s{seed}-{index:05d}"
        for index in range(n_items)
    ]
    truth = {item: rng.random() < 0.4 for item in items}
    oracle = Oracle()
    oracle.register_predicate(FILTER_PREDICATE, truth.__getitem__)
    return FilterCorpus(items=items, truth=truth, oracle=oracle)


@dataclass
class ProductFeed:
    """A retailer feed: several listings per product, plus ground truth."""

    items: list[str]
    entities: dict[str, str]
    scores: dict[str, float]
    categories: dict[str, str]
    oracle: Oracle

    def short_brand(self, item: str) -> bool:
        return len(item.split()[0]) <= 6


def product_feed(seed: int, n_entities: int, variants: int = 3) -> ProductFeed:
    """``n_entities`` products x ``variants`` near-duplicate listings each.

    Variants share most of their text (as real feeds do), which is what
    lets embedding blocking put them in one block; the brand word's length
    drives the filter predicate and its rank the importance score.  Exactly
    half the brands are short under every seed, so the seed changes the
    strings but not how much work the query is.
    """
    rng = random.Random(f"feed-{seed}")
    brands: set[str] = set()
    while len(brands) < n_entities:
        # Two syllables are at most 6 letters (short), four at least 8.
        brands.add(_word(rng, 2 if len(brands) < n_entities // 2 else 4))
    ordered = sorted(brands)
    rng.shuffle(ordered)
    suffixes = ("", " refurbished", " (open box)", " bundle")[:variants]
    items: list[str] = []
    entities: dict[str, str] = {}
    scores: dict[str, float] = {}
    categories: dict[str, str] = {}
    for rank, brand in enumerate(ordered):
        base = (
            f"{brand} {rng.choice(_KINDS)} pro {rng.randrange(1000, 9999)} "
            f"wireless s{seed} device"
        )
        category = rng.choice(_CATEGORIES)
        for variant, suffix in enumerate(suffixes):
            text = base + suffix
            items.append(text)
            entities[text] = brand
            scores[text] = float((n_entities - rank) * 100 - variant)
            categories[text] = category
    feed = ProductFeed(items, entities, scores, categories, Oracle())
    feed.oracle.register_entities(entities)
    feed.oracle.register_scores(IMPORTANCE, scores)
    feed.oracle.register_categories(categories)
    feed.oracle.register_predicate(SHORT_BRAND, feed.short_brand)
    return feed


def words_oracle() -> Oracle:
    """Ground truth for the service jobs: any word, judged by its letters."""
    oracle = Oracle()
    oracle.register_key(ALPHABETICAL, key=lambda item: item)
    oracle.register_predicate(EARLY_LETTER, early_letter)
    return oracle


def early_letter(word: str) -> bool:
    return word[0] in "abcdefghijklm"


def job_words(seed: int, index: int, n_words: int) -> list[str]:
    """The ``index``-th job's words; distinct across jobs, so no job is
    served from another job's cached responses."""
    rng = random.Random(f"job-{seed}-{index}")
    words: set[str] = set()
    while len(words) < n_words:
        words.add(f"{_word(rng, 2)}-s{seed}j{index}")
    return sorted(words, key=lambda word: rng.random())


def job_payload(words: Sequence[str], name: str) -> dict[str, Any]:
    """A 2-step screen -> rank pipeline in the JSON wire form clients POST."""
    return pipeline_to_dict(
        PipelineSpec(
            name=name,
            steps=[
                PipelineStep(
                    name="screen",
                    task=FilterSpec(
                        items=list(words), predicate=EARLY_LETTER, strategy="per_item"
                    ),
                ),
                PipelineStep(
                    name="rank",
                    task=SortSpec(
                        items=list(words), criterion=ALPHABETICAL, strategy="pairwise"
                    ),
                    depends_on=("screen",),
                ),
            ],
        )
    )


def many_step_spec(feed: ProductFeed, seed: int, n_steps: int, sample: int) -> PipelineSpec:
    """A statically quotable pipeline cycling filter/sort/resolve/categorize.

    Step ``i`` depends on step ``i - 4`` (its own operator lane) and every
    fifth step also on its predecessor, so the DAG has both parallel lanes
    and cross edges for the quote's critical-path computation.
    """
    rng = random.Random(f"spec-{seed}")
    steps: list[PipelineStep] = []
    for index in range(n_steps):
        items = rng.sample(feed.items, min(sample, len(feed.items)))
        lane = index % 4
        if lane == 0:
            task: Any = FilterSpec(items=items, predicate=SHORT_BRAND, strategy="per_item")
        elif lane == 1:
            task = SortSpec(
                items=items,
                criterion=IMPORTANCE,
                strategy="rating" if index % 8 == 1 else "pairwise",
            )
        elif lane == 2:
            task = ResolveSpec(records=items, strategy="auto")
        else:
            task = CategorizeSpec(items=items, categories=_CATEGORIES, strategy="per_item")
        depends = [f"step{index - 4:02d}"] if index >= 4 else []
        if index % 5 == 4:
            depends.append(f"step{index - 1:02d}")
        steps.append(
            PipelineStep(name=f"step{index:02d}", task=task, depends_on=tuple(depends))
        )
    return PipelineSpec(name=f"many-step-s{seed}", steps=steps)


# -- scorers ----------------------------------------------------------------------


def resolve_f1(judgments: Sequence[Any], records: Sequence[str], entities: Mapping[str, str]) -> float:
    """Pairwise cluster F1 of the clustering the pair judgments imply."""
    graph = MatchGraph()
    for record in records:
        graph.add_node(record)
    for judgment in judgments:
        if judgment.is_duplicate:
            graph.add_match(judgment.left, judgment.right)
    truth = {record: entities[record] for record in records}
    return pairwise_cluster_f1(graph.components(), truth).f1


def precision_at_k(found: Sequence[str], expected: Sequence[str], entities: Mapping[str, str]) -> float:
    """Share of the returned items whose *product* is in the true top k
    (any variant of the right product counts: dedup may keep either)."""
    if not expected:
        return 0.0
    wanted = {entities[item] for item in expected}
    return sum(1 for item in found if entities.get(item) in wanted) / len(expected)


def true_top_k(feed: ProductFeed, k: int) -> list[str]:
    """The product-dedup query's answer computed from labels alone: one
    listing per short-brand product, the ``k`` most important first."""
    kept = [item for item in feed.items if feed.short_brand(item)]
    representatives = list({feed.entities[item]: item for item in reversed(kept)}.values())
    return sorted(representatives, key=lambda item: -feed.scores[item])[:k]
