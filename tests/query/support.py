"""Shared helpers for the query-frontend tests and benchmarks.

The equivalence tests compare optimized against naive plans, so the
simulated LLM runs with a *clean* behaviour configuration: zero error rates
and saturated duplicate judgments, making every unit prompt's answer a pure
function of the ground truth.  Structural plan rewrites then cannot hide
behind noise — any result difference is a real semantics bug.
"""

from __future__ import annotations

from repro.core.engine import DeclarativeEngine
from repro.llm.behaviors import BehaviorConfig
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM

MODEL = "sim-gpt-3.5-turbo"

#: Words used to build small product-like corpora with duplicate variants.
PRODUCT_WORDS = [
    "laptop", "monitor", "keyboard", "mouse", "webcam", "router",
    "speaker", "headset", "printer", "scanner", "tablet", "charger",
]


def clean_behavior() -> BehaviorConfig:
    """A noise-free behaviour configuration (see module docstring)."""
    return BehaviorConfig(
        comparison_base_error=0.0,
        comparison_floor_error=0.0,
        comparison_position_bias=0.0,
        rating_noise_sd=0.0,
        list_sort_noise=0.0,
        list_sort_noise_objective=0.0,
        list_drop_rate=0.0,
        list_hallucination_rate=0.0,
        duplicate_yes_threshold=0.0,
        duplicate_sharpness=1000.0,
        duplicate_false_positive_rate=0.0,
        group_merge_error=0.0,
        group_split_error=0.0,
        impute_accuracy=1.0,
        impute_accuracy_with_examples=1.0,
        impute_format_variant_rate=0.0,
        impute_format_variant_rate_with_examples=0.0,
        predicate_error=0.0,
        categorize_error=0.0,
    )


def product_corpus(n_entities: int = 6, variants: int = 2) -> tuple[list[str], Oracle]:
    """Items with duplicate variants plus an entity-consistent oracle.

    Each entity appears as ``"<word> device"`` plus ``"<word> device (refurb
    N)"`` variants mapping to the same entity id; predicates and scores are
    registered per *entity*, so duplicates always agree on them — the
    declarative assumption under which filter pushdown across dedup is exact.
    """
    words = PRODUCT_WORDS[:n_entities]
    items: list[str] = []
    entities: dict[str, str] = {}
    scores: dict[str, float] = {}
    categories: dict[str, str] = {}
    for rank, word in enumerate(words):
        texts = [f"{word} device"] + [
            f"{word} device (refurb {variant})" for variant in range(1, variants)
        ]
        for variant, text in enumerate(texts):
            entities[text] = word
            # Distinct per-item scores (no rating ties): entities are ranked
            # by word order, variants just behind their clean listing.
            scores[text] = float((len(words) - rank) * 10 - variant)
            categories[text] = "early" if rank < len(words) // 2 else "late"
            items.append(text)
    oracle = Oracle()
    oracle.register_entities(entities)
    oracle.register_scores("important", scores)
    oracle.register_categories(categories)
    oracle.register_predicate("is a short name", lambda text: len(text.split()[0]) <= 6)
    oracle.register_predicate("keeps everything", lambda text: True)
    return items, oracle


def clean_engine(oracle: Oracle, *, seed: int = 11, **kwargs) -> DeclarativeEngine:
    """An engine over a noise-free simulated LLM."""
    return DeclarativeEngine(
        SimulatedLLM(oracle, seed=seed, behavior=clean_behavior()),
        default_model=MODEL,
        **kwargs,
    )
