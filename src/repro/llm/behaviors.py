"""Behaviour (error) models for the simulated LLM.

Each function takes the parsed structured prompt, the ground-truth oracle, a
per-call random generator, the model's quality tier, and a
:class:`BehaviorConfig`, and returns the *text* the model would have produced
together with a confidence estimate.  The error structure is calibrated to the
failure modes the paper reports:

* pairwise comparisons fail more often the closer two items are (Table 1);
* single-prompt sorting of long lists drops items — preferentially from the
  middle of the prompt ("lost in the middle") — and occasionally hallucinates
  new items (Table 2);
* 1–7 ratings are coarse and noisy, so ties abound (Table 1);
* pairwise duplicate judgments are high precision / low recall (Table 3);
* imputed values are sometimes correct but formatted differently, which exact
  match scoring counts as wrong (Table 4).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.llm.oracle import Oracle
from repro.llm.prompts import StructuredPrompt


@dataclass(frozen=True)
class BehaviorConfig:
    """Tunable error-rate parameters of the simulated LLM.

    All probabilities are for a model of quality 1.0; lower-quality models are
    noisier (see :func:`quality_multiplier`).
    """

    # Pairwise comparisons (sorting, max-finding).
    comparison_base_error: float = 0.35
    comparison_floor_error: float = 0.02
    # Order bias: extra probability mass on answering "A" regardless of content.
    comparison_position_bias: float = 0.03

    # Ratings on a bounded integer scale.  The paper found ratings barely more
    # accurate than the single-prompt sort (tau 0.547 vs 0.526): a 1-7 scale is
    # too coarse for 20 items, so the noise here is deliberately large.
    rating_noise_sd: float = 2.8

    # Single-prompt list sorting.  Subjective criteria (latent scores, e.g.
    # "chocolateyness") are ordered noisily; objective key-based criteria
    # (e.g. alphabetical order) are ordered almost perfectly but still suffer
    # drops and hallucinations on long prompts — matching the paper's
    # observations in Sections 3.1 and 3.2 respectively.
    list_sort_noise: float = 0.30
    list_sort_noise_objective: float = 0.015
    list_drop_threshold: int = 30
    list_drop_rate: float = 0.06
    list_hallucination_rate: float = 0.012
    list_middle_drop_boost: float = 2.0

    # Pairwise duplicate checks (entity resolution).
    duplicate_yes_threshold: float = 0.62
    duplicate_sharpness: float = 10.0
    duplicate_false_positive_rate: float = 0.008

    # Single-prompt grouping of duplicates.
    group_merge_error: float = 0.05
    group_split_error: float = 0.12

    # Imputation.
    impute_accuracy: float = 0.88
    impute_accuracy_with_examples: float = 0.96
    impute_format_variant_rate: float = 0.25
    # Few-shot examples demonstrate the exact output format, which largely
    # suppresses the formatting-variant failure mode.
    impute_format_variant_rate_with_examples: float = 0.05

    # Predicate checks and counting.
    predicate_error: float = 0.08
    count_relative_noise: float = 0.15

    # Categorization into a fixed label set.
    categorize_error: float = 0.10


def quality_multiplier(quality: float) -> float:
    """How much a model's quality tier scales its error rates.

    Quality 1.0 keeps the configured error rates; quality 0.5 roughly doubles
    them.  The mapping is linear and clamped to stay in a sensible range.
    """
    return max(0.25, min(3.0, 1.0 + (0.8 - quality) * 2.5))


def _decide(rng: random.Random, probability: float) -> bool:
    """Bernoulli draw guarded against probabilities outside [0, 1]."""
    return rng.random() < max(0.0, min(1.0, probability))


def _corrupt_word(word: str, rng: random.Random) -> str:
    """Produce a plausible hallucinated variant of an existing word."""
    if not word:
        return "item"
    choice = rng.randrange(3)
    if choice == 0 and len(word) > 3:
        # Drop an interior character.
        index = rng.randrange(1, len(word) - 1)
        return word[:index] + word[index + 1 :]
    if choice == 1:
        # Duplicate a character.
        index = rng.randrange(len(word))
        return word[: index + 1] + word[index] + word[index + 1 :]
    # Swap two adjacent characters.
    if len(word) > 2:
        index = rng.randrange(len(word) - 1)
        chars = list(word)
        chars[index], chars[index + 1] = chars[index + 1], chars[index]
        return "".join(chars)
    return word + word[-1]


def _string_similarity(a: str, b: str) -> float:
    """Cheap token-overlap similarity in [0, 1] used to grade pair hardness."""
    tokens_a = set(a.lower().split())
    tokens_b = set(b.lower().split())
    if not tokens_a or not tokens_b:
        return 0.0
    overlap = len(tokens_a & tokens_b)
    return overlap / max(len(tokens_a), len(tokens_b))


# ---------------------------------------------------------------------------
# Task behaviours
# ---------------------------------------------------------------------------


def pairwise_comparison(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Answer an A/B comparison with margin-dependent error."""
    item_a, item_b = task.items[0], task.items[1]
    criterion = task.fields.get("criterion", "")
    truth = oracle.compare(item_a, item_b, criterion)
    margin = oracle.margin(item_a, item_b, criterion)
    multiplier = quality_multiplier(quality)
    p_error = min(
        0.5,
        (config.comparison_base_error * (1.0 - margin) + config.comparison_floor_error)
        * multiplier,
    )
    correct_answer = "A" if truth >= 0 else "B"
    answer = correct_answer
    if _decide(rng, p_error):
        answer = "B" if correct_answer == "A" else "A"
    # A mild position bias towards the first item, independent of content.
    if answer == "B" and _decide(rng, config.comparison_position_bias * multiplier):
        answer = "A"
    confidence = 1.0 - p_error
    return f"{answer}. The first item is labeled A and the second is labeled B.", confidence


def rating(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Rate one or more items on an integer scale derived from latent scores.

    A single item returns a bare integer; several items (the batched rating
    strategy) return one numbered rating per line, with slightly higher noise
    because longer prompts dilute the model's attention per item.
    """
    criterion = task.fields.get("criterion", "")
    scale = task.fields.get("scale", "1-7")
    low_text, _, high_text = scale.partition("-")
    low, high = int(low_text), int(high_text)
    multiplier = quality_multiplier(quality)
    batch_penalty = 1.0 + 0.15 * max(0, len(task.items) - 1)
    ratings: list[int] = []
    total_offset = 0.0
    for item in task.items:
        if oracle.has_scores(criterion):
            normalised = oracle.normalized_score(item, criterion)
        else:
            # Without scalar scores the model can only guess around the middle.
            normalised = 0.5
        ideal = low + normalised * (high - low)
        noisy = ideal + rng.gauss(0.0, config.rating_noise_sd * multiplier * batch_penalty)
        ratings.append(int(round(min(high, max(low, noisy)))))
        total_offset += abs(noisy - ideal)
    confidence = max(0.1, 1.0 - (total_offset / len(task.items)) / (high - low))
    if len(ratings) == 1:
        return f"{ratings[0]}", confidence
    lines = [f"{index + 1}. {value}" for index, value in enumerate(ratings)]
    return "\n".join(lines), confidence


def sort_list(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Sort a whole list in one response, with drops and hallucinations.

    Items are ordered by a noise-perturbed version of their true rank.  Noise
    grows for items that rank lower under the criterion (the paper observed
    the model getting the clearly-chocolate flavors right and scrambling the
    rest) and with list length.  For long lists, items are dropped with a
    probability that peaks in the middle of the prompt, and occasional
    hallucinated variants of real items are inserted.
    """
    items = list(task.items)
    criterion = task.fields.get("criterion", "")
    count = len(items)
    if count == 0:
        return "(no items)", 0.0
    multiplier = quality_multiplier(quality)
    true_order = oracle.true_order(items, criterion)
    true_rank = {item: index for index, item in enumerate(true_order)}

    length_factor = 1.0 + count / 60.0
    subjective = oracle.has_scores(criterion)
    noisy_keys: dict[str, float] = {}
    for item in items:
        rank_fraction = true_rank[item] / max(1, count - 1)
        if subjective:
            # Subjective criteria: the clearly-top items are ordered well, the
            # rest increasingly scrambled (paper Section 3.1).
            noise_sd = (
                config.list_sort_noise * multiplier * length_factor * (0.25 + rank_fraction)
            )
        else:
            # Objective criteria (alphabetical order): ordering is essentially
            # correct; the failure mode is drops/hallucinations, not shuffling.
            noise_sd = config.list_sort_noise_objective * multiplier
        noisy_keys[item] = rank_fraction + rng.gauss(0.0, noise_sd)
    ordered = sorted(items, key=lambda item: noisy_keys[item])

    dropped: set[str] = set()
    if count > config.list_drop_threshold:
        for prompt_position, item in enumerate(items):
            # "Lost in the middle": drop probability peaks at the centre of the
            # prompt and falls off towards both ends.
            centrality = 1.0 - abs((prompt_position / max(1, count - 1)) - 0.5) * 2.0
            p_drop = config.list_drop_rate * multiplier * (
                1.0 + config.list_middle_drop_boost * centrality
            ) / (1.0 + config.list_middle_drop_boost / 2.0)
            if _decide(rng, p_drop):
                dropped.add(item)
        # Never drop everything.
        if len(dropped) >= count:
            dropped.pop()
    ordered = [item for item in ordered if item not in dropped]

    hallucinated: list[str] = []
    if count > config.list_drop_threshold:
        existing = set(items)
        for item in items:
            if _decide(rng, config.list_hallucination_rate * multiplier):
                variant = _corrupt_word(item, rng)
                if variant not in existing:
                    hallucinated.append(variant)
                    existing.add(variant)
        for variant in hallucinated:
            ordered.insert(rng.randrange(len(ordered) + 1), variant)

    lines = [f"{index + 1}. {item}" for index, item in enumerate(ordered)]
    text = "Here is the sorted list:\n" + "\n".join(lines)
    confidence = max(0.1, 1.0 - (len(dropped) + len(hallucinated)) / count - 0.1)
    return text, confidence


def duplicate_check(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Yes/No duplicate judgment with high precision and low recall.

    The probability of answering "Yes" for a true duplicate pair grows with
    the textual similarity of the two records, so heavily-corrupted duplicates
    are systematically missed — precisely the misses that transitive evidence
    through a cleaner intermediate record can recover (Table 3).
    """
    record_a, record_b = task.items[0], task.items[1]
    multiplier = quality_multiplier(quality)
    is_duplicate = oracle.same_entity(record_a, record_b)
    similarity = _string_similarity(record_a, record_b)
    if is_duplicate:
        logit = config.duplicate_sharpness * (similarity - config.duplicate_yes_threshold)
        p_yes = 1.0 / (1.0 + math.exp(-logit / max(0.25, multiplier)))
        p_yes = max(0.02, min(0.995, p_yes))
    else:
        p_yes = min(0.5, config.duplicate_false_positive_rate * multiplier * (0.5 + similarity))
    answer_yes = _decide(rng, p_yes)
    confidence = p_yes if answer_yes else 1.0 - p_yes
    if answer_yes:
        return "Yes, these two citations refer to the same work.", confidence
    return "No, these two citations appear to be different works.", confidence


def group_records(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Group all records into duplicate sets in one response.

    Errors take the form of splits (a true group reported as two groups) and
    merges (two distinct records reported together), plus dropped records for
    long prompts — mirroring the paper's observation that whole-list entity
    resolution is unreliable even at 20 records.
    """
    items = list(task.items)
    multiplier = quality_multiplier(quality)
    groups: dict[str, list[int]] = {}
    for index, item in enumerate(items):
        entity = oracle.entity_id(item)
        groups.setdefault(entity, []).append(index)

    reported: list[list[int]] = []
    for members in groups.values():
        if len(members) > 1 and _decide(rng, config.group_split_error * multiplier):
            split_point = rng.randrange(1, len(members))
            reported.append(members[:split_point])
            reported.append(members[split_point:])
        else:
            reported.append(list(members))
    # Merge errors: occasionally fuse two reported groups.
    if len(reported) > 1 and _decide(rng, config.group_merge_error * multiplier):
        first = rng.randrange(len(reported))
        second = rng.randrange(len(reported))
        if first != second:
            merged = reported[first] + reported[second]
            reported = [
                group for position, group in enumerate(reported) if position not in {first, second}
            ]
            reported.append(merged)
    # Drop records from long prompts.
    if len(items) > config.list_drop_threshold:
        survivors = []
        for group in reported:
            kept = [
                index for index in group if not _decide(rng, config.list_drop_rate * multiplier)
            ]
            if kept:
                survivors.append(kept)
        reported = survivors or reported
    lines = [", ".join(str(index) for index in sorted(group)) for group in reported]
    return "Groups of duplicates:\n" + "\n".join(lines), 0.7


def impute(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Predict a missing attribute value, sometimes with formatting drift."""
    record = task.items[0]
    attribute = task.fields.get("attribute", "")
    has_examples = task.has_examples
    truth = oracle.true_value(record, attribute)
    multiplier = quality_multiplier(quality)
    base_accuracy = (
        config.impute_accuracy_with_examples if has_examples else config.impute_accuracy
    )
    p_correct = max(0.05, min(0.99, 1.0 - (1.0 - base_accuracy) * multiplier))
    variant_rate = (
        config.impute_format_variant_rate_with_examples
        if has_examples
        else config.impute_format_variant_rate
    )
    if _decide(rng, p_correct):
        if _decide(rng, variant_rate):
            return _format_variant(truth, rng), 0.6
        return truth, min(0.95, p_correct)
    # A wrong but plausible answer: truncate or corrupt the true value.
    wrong = truth.split()[0] if " " in truth else _corrupt_word(truth, rng)
    if wrong == truth:
        wrong = truth + " Inc"
    return wrong, 0.35


def _format_variant(value: str, rng: random.Random) -> str:
    """Return the same value with superficial formatting differences."""
    variants = []
    if " " in value:
        variants.append(value.replace(" ", ""))
        variants.append(value.replace(" ", "-"))
    else:
        # Insert a space before a mid-word capital ("TomTom" -> "Tom Tom").
        for index in range(1, len(value)):
            if value[index].isupper():
                variants.append(value[:index] + " " + value[index:])
                break
    variants.append(value + " Systems")
    variants.append(value.lower())
    return variants[rng.randrange(len(variants))]


def predicate_check(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Yes/No predicate evaluation with a symmetric error rate."""
    item = task.items[0]
    predicate = task.fields.get("predicate", "")
    truth = oracle.satisfies(item, predicate)
    multiplier = quality_multiplier(quality)
    p_error = min(0.45, config.predicate_error * multiplier)
    answer = truth if not _decide(rng, p_error) else not truth
    confidence = 1.0 - p_error
    return ("Yes." if answer else "No."), confidence


def categorize(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Assign an item to one of the offered categories, mostly correctly.

    Errors pick a *different* offered category uniformly at random, which is
    how a distracted annotator (human or model) typically fails this task.
    """
    item = task.items[0]
    offered = [part.strip() for part in task.fields.get("categories", "").split(";") if part.strip()]
    truth = oracle.category_of(item) if oracle.knows_category(item) else ""
    multiplier = quality_multiplier(quality)
    p_error = min(0.6, config.categorize_error * multiplier)
    answer = truth
    if (not truth) or _decide(rng, p_error):
        alternatives = [category for category in offered if category != truth] or offered
        if alternatives:
            answer = alternatives[rng.randrange(len(alternatives))]
    confidence = 1.0 - p_error if answer == truth else 0.5
    return answer or "unknown", confidence


def estimate_count(
    task: StructuredPrompt,
    oracle: Oracle,
    rng: random.Random,
    quality: float,
    config: BehaviorConfig,
) -> tuple[str, float]:
    """Coarse 'eyeballing' estimate of how many items satisfy a predicate."""
    predicate = task.fields.get("predicate", "")
    true_count = sum(1 for item in task.items if oracle.satisfies(item, predicate))
    multiplier = quality_multiplier(quality)
    noise_sd = max(0.5, config.count_relative_noise * multiplier * max(1, len(task.items)) * 0.5)
    estimate = int(round(max(0, min(len(task.items), true_count + rng.gauss(0.0, noise_sd)))))
    return f"Approximately {estimate} of the items satisfy the condition.", 0.6


#: Dispatch table from task kind to behaviour function.
BEHAVIORS = {
    "pairwise_comparison": pairwise_comparison,
    "rating": rating,
    "sort_list": sort_list,
    "duplicate_check": duplicate_check,
    "group_records": group_records,
    "impute": impute,
    "predicate_check": predicate_check,
    "estimate_count": estimate_count,
    "categorize": categorize,
}
