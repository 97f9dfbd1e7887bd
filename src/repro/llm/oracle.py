"""Ground-truth oracle backing the simulated LLM.

A real LLM's competence on a task comes from its training data; the simulated
LLM's competence comes from an :class:`Oracle` that knows the ground truth of
the experiment's domain (latent sort scores, duplicate clusters, missing
attribute values, predicate labels).  The simulator then *corrupts* the
oracle's answers according to the behaviour models in
:mod:`repro.llm.behaviors`, which is what makes it a noisy oracle in the
declarative-crowdsourcing sense rather than a perfect one.

Datasets construct and populate oracles; operators never see them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.exceptions import ConfigurationError


def prefix_margin(a: str, b: str) -> float:
    """Difficulty-aware margin for lexicographic comparisons.

    Two strings that differ in their first character are easy to order
    (margin close to 1); strings sharing a long common prefix are hard
    (margin close to 0).
    """
    if not a or not b:
        return 1.0
    limit = min(len(a), len(b))
    shared = 0
    while shared < limit and a[shared].lower() == b[shared].lower():
        shared += 1
    if a.lower() == b.lower():
        return 0.0
    return max(0.05, 1.0 - shared / max(len(a), len(b)))


class Oracle:
    """Ground truth for every task type the simulated LLM can be asked.

    The oracle is deliberately permissive: any subset of the registries can be
    populated, and asking for ground truth that was never registered raises
    ``KeyError`` so that mis-wired experiments fail loudly instead of
    silently producing garbage.
    """

    def __init__(self) -> None:
        self._scores: dict[str, dict[str, float]] = {}
        self._keys: dict[str, Callable[[str], Any]] = {}
        self._key_reverse: dict[str, bool] = {}
        self._margins: dict[str, Callable[[str, str], float]] = {}
        self._entities: dict[str, str] = {}
        self._values: dict[tuple[str, str], str] = {}
        self._predicates: dict[str, Callable[[str], bool]] = {}
        self._categories: dict[str, str] = {}

    # -- registration -------------------------------------------------------

    def register_scores(self, criterion: str, scores: Mapping[str, float]) -> None:
        """Register latent scores (higher = ranks first) for a sort criterion."""
        if not scores:
            raise ConfigurationError("scores mapping must not be empty")
        self._scores[criterion] = dict(scores)

    def register_key(
        self,
        criterion: str,
        key: Callable[[str], Any],
        *,
        reverse: bool = False,
        margin: Callable[[str, str], float] | None = None,
    ) -> None:
        """Register a sort key function for a criterion.

        Args:
            criterion: criterion name as it appears in prompts.
            key: function mapping an item to a sortable key; by convention the
                smallest key ranks first unless ``reverse`` is set.
            reverse: whether larger keys rank first.
            margin: optional difficulty function returning a value in [0, 1].
        """
        self._keys[criterion] = key
        self._key_reverse[criterion] = reverse
        if margin is not None:
            self._margins[criterion] = margin

    def register_entities(self, mapping: Mapping[str, str]) -> None:
        """Register item-text → entity-id ground truth for duplicate checks."""
        self._entities.update(mapping)

    def register_value(self, record_text: str, attribute: str, value: str) -> None:
        """Register the true value of a missing attribute for a record."""
        self._values[(record_text, attribute)] = value

    def register_predicate(self, name: str, fn: Callable[[str], bool]) -> None:
        """Register a boolean predicate over item text."""
        self._predicates[name] = fn

    def register_categories(self, mapping: Mapping[str, str]) -> None:
        """Register item-text → category-label ground truth."""
        self._categories.update(mapping)

    # -- sorting / rating ----------------------------------------------------

    def score(self, item: str, criterion: str) -> float:
        """Latent score of ``item`` under ``criterion`` (higher = ranks first)."""
        if criterion in self._scores:
            return self._scores[criterion][item]
        if criterion in self._keys:
            # Key-based criteria have no natural scalar; derive one from the
            # rank within all items registered so far is not possible, so we
            # raise and let callers use compare()/true_order() instead.
            raise KeyError(
                f"criterion {criterion!r} is key-based; use compare() or true_order()"
            )
        raise KeyError(f"unknown criterion {criterion!r}")

    def has_scores(self, criterion: str) -> bool:
        """Whether scalar scores are available for ``criterion``."""
        return criterion in self._scores

    def normalized_score(self, item: str, criterion: str) -> float:
        """Score of ``item`` rescaled to [0, 1] over all registered items."""
        scores = self._scores[criterion]
        values = scores.values()
        minimum, maximum = min(values), max(values)
        span = maximum - minimum
        if span <= 0:
            return 0.5
        return (scores[item] - minimum) / span

    def compare(self, item_a: str, item_b: str, criterion: str) -> int:
        """Return 1 if ``item_a`` ranks before ``item_b``, -1 if after, 0 if tied."""
        if criterion in self._scores:
            score_a = self._scores[criterion][item_a]
            score_b = self._scores[criterion][item_b]
            if score_a == score_b:
                return 0
            return 1 if score_a > score_b else -1
        if criterion in self._keys:
            key = self._keys[criterion]
            key_a, key_b = key(item_a), key(item_b)
            if key_a == key_b:
                return 0
            before = key_a < key_b
            if self._key_reverse[criterion]:
                before = not before
            return 1 if before else -1
        raise KeyError(f"unknown criterion {criterion!r}")

    def margin(self, item_a: str, item_b: str, criterion: str) -> float:
        """Difficulty margin in [0, 1]; large margins are easy comparisons."""
        if criterion in self._margins:
            return float(self._margins[criterion](item_a, item_b))
        if criterion in self._scores:
            scores = self._scores[criterion]
            values = scores.values()
            span = max(values) - min(values)
            if span <= 0:
                return 0.0
            return abs(scores[item_a] - scores[item_b]) / span
        if criterion in self._keys:
            return prefix_margin(str(item_a), str(item_b))
        raise KeyError(f"unknown criterion {criterion!r}")

    def true_order(self, items: Iterable[str], criterion: str) -> list[str]:
        """Return ``items`` in ground-truth order (rank-1 item first)."""
        item_list = list(items)
        if criterion in self._scores:
            scores = self._scores[criterion]
            return sorted(item_list, key=lambda item: -scores[item])
        if criterion in self._keys:
            key = self._keys[criterion]
            return sorted(item_list, key=key, reverse=self._key_reverse[criterion])
        raise KeyError(f"unknown criterion {criterion!r}")

    # -- entity resolution ---------------------------------------------------

    def entity_id(self, item: str) -> str:
        """Ground-truth entity id of ``item``."""
        return self._entities[item]

    def same_entity(self, item_a: str, item_b: str) -> bool:
        """Whether two items refer to the same real-world entity."""
        return self._entities[item_a] == self._entities[item_b]

    # -- imputation ----------------------------------------------------------

    def true_value(self, record_text: str, attribute: str) -> str:
        """Ground-truth value of ``attribute`` for the serialized record."""
        return self._values[(record_text, attribute)]

    # -- categorization ------------------------------------------------------

    def category_of(self, item: str) -> str:
        """Ground-truth category label of ``item``."""
        return self._categories[item]

    def knows_category(self, item: str) -> bool:
        """Whether a category label is registered for ``item``."""
        return item in self._categories

    # -- predicates ----------------------------------------------------------

    def satisfies(self, item: str, predicate: str) -> bool:
        """Whether ``item`` satisfies the named predicate."""
        return bool(self._predicates[predicate](item))
