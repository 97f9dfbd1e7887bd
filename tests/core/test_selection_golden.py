"""What every labelled ``"auto"`` spec resolves to, pinned.

Five declarations carry a labelled sample: sort (``validation_order``),
pairs-mode resolve and filter and categorize (``validation_labels``), and
impute (``validation_size``).  Each case below resolves under no cap, a spec
``budget_dollars`` that binds, a session :class:`Budget` that binds and an
``accuracy_target``, on seeded simulators.  ``SELECTIONS`` pins each
decision as ``(strategy, options, decided_by, considered)``, one row per
predicate for a filter; ``ACCURACIES`` pins what each candidate scores on the
labelled sample, measured the way selection measures it (the candidates in
order, in one fresh session; a two-predicate filter's combinations from each
strategy's decisions on each predicate alone).

A changed row is a changed choice of strategy.  Do not re-record the tables
to make a change pass; a change that means to move a choice re-pins it in its
own commit and says which rows moved and why.  Run this file as a script
(``PYTHONPATH=src python tests/core/test_selection_golden.py``) to print the
current tables.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any

import pytest

from repro.core.budget import Budget
from repro.core.declarations import DECLARATIONS
from repro.core.engine import DeclarativeEngine
from repro.core.spec import CategorizeSpec, FilterSpec, ImputeSpec, ResolveSpec, SortSpec
from repro.data.citations import generate_citation_corpus
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import ImputationDataset, generate_restaurant_dataset
from repro.data.record import Dataset
from repro.llm.behaviors import BehaviorConfig
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.metrics import accuracy, f1_score, kendall_tau_b

#: Noisier predicate and category answers, so the candidates score apart.
NOISY = BehaviorConfig(predicate_error=0.25, categorize_error=0.3)
#: The registry's three cheapest chat models, the default ensemble panel.
PANEL = ["sim-small", "sim-gpt-3.5-turbo", "sim-claude"]
ENSEMBLE = {"models": PANEL}

_ANIMALS = ("cat", "dog", "horse", "goat", "owl", "fox")
_SUBJECTS = (
    "a cat", "the dog", "two horses", "the stock index", "a committee", "the printer",
    "an owl", "the recipe", "a fox", "the invoice", "three goats", "the weather",
)  # fmt: skip
ITEMS = [f"{subject} {verb}" for verb in ("waited", "ran at night") for subject in _SUBJECTS]
LABELLED = ITEMS[::2]
ANIMAL, NIGHT = "mentions an animal", "happens at night"


def _animal(item: str) -> bool:
    return any(animal in item for animal in _ANIMALS)


def _night(item: str) -> bool:
    return "night" in item


def _category(item: str) -> str:
    return "animal" if _animal(item) else "other"


def _text_oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_predicate(ANIMAL, _animal)
    oracle.register_predicate(NIGHT, _night)
    oracle.register_categories({item: _category(item) for item in ITEMS})
    return oracle


def _sort():
    spec = SortSpec(items=list(FLAVORS), criterion=CHOCOLATEY, validation_order=FLAVORS[::3])
    return flavor_oracle(), spec


def _resolve():
    corpus = generate_citation_corpus(n_entities=25, n_pairs=60, seed=17)
    pairs = [(pair.left_text, pair.right_text) for pair in corpus.pairs[:30]]
    labels = {(p.left_text, p.right_text): p.is_duplicate for p in corpus.pairs[:10]}
    spec = ResolveSpec(
        pairs=pairs, records=corpus.texts(), neighbors_k=1, validation_labels=labels
    )
    return corpus.oracle(), spec


def _impute():
    data = generate_restaurant_dataset(80, seed=92)
    return data.oracle(), ImputeSpec(data=data, validation_size=10)


def _filter(*predicates: str):
    def truth(item: str) -> bool:
        return _animal(item) and (NIGHT not in predicates or _night(item))

    labels = {item: truth(item) for item in LABELLED}
    return _text_oracle(), FilterSpec(items=ITEMS, predicates=predicates, validation_labels=labels)


def _categorize():
    labels = {item: _category(item) for item in LABELLED}
    spec = CategorizeSpec(items=ITEMS, categories=("animal", "other"), validation_labels=labels)
    return _text_oracle(), spec


#: case -> (spec builder, spec cap, session budget, accuracy target).
CASES = {
    "sort": (_sort, 0.001, 0.02, 0.85),
    "resolve": (_resolve, 0.005, 0.03, 0.6),
    "impute": (_impute, 0.005, 0.008, 0.85),
    "filter": (lambda: _filter(ANIMAL), 0.003, 0.015, 0.75),
    "filter2": (lambda: _filter(ANIMAL, NIGHT), 0.003, 0.026, 0.6),
    "categorize": (_categorize, 0.005, 0.022, 0.8),
}
CONDITIONS = ("none", "spec_cap", "session_budget", "target")

#: The candidates each case measures, in the order selection runs them.
CANDIDATES: dict[str, list[tuple[str, dict]]] = {
    "sort": [("single_prompt", {}), ("rating", {}), ("pairwise", {})],
    "resolve": [("pairwise", {}), ("transitive", {"neighbors_k": 1}), ("proxy_hybrid", {})],
    "impute": [(name, {}) for name in ("knn", "hybrid", "retrieval", "llm_only")],
    "filter": [("per_item", {}), ("ensemble_vote", ENSEMBLE), ("adaptive", ENSEMBLE)],
    "categorize": [
        ("per_item", {}),
        ("self_consistency", {"n_samples": 3}),
        ("ensemble_vote", ENSEMBLE),
    ],
}
CANDIDATES["filter2"] = CANDIDATES["filter"]
#: Each case's candidate names, as a decision's ``considered`` lists them.
SORTS, RESOLVES, IMPUTES, FILTERS, CATEGORIZES = (
    tuple(name for name, _ in CANDIDATES[case])
    for case in ("sort", "resolve", "impute", "filter", "categorize")
)
_NAMED = {"ENSEMBLE": ENSEMBLE, "SORTS": SORTS, "RESOLVES": RESOLVES, "IMPUTES": IMPUTES}
_NAMED.update(FILTERS=FILTERS, CATEGORIZES=CATEGORIZES)


def _engine(oracle: Oracle, budget: Budget | None = None) -> DeclarativeEngine:
    return DeclarativeEngine(SimulatedLLM(oracle, seed=0, behavior=NOISY), budget=budget)


def selection(case: str, condition: str) -> list[tuple[str, dict, str, tuple[str, ...]]]:
    """How ``case`` resolves under ``condition``: one row, or one per filter predicate."""
    build, cap, session_budget, target = CASES[case]
    oracle, spec = build()
    engine = _engine(oracle, Budget(session_budget) if condition == "session_budget" else None)
    if condition == "spec_cap":
        spec = replace(spec, budget_dollars=cap)
    elif condition == "target":
        spec = replace(spec, accuracy_target=target)
    budget = engine.session.budget
    if isinstance(spec, FilterSpec):
        plans = DECLARATIONS[FilterSpec].resolve_predicates(engine.physical, spec, budget=budget)
        resolved = [plan for _, plan in plans]
    else:
        resolved = [engine.physical.resolve(spec, budget=budget)]
    return [(r.strategy, dict(r.options), r.decided_by, tuple(r.considered)) for r in resolved]


def _sample(spec: Any) -> tuple[Any, Any]:
    """The spec narrowed to its labelled items, and their truth."""
    if isinstance(spec, SortSpec):
        return replace(spec, items=list(spec.validation_order)), list(spec.validation_order)
    if isinstance(spec, ResolveSpec):
        labels = dict(spec.validation_labels)
        return replace(spec, pairs=list(labels)), list(labels.values())
    if isinstance(spec, ImputeSpec):
        data = spec.data
        records = data.queries.records[: spec.validation_size]
        sample = ImputationDataset(
            name=f"{data.name}-validation",
            target_attribute=data.target_attribute,
            queries=Dataset(records, name=f"{data.name}-validation-queries"),
            reference=data.reference,
            ground_truth={r.record_id: data.ground_truth[r.record_id] for r in records},
        )
        return replace(spec, data=sample), sample.ground_truth
    labels = dict(spec.validation_labels)
    truth = labels if isinstance(spec, CategorizeSpec) else list(labels.values())
    return replace(spec, items=list(labels)), truth


def _score(sample: Any, truth: Any, result: Any) -> float:
    if isinstance(sample, SortSpec):
        placed = set(result.order)
        order = list(result.order) + [item for item in sample.items if item not in placed]
        return (kendall_tau_b(order, truth) + 1.0) / 2.0
    if isinstance(sample, ResolveSpec):
        return f1_score(result.decisions, truth)
    if isinstance(sample, ImputeSpec):
        return accuracy(result.predictions, truth)
    if isinstance(sample, FilterSpec):
        return f1_score([result.decisions.get(item, False) for item in sample.items], truth)
    return accuracy(result.assignments, truth)


def measured_accuracies(case: str) -> dict[str, float]:
    """Each candidate's score on the labelled sample (see the module docstring)."""
    oracle, spec = CASES[case][0]()
    engine = _engine(oracle)
    sample, truth = _sample(spec)
    candidates = CANDIDATES[case]

    def run(strategy: str, options: dict, **fields: Any) -> Any:
        fixed = replace(sample, strategy=strategy, strategy_options=options, **fields)
        return engine.run_spec(fixed)

    if case != "filter2":
        return {
            name: round(_score(sample, truth, run(name, options)), 4)
            for name, options in candidates
        }
    decisions = {
        (predicate, name): run(name, options, predicate=predicate, predicates=()).decisions
        for predicate in sample.all_predicates
        for name, options in candidates
    }
    scores = {}
    for combo in itertools.product([name for name, _ in candidates], repeat=2):
        predicted = [
            all(decisions[(p, name)].get(item, False) for p, name in zip(sample.all_predicates, combo))
            for item in sample.items
        ]
        scores["+".join(combo)] = round(f1_score(predicted, truth), 4)
    return scores


SELECTIONS: dict[tuple[str, str], list[tuple[str, dict, str, tuple[str, ...]]]] = {
    ("sort", "none"): [("pairwise", {}, "validation", SORTS)],
    ("sort", "spec_cap"): [("single_prompt", {}, "validation", SORTS)],
    ("sort", "session_budget"): [("rating", {}, "validation", SORTS)],
    ("sort", "target"): [("rating", {}, "validation", SORTS)],
    ("resolve", "none"): [("proxy_hybrid", {}, "validation", RESOLVES)],
    ("resolve", "spec_cap"): [("proxy_hybrid", {}, "validation", RESOLVES)],
    ("resolve", "session_budget"): [("proxy_hybrid", {}, "validation", RESOLVES)],
    ("resolve", "target"): [("proxy_hybrid", {}, "validation", RESOLVES)],
    ("impute", "none"): [("retrieval", {}, "validation", IMPUTES)],
    ("impute", "spec_cap"): [("knn", {}, "validation", IMPUTES)],
    ("impute", "session_budget"): [("knn", {}, "validation", IMPUTES)],
    ("impute", "target"): [("knn", {}, "validation", IMPUTES)],
    ("filter", "none"): [("ensemble_vote", ENSEMBLE, "validation", FILTERS)],
    ("filter", "spec_cap"): [("per_item", {}, "validation", FILTERS)],
    ("filter", "session_budget"): [("per_item", {}, "validation", FILTERS)],
    ("filter", "target"): [("ensemble_vote", ENSEMBLE, "validation", FILTERS)],
    ("filter2", "none"): [
        ("per_item", {}, "validation", FILTERS),
        ("ensemble_vote", ENSEMBLE, "validation", FILTERS),
    ],
    ("filter2", "spec_cap"): [
        ("per_item", {}, "validation", FILTERS),
        ("per_item", {}, "validation", FILTERS),
    ],
    ("filter2", "session_budget"): [
        ("per_item", {}, "validation", FILTERS),
        ("per_item", {}, "validation", FILTERS),
    ],
    ("filter2", "target"): [
        ("per_item", {}, "validation", FILTERS),
        ("per_item", {}, "validation", FILTERS),
    ],
    ("categorize", "none"): [("self_consistency", {"n_samples": 3}, "validation", CATEGORIZES)],
    ("categorize", "spec_cap"): [("per_item", {}, "validation", CATEGORIZES)],
    ("categorize", "session_budget"): [("per_item", {}, "validation", CATEGORIZES)],
    ("categorize", "target"): [("self_consistency", {"n_samples": 3}, "validation", CATEGORIZES)],
}

ACCURACIES: dict[str, dict[str, float]] = {
    "sort": {"single_prompt": 0.8095, "rating": 0.8571, "pairwise": 0.9048},
    "resolve": {"pairwise": 0.6667, "transitive": 0.6667, "proxy_hybrid": 0.8},
    "impute": {"knn": 0.9, "hybrid": 0.9, "retrieval": 1.0, "llm_only": 0.8},
    "filter": {"per_item": 0.75, "ensemble_vote": 0.8889, "adaptive": 0.8889},
    "filter2": {
        "per_item+per_item": 0.6667,
        "per_item+ensemble_vote": 0.8,
        "per_item+adaptive": 0.8,
        "ensemble_vote+per_item": 0.6667,
        "ensemble_vote+ensemble_vote": 0.8,
        "ensemble_vote+adaptive": 0.8,
        "adaptive+per_item": 0.6667,
        "adaptive+ensemble_vote": 0.8,
        "adaptive+adaptive": 0.8,
    },
    "categorize": {"per_item": 0.6667, "self_consistency": 0.8333, "ensemble_vote": 0.5833},
}


@pytest.mark.parametrize("case, condition", list(SELECTIONS), ids=[f"{c}-{k}" for c, k in SELECTIONS])
def test_each_labelled_spec_resolves_as_pinned(case, condition):
    assert selection(case, condition) == SELECTIONS[(case, condition)]


@pytest.mark.parametrize("case", list(ACCURACIES))
def test_each_candidate_measures_as_pinned(case):
    assert measured_accuracies(case) == ACCURACIES[case]


def test_the_table_covers_every_case_and_condition():
    assert set(SELECTIONS) == set(itertools.product(CASES, CONDITIONS))
    assert set(ACCURACIES) == set(CASES)


def _entry(key: Any, parts: list[str], brackets: str) -> list[str]:
    """``key: [parts]`` on one line, or one part a line when that is too long."""
    line = f"    {key!r}: {brackets[0]}{', '.join(parts)}{brackets[1]},"
    if len(line) <= 99:
        return [line]
    return [f"    {key!r}: {brackets[0]}", *(f"        {part}," for part in parts), f"    {brackets[1]},"]


def _table() -> str:
    """The current tables as this file spells them."""
    lines = ["SELECTIONS = {"]
    for key in itertools.product(CASES, CONDITIONS):
        rows = [repr(row) for row in selection(*key)]
        for constant, value in _NAMED.items():
            rows = [row.replace(repr(value), constant) for row in rows]
        lines += _entry(key, rows, "[]")
    lines += ["}", "ACCURACIES = {"]
    for case in CASES:
        lines += _entry(case, [f"{k!r}: {v!r}" for k, v in measured_accuracies(case).items()], "{}")
    return "\n".join([*lines, "}"]).replace("'", '"')


if __name__ == "__main__":
    print(_table())
