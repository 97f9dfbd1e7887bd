"""Tests for the strategy optimizer and the declarative engine facade."""

from __future__ import annotations

import pytest

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.optimizer import Measured, choose
from repro.core.spec import ImputeSpec, ResolveSpec, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import generate_restaurant_dataset
from repro.llm.simulated import SimulatedLLM
from repro.metrics.ranking import kendall_tau_b


def _measured(accuracies: dict[str, float], costs: dict[str, float]) -> list[Measured]:
    return [Measured(name, accuracies[name], costs[name]) for name in accuracies]


class TestChoose:
    def test_picks_most_accurate_within_budget(self):
        measured = _measured({"cheap": 0.6, "expensive": 0.9}, {"cheap": 0.1, "expensive": 10.0})
        assert choose(measured, remaining=1.0, accuracy_target=None).key == "cheap"
        assert choose(measured, remaining=100.0, accuracy_target=None).key == "expensive"

    def test_accuracy_target_prefers_cheapest_sufficient(self):
        measured = _measured({"cheap": 0.85, "expensive": 0.95}, {"cheap": 0.1, "expensive": 10.0})
        assert choose(measured, remaining=None, accuracy_target=0.8).key == "cheap"

    def test_nothing_affordable_falls_back_to_the_cheapest(self):
        measured = _measured({"dear": 0.9, "cheap": 0.6}, {"dear": 2.0, "cheap": 1.0})
        assert choose(measured, remaining=0.5, accuracy_target=None).key == "cheap"

    def test_ties_in_accuracy_go_to_the_cheaper(self):
        measured = _measured({"dear": 0.9, "cheap": 0.9}, {"dear": 2.0, "cheap": 1.0})
        assert choose(measured, remaining=None, accuracy_target=None).key == "cheap"


class TestDeclarativeEngine:
    def _engine(self, budget: Budget | None = None) -> DeclarativeEngine:
        return DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=91), budget=budget)

    def test_explicit_strategy_sort(self):
        engine = self._engine()
        result = engine.sort(
            SortSpec(items=list(FLAVORS), criterion=CHOCOLATEY, strategy="pairwise")
        )
        assert result.strategy == "pairwise"
        assert kendall_tau_b(result.order, list(FLAVORS)) > 0.5
        assert engine.spent_dollars > 0.0

    def test_auto_sort_without_validation_defaults_to_pairwise(self):
        engine = self._engine()
        result = engine.sort(
            SortSpec(items=list(FLAVORS[:8]), criterion=CHOCOLATEY, strategy="auto")
        )
        assert result.strategy == "pairwise"

    def test_auto_sort_with_validation_and_tight_budget_picks_cheap_strategy(self):
        engine = self._engine()
        spec = SortSpec(
            items=list(FLAVORS),
            criterion=CHOCOLATEY,
            strategy="auto",
            validation_order=list(FLAVORS[:6]),
            budget_dollars=0.0005,
        )
        result = engine.sort(spec)
        assert result.strategy in {"single_prompt", "rating"}

    def test_engine_impute_auto(self):
        data = generate_restaurant_dataset(80, seed=92)
        engine = DeclarativeEngine(SimulatedLLM(data.oracle(), seed=93))
        result = engine.impute(ImputeSpec(data=data, strategy="auto", validation_size=10))
        assert result.strategy in {"knn", "hybrid", "llm_only"}
        assert set(result.predictions) == set(data.ground_truth)

    def test_engine_resolve_records_clusters(self, citation_corpus):
        """Records-only resolve specs run whole-corpus clustering."""
        engine = DeclarativeEngine(SimulatedLLM(citation_corpus.oracle(), seed=94))
        texts = list(dict.fromkeys(citation_corpus.texts()))[:8]
        result = engine.resolve(ResolveSpec(records=texts, strategy="pairwise"))
        assert sorted(index for cluster in result.clusters for index in cluster) == list(
            range(len(texts))
        )

    def test_engine_resolve_transitive(self, citation_corpus):
        engine = DeclarativeEngine(SimulatedLLM(citation_corpus.oracle(), seed=95))
        pairs = [(pair.left_text, pair.right_text) for pair in citation_corpus.pairs[:20]]
        result = engine.resolve(
            ResolveSpec(
                pairs=pairs,
                records=citation_corpus.texts(),
                strategy="transitive",
                neighbors_k=1,
            )
        )
        assert len(result.judgments) == len(pairs)

    def test_budget_is_shared_across_engine_calls(self):
        engine = self._engine(budget=Budget(limit=10.0))
        engine.sort(SortSpec(items=list(FLAVORS[:6]), criterion=CHOCOLATEY, strategy="rating"))
        first_spend = engine.spent_dollars
        engine.sort(SortSpec(items=list(FLAVORS[6:12]), criterion=CHOCOLATEY, strategy="rating"))
        assert engine.spent_dollars > first_spend
