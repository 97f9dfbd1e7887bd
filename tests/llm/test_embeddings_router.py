"""Tests for the hashing embedder and the cascade / ensemble routers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import PromptSession
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import ConfigurationError
from repro.llm.embeddings import HashingEmbedder
from repro.llm.prompts import pairwise_comparison_prompt
from repro.llm.registry import default_registry
from repro.llm.router import CascadeRouter, CascadeTier, EnsembleClient
from repro.llm.simulated import SimulatedLLM
from repro.llm.tracker import TrackedClient, UsageTracker
from tests.doubles import ENTRY_POINTS, ask


class TestHashingEmbedder:
    def test_embedding_is_unit_norm(self):
        vector = HashingEmbedder().embed("indexing the positions of continuous queries")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_embedding_is_deterministic(self):
        embedder = HashingEmbedder()
        first = embedder.embed("declarative crowdsourcing")
        second = embedder.embed("declarative crowdsourcing")
        assert np.allclose(first, second)

    def test_similar_strings_are_closer_than_dissimilar(self):
        embedder = HashingEmbedder()
        base = embedder.embed("Indexing the Positions of Continuously Moving Objects. SIGMOD")
        near = embedder.embed("indexing the positions of continuously moving objects. sigmod 2000")
        far = embedder.embed("A Completely Different Paper About Neural Networks. NeurIPS")
        assert HashingEmbedder.l2_distance(base, near) < HashingEmbedder.l2_distance(base, far)

    def test_batch_shape(self):
        matrix = HashingEmbedder(dimensions=64).embed_batch(["a b c", "d e f"])
        assert matrix.shape == (2, 64)

    def test_empty_batch(self):
        assert HashingEmbedder().embed_batch([]).shape[0] == 0

    def test_nearest_neighbors_exclude_self_and_respect_k(self):
        texts = ["alpha beta", "alpha beta gamma", "zeta omega", "zeta omega psi"]
        neighbors = HashingEmbedder().nearest_neighbors(texts, k=1)
        assert neighbors[0] == [1]
        assert neighbors[2] == [3]
        assert all(len(v) == 1 for v in neighbors.values())

    def test_nearest_neighbors_k_zero(self):
        neighbors = HashingEmbedder().nearest_neighbors(["a", "b"], k=0)
        assert neighbors == {0: [], 1: []}

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HashingEmbedder(dimensions=0)
        with pytest.raises(ConfigurationError):
            HashingEmbedder(ngram_sizes=())
        with pytest.raises(ConfigurationError):
            HashingEmbedder().nearest_neighbors(["a"], k=-1)

    def test_usage_is_tracked(self):
        embedder = HashingEmbedder()
        embedder.embed("some text to embed")
        assert embedder.usage.calls == 1
        assert embedder.usage.prompt_tokens > 0


class TestCascadeRouter:
    def _tiers(self):
        oracle = flavor_oracle()
        client = SimulatedLLM(oracle, seed=5)
        return [
            CascadeTier(model="sim-small", client=client),
            CascadeTier(model="sim-gpt-4", client=client),
        ]

    def test_empty_cascade_rejected(self):
        with pytest.raises(ConfigurationError):
            CascadeRouter([])

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            CascadeRouter(self._tiers(), confidence_threshold=1.5)

    def test_high_threshold_escalates(self):
        router = CascadeRouter(self._tiers(), confidence_threshold=0.999)
        prompt = pairwise_comparison_prompt(FLAVORS[9], FLAVORS[10], CHOCOLATEY)
        response = router.complete(prompt)
        assert response.metadata["cascade_tiers"] == ["sim-small", "sim-gpt-4"]
        assert router.escalations >= 1

    def test_low_threshold_stays_on_cheap_tier(self):
        router = CascadeRouter(self._tiers(), confidence_threshold=0.0)
        prompt = pairwise_comparison_prompt(FLAVORS[0], FLAVORS[-1], CHOCOLATEY)
        response = router.complete(prompt)
        assert response.metadata["cascade_tiers"] == ["sim-small"]

    def test_usage_accumulates_across_tiers(self):
        router = CascadeRouter(self._tiers(), confidence_threshold=0.999)
        prompt = pairwise_comparison_prompt(FLAVORS[9], FLAVORS[10], CHOCOLATEY)
        response = router.complete(prompt)
        assert response.usage.calls == 2


class TestEnsembleClient:
    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleClient([])

    def test_complete_all_returns_every_member(self):
        oracle = flavor_oracle()
        client = SimulatedLLM(oracle, seed=6)
        ensemble = EnsembleClient(
            [
                CascadeTier(model="sim-gpt-3.5-turbo", client=client),
                CascadeTier(model="sim-claude", client=client),
                CascadeTier(model="sim-small", client=client),
            ]
        )
        prompt = pairwise_comparison_prompt(FLAVORS[0], FLAVORS[5], CHOCOLATEY)
        result = ensemble.complete_all(prompt)
        assert len(result.responses) == 3
        assert result.usage.calls == 3
        assert len(result.texts) == 3

    def test_llmclient_compatible_complete(self):
        oracle = flavor_oracle()
        client = SimulatedLLM(oracle, seed=6)
        ensemble = EnsembleClient([CascadeTier(model="sim-claude", client=client)])
        prompt = pairwise_comparison_prompt(FLAVORS[0], FLAVORS[5], CHOCOLATEY)
        assert ensemble.complete(prompt).model == "sim-claude"

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_a_session_is_charged_for_every_member(self, entry_point):
        # Regression: ``complete`` returned the first member's response with
        # that member's usage only, so a session over a 3-member ensemble
        # made 3 backend calls and recorded (and charged) one.
        model = "sim-gpt-3.5-turbo"
        trackers = [UsageTracker(cost_model=default_registry().cost_model()) for _ in range(3)]
        ensemble = EnsembleClient(
            [
                CascadeTier(model, TrackedClient(SimulatedLLM(flavor_oracle(), seed=seed), tracker))
                for seed, tracker in enumerate(trackers)
            ]
        )
        session = PromptSession(ensemble, use_cache=False)
        prompts = [
            pairwise_comparison_prompt(FLAVORS[0], FLAVORS[index], CHOCOLATEY) for index in (3, 5)
        ]
        responses = ask(session.client(), entry_point, prompts)
        assert [r.metadata["ensemble_members"] for r in responses] == [[model] * 3] * 2
        assert session.tracker.calls == sum(tracker.calls for tracker in trackers) == 6
        assert session.tracker.usage.total_tokens == sum(
            tracker.usage.total_tokens for tracker in trackers
        )
        member_dollars = sum(tracker.cost() for tracker in trackers)
        assert session.tracker.cost() == pytest.approx(member_dollars)
        assert session.budget.spent == pytest.approx(member_dollars)
        assert sum(record.cost for record in session.spans.records()) == pytest.approx(
            member_dollars
        )
