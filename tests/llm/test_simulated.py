"""Tests for the SimulatedLLM client surface (context limits, usage, determinism)."""

from __future__ import annotations

import pytest

from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import (
    ConfigurationError,
    ContextLengthExceededError,
    ResponseParseError,
    UnknownModelError,
)
from repro.llm.prompts import pairwise_comparison_prompt, sort_list_prompt
from repro.llm.registry import ModelRegistry, ModelSpec, default_registry
from repro.llm.simulated import SimulatedLLM, _stable_seed
from repro.tokenizer.cost import PriceTable


class TestStableSeed:
    def test_same_inputs_same_seed(self):
        assert _stable_seed("a", 1, "b") == _stable_seed("a", 1, "b")

    def test_different_inputs_different_seed(self):
        assert _stable_seed("a") != _stable_seed("b")


class TestCompleteBasics:
    def test_usage_reflects_prompt_and_completion(self, flavor_llm):
        prompt = pairwise_comparison_prompt(FLAVORS[0], FLAVORS[1], CHOCOLATEY)
        response = flavor_llm.complete(prompt)
        assert response.usage.prompt_tokens > 0
        assert response.usage.completion_tokens > 0
        assert response.usage.calls == 1
        assert response.model == "sim-gpt-3.5-turbo"

    def test_unknown_model_raises(self, flavor_llm):
        with pytest.raises(UnknownModelError):
            flavor_llm.complete("### TASK: rating\n[0] x", model="nonexistent-model")

    def test_embedding_model_cannot_complete(self, flavor_llm):
        with pytest.raises(ResponseParseError):
            flavor_llm.complete("### TASK: rating\n[0] x", model="sim-embedding-ada-002")

    def test_confidence_within_unit_interval(self, flavor_llm):
        response = flavor_llm.complete(
            pairwise_comparison_prompt(FLAVORS[0], FLAVORS[-1], CHOCOLATEY)
        )
        assert 0.0 <= response.confidence <= 1.0

    def test_unstructured_prompt_gets_fallback_response(self, flavor_llm):
        response = flavor_llm.complete("please help me sort my sock drawer")
        assert response.text
        assert response.confidence <= 0.2

    def test_unknown_task_gets_fallback_response(self, flavor_llm):
        response = flavor_llm.complete("### TASK: write_poem\n[0] roses")
        assert "write_poem" in response.text


class TestDeterminismAndTemperature:
    def test_temperature_zero_is_deterministic(self, flavor_llm):
        prompt = pairwise_comparison_prompt(FLAVORS[5], FLAVORS[6], CHOCOLATEY)
        assert flavor_llm.complete(prompt).text == flavor_llm.complete(prompt).text

    def test_same_seed_same_behaviour_across_clients(self):
        prompt = pairwise_comparison_prompt(FLAVORS[5], FLAVORS[6], CHOCOLATEY)
        first = SimulatedLLM(flavor_oracle(), seed=99).complete(prompt)
        second = SimulatedLLM(flavor_oracle(), seed=99).complete(prompt)
        assert first.text == second.text

    def test_different_seeds_can_differ(self):
        prompt = sort_list_prompt(list(FLAVORS), CHOCOLATEY)
        texts = {
            SimulatedLLM(flavor_oracle(), seed=seed).complete(prompt).text for seed in range(5)
        }
        assert len(texts) > 1

    def test_nonzero_temperature_varies_across_calls(self):
        llm = SimulatedLLM(flavor_oracle(), seed=1)
        prompt = sort_list_prompt(list(FLAVORS), CHOCOLATEY)
        texts = {llm.complete(prompt, temperature=0.8).text for _ in range(5)}
        assert len(texts) > 1

    def test_reset_restores_sampling_sequence(self):
        llm = SimulatedLLM(flavor_oracle(), seed=1)
        prompt = sort_list_prompt(list(FLAVORS), CHOCOLATEY)
        first_run = [llm.complete(prompt, temperature=0.8).text for _ in range(3)]
        llm.reset()
        second_run = [llm.complete(prompt, temperature=0.8).text for _ in range(3)]
        assert first_run == second_run


class TestContextAndTruncation:
    def _tiny_registry(self) -> ModelRegistry:
        return ModelRegistry(
            [
                ModelSpec(
                    name="tiny",
                    context_length=60,
                    prices=PriceTable(1.0, 1.0),
                    quality=0.8,
                )
            ]
        )

    def test_prompt_exceeding_context_raises(self):
        llm = SimulatedLLM(flavor_oracle(), registry=self._tiny_registry(), default_model="tiny")
        long_prompt = sort_list_prompt(list(FLAVORS), CHOCOLATEY)
        with pytest.raises(ContextLengthExceededError) as excinfo:
            llm.complete(long_prompt)
        assert excinfo.value.context_length == 60

    def test_max_tokens_truncates_completion(self, flavor_llm):
        prompt = sort_list_prompt(list(FLAVORS), CHOCOLATEY)
        response = flavor_llm.complete(prompt, max_tokens=10)
        assert response.usage.completion_tokens <= 10
        assert response.finish_reason == "length"

    def test_zero_max_tokens_is_an_empty_completion(self, flavor_llm):
        response = flavor_llm.complete(sort_list_prompt(list(FLAVORS), CHOCOLATEY), max_tokens=0)
        assert (response.text, response.usage.completion_tokens) == ("", 0)
        assert response.finish_reason == "length"
        assert response.usage.prompt_tokens > 0

    @pytest.mark.parametrize("max_tokens", [-1, -3])
    def test_negative_max_tokens_is_refused_before_any_count(self, flavor_llm, max_tokens):
        """Regression: it came back as ``Usage(completion_tokens=-3)``."""
        flavor_llm.tokenizer = None  # reaching a count would raise AttributeError
        with pytest.raises(ConfigurationError, match="max_tokens"):
            flavor_llm.complete(sort_list_prompt(list(FLAVORS), CHOCOLATEY), max_tokens=max_tokens)
        with pytest.raises(ConfigurationError, match="max_tokens"):
            flavor_llm.complete_batch(["anything"], max_tokens=max_tokens)

    def test_default_registry_has_papers_models(self):
        registry = default_registry()
        for name in ("sim-gpt-3.5-turbo", "sim-claude-2", "sim-claude", "sim-embedding-ada-002"):
            assert name in registry
