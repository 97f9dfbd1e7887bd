"""Tests for the model registry."""

from __future__ import annotations

import pytest

from repro.exceptions import UnknownModelError
from repro.llm.registry import ModelRegistry, ModelSpec, default_registry
from repro.tokenizer.cost import PriceTable
from repro.exceptions import ConfigurationError


class TestModelSpec:
    def test_invalid_context_length(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(name="x", context_length=0, prices=PriceTable(1, 1))

    def test_invalid_quality(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(name="x", context_length=10, prices=PriceTable(1, 1), quality=1.5)

    def test_invalid_kind(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(name="x", context_length=10, prices=PriceTable(1, 1), kind="image")


class TestModelRegistry:
    def test_register_and_get(self):
        registry = ModelRegistry()
        spec = ModelSpec(name="m", context_length=100, prices=PriceTable(1, 2))
        registry.register(spec)
        assert registry.get("m") is spec
        assert "m" in registry

    def test_unknown_model_raises_with_known_names(self):
        registry = default_registry()
        with pytest.raises(UnknownModelError) as excinfo:
            registry.get("gpt-99")
        assert "sim-gpt-3.5-turbo" in str(excinfo.value)

    def test_names_filtered_by_kind(self):
        registry = default_registry()
        assert "sim-embedding-ada-002" in registry.names(kind="embedding")
        assert "sim-embedding-ada-002" not in registry.names(kind="chat")

    def test_chat_models_sorted_by_cost(self):
        ordered = default_registry().chat_models_by_cost()
        prices = [spec.prices.prompt_price_per_million for spec in ordered]
        assert prices == sorted(prices)
        assert ordered[0].name == "sim-small"

    def test_cost_model_covers_every_model(self):
        registry = default_registry()
        cost_model = registry.cost_model()
        for name in registry.names():
            assert cost_model.has_model(name)

    def test_default_registry_claude2_has_long_context(self):
        assert default_registry().get("sim-claude-2").context_length >= 100_000

    def test_default_registries_share_their_specs(self):
        first, second = default_registry(), default_registry()
        assert first.get("sim-gpt-4") is second.get("sim-gpt-4")
        assert first.get("sim-small").prices is second.get("sim-small").prices

    def test_a_default_registry_is_the_callers_to_extend(self):
        first, second = default_registry(), default_registry()
        first.register(ModelSpec(name="mine", context_length=100, prices=PriceTable(1, 2)))
        assert "mine" in first
        assert "mine" not in second
        assert "mine" not in default_registry()
