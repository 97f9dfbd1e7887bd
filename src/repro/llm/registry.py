"""Model registry: names, context lengths, prices, and quality tiers.

The registry plays the role of the provider catalogue: operators ask it which
models exist, what their context windows are, and what they cost.  The default
registry contains simulated analogues of the models used in the paper plus a
cheap small model and an expensive high-quality model so that the planner's
cost comparisons (an ensemble's cheapest voters, for one) have a meaningful
cost spread to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError, UnknownModelError
from repro.tokenizer.cost import CostModel, PriceTable


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a model.

    Attributes:
        name: model identifier used in API calls.
        context_length: maximum prompt + completion tokens.
        prices: per-million-token price table.
        quality: relative answer quality in ``[0, 1]``; the simulator scales
            its error rates by this value so cheaper models are noisier.
        kind: ``"chat"`` or ``"embedding"``.
    """

    name: str
    context_length: int
    prices: PriceTable
    quality: float = 0.8
    kind: str = "chat"

    def __post_init__(self) -> None:
        if self.context_length <= 0:
            raise ConfigurationError("context_length must be positive")
        if not 0.0 <= self.quality <= 1.0:
            raise ConfigurationError("quality must be within [0, 1]")
        if self.kind not in {"chat", "embedding"}:
            raise ConfigurationError(f"unsupported model kind: {self.kind!r}")


class ModelRegistry:
    """Mutable catalogue of :class:`ModelSpec` entries."""

    def __init__(self, specs: list[ModelSpec] | None = None) -> None:
        self._specs: dict[str, ModelSpec] = {}
        for spec in specs or []:
            self.register(spec)

    def register(self, spec: ModelSpec) -> None:
        """Add or replace a model spec."""
        self._specs[spec.name] = spec

    def get(self, name: str) -> ModelSpec:
        """Return the spec for ``name`` or raise :class:`UnknownModelError`."""
        try:
            return self._specs[name]
        except KeyError as exc:
            raise UnknownModelError(
                f"unknown model {name!r}; known models: {', '.join(sorted(self._specs))}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self, kind: str | None = None) -> list[str]:
        """Return registered model names, optionally restricted to one kind."""
        return sorted(
            name for name, spec in self._specs.items() if kind is None or spec.kind == kind
        )

    def chat_models_by_cost(self) -> list[ModelSpec]:
        """Chat models sorted from cheapest to most expensive prompt price."""
        chat = [spec for spec in self._specs.values() if spec.kind == "chat"]
        return sorted(chat, key=lambda spec: spec.prices.prompt_price_per_million)

    def cost_model(self) -> CostModel:
        """Build a :class:`CostModel` covering every registered model."""
        return CostModel({name: spec.prices for name, spec in self._specs.items()})


#: Simulated analogues of the paper's models, built once: specs and their
#: price tables are frozen, so every default registry shares them.
_DEFAULT_SPECS = (
    ModelSpec(
        name="sim-gpt-3.5-turbo",
        context_length=4_096,
        prices=PriceTable(1.5, 2.0),
        quality=0.80,
    ),
    ModelSpec(
        name="sim-gpt-4",
        context_length=8_192,
        prices=PriceTable(30.0, 60.0),
        quality=0.95,
    ),
    ModelSpec(
        name="sim-claude",
        context_length=9_000,
        prices=PriceTable(11.0, 32.0),
        quality=0.82,
    ),
    ModelSpec(
        name="sim-claude-2",
        context_length=100_000,
        prices=PriceTable(11.0, 32.0),
        quality=0.85,
    ),
    ModelSpec(
        name="sim-small",
        context_length=2_048,
        prices=PriceTable(0.2, 0.4),
        quality=0.55,
    ),
    ModelSpec(
        name="sim-embedding-ada-002",
        context_length=8_191,
        prices=PriceTable(0.1, 0.0),
        quality=0.7,
        kind="embedding",
    ),
)


def default_registry() -> ModelRegistry:
    """A fresh registry with simulated analogues of the paper's models.

    Prices follow the mid-2023 public price lists for the corresponding real
    models (per million tokens), which is what the paper's token counts were
    priced against; exact values only matter relative to one another.  The
    registry is the caller's to extend; the specs in it are shared.
    """
    return ModelRegistry(list(_DEFAULT_SPECS))
