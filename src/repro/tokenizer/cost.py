"""Per-token pricing and usage accounting.

The paper reports cost in raw prompt/completion token counts (Tables 1 and 4);
dollar cost is a linear function of those counts with per-model rates.  This
module provides both: a :class:`Usage` record that accumulates token counts,
and a :class:`CostModel` that converts usage to money given a price table.

Money is counted in whole nano-dollars (n$, 1e-9 $), so every sum is exact:
prices are whole n$ per token (1 $/M is 1 000 n$ a token), and a cost is an
``int``.  :func:`to_nanos` and :func:`to_dollars` are the only conversions;
public dollar values are floats read from the integer at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, UnknownModelError

#: Nano-dollars to the dollar.
NANOS_PER_DOLLAR = 1_000_000_000


def to_nanos(dollars: float) -> int:
    """The whole n$ nearest to ``dollars``; a ``ConfigurationError`` when there
    is none (not finite, or over about 1.8e299 dollars)."""
    nanos = dollars * NANOS_PER_DOLLAR
    if not math.isfinite(nanos):
        raise ConfigurationError(f"{dollars!r} dollars cannot be counted in whole n$")
    return round(nanos)


def to_dollars(nanos: int) -> float:
    """``nanos`` n$ as float dollars (the nearest float to the exact decimal)."""
    return nanos / NANOS_PER_DOLLAR


@dataclass
class Usage:
    """Token usage of one or more LLM calls.

    Attributes:
        prompt_tokens: total tokens sent to the model.
        completion_tokens: total tokens generated by the model.
        calls: number of API calls represented by this usage record.
    """

    prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0

    def add(self, other: "Usage") -> None:
        """Accumulate another usage record into this one in place."""
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.calls += other.calls

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
            calls=self.calls + other.calls,
        )

    def copy(self) -> "Usage":
        """Return an independent copy of this usage record."""
        return Usage(self.prompt_tokens, self.completion_tokens, self.calls)


def _nanos_per_token(per_million: float) -> int:
    """Whole n$ a token at ``per_million`` $/M (1 $/M is 1 000 n$ a token)."""
    if per_million < 0:
        raise ConfigurationError("prices must be non-negative")
    nanos = round(per_million * 1000)
    # Exact: both sides are the nearest float to one decimal, or it is finer.
    if nanos / 1000 != per_million:
        raise ConfigurationError(f"price {per_million} $/M is finer than 0.001 $/M, 1 n$ a token")
    return nanos


@dataclass(frozen=True)
class PriceTable:
    """Per-million-token prices for a single model.

    Attributes:
        prompt_price_per_million: dollars per 1M prompt tokens.
        completion_price_per_million: dollars per 1M completion tokens.
        prompt_nanos / completion_nanos: the same prices in whole n$ per
            token; a price finer than 0.001 $/M is a ``ConfigurationError``.
    """

    prompt_price_per_million: float
    completion_price_per_million: float
    prompt_nanos: int = field(init=False, repr=False)
    completion_nanos: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt_nanos", _nanos_per_token(self.prompt_price_per_million))
        object.__setattr__(
            self, "completion_nanos", _nanos_per_token(self.completion_price_per_million)
        )

    def cost(self, usage: Usage) -> int:
        """Whole n$ ``usage`` costs under this price table."""
        return (
            usage.prompt_tokens * self.prompt_nanos
            + usage.completion_tokens * self.completion_nanos
        )


class CostModel:
    """Maps (model name, usage) pairs to cost in n$.

    The model registry populates a :class:`CostModel` with one
    :class:`PriceTable` per model; the usage tracker then asks it to price
    every call.
    """

    def __init__(self, prices: dict[str, PriceTable] | None = None) -> None:
        self._prices: dict[str, PriceTable] = dict(prices or {})

    def register(self, model: str, table: PriceTable) -> None:
        """Register (or replace) the price table for ``model``."""
        self._prices[model] = table

    def has_model(self, model: str) -> bool:
        """Return whether a price table is registered for ``model``."""
        return model in self._prices

    def price_table(self, model: str) -> PriceTable:
        """Return the price table for ``model`` or raise ``UnknownModelError``."""
        try:
            return self._prices[model]
        except KeyError as exc:
            raise UnknownModelError(f"no price table registered for model {model!r}") from exc

    def cost(self, model: str, usage: Usage) -> int:
        """Whole n$ ``usage`` costs when run against ``model``."""
        return self.price_table(model).cost(usage)

    def models(self) -> list[str]:
        """Return the registered model names, sorted."""
        return sorted(self._prices)


@dataclass
class CostSummary:
    """Aggregated usage and dollar cost broken down by model."""

    by_model: dict[str, Usage] = field(default_factory=dict)
    dollars_by_model: dict[str, float] = field(default_factory=dict)

    @property
    def total_usage(self) -> Usage:
        total = Usage()
        for usage in self.by_model.values():
            total.add(usage)
        return total

    @property
    def total_dollars(self) -> float:
        """The sum of the per-model dollars, added in whole n$."""
        return to_dollars(sum(to_nanos(dollars) for dollars in self.dollars_by_model.values()))
