"""Usage tracking: token counts, their cost, and per-model breakdowns.

A :class:`UsageTracker` is a book of LLM calls: the session settles every call
into its own (the one budgets, metrics and reports reconcile against) and
into its pipeline step's, and each operator run books its calls in a fresh
one, its ``result.usage`` and ``result.cost`` (the columns of Tables 1-4).

The tracker is thread-safe: the batched execution layer
(:mod:`repro.core.executor`) records usage from a pool of worker threads, so
every mutation of the per-model accumulators happens under a lock and no
update is ever lost.  ``record_batch`` applies a whole batch's usage as one
atomic delta.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.llm.base import LLMResponse
from repro.tokenizer.cost import CostModel, CostSummary, Usage, to_dollars


@dataclass
class UsageTracker:
    """Accumulates usage and cost across many LLM calls.

    Attributes:
        cost_model: prices used to convert token usage to money; optional —
            without it the tracker still counts tokens and calls.
    """

    cost_model: CostModel | None = None
    _by_model: dict[str, Usage] = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)

    def record(self, response: LLMResponse) -> None:
        """Record the usage of one response."""
        with self._lock:
            usage = self._by_model.setdefault(response.model, Usage())
            usage.add(response.usage)

    def record_batch(self, responses: Iterable[LLMResponse]) -> None:
        """Record a whole batch of responses as one atomic delta."""
        with self._lock:
            for response in responses:
                self._by_model.setdefault(response.model, Usage()).add(response.usage)

    @property
    def usage(self) -> Usage:
        """Total usage across every model."""
        total = Usage()
        with self._lock:
            for usage in self._by_model.values():
                total.add(usage)
        return total

    @property
    def prompt_tokens(self) -> int:
        return self.usage.prompt_tokens

    @property
    def completion_tokens(self) -> int:
        return self.usage.completion_tokens

    @property
    def calls(self) -> int:
        return self.usage.calls

    def cost(self) -> int:
        """Total cost in whole n$; zero when no cost model is attached."""
        if self.cost_model is None:
            return 0
        with self._lock:
            return sum(
                self.cost_model.cost(model, usage)
                for model, usage in self._by_model.items()
                if self.cost_model.has_model(model)
            )

    def summary(self) -> CostSummary:
        """Per-model usage and dollar breakdown."""
        with self._lock:
            by_model = {model: usage.copy() for model, usage in self._by_model.items()}
        dollars = {}
        if self.cost_model is not None:
            dollars = {
                model: to_dollars(self.cost_model.cost(model, usage))
                for model, usage in by_model.items()
                if self.cost_model.has_model(model)
            }
        return CostSummary(by_model=by_model, dollars_by_model=dollars)

    def reset(self) -> None:
        """Forget all recorded usage."""
        with self._lock:
            self._by_model.clear()

