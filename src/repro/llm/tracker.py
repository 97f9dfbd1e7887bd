"""Usage tracking: token counts, dollar cost, and per-model breakdowns.

Every operator threads its LLM calls through a :class:`UsageTracker`, which is
what lets the declarative engine enforce budgets (Section 3) and lets the
benchmark harnesses report the prompt/completion token columns of Tables 1
and 4.

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

from repro.llm.base import BaseClient, Body, Call, LLMClient, LLMResponse
from repro.tokenizer.cost import CostModel, CostSummary, Usage


@dataclass
class UsageTracker:
    """Accumulates usage and cost across many LLM calls.

    Attributes:
        cost_model: prices used to convert token usage to dollars; optional —
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

    def record_usage(self, model: str, usage: Usage) -> None:
        """Record usage directly (e.g. for embedding calls)."""
        with self._lock:
            self._by_model.setdefault(model, Usage()).add(usage)

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

    def cost(self) -> float:
        """Total dollar cost; zero when no cost model is attached."""
        if self.cost_model is None:
            return 0.0
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
                model: self.cost_model.cost(model, usage)
                for model, usage in by_model.items()
                if self.cost_model.has_model(model)
            }
        return CostSummary(by_model=by_model, dollars_by_model=dollars)

    def reset(self) -> None:
        """Forget all recorded usage."""
        with self._lock:
            self._by_model.clear()


class TrackedClient(BaseClient):
    """LLM client wrapper that records every call into a :class:`UsageTracker`."""

    def __init__(self, client: LLMClient, tracker: UsageTracker) -> None:
        self._client = client
        self.tracker = tracker

    def _body(self, call: Call) -> Body:
        """Forward the call to the inner client and record it atomically."""
        responses = yield call.to(self._client)
        self.tracker.record_batch(responses)
        return responses
