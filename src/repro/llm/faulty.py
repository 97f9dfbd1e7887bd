"""A fault double: a backend that fails, garbles or holds the calls a plan names.

:class:`FaultyLLM` answers from an inner client, except where its **plan**
names a fault.  The plan maps the 0-based index of a call, as the call
starts, or the call's prompt, to one of:

* an exception class or instance, which the call raises: it counts as
  started, not answered;
* a ``str``, which replaces the inner answer's text and keeps its usage, so a
  garbled answer is still paid for;
* any other callable, run before the answer and outside the double's lock: a
  hold (``event.wait``, ``barrier.wait``) or a kill (``os._exit``).

``delay`` makes every call wait that long, like an API round-trip.  The plan
is data: a sweep draws it from its own seed, and answer errors at rates are
the simulator's (:class:`~repro.llm.behaviors.BehaviorConfig`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Mapping

from repro.llm.base import BaseClient, LLMResponse


def _raises(fault: Any) -> bool:
    return isinstance(fault, BaseException) or (
        isinstance(fault, type) and issubclass(fault, BaseException)
    )


class FaultyLLM(BaseClient):
    """A backend that answers from ``inner`` except where ``plan`` names a fault.

    Attributes:
        waits: true when the double delays or holds a call, otherwise the
            inner client's ``waits`` (one without it is taken to wait).
        calls: how many calls have started.
        answered: the prompts of the calls that came back, in order.
    """

    def __init__(
        self, inner: Any, plan: Mapping[int | str, Any] | None = None, *, delay: float = 0.0
    ) -> None:
        # ``_inner``, not ``_client``: the executor reads this double's ``waits``.
        self._inner = inner
        self.plan = dict(plan or {})
        self.delay = delay
        if hasattr(inner, "default_model"):  # a session's model when a call names none
            self.default_model = inner.default_model
        holds = any(callable(fault) and not _raises(fault) for fault in self.plan.values())
        self.waits = delay > 0 or holds or getattr(inner, "waits", True)
        self.calls = 0
        self.answered: list[str] = []
        self._lock = threading.Lock()

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        with self._lock:
            fault = self.plan.get(self.calls, self.plan.get(prompt))
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        if _raises(fault):
            raise fault
        if callable(fault):
            fault()
        response = self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )
        if isinstance(fault, str):
            response = replace(response, text=fault)
        with self._lock:
            self.answered.append(prompt)
        return response
