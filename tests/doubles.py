"""Test doubles and driver helpers shared by the client / executor suites.

One copy of each fake client (the suites used to carry their own), plus the
three ways a piece of work can be *driven* — the sync entry points on the
calling thread, the sync entry points from a thread pool, the awaitable
entry points on an event loop — so a behaviour is asserted once and run
through all of them with ``@pytest.mark.parametrize("driver", DRIVERS)``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from repro.core.budget import Budget
from repro.core.executor import AsyncBatchExecutor, BatchExecutor
from repro.data.words import random_words
from repro.exceptions import RateLimitError, ResponseParseError
from repro.llm.base import LLMResponse
from repro.llm.oracle import Oracle
from repro.llm.prompts import RATING
from repro.llm.simulated import SimulatedLLM
from repro.obs import SpanTracker, TraceRecord
from repro.tokenizer.cost import Usage

CRITERION = "alphabetical order"

#: How a test drives the code under test; see :func:`complete_all` / :func:`executor_for`.
DRIVERS = ("sync", "threads", "async")
#: The drivers of an executor's ``map``, which only :class:`BatchExecutor` has.
MAP_DRIVERS = ("sync", "threads")

#: Worker count of the concurrent drivers.
FAN_OUT = 4


def simulated_client(seed: int = 3) -> SimulatedLLM:
    oracle = Oracle()
    oracle.register_key(CRITERION, lambda word: word.lower())
    return SimulatedLLM(oracle, seed=seed)


def rating_prompts(count: int) -> list[str]:
    return [RATING.render([word], (CRITERION,)) for word in random_words(count, seed=5)]


class EchoClient:
    """Sync-only deterministic client: counts calls, optionally charges a budget.

    Having no ``acomplete`` it also exercises the ``to_thread`` bridge of the
    async paths.  The response carries the call's model and temperature, so
    requests that differ only in those can be told apart.
    """

    default_model = "echo"

    def __init__(self, budget: Budget | None = None, charge: float = 0.0) -> None:
        self.budget = budget
        self.charge = charge
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.calls += 1
        if self.budget is not None:
            self.budget.charge(self.charge)
        return LLMResponse(
            text=f"echo:{prompt}",
            model=model or self.default_model,
            usage=Usage(1, 1, 1),
            metadata={"temperature": temperature},
        )


class CountingClient:
    """Counts the calls that reach it (thread-safe); answers from ``inner``,
    or with an echo when there is none.

    The first ``rate_limited`` calls raise :class:`RateLimitError` instead,
    and ``temperatures`` collects the temperatures asked for.
    """

    def __init__(self, inner: Any = None, *, rate_limited: int = 0) -> None:
        self._inner = inner
        self.default_model = getattr(inner, "default_model", "sim-gpt-3.5-turbo")
        self.rate_limited = rate_limited
        self.calls = 0
        self.temperatures: set[float] = set()
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.calls += 1
            calls = self.calls
            self.temperatures.add(temperature)
        if calls <= self.rate_limited:
            raise RateLimitError(retry_after=0.0)
        if self._inner is not None:
            return self._inner.complete(
                prompt, model=model, temperature=temperature, max_tokens=max_tokens
            )
        return LLMResponse(
            text=f"echo:{prompt}",
            model=model or self.default_model,
            usage=Usage(prompt_tokens=len(prompt.split()), completion_tokens=2, calls=1),
        )


class AsyncEchoClient:
    """Native-async client that records its peak concurrent in-flight count."""

    def __init__(self, latency: float = 0.0) -> None:
        self.latency = latency
        self.calls = 0
        self.in_flight = 0
        self.peak_in_flight = 0

    async def acomplete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        self.calls += 1
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            if self.latency:
                await asyncio.sleep(self.latency)
            return LLMResponse(
                text=f"echo:{prompt}", model=model or "async-echo", usage=Usage(1, 1, 1)
            )
        finally:
            self.in_flight -= 1


class LatencyClient:
    """Adds a fixed wait to every call of ``inner``, like an API round-trip.

    Longer than the executor's stall threshold, so a fanned-out bag really
    goes wide; no ``complete_batch``, so every unit task pays its own wait.
    Records the peak number of calls waiting at once.
    """

    def __init__(self, inner: Any, latency: float = 0.003) -> None:
        self._inner = inner
        self._latency = latency
        self.default_model = getattr(inner, "default_model", "default")
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            time.sleep(self._latency)
        finally:
            with self._lock:
                self.in_flight -= 1
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


class FlakyClient:
    """Answers ``"garbled ???"`` for its first ``bad_attempts`` calls, then ``"Yes."``."""

    def __init__(self, bad_attempts: int) -> None:
        self.bad_attempts = bad_attempts
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.calls += 1
            calls = self.calls
        return LLMResponse(
            text="garbled ???" if calls <= self.bad_attempts else "Yes.",
            model=model or "stub",
            usage=Usage(prompt_tokens=10, completion_tokens=5, calls=1),
            metadata={"temperature": temperature},
        )


class DyingClient:
    """Counts backend calls; once ``fail_after`` were made, every call runs ``die``.

    ``die`` defaults to raising a simulated crash; a test that wants the
    process itself killed, or the call held at a barrier, passes its own.
    """

    def __init__(self, inner: SimulatedLLM, fail_after: int | None, die=None) -> None:
        self._inner = inner
        self.fail_after = fail_after
        self.die = die or self._crash
        self.calls = 0
        self._lock = threading.Lock()

    @staticmethod
    def _crash() -> None:
        raise RuntimeError("simulated crash: process killed")

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            if self.calls == self.fail_after:
                self.die()
            self.calls += 1
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


class FailingOn:
    """The simulator, except that ``prompt`` raises a connection error; keeps
    the prompts it answered."""

    def __init__(self, prompt: str, inner: SimulatedLLM | None = None) -> None:
        self._inner = inner or simulated_client()
        self.default_model = self._inner.default_model
        self.prompt = prompt
        self.answered: list[str] = []

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        if prompt == self.prompt:
            raise ConnectionError("backend down")
        self.answered.append(prompt)
        return self._inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )


def yes_no_validator(text: str) -> bool:
    """Rejects :class:`FlakyClient`'s garbled answers the way a parser would."""
    if "yes" not in text.lower() and "no" not in text.lower():
        raise ResponseParseError("no yes/no answer", text)
    return True


def record_call(spans: SpanTracker, *, model: str = "m", **fields: Any) -> TraceRecord:
    """Record one settled call straight into ``spans``, as a session's settle does."""
    status = "ok" if fields.get("error") is None else "error"
    (span,) = spans.record_calls([(model, status, fields)])
    return TraceRecord.from_span(span)


# -- inner-client shapes ----------------------------------------------------------

#: What a third-party client may implement of the protocol.
SHAPES = ("full", "complete_only", "complete_acomplete")


class _CompleteOnly:
    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.default_model = getattr(inner, "default_model", "default")

    def complete(self, prompt, **params):
        return self._inner.complete(prompt, **params)


class _CompleteAndAcomplete(_CompleteOnly):
    async def acomplete(self, prompt, **params):
        return self._inner.complete(prompt, **params)


def shaped(client: Any, shape: str) -> Any:
    """``client`` exposing only the entry points a ``shape`` client implements."""
    if shape == "full":
        return client
    return {"complete_only": _CompleteOnly, "complete_acomplete": _CompleteAndAcomplete}[shape](
        client
    )


# -- drivers ----------------------------------------------------------------------

#: The four entry points of the client protocol.
ENTRY_POINTS = ("complete", "complete_batch", "acomplete", "acomplete_batch")


def ask(client: Any, entry_point: str, prompts: list[str], **params) -> list[LLMResponse]:
    """One response per prompt, obtained through one named entry point."""
    if entry_point == "complete":
        return [client.complete(prompt, **params) for prompt in prompts]
    if entry_point == "complete_batch":
        return client.complete_batch(prompts, **params)

    async def awaited() -> list[LLMResponse]:
        if entry_point == "acomplete":
            return [await client.acomplete(prompt, **params) for prompt in prompts]
        return await client.acomplete_batch(prompts, **params)

    return asyncio.run(awaited())


def executor_for(driver: str, client: Any, *, concurrency: int | None = None, **kwargs) -> Any:
    """An executor of the driver's kind: sequential, thread pool, or asyncio."""
    if driver == "sync":
        return BatchExecutor(client, max_concurrency=concurrency or 1, **kwargs)
    if driver == "threads":
        return BatchExecutor(client, max_concurrency=concurrency or FAN_OUT, **kwargs)
    return AsyncBatchExecutor(client, max_concurrency=concurrency or FAN_OUT, **kwargs)


def call(executor: Any, method: str, argument: Any) -> Any:
    """``executor.run(...)``, awaited when it is async (or ``executor.map(...)``)."""
    result = getattr(executor, method)(argument)
    return asyncio.run(result) if asyncio.iscoroutine(result) else result


def hop(fn: Any, *args: Any, **kwargs: Any) -> Any:
    """``fn(*args, **kwargs)`` run as a service job runs its pipeline.

    From inside ``asyncio.run``, through one ``asyncio.to_thread`` hop, which
    copies the loop's context (trace labels, the open span) to the worker.
    """

    async def hopped() -> Any:
        return await asyncio.to_thread(fn, *args, **kwargs)

    return asyncio.run(hopped())
