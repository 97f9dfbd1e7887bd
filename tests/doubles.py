"""Test doubles and driver helpers shared by the client / executor suites.

One copy of each fake client (the suites used to carry their own), plus the
three ways a bag can be *driven* — sequentially on the calling thread, fanned
out from it, and awaited from an event loop (one thread hop into the fanned-out
executor) — so a behaviour is asserted once and run through all of them with
``@pytest.mark.parametrize("driver", DRIVERS)``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from repro.core.budget import Budget
from repro.core.executor import AsyncBatchExecutor, BatchExecutor
from repro.data.words import random_words
from repro.exceptions import ResponseParseError
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


def tokens(usage: Usage) -> int:
    """Prompt plus completion tokens of ``usage``."""
    return usage.prompt_tokens + usage.completion_tokens


class EchoClient:
    """Deterministic client: counts calls, optionally charges a budget.

    The response carries the call's model and temperature, so requests that
    differ only in those can be told apart.  ``reply`` answers every call with
    that text instead, at ``tokens`` (prompt, completion) tokens.
    """

    default_model = "echo"
    waits = False

    def __init__(
        self,
        budget: Budget | None = None,
        charge: float = 0.0,
        *,
        reply: str | None = None,
        tokens: tuple[int, int] = (1, 1),
    ) -> None:
        self.budget = budget
        self.charge = charge
        self.reply = reply
        self.tokens = tokens
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.calls += 1
        if self.budget is not None:
            self.budget.charge(self.charge)
        return LLMResponse(
            text=f"echo:{prompt}" if self.reply is None else self.reply,
            model=model or self.default_model,
            usage=Usage(*self.tokens, 1),
            metadata={"temperature": temperature},
        )


class CountingClient:
    """Counts the calls that reach it (thread-safe); answers from ``inner``,
    or with an echo when there is none.

    ``temperatures`` collects the temperatures asked for.
    """

    waits = False

    def __init__(self, inner: Any = None) -> None:
        self._inner = inner
        self.default_model = getattr(inner, "default_model", "sim-gpt-3.5-turbo")
        self.calls = 0
        self.temperatures: set[float] = set()
        self._lock = threading.Lock()

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        with self._lock:
            self.calls += 1
            self.temperatures.add(temperature)
        if self._inner is not None:
            return self._inner.complete(
                prompt, model=model, temperature=temperature, max_tokens=max_tokens
            )
        return LLMResponse(
            text=f"echo:{prompt}",
            model=model or self.default_model,
            usage=Usage(prompt_tokens=len(prompt.split()), completion_tokens=2, calls=1),
        )


class LatencyClient:
    """Adds a fixed wait to every call of ``inner``, like an API round-trip.

    It declares that it waits, so a fanned-out bag goes wide; no
    ``complete_batch``, so every unit task pays its own wait.  Records the
    peak number of calls waiting at once.
    """

    waits = True

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


class ScriptedClock:
    """Virtual time for :mod:`repro.clock`, installed by the ``scripted_clock``
    fixture: ``now()`` reads it, ``sleep(seconds)`` advances it and records the
    wait into ``sleeps``, ``advance(seconds)`` moves it without a record."""

    def __init__(self) -> None:
        self.time = 0.0
        self.sleeps: list[float] = []
        self._lock = threading.Lock()

    def now(self) -> float:
        return self.time

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append(seconds)
            self.time += seconds

    def advance(self, seconds: float) -> None:
        with self._lock:
            self.time += seconds


def yes_backend() -> EchoClient:
    """A backend that answers every call ``"Yes."``, at 10 prompt and 5
    completion tokens: a fault plan's garbled answers keep that usage."""
    return EchoClient(reply="Yes.", tokens=(10, 5))


def garbled(count: int) -> dict[int, str]:
    """A fault plan that garbles the first ``count`` calls."""
    return dict.fromkeys(range(count), "garbled ???")


def yes_no_validator(text: str) -> bool:
    """Rejects :func:`garbled` answers the way a parser would."""
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
SHAPES = ("full", "complete_only")


class _CompleteOnly:
    waits = False

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.default_model = getattr(inner, "default_model", "default")

    def complete(self, prompt, **params):
        return self._inner.complete(prompt, **params)


def shaped(client: Any, shape: str) -> Any:
    """``client`` exposing only the entry points a ``shape`` client implements."""
    return client if shape == "full" else _CompleteOnly(client)


# -- drivers ----------------------------------------------------------------------

#: The two entry points of the client protocol.
ENTRY_POINTS = ("complete", "complete_batch")


def ask(client: Any, entry_point: str, prompts: list[str], **params) -> list[LLMResponse]:
    """One response per prompt, obtained through one named entry point."""
    if entry_point == "complete":
        return [client.complete(prompt, **params) for prompt in prompts]
    return client.complete_batch(prompts, **params)


def executor_for(driver: str, client: Any, *, concurrency: int | None = None, **kwargs) -> Any:
    """An executor of the driver's kind: sequential, fanned out, or awaited."""
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
