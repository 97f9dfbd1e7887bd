"""Client protocol, response types, and the one execution core behind them.

Every LLM-facing component in the library talks to the :class:`LLMClient`
protocol rather than a concrete class, so the simulated client, the caching
wrapper, the cascade router and the ensemble client are all interchangeable.

The protocol has four entry points (``complete``, ``complete_batch`` and
their awaitable forms) but every decision behind them is written once:

* A **backend** subclasses :class:`BaseClient` and implements ``complete``;
  the other three entry points call it.
* A **wrapper** subclasses :class:`BaseClient` and implements one *body*
  instead: a generator that is given the :class:`Call` the wrapper was asked
  to make, yields each inner call it wants made, is sent the responses, and
  returns its own.  The body never performs I/O itself,
  so the same body serves the sync entry points (driven by :func:`drive`,
  which makes each inner call on the calling thread) and the async ones
  (driven by :func:`adrive`, which awaits it).

A generator rather than a never-suspending coroutine: what a body asks for
is a plain object (:class:`Call`, :class:`Gather`, :class:`Invoke`) that a
test can inspect and either driver can perform, failures of an inner call
arrive in the body through ``throw`` like any exception, bodies compose with
``yield from``, and nothing has to pretend to be awaitable on the sync path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Protocol, Sequence, runtime_checkable

from repro.exceptions import SpecError
from repro.tokenizer.cost import Usage


@dataclass(frozen=True)
class ChatMessage:
    """A single chat message (role + content).

    The simulator only inspects the concatenated content, but keeping the chat
    structure makes the client surface match real chat-completion APIs.
    """

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in {"system", "user", "assistant"}:
            raise SpecError(f"unsupported chat role: {self.role!r}")


@dataclass
class LLMResponse:
    """Response from a single LLM call.

    Attributes:
        text: the generated text.
        model: the model that produced the response.
        usage: prompt/completion token usage of this call.
        finish_reason: ``"stop"`` normally, ``"length"`` when truncated.
        confidence: the model's (simulated) self-confidence in ``[0, 1]``; real
            APIs expose this indirectly through token log-probabilities.
        metadata: free-form extra information (e.g. cache hits, routing).
    """

    text: str
    model: str
    usage: Usage = field(default_factory=Usage)
    finish_reason: str = "stop"
    confidence: float = 1.0
    metadata: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class LLMClient(Protocol):
    """Protocol implemented by every LLM client in this package.

    ``complete`` is the unit-task call.  ``complete_batch`` is the bulk entry
    point used by the batched execution layer (:mod:`repro.core.executor`):
    given N prompts sharing one (model, temperature, max_tokens) configuration
    it returns N responses in input order.  Clients without a native batch
    implementation can delegate to :func:`sequential_complete_batch`.

    ``acomplete``/``acomplete_batch`` are the asyncio-native counterparts used
    by the :class:`~repro.core.executor.AsyncBatchExecutor`.  At temperature 0
    they must be observably identical to the sync methods; for the clients in
    this package they are by construction, because all four entry points are
    derived from one implementation (:class:`BaseClient`).

    Compatibility: minimal clients that only implement ``complete`` are still
    accepted by every consumer in this package — all internal batch dispatch
    goes through :func:`call_complete_batch`, which falls back to the
    sequential loop when ``complete_batch`` is absent, and all internal async
    dispatch goes through :func:`call_acomplete`/:func:`call_acomplete_batch`,
    which bridge a sync-only client into a worker thread.  Such clients are
    not full ``LLMClient`` implementations (``isinstance`` and static checks
    will say so), but they run fine everywhere a client is consumed.
    """

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        """Run one completion call and return the response."""
        ...  # pragma: no cover - protocol definition

    def complete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> list[LLMResponse]:
        """Run one completion call per prompt and return responses in order."""
        ...  # pragma: no cover - protocol definition

    async def acomplete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        """Asyncio-native ``complete``: identical semantics, awaitable."""
        ...  # pragma: no cover - protocol definition

    async def acomplete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> list[LLMResponse]:
        """Asyncio-native ``complete_batch``: identical semantics, awaitable."""
        ...  # pragma: no cover - protocol definition


def sequential_complete_batch(
    client: Any,
    prompts: list[str],
    *,
    model: str | None = None,
    temperature: float = 0.0,
    max_tokens: int | None = None,
) -> list[LLMResponse]:
    """The sequential default for ``complete_batch``: one ``complete`` per prompt.

    At temperature 0 this is observably identical to any correct native batch
    implementation (same responses, same totals), which is what the batch
    equivalence test suite asserts.
    """
    return [
        client.complete(prompt, model=model, temperature=temperature, max_tokens=max_tokens)
        for prompt in prompts
    ]


def call_complete_batch(
    client: Any,
    prompts: list[str],
    *,
    model: str | None = None,
    temperature: float = 0.0,
    max_tokens: int | None = None,
) -> list[LLMResponse]:
    """Dispatch a batch to ``client``, preferring its native ``complete_batch``.

    Third-party clients that only implement ``complete`` still work: the batch
    falls back to the sequential loop.
    """
    batch = getattr(client, "complete_batch", None)
    if callable(batch):
        return batch(prompts, model=model, temperature=temperature, max_tokens=max_tokens)
    return sequential_complete_batch(
        client, prompts, model=model, temperature=temperature, max_tokens=max_tokens
    )


async def sequential_acomplete_batch(
    client: Any,
    prompts: list[str],
    *,
    model: str | None = None,
    temperature: float = 0.0,
    max_tokens: int | None = None,
) -> list[LLMResponse]:
    """The sequential default for ``acomplete_batch``: one awaited call per prompt.

    Mirrors :func:`sequential_complete_batch`; concurrency across the batch is
    the :class:`~repro.core.executor.AsyncBatchExecutor`'s job, exactly as it
    is :class:`~repro.core.executor.BatchExecutor`'s on the sync path.
    """
    return [
        await call_acomplete(
            client, prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )
        for prompt in prompts
    ]


async def call_acomplete(
    client: Any,
    prompt: str,
    *,
    model: str | None = None,
    temperature: float = 0.0,
    max_tokens: int | None = None,
) -> LLMResponse:
    """Await ``client``'s completion, preferring its native ``acomplete``.

    The default sync-bridge: a client that only implements ``complete`` is
    called in a worker thread (``asyncio.to_thread``), so every existing sync
    client stays drop-in on the async path.  Contextvars — including the trace
    labels of :mod:`repro.trace` — propagate into the bridge thread.
    """
    acomplete = getattr(client, "acomplete", None)
    if callable(acomplete):
        return await acomplete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )
    return await asyncio.to_thread(
        client.complete, prompt, model=model, temperature=temperature, max_tokens=max_tokens
    )


async def call_acomplete_batch(
    client: Any,
    prompts: list[str],
    *,
    model: str | None = None,
    temperature: float = 0.0,
    max_tokens: int | None = None,
) -> list[LLMResponse]:
    """Await a batch, preferring native ``acomplete_batch``, bridging otherwise.

    Fallback order mirrors the sync dispatcher: a native async batch first, a
    sync ``complete_batch`` bridged through a worker thread second (it may
    carry batch-level optimisations such as cache dedup), the sequential
    awaited loop last.
    """
    abatch = getattr(client, "acomplete_batch", None)
    if callable(abatch):
        return await abatch(prompts, model=model, temperature=temperature, max_tokens=max_tokens)
    batch = getattr(client, "complete_batch", None)
    if callable(batch):
        return await asyncio.to_thread(
            lambda: batch(prompts, model=model, temperature=temperature, max_tokens=max_tokens)
        )
    return await sequential_acomplete_batch(
        client, prompts, model=model, temperature=temperature, max_tokens=max_tokens
    )


# -- the execution core: requests, two drivers, one base -----------------------------


@dataclass(slots=True)
class Call:
    """A request for completions: ``prompts`` to ``client`` under shared parameters.

    ``single`` marks a unit-task call: it reaches ``client`` through
    ``complete``/``acomplete`` (one prompt) rather than the batch entry
    points, so a single call stays a single call at every layer.  Either way
    the result is a list of responses in prompt order.
    """

    client: Any
    prompts: list[str]
    model: str | None = None
    temperature: float = 0.0
    max_tokens: int | None = None
    single: bool = False

    def to(
        self,
        client: Any,
        prompts: list[str] | None = None,
        *,
        model: str | None = None,
        temperature: float | None = None,
        single: bool | None = None,
    ) -> "Call":
        """This call redirected at ``client``; ``None`` keeps a field as it is."""
        return Call(
            client,
            self.prompts if prompts is None else prompts,
            self.model if model is None else model,
            self.temperature if temperature is None else temperature,
            self.max_tokens,
            self.single if single is None else single,
        )

    @property
    def params(self) -> dict[str, Any]:
        """The completion parameters, as the keyword arguments every entry point takes."""
        return {
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }

    def run(self) -> list[LLMResponse]:
        if self.single:
            return [self.client.complete(self.prompts[0], **self.params)]
        return call_complete_batch(self.client, self.prompts, **self.params)

    async def arun(self) -> list[LLMResponse]:
        if self.single:
            return [await call_acomplete(self.client, self.prompts[0], **self.params)]
        return await call_acomplete_batch(self.client, self.prompts, **self.params)


class Gather:
    """Independent requests: made in order by :func:`drive`, concurrently by :func:`adrive`.

    The result is the list of their results, in request order either way.
    """

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[Any]) -> None:
        self.requests = requests

    def run(self) -> list[Any]:
        return [request.run() for request in self.requests]

    async def arun(self) -> list[Any]:
        return list(await asyncio.gather(*(request.arun() for request in self.requests)))


class Invoke:
    """A request to call ``fn(*args, **kwargs)``; :func:`adrive` awaits what it returns.

    For bodies above the client stack, whose step is "run this wave on the
    executor" or "execute this workflow": the caller binds the sync or the
    awaitable callable, the body stays the same.
    """

    __slots__ = ("fn", "args", "kwargs")

    def __init__(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        self.fn = fn
        self.args = args
        self.kwargs = kwargs

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    async def arun(self) -> Any:
        return await self.fn(*self.args, **self.kwargs)


#: A sans-IO body: yields requests (anything with ``run``/``arun``), is sent
#: each one's result — or has its exception thrown in — and returns a value.
Body = Generator[Any, Any, Any]


def drive(body: Body) -> Any:
    """Run ``body`` to completion, performing each request on this thread."""
    try:
        request = next(body)
        while True:
            try:
                result = request.run()
            except BaseException as exc:
                request = body.throw(exc)
            else:
                request = body.send(result)
    except StopIteration as done:
        return done.value


async def adrive(body: Body) -> Any:
    """Run ``body`` to completion, awaiting each request on the event loop."""
    try:
        request = next(body)
        while True:
            try:
                result = await request.arun()
            except BaseException as exc:
                request = body.throw(exc)
            else:
                request = body.send(result)
    except StopIteration as done:
        return done.value


class BaseClient:
    """Derives the four entry points of :class:`LLMClient` from one implementation.

    A **backend** overrides ``complete``.  The other three entry points then
    call it, so a subclass that overrides ``complete`` alone (to count, delay
    or fake calls) sees every call whichever way it arrives.  The awaitable
    forms run ``complete`` inline on the event loop, which is right for a
    backend that answers from memory (the simulator, a replay fixture); one
    that waits on a network implements ``acomplete`` itself.

    A **wrapper** overrides :meth:`_body` instead.  ``_body(call)`` receives
    the :class:`Call` the wrapper was asked to make (``call.client`` is
    unset) and is a generator: it yields the inner calls it wants made —
    ``call.to(inner)`` forwards the request unchanged, ``call.to(inner,
    prompts, model=...)`` narrows it — receives each one's responses, and
    returns one response per prompt of ``call``.  A single call and a batch
    run the same body; ``call.single`` carries the difference down to the
    backend.

    Where the executors' per-call path crosses a wrapper once per unit task
    (:class:`~repro.llm.cache.CachedClient`, the session), that wrapper also
    writes ``complete`` out by hand over the same helpers.  On PR 19's
    ledger (CHANGES.md; sandbox microseconds per call, backend excluded) a
    unit call through ``BatchExecutor.run`` at width 8 cost about 14: 2.7 as
    one call of a native batch, + 4.0 for the session's single-call entry,
    + 5.1 for the executor's ``_unit`` / ``drive`` / ``Call``, + 2.1 for
    ``_fan_out`` per body.  Driving a generator instead costs about 2 per
    layer per call (``CachedClient.complete`` 0.8 written out, 2.6 driven),
    so the two twins are worth about 4 of those — which is why they stay.
    """

    def _body(self, call: Call) -> Body:
        """The backend's body: one ``complete`` per prompt, nothing asked of a driver."""
        if type(self).complete is BaseClient.complete:
            raise NotImplementedError("override complete (a backend) or _body (a wrapper)")
        return sequential_complete_batch(self, call.prompts, **call.params)
        yield  # never reached: makes this a generator, as every body is

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        return drive(self._body(Call(None, [prompt], model, temperature, max_tokens, True)))[0]

    def complete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> list[LLMResponse]:
        return drive(self._body(Call(None, list(prompts), model, temperature, max_tokens)))

    async def acomplete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        body = self._body(Call(None, [prompt], model, temperature, max_tokens, True))
        return (await adrive(body))[0]

    async def acomplete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> list[LLMResponse]:
        return await adrive(self._body(Call(None, list(prompts), model, temperature, max_tokens)))
