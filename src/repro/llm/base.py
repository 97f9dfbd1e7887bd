"""Client protocol, response types, and the one execution core behind them.

Every LLM-facing component in the library talks to the :class:`LLMClient`
protocol rather than a concrete class, so the simulated client and the
caching, tracking and retrying wrappers are all interchangeable.

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
is a plain object (:class:`Call`, :class:`Invoke`) that a test can inspect
and either driver can perform, failures of an inner call arrive in the body
through ``throw`` like any exception, bodies compose with ``yield from``, and
nothing has to pretend to be awaitable on the sync path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Protocol, Sequence, runtime_checkable

from repro.tokenizer.cost import Usage


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
    equivalence test suite asserts.  A call that raises takes the responses
    made before it along (:func:`carry_answered`).
    """
    responses: list[LLMResponse] = []
    try:
        for prompt in prompts:
            responses.append(
                client.complete(
                    prompt, model=model, temperature=temperature, max_tokens=max_tokens
                )
            )
    except BaseException as exc:
        carry_answered(exc, prompts, responses)
        raise
    return responses


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
    responses: list[LLMResponse] = []
    try:
        for prompt in prompts:
            responses.append(
                await call_acomplete(
                    client, prompt, model=model, temperature=temperature, max_tokens=max_tokens
                )
            )
    except BaseException as exc:
        carry_answered(exc, prompts, responses)
        raise
    return responses


# -- what a batch that raised had made --------------------------------------------------


def carry_answered(
    error: BaseException, prompts: list[str], responses: list[LLMResponse]
) -> None:
    """Let ``error`` take along what a batch over ``prompts`` made before it raised.

    ``responses`` answer ``prompts[:len(responses)]`` in order, and the prompt
    after them is the one that raised: calls that were made, and paid for,
    and that each layer on the way up settles as it would a success.  The
    carrier is keyed to the ``prompts`` list itself, so a layer finds it
    only for the list it sent down (:func:`answered_prefix`): a wrapper that
    asks its inner client other prompts (a cache its misses) carries a prefix
    of its own list again, or the answered calls are lost.
    """
    error._repro_answered = (prompts, responses)  # type: ignore[attr-defined]


def answered_prefix(error: BaseException, prompts: list[str]) -> list[LLMResponse] | None:
    """The responses ``error`` carries for the answered prefix of ``prompts``.

    ``None`` when it carries none for that very list: what was answered
    before the failure is then unknown.
    """
    carried = getattr(error, "_repro_answered", None)
    if carried is not None and carried[0] is prompts:
        return carried[1]
    return None


def prompt_list(prompts: Sequence[str]) -> list[str]:
    """``prompts`` as a list: the caller's own when it is one, so that what a
    failing batch carries (:func:`carry_answered`) is keyed to the caller's list."""
    return prompts if type(prompts) is list else list(prompts)


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
    labels of :func:`repro.obs.trace_label` — propagate into the bridge thread.
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


class Invoke:
    """A request to call ``fn(*args, **kwargs)``; :func:`adrive` awaits what it returns.

    For executor bodies whose step is "fan these bodies out": each executor
    binds its own sync or awaitable ``_fan_out``, the body stays the same.
    A ``map`` task is one too, run on the thread that drives the wave.
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
    (:class:`~repro.llm.cache.CachedClient`, the session, its backend gate),
    that wrapper also writes ``complete`` out by hand.  Microseconds per
    call behind a backend that answers a constant in 0.9 (one core of an
    Intel Xeon, Python 3.11; median of 40 bags of 600): a call of a native
    batch costs 4.6 through the session and 5.8 through ``BatchExecutor.run``
    at width 1; at width 8 a unit task — the path of a call that waits —
    costs 16.0, and a call sent in one of the executor's runs of fast calls
    9.0.  The session's single-call entry alone is 13.1.  Driving a generator
    costs about 3 per layer per call (``CachedClient.complete`` 2.4 written
    out, 5.6 driven), which is why the two twins stay for the unit path.
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
        return drive(self._body(Call(None, prompt_list(prompts), model, temperature, max_tokens)))

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
        body = self._body(Call(None, prompt_list(prompts), model, temperature, max_tokens))
        return await adrive(body)
