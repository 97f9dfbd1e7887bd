"""Batched, optionally concurrent execution of independent LLM unit tasks.

The paper's declarative framing treats every operator as a bag of independent
unit tasks — pairwise comparisons, rating calls, per-record imputations.  The
executors are the single dispatch point those bags go through:

* ``max_concurrency == 1`` issues the batch through the client's native
  batch entry point — sequential, deterministic, and able to exploit
  batch-level optimisations such as the response cache's within-batch dedup.
* ``max_concurrency > 1`` fans the unit tasks out, at most that many in
  flight.  Results always come back in input order, and at temperature 0
  they are element-wise identical to the sequential path (the equivalence
  test suite in ``tests/`` asserts this for every converted operator).

``max_concurrency`` is a ceiling on calls in flight, not a thread count:
threads appear when calls wait, and a backend's class says whether they do
(``waits``).  A call answered from memory (a warm cache, a replayed trace, the
simulator) gains nothing from a second thread but its turn on the interpreter
lock, so the dispatching thread drains a fanned-out bag itself — in *runs* of
the queue, each sent as one native batch, when the bag may go out so (one
rule, :meth:`BatchExecutor._native`: for the whole bag at width 1, for runs
above it) — and helpers join when one of its calls reaches a backend that
waits (:func:`call_waits`).

:class:`BatchExecutor` is the one driver; :class:`AsyncBatchExecutor` is its
``run`` for callers on an event loop, one ``asyncio.to_thread`` hop per bag.
``map``, which runs a pipeline's waves, is :class:`BatchExecutor`'s alone.
Admission, pacing and the budget pre-check live below the cache, in the
:class:`~repro.core.BackendGate` around the backend.

A native batch that fails part-way has made the calls before the failing
one: the session books them like a success (:func:`~repro.llm.base.
carry_answered`), so a bag that ends early leaves the same books whether it
went out as one batch, in runs, or call by call.

``run`` is also the scope of a *bag* for the session's bookkeeping: a call is
charged the moment it settles, but the telemetry it is owed (span, metrics,
runtime stats) is left with the open :class:`SettleBag` and recorded in runs —
so a bag settles once, however it is dispatched.

Two reliability hooks ride along:

* *Retry integration* — pass a ``validator`` (plus ``max_retries``) and every
  unit task is wrapped in the :class:`~repro.llm.retry.RetryingClient`
  semantics, with aggregate stats exposed as :attr:`BatchExecutor.retry_stats`.
* *Budget-aware early stopping* — pass the limited budget (or lease) the
  client charges and the bag goes out one unit task at a time, each charged
  before the next reaches the gate, which refuses it once the budget is spent.
  Over a raw client, with no gate below, ``run`` refuses a spent budget
  before its first call.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.budget import CHARGE_TARGET, Budget
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.llm.base import Call, LLMResponse, answered_prefix
from repro.llm.retry import RetryingClient, RetryStats

#: The documented in-flight ceiling for I/O-bound sync dispatch: the width the
#: repo benchmark's ``calls_threads`` / ``calls_latency`` workloads run at.
#: Fixed, so those numbers do not depend on the machine: against a backend
#: that waits, the sync path pays one blocked OS thread per call in flight.
DEFAULT_POOL_SIZE = 8

#: The most calls one run takes: a run reaches the store when it returns, so a
#: hard kill loses at most this many answered calls past the store's row bound.
_MAX_RUN = 32


@dataclass(frozen=True)
class BatchRequest:
    """One unit task: a prompt plus its per-call completion parameters."""

    prompt: str
    model: str | None = None
    temperature: float = 0.0
    max_tokens: int | None = None


@dataclass
class TaskOutcome:
    """What happened to one task scheduled through an executor's ``map``.

    Three states: the task ran and produced ``value``; the task ran and
    raised ``error`` (``skipped`` is False); or the task never ran
    (``skipped`` is True) — because an earlier task in the batch failed
    first, or because the attached budget was exhausted before dispatch (in
    which case ``error`` carries the :class:`BudgetExceededError` from the
    pre-dispatch check, so callers can tell the two skip causes apart).
    """

    value: Any = None
    error: BaseException | None = None
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.skipped


class _BudgetPreCheckStop(Exception):
    """Internal: a ``map`` task the budget turned away before it started,
    reported as skipped rather than as a failure of the task."""

    def __init__(self, error: BudgetExceededError) -> None:
        super().__init__(str(error))
        self.error = error


class _QueueDepth:
    """Context manager bumping the executor queue-depth gauge for one batch."""

    def __init__(self, instruments: Any | None, count: int) -> None:
        self._instruments = instruments
        self._count = count

    def __enter__(self) -> "_QueueDepth":
        if self._instruments is not None:
            self._instruments.note_enqueued(self._count)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._instruments is not None:
            self._instruments.note_dequeued(self._count)


class SettleBag:
    """The settled calls of one bag whose telemetry record is still owed.

    A session charges every call as it settles and leaves the record it owes
    here (:meth:`add`); the bag hands the entries on in settle order, in
    runs: whenever they cover ``bound`` calls, and at :meth:`close`.  Once
    closed it holds nothing: a context copied inside the scope that settles
    a call after it has that call recorded at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._record: Callable[[list], None] | None = None
        self._held: list = []
        self._calls = 0
        self._open = True

    def add(self, record: Callable[[list], None], entry: Any, calls: int, bound: int) -> None:
        """Hold ``entry``, which covers ``calls`` calls, for ``record``."""
        with self._lock:
            if record != self._record:
                self._hand_over()
                self._record = record
            self._held.append(entry)
            self._calls += calls
            if self._calls >= bound or not self._open:
                self._hand_over()

    def close(self) -> None:
        with self._lock:
            self._open = False
            self._hand_over()

    def _hand_over(self) -> None:
        # Under the lock, so that two runs cannot overtake each other.
        if self._held:
            held, self._held, self._calls = self._held, [], 0
            self._record(held)


#: The bag the running context settles its calls into; ``None`` outside any.
#: A ``ContextVar``, so it reaches the fanned-out bodies through the context
#: copies they run under, and nests: an operator's bag inside a ``map`` wave.
OPEN_BAG: contextvars.ContextVar[SettleBag | None] = contextvars.ContextVar(
    "repro_open_bag", default=None
)


@contextmanager
def _settling(bag: SettleBag | None, budget: Budget | None) -> Iterator[None]:
    """Open ``bag``, name ``budget`` the charge target; on exit, hand the bag over."""
    token, charging = OPEN_BAG.set(bag), CHARGE_TARGET.set(budget)
    try:
        yield
    finally:
        CHARGE_TARGET.reset(charging)
        OPEN_BAG.reset(token)
        if bag is not None:
            bag.close()


#: The innermost open fan-out of the running context, as ``(its dispatching
#: thread's ident, its hook, the fan-out it opened in)``; ``None`` outside any.
#: Like :data:`OPEN_BAG`, it reaches every task through its context copy and
#: nests: an operator's fan-out inside a ``map`` wave's.
OPEN_FAN_OUT: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "repro_open_fan_out", default=None
)


def call_waits() -> None:
    """Say that the calling thread is about to wait on a backend: each open
    fan-out it dispatches, from the innermost outward, ends its runs and
    brings in its helpers (once), so a wave's steps overlap too when their
    operators' calls wait.  The gate calls it before each call that waits."""
    fan_out, thread = OPEN_FAN_OUT.get(), threading.get_ident()
    while fan_out is not None:
        dispatcher, widen, fan_out = fan_out
        if dispatcher == thread:
            widen()


def backend_waits(client: Any) -> bool | None:
    """Whether the backend ``client``'s wrappers lead to waits, as its class
    declares ``waits`` (one without the attribute is taken to wait); ``None``
    when they meet a gate first (a session client's, or a
    ``refuses_spent_budget`` one), which refuses a spent budget and says when
    a call waits."""
    while not (hasattr(client, "charged") or getattr(client, "refuses_spent_budget", False)):
        if getattr(client, "_client", None) is None:
            return getattr(client, "waits", True)
        client = client._client
    return None


class BatchExecutor:
    """Dispatch a list of independent unit tasks against one LLM client.

    Sequential at ``max_concurrency == 1`` (the default).  Above that it is
    a ceiling on calls in flight, not a thread count: the dispatching thread
    drains the bag itself, and up to ``max_concurrency - 1`` helper threads
    join it, one per queued task, when one of its calls is about to wait:
    the backend gate says so (:func:`call_waits`), or, over a client chain
    with no gate, the innermost client's ``waits`` does from the first task.
    All have exited when ``run``/``map`` returns.  Until then, when the bag
    passes :meth:`_native`, the dispatching thread sends *runs* of it as
    native batches: the first call goes alone, each run doubles the next up
    to ``_MAX_RUN`` calls, and the last ``max_concurrency - 1`` requests are
    never part of a run.  Then every thread takes one unit task per turn.
    A ``map`` task that reaches no backend that waits runs in turn on the
    dispatching thread.

    What is per call and what is per bag: the session tracks, prices and
    charges each call as it settles, so under a limited budget — where every
    call is its own unit task — the gate sees each charge before the next
    call reaches it.  ``run`` (both dispatch shapes) also opens one
    :class:`SettleBag` scope: a session reached through it records the
    settled calls — spans, ``repro_*`` metrics, runtime stats — in runs of
    the ring's flush bound and, in a ``finally``, at the bag's end, so a
    failure, a budget stop or Ctrl-C loses no record.  ``map`` opens none:
    each operator run inside a wave opens its own.  Neither does an executor
    with a ``validator``.

    Args:
        client: the client every unit task is issued through (typically an
            operator's client, or a session client).
        max_concurrency: how many unit tasks may be in flight at once — a
            ceiling, not a thread count: threads beyond the dispatching one
            are used only while calls wait.
        budget: optional budget (or per-step lease) the client's calls are
            charged to (a session client's own).  ``run`` makes it the gate's
            ``CHARGE_TARGET``, and a limited one sends the bag one unit task
            at a time; ``map`` checks it too.
        validator: optional response-text validator enabling per-call retries
            (see :class:`~repro.llm.retry.RetryingClient`).
        max_retries: additional attempts per unit task when a validator is set.
        retry_temperature: temperature used for those retry attempts.
        instruments: optional :class:`~repro.obs.SessionInstruments`; when
            set, the executor keeps the queue-depth and in-flight gauges
            current (sessions pass their own automatically).
    """

    def __init__(
        self,
        client: Any,
        *,
        max_concurrency: int = 1,
        budget: Budget | None = None,
        validator: Callable[[str], Any] | None = None,
        max_retries: int = 2,
        retry_temperature: float = 0.7,
        instruments: Any | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be at least 1")
        if budget is not None and getattr(client, "charged", budget) is not budget:
            raise ConfigurationError("budget= must be the budget the session client charges")
        self.max_concurrency = max_concurrency
        self.budget = budget
        # With no gate below (a raw client), ``run`` refuses a spent budget,
        # and the client's class says whether its calls wait.
        waits = backend_waits(client)
        self._ungated = budget is not None and waits is not None
        self._waits = bool(waits)
        self.instruments = instruments
        if validator is not None:
            client = RetryingClient(
                client,
                validator=validator,
                max_retries=max_retries,
                retry_temperature=retry_temperature,
            )
            self.retry_stats: RetryStats | None = client.stats
        else:
            self.retry_stats = None
        self._client = client

    def run(self, requests: Iterable[BatchRequest | str]) -> list[LLMResponse]:
        """Execute every request and return the responses in input order.

        Plain strings are promoted to default-parameter :class:`BatchRequest`
        objects.  Raises :class:`~repro.exceptions.BudgetExceededError` before
        a further unit task reaches the backend once the budget is exhausted.
        The first failure cancels queued (not in-flight) unit tasks and is
        re-raised deterministically (the earliest request among those that
        ran), and temperature-0 duplicates of one (model, prompt) wait for
        the first occurrence instead of racing it past the cache.
        """
        normalized = [
            request if isinstance(request, BatchRequest) else BatchRequest(prompt=request)
            for request in requests
        ]
        if not normalized:
            return []
        if self._ungated:
            self.budget.check()
        # One bag per run, however it is dispatched — except under a validator,
        # whose retry wrapper amends each call's span as soon as the call returns.
        bag = SettleBag() if self.retry_stats is None else None
        with _QueueDepth(self.instruments, len(normalized)), _settling(bag, self.budget):
            if self.max_concurrency == 1 or len(normalized) == 1:
                return self._run_sequential(normalized)
            return self._run_concurrent(normalized)

    def _native(self, requests: Sequence[BatchRequest]) -> bool:
        """Whether calls of this bag may go to the client as native batches.

        The common operator case: shared parameters and no budget limit to
        check between calls.  Otherwise — heterogeneous parameters (e.g.
        ensemble votes across models), or a limit that must be able to stop
        the bag mid-way — every call is its own unit task, charged before
        the next one goes out.
        """
        first = requests[0]
        params = (first.model, first.temperature, first.max_tokens)
        return all((r.model, r.temperature, r.max_tokens) == params for r in requests) and (
            self.budget is None or self.budget.unlimited
        )

    def _run_sequential(self, requests: Sequence[BatchRequest]) -> list[LLMResponse]:
        if self._native(requests):
            # The whole bag in a single call to the client's batch entry point.
            return self._call([request.prompt for request in requests], requests[0]).run()
        return [self._unit(request) for request in requests]

    def _run_concurrent(self, requests: Sequence[BatchRequest]) -> list[LLMResponse]:
        # Duplicate temperature-0 requests must not race each other past a
        # downstream cache's check-then-act: only the first occurrence per
        # (model, prompt) — the response cache's key, so requests differing
        # only in max_tokens still count as duplicates — is fanned out;
        # duplicates are resolved afterwards through the ordinary per-call
        # path, where they hit the now-warm cache (or, without a cache, pay
        # their own call — exactly like the sequential loop).
        firsts: dict[Any, int] = {}
        for index, request in enumerate(requests):
            key = (request.model, request.prompt) if request.temperature == 0.0 else index
            firsts.setdefault(key, index)
        pooled = list(firsts.values())
        deferred = sorted(set(range(len(requests))).difference(pooled))
        pooled_requests = [requests[index] for index in pooled]
        outcomes = self._fan_out(self._unit, pooled_requests, self._native(requests))
        for outcome in outcomes:
            if outcome.error is not None:
                # Deterministic propagation: outcomes are in request order, so
                # this is the failure of the earliest request among those
                # that ran.
                raise outcome.error
        results: list[LLMResponse | None] = [None] * len(requests)
        for index, outcome in zip(pooled, outcomes):
            results[index] = outcome.value
        for index in deferred:
            results[index] = self._unit(requests[index])
        assert all(response is not None for response in results)
        return results

    def _call(self, prompts: list[str], like: BatchRequest, single: bool = False) -> Call:
        """The call of ``prompts`` to the client under ``like``'s parameters."""
        return Call(self._client, prompts, like.model, like.temperature, like.max_tokens, single)

    def _unit(self, request: BatchRequest) -> LLMResponse:
        """One unit task: the call, counted by the gauges."""
        if self.instruments is not None:
            self.instruments.note_task_started()
        try:
            return self._call([request.prompt], request, single=True).run()[0]
        finally:
            if self.instruments is not None:
                self.instruments.note_task_done()

    def _batch(self, prompts: list[str], like: BatchRequest) -> list[LLMResponse]:
        """A run: unit tasks of a bag that passed :meth:`_native`, sent as one
        native batch; the gauges count each of its calls."""
        if self.instruments is not None:
            self.instruments.note_task_started(len(prompts))
        try:
            return self._call(prompts, like).run()
        finally:
            if self.instruments is not None:
                self.instruments.note_task_done(len(prompts))

    def map(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskOutcome]:
        """Run independent no-argument callables; outcomes in input order.

        This is the entry point the pipeline scheduler uses to run a wave of
        mutually independent steps: each task is an arbitrary callable (a
        whole operator run, not a single prompt), dispatched sequentially at
        ``max_concurrency == 1`` and fanned out otherwise.

        Unlike :meth:`run`, failures do not raise.  Each task's result or
        exception comes back in its :class:`TaskOutcome`; after the first
        failure — or once an attached budget is exhausted — the remaining
        not-yet-started tasks are marked ``skipped`` (in-flight tasks still
        finish), mirroring where the sequential loop would have stopped.  A
        task that never ran because the budget died before it started is
        reported as skipped *with the budget error attached* — and that
        holds for **every** such task, on both the sequential and the
        concurrent path, so callers can tell the two skip causes apart
        without caring which path executed the batch.  ``KeyboardInterrupt``
        and ``SystemExit`` are not outcomes: one raised inside a task is
        re-raised once the tasks in flight finish, so Ctrl-C stops a pipeline.
        """
        outcomes = [TaskOutcome(skipped=True) for _ in tasks]
        if not tasks:
            return outcomes
        with _QueueDepth(self.instruments, len(tasks)):
            if self.max_concurrency == 1 or len(tasks) == 1:
                for index, task in enumerate(tasks):
                    try:
                        outcomes[index] = TaskOutcome(value=self._guarded(task))
                    except BaseException as exc:  # noqa: BLE001 - reported, not raised
                        outcomes[index] = TaskOutcome(error=exc)
                        break
            else:
                outcomes = self._fan_out(self._guarded, tasks)
        # A task the budget pre-check turned away never ran: it is reported
        # as skipped with the budget error attached.  Ctrl-C is no failed task
        # to report and carry on from: it surfaces, now that the bag settled.
        budget_stop: BudgetExceededError | None = None
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome.error, (KeyboardInterrupt, SystemExit)):
                raise outcome.error
            if isinstance(outcome.error, _BudgetPreCheckStop):
                outcomes[index] = TaskOutcome(error=outcome.error.error, skipped=True)
                budget_stop = budget_stop or outcome.error.error
        if budget_stop is not None:
            # Once the budget died, *all* tasks it kept from running share
            # that cause — including ones whose own pre-check never ran
            # because they were still queued (fanned out) or later in the
            # loop (sequential).  Tasks skipped for other reasons already
            # carry their own error and are left alone.
            for index, outcome in enumerate(outcomes):
                if outcome.skipped and outcome.error is None:
                    outcomes[index] = TaskOutcome(error=budget_stop, skipped=True)
        return outcomes

    def _guarded(self, task: Callable[[], Any]) -> Any:
        """One ``map`` task: the budget pre-check, then the task."""
        if self.budget is not None:
            try:
                self.budget.check()
            except BudgetExceededError as exc:
                raise _BudgetPreCheckStop(exc) from None
        return task()

    def _fan_out(
        self, task_of: Callable[[Any], Any], items: Sequence, runs: bool = False
    ) -> list[TaskOutcome]:
        """Run ``task_of(item)`` per item concurrently; one :class:`TaskOutcome` each, in order.

        After the first failure, items not taken stay ``skipped`` (those in
        flight finish), where a sequential loop would have stopped.  With
        ``runs`` (the requests of a bag that passed :meth:`_native`) the
        dispatching thread may send runs of them as native batches.
        """
        outcomes = [TaskOutcome(skipped=True) for _ in items]
        queue = deque(range(len(items)))
        stop = threading.Event()  # start no further task: a failure, or the bag is drained
        wide = False  # set by the hook, once: the runs end and the helpers join
        helpers: list[threading.Thread] = []

        def unit(index: int) -> None:
            # A task runs in a fresh copy of the dispatching context (or of a
            # helper's copy of it): trace labels and the open span reach it,
            # what it sets stays.
            if self._waits:
                call_waits()  # no gate below says so: every task of this bag waits
            try:
                value = contextvars.copy_context().run(task_of, items[index])
                outcomes[index] = TaskOutcome(value=value)
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                outcomes[index] = TaskOutcome(error=exc)
                stop.set()

        def batch(positions: list[int]) -> None:
            # A run answers its requests in order; one that raised answered
            # the prefix its error carries, and the error belongs to the
            # request after it (the first, when the prefix is unknown).
            prompts = [items[index].prompt for index in positions]
            try:
                responses = contextvars.copy_context().run(
                    self._batch, prompts, items[positions[0]]
                )
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                responses = answered_prefix(exc, prompts) or []
                outcomes[positions[len(responses)]] = TaskOutcome(error=exc)
                stop.set()
            for index, response in zip(positions, responses):
                outcomes[index] = TaskOutcome(value=response)

        def work() -> None:
            # What every helper runs, and the dispatching thread when it takes
            # no runs: one unit task per turn.
            while not stop.is_set():
                try:
                    index = queue.popleft()
                except IndexError:
                    return
                unit(index)

        def dispatch() -> None:
            # The dispatching thread, until the hook fires (no helper takes
            # before): each run doubles the next, up to ``_MAX_RUN``.  The last
            # ``max_concurrency - 1`` requests stay out of runs, so that a slow
            # remainder still finds a full width of helpers.
            size, reserve = 1, self.max_concurrency - 1
            while queue and not (wide or stop.is_set()):
                taken = [queue.popleft() for _ in range(max(1, min(size, len(queue) - reserve)))]
                if len(taken) > 1:
                    batch(taken)
                else:
                    unit(taken[0])
                size = min(2 * size, _MAX_RUN)
            work()

        def widen() -> None:
            # The hook, called on the dispatching thread before one of its
            # calls waits: a helper joins for each queued task, up to the width.
            nonlocal wide
            if not (wide or stop.is_set()):
                wide = True
                for _ in range(min(self.max_concurrency - 1, len(queue))):
                    helper = threading.Thread(target=dispatching.copy().run, args=(work,))
                    helper.start()
                    helpers.append(helper)

        # What each helper runs under, a copy each; taken before the hook is
        # published, so that no context holds the hook that holds it.
        dispatching = contextvars.copy_context()
        token = OPEN_FAN_OUT.set((threading.get_ident(), widen, OPEN_FAN_OUT.get()))
        try:
            (dispatch if runs else work)()
        finally:
            OPEN_FAN_OUT.reset(token)
            stop.set()
            for helper in helpers:
                helper.join()
        return outcomes


class AsyncBatchExecutor:
    """:meth:`BatchExecutor.run` for callers on an event loop: one thread hop.

    ``run`` sends the whole bag to a worker thread with ``asyncio.to_thread``
    and awaits it there, on a :class:`BatchExecutor` built from the same
    arguments (default width 16), so the loop keeps running while the bag
    does.  The hop copies the caller's context: trace labels and the open
    span reach every call as on the calling thread.  It has no ``map``: a
    pipeline runs on :class:`BatchExecutor`'s threads.

    Cancelling the awaited ``run`` does not cancel the calls in flight: the
    bag finishes on its thread and its calls are booked, as with any
    ``asyncio.to_thread`` call.
    """

    def __init__(self, client: Any, *, max_concurrency: int = 16, **options: Any) -> None:
        self._executor = BatchExecutor(client, max_concurrency=max_concurrency, **options)
        self.max_concurrency = max_concurrency
        self.retry_stats = self._executor.retry_stats

    async def run(self, requests: Iterable[BatchRequest | str]) -> list[LLMResponse]:
        """Awaitable :meth:`BatchExecutor.run`: the same bag, on a worker thread."""
        return await asyncio.to_thread(self._executor.run, requests)
