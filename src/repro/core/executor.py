"""Batched, optionally concurrent execution of independent LLM unit tasks.

The paper's declarative framing treats every operator as a bag of independent
unit tasks — pairwise comparisons, rating calls, per-record imputations.  The
executors are the single dispatch point those bags go through:

* ``max_concurrency == 1`` issues the batch through the client's native
  batch entry point — sequential, deterministic, and able to exploit
  batch-level optimisations such as the response cache's within-batch dedup.
* ``max_concurrency > 1`` fans the unit tasks out, at most that many in
  flight — :class:`AsyncBatchExecutor` as asyncio tasks behind a semaphore,
  :class:`BatchExecutor` on threads.  Results always come back in input
  order, and at temperature 0 they are element-wise identical to the
  sequential path (the equivalence test suite in ``tests/`` asserts this for
  every converted operator).

``max_concurrency`` is a ceiling on calls in flight, not a thread count:
threads appear when calls wait.  A call answered from memory (a warm cache, a
replayed trace, the simulator) gains nothing from a second thread but its
turn on the interpreter lock, so the dispatching thread drains a fanned-out
bag itself — in *runs* of the queue, each sent as one native batch, when the
bag may go out so — and helpers join once it stalls without computing (see
:class:`BatchExecutor`).

Everything the two executors decide for ``run`` — request normalisation, when
calls of a bag may go to the client as native batches (one rule, ``_native``:
for the whole bag at width 1, for runs above it), the temperature-0 dedup
partition, which failure surfaces — is written once in :class:`_ExecutorCore`,
as sans-IO bodies in the sense of :mod:`repro.llm.base`.  The two public
classes add only how a body is driven (on the calling thread, or awaited) and
how several are fanned out.  ``map``, which runs a pipeline's waves, is
:class:`BatchExecutor`'s alone.
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
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.budget import CHARGE_TARGET, Budget
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.llm.base import Body, Call, Invoke, LLMResponse, adrive, answered_prefix, drive
from repro.llm.retry import RetryingClient, RetryStats

#: The documented in-flight ceiling for I/O-bound sync dispatch: the width the
#: repo benchmark's ``calls_threads`` / ``calls_latency`` workloads run at.
#: Fixed, so those numbers do not depend on the machine: against a backend
#: that waits, the sync path pays one blocked OS thread per call in flight.
DEFAULT_POOL_SIZE = 8

#: How long a fanned-out bag may start no body, its dispatching thread computing
#: for less than half of it, before :class:`BatchExecutor` brings in its helpers
#: (when the whole process computed as little; else two switch intervals more).
_STALL_SECONDS = 0.001
#: The most calls one run takes: a run reaches the store when it returns, so a
#: hard kill loses at most this many answered calls past the store's row bound.
_MAX_RUN = 32


def _cpu_clock() -> Callable[[], float]:
    """The calling thread's CPU clock, for other threads (0.0 where ``time`` has none)."""
    if not hasattr(time, "pthread_getcpuclockid"):
        return lambda: 0.0
    clock = time.pthread_getcpuclockid(threading.get_ident())
    return lambda: time.clock_gettime(clock)


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


def _gated(client: Any) -> bool:
    """Whether a gate refuses ``client``'s calls once their budget is spent: a
    session client's, or a ``refuses_spent_budget`` gate its wrappers lead to."""
    while client is not None:
        if hasattr(client, "charged") or getattr(client, "refuses_spent_budget", False):
            return True
        client = getattr(client, "_client", None)
    return False


class _ExecutorCore:
    """Every decision of batch execution, once; see the module docstring.

    What is per call and what is per bag: the session tracks, prices and
    charges each call as it settles, so under a limited budget — where every
    call is its own unit task — the gate sees each charge before the next
    call reaches it.  ``run`` (both dispatch shapes, both drivers) also opens
    one :class:`SettleBag` scope: a session reached through it records the
    settled calls — spans, ``repro_*`` metrics, runtime stats — in runs of
    the ring's flush bound and, in a ``finally``, at the bag's end, so a
    failure, a budget stop or Ctrl-C loses no record.  ``map`` opens none:
    each operator run inside a wave opens its own.  Neither does an executor
    with a ``validator``.

    Args:
        client: the client every unit task is issued through (typically an
            operator's client, or a session client).  Sync-only
            clients work on the async executor too: dispatch goes through
            :func:`~repro.llm.base.call_acomplete`, which bridges a client
            without ``acomplete`` into a worker thread.
        max_concurrency: how many unit tasks may be in flight at once — a
            ceiling, not a thread count: :class:`BatchExecutor` (default 1:
            sequential native batching) uses threads beyond the dispatching
            one only while calls wait; for :class:`AsyncBatchExecutor`
            (default 16) it is the number of simultaneously pending awaits.
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

    _default_concurrency = 1

    def __init__(
        self,
        client: Any,
        *,
        max_concurrency: int | None = None,
        budget: Budget | None = None,
        validator: Callable[[str], Any] | None = None,
        max_retries: int = 2,
        retry_temperature: float = 0.7,
        instruments: Any | None = None,
    ) -> None:
        if max_concurrency is None:
            max_concurrency = self._default_concurrency
        if max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be at least 1")
        if budget is not None and getattr(client, "charged", budget) is not budget:
            raise ConfigurationError("budget= must be the budget the session client charges")
        self.max_concurrency = max_concurrency
        self.budget = budget
        # With no gate below to refuse a spent budget (a raw client), ``run`` does.
        self._ungated = budget is not None and not _gated(client)
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

    def _fan_out(self, body_of: Callable[[Any], Body], items: Sequence, runs: bool = False) -> Any:
        """Drive ``body_of(item)`` per item concurrently; one :class:`TaskOutcome` each, in order.

        The one thing the two executors do differently.  A body is built when a
        task takes its item; after the first failure, items not taken stay
        ``skipped`` (those in flight finish), where a sequential loop would have
        stopped.  With ``runs`` (the requests of a bag that passed :meth:`_native`)
        :class:`BatchExecutor` may send runs of them as native batches.
        """
        raise NotImplementedError

    # -- bodies -------------------------------------------------------------------

    def _run(self, requests: Iterable[BatchRequest | str]) -> Body:
        """Body of ``run``: every request's response, in input order."""
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
                return (yield from self._run_sequential(normalized))
            return (yield from self._run_concurrent(normalized))

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

    def _run_sequential(self, requests: Sequence[BatchRequest]) -> Body:
        if self._native(requests):
            # The whole bag in a single call to the client's batch entry point.
            return (yield self._call([request.prompt for request in requests], requests[0]))
        responses = []
        for request in requests:
            responses.append((yield from self._unit(request)))
        return responses

    def _run_concurrent(self, requests: Sequence[BatchRequest]) -> Body:
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
        outcomes = yield Invoke(self._fan_out, self._unit, pooled_requests, self._native(requests))
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
            results[index] = yield from self._unit(requests[index])
        assert all(response is not None for response in results)
        return results

    def _call(self, prompts: list[str], like: BatchRequest, single: bool = False) -> Call:
        """The call of ``prompts`` to the client under ``like``'s parameters."""
        return Call(self._client, prompts, like.model, like.temperature, like.max_tokens, single)

    def _unit(self, request: BatchRequest) -> Body:
        """Body of one unit task: the call, counted by the gauges."""
        if self.instruments is not None:
            self.instruments.note_task_started()
        try:
            (response,) = yield self._call([request.prompt], request, single=True)
            return response
        finally:
            if self.instruments is not None:
                self.instruments.note_task_done()

    def _batch(self, prompts: list[str], like: BatchRequest) -> Body:
        """Body of a run: unit tasks of a bag that passed :meth:`_native`,
        sent as one native batch; the gauges count each of its calls."""
        if self.instruments is not None:
            self.instruments.note_task_started(len(prompts))
        try:
            return (yield self._call(prompts, like))
        finally:
            if self.instruments is not None:
                self.instruments.note_task_done(len(prompts))

class BatchExecutor(_ExecutorCore):
    """Dispatch a list of independent unit tasks against one LLM client.

    Sequential at ``max_concurrency == 1`` (the default).  Above that it is
    a ceiling on calls in flight, not a thread count: the dispatching thread
    drains the bag itself, up to ``max_concurrency - 1`` helper threads join
    it once a call blocks (after its first body no body starts, and the
    dispatching thread computes for less than half the time: for about a
    millisecond when the whole process is as idle, else for one
    ``sys.getswitchinterval()`` more), and all have exited when
    ``run``/``map`` returns.  Until then, when the bag passes
    :meth:`_native`, the dispatching thread sends *runs* of it as native
    batches: the first call goes alone, a run that computed doubles the
    next up to ``_MAX_RUN`` calls, one that waited sends the next alone,
    and the last ``max_concurrency - 1`` requests are never part of a run.
    Once the bag has stalled every thread takes one unit task per turn.
    Arguments: see :class:`_ExecutorCore`.
    """

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
        return drive(self._run(requests))

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
                        outcomes[index] = TaskOutcome(value=drive(self._guarded(task)))
                    except asyncio.CancelledError:
                        raise
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

    def _guarded(self, task: Callable[[], Any]) -> Body:
        """Body of one ``map`` task: the budget pre-check, then the task."""
        if self.budget is not None:
            try:
                self.budget.check()
            except BudgetExceededError as exc:
                raise _BudgetPreCheckStop(exc) from None
        return (yield Invoke(task))

    def _fan_out(
        self, body_of: Callable[[Any], Body], items: Sequence, runs: bool = False
    ) -> list[TaskOutcome]:
        outcomes = [TaskOutcome(skipped=True) for _ in items]
        queue = deque(range(len(items)))
        stop = threading.Event()  # start no further body: a failure, or the bag is drained
        stalled = False  # set by the scout, before it starts the helpers
        helpers: list[threading.Thread] = []
        computing = _cpu_clock()  # the dispatching thread's, read by the scout

        def unit(index: int, body: Body) -> None:
            # A body gets a fresh copy of the dispatching context (or of a
            # helper's copy of it): trace labels and the open span reach it,
            # what it sets stays.
            try:
                outcomes[index] = TaskOutcome(value=contextvars.copy_context().run(drive, body))
            except BaseException as exc:  # noqa: BLE001 - reported to the body
                outcomes[index] = TaskOutcome(error=exc)
                stop.set()

        def batch(positions: list[int]) -> None:
            # A run answers its requests in order; one that raised answered
            # the prefix its error carries, and the error belongs to the
            # request after it (the first, when the prefix is unknown).
            prompts = [items[index].prompt for index in positions]
            body = self._batch(prompts, items[positions[0]])
            try:
                responses = contextvars.copy_context().run(drive, body)
            except BaseException as exc:  # noqa: BLE001 - reported to the body
                responses = answered_prefix(exc, prompts) or []
                outcomes[positions[len(responses)]] = TaskOutcome(error=exc)
                stop.set()
            for index, response in zip(positions, responses):
                outcomes[index] = TaskOutcome(value=response)

        def work() -> None:
            # What every helper runs, and the dispatching thread when it takes
            # no runs: one unit body per turn.
            while not stop.is_set():
                try:
                    index = queue.popleft()
                except IndexError:
                    return
                unit(index, body_of(items[index]))

        def dispatch() -> None:
            # The dispatching thread, until the scout sees a stall (see the
            # class docstring).  A run that computed doubles the next, up to
            # ``_MAX_RUN``; one that waited sends the next call alone.  The
            # last ``max_concurrency - 1`` requests stay out of runs so that a
            # slow remainder still finds a full width of helpers.
            size, reserve = 1, self.max_concurrency - 1
            while not (stalled or stop.is_set()):
                began, cpu = time.perf_counter(), time.thread_time()
                positions = []  # helpers may be taking too, if the scout has just fired
                for _ in range(max(1, min(size, len(queue) - reserve))):
                    try:
                        positions.append(queue.popleft())
                    except IndexError:
                        break
                if len(positions) > 1:
                    batch(positions)
                elif positions:
                    unit(positions[0], body_of(items[positions[0]]))
                else:
                    return
                waited = time.perf_counter() - began > 2 * (time.thread_time() - cpu)
                size = 1 if waited else min(2 * size, _MAX_RUN)
            work()

        def start(target: Callable[[], None]) -> None:
            thread = threading.Thread(target=contextvars.copy_context().run, args=(target,))
            thread.start()
            helpers.append(thread)

        def scout() -> None:
            # The first helper watches before it works: while bodies keep
            # starting, or the dispatching thread computes (a long run, a task
            # that computes), threads would only take turns on the interpreter
            # lock; once neither has for a while a call is blocked: go to full
            # width now, not after it returns (eight slow calls are one wave).
            # Nothing counts before the dispatching thread has a body; while the process
            # computes, a stall must outlast two switch intervals (a lost hand-over each).
            nonlocal stalled
            waiting, began, cpu = len(queue), time.perf_counter(), computing()
            busy, since = time.process_time(), None  # since: a stall's first busy tick
            while not stop.wait(_STALL_SECONDS):
                now, spent, used = time.perf_counter(), computing(), time.process_time()
                stuck = len(queue) == waiting < len(items) and 2 * (spent - cpu) < now - began
                since = (since or now) if stuck else None
                idle = 2 * (used - busy) < now - began
                if stuck and (idle or now - since >= 2 * sys.getswitchinterval()):
                    stalled = True
                    for _ in range(min(self.max_concurrency - 1, waiting) - 1):
                        start(work)
                    return work()
                waiting, began, cpu, busy = len(queue), now, spent, used

        start(scout)
        try:
            if runs:
                dispatch()
            else:
                work()
        finally:
            stop.set()
            for thread in helpers:  # complete once the scout, which starts the rest, has exited
                thread.join()
        return outcomes


class AsyncBatchExecutor(_ExecutorCore):
    """The same ``run`` for callers on an event loop, awaited.

    Unit tasks are asyncio tasks bounded by a semaphore instead of threads
    in a pool: concurrency 64 costs 64 pending awaits, not 64 threads.  It
    has no ``map``: a pipeline runs on :class:`BatchExecutor`'s threads,
    which keep up at equal width (``examples/async_pipeline.py`` compares
    the two at 64).  Arguments: see :class:`_ExecutorCore`.
    """

    _default_concurrency = 16

    async def run(self, requests: Iterable[BatchRequest | str]) -> list[LLMResponse]:
        """Awaitable :meth:`BatchExecutor.run`: same results, same failures."""
        return await adrive(self._run(requests))

    async def _fan_out(
        self, body_of: Callable[[Any], Body], items: Sequence, runs: bool = False
    ) -> list[TaskOutcome]:
        # Every item is its own task: a call awaited on the loop gives way to
        # the others, so there is no dispatching thread to hand runs to.
        outcomes = [TaskOutcome(skipped=True) for _ in items]
        semaphore = asyncio.Semaphore(self.max_concurrency)
        stopped = False

        async def worker(index: int) -> None:
            nonlocal stopped
            async with semaphore:
                if stopped:
                    return  # stays skipped: queued behind the failure
                try:
                    outcomes[index] = TaskOutcome(value=await adrive(body_of(items[index])))
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - reported to the body
                    outcomes[index] = TaskOutcome(error=exc)
                    stopped = True

        # Each asyncio task copies the dispatching context at creation, so
        # trace labels and the ambient span reach the bodies as they do
        # on the sync executor's threads.
        await asyncio.gather(*(asyncio.create_task(worker(index)) for index in range(len(items))))
        return outcomes
