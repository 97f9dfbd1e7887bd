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
bag itself and helpers join once it stalls (see :class:`BatchExecutor`).

Everything the two executors decide — request normalisation, when a bag may
go to the client as one native batch, the temperature-0 dedup partition, the
budget pre-check, governor feedback, which failure surfaces, what ``map``
reports — is written once in :class:`_ExecutorCore`, as sans-IO bodies in the
sense of :mod:`repro.llm.base`.  The two public classes add only how a body
is driven (on the calling thread, or awaited) and how several are fanned out.

``run`` is also the scope of a *bag* for the session's bookkeeping: a call is
charged the moment it settles, but the telemetry it is owed (span, metrics,
runtime stats) is left with the open :class:`SettleBag` and recorded in runs —
so a bag settles once, however it is dispatched.

Two reliability hooks ride along:

* *Retry integration* — pass a ``validator`` (plus ``max_retries``) and every
  unit task is wrapped in the :class:`~repro.llm.retry.RetryingClient`
  semantics, with aggregate stats exposed as :attr:`BatchExecutor.retry_stats`.
* *Budget-aware early stopping* — pass a :class:`~repro.core.budget.Budget`
  and the executor checks remaining funds before dispatching each unit task,
  raising :class:`~repro.exceptions.BudgetExceededError` without issuing the
  rest of the batch once the budget is exhausted.
"""

from __future__ import annotations

import asyncio
import contextvars
import inspect
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterable, Iterator, Sequence

from repro.core.budget import Budget, BudgetLease
from repro.core.governor import ConcurrencyGovernor, estimated_prompt_tokens, is_rate_limit
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.llm.base import Body, Call, Invoke, LLMResponse, adrive, drive
from repro.llm.retry import RetryingClient, RetryStats

#: The documented in-flight ceiling for I/O-bound sync dispatch: the width
#: ``examples/async_pipeline.py`` sets its thread executor against the asyncio
#: one at, and the width the repo benchmark's ``calls_threads`` /
#: ``calls_latency`` workloads run at.  Fixed, so those numbers do not depend
#: on the machine: against a backend that waits, the sync path pays one
#: blocked OS thread per call in flight, which the asyncio path does not.
DEFAULT_POOL_SIZE = 8

#: How long a fanned-out bag may start no body before :class:`BatchExecutor`
#: takes the running calls to be waiting and brings in its helper threads:
#: long against a call that computes, short against one that waits.
_STALL_SECONDS = 0.001


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
    """Internal: a map() task failed the pre-dispatch budget check.

    Distinguishes "the budget died before this task started" from "this task
    ran and raised", so the outcome can be reported as skipped rather than
    as a mid-task failure.
    """

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
def _settling(bag: SettleBag | None) -> Iterator[None]:
    """Make ``bag`` the open one; on any exit, hand over what it still holds."""
    token = OPEN_BAG.set(bag)
    try:
        yield
    finally:
        OPEN_BAG.reset(token)
        if bag is not None:
            bag.close()


class _Admitted:
    """Request: make ``call`` while holding one of the governor's admission slots."""

    __slots__ = ("governor", "call")

    def __init__(self, governor: ConcurrencyGovernor, call: Call) -> None:
        self.governor = governor
        self.call = call

    def _estimate(self) -> int:
        return estimated_prompt_tokens(self.call.prompts[0])

    def run(self) -> list[LLMResponse]:
        with self.governor.admit(self.call.model, estimated_tokens=self._estimate()):
            return self.call.run()

    async def arun(self) -> list[LLMResponse]:
        async with self.governor.admit_async(
            self.call.model, estimated_tokens=self._estimate()
        ):
            return await self.call.arun()


class _RunTask:
    """Request: run one ``map`` task.

    On the event loop a coroutine function is awaited natively, a sync
    callable hops to a worker thread (so blocking work still overlaps), and a
    sync callable returning an awaitable gets that awaited too.
    """

    __slots__ = ("task",)

    def __init__(self, task: Callable[[], Any]) -> None:
        self.task = task

    def run(self) -> Any:
        return self.task()

    async def arun(self) -> Any:
        if inspect.iscoroutinefunction(self.task):
            return await self.task()
        value = await asyncio.to_thread(self.task)
        if inspect.isawaitable(value):
            return await value
        return value


class _ExecutorCore:
    """Every decision of batch execution, once; see the module docstring.

    What is per call and what is per bag: the budget pre-check, admission and
    — in the session — tracking, pricing and charging happen per unit task,
    before the next one is dispatched.  ``run`` (both dispatch shapes, both
    drivers) additionally opens one :class:`SettleBag` scope: a session
    reached through it records the settled calls — spans, ``repro_*``
    metrics, runtime stats — in runs of the ring's flush bound and, in a
    ``finally``, at the bag's end, so a failure, a budget stop or Ctrl-C
    loses no record.  ``map`` opens none: each operator run inside a wave
    opens its own.  Neither does an executor with a ``validator``.

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
        budget: optional budget (or per-step :class:`~repro.core.budget.
            BudgetLease`) checked before each dispatch for early stopping.
        governor: optional :class:`~repro.core.governor.ConcurrencyGovernor`
            every unit-task dispatch is admitted through (RPM/TPM quotas,
            in-flight cap, adaptive backoff).  Sharing one governor between a
            :class:`BatchExecutor` and an :class:`AsyncBatchExecutor` gives
            sync and async traffic a single admission point.
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
        budget: Budget | BudgetLease | None = None,
        governor: ConcurrencyGovernor | None = None,
        validator: Callable[[str], Any] | None = None,
        max_retries: int = 2,
        retry_temperature: float = 0.7,
        instruments: Any | None = None,
    ) -> None:
        if max_concurrency is None:
            max_concurrency = self._default_concurrency
        if max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be at least 1")
        self.max_concurrency = max_concurrency
        self.budget = budget
        self.governor = governor
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

    def _fan_out(self, bodies: list[Body]) -> Any:
        """Drive ``bodies`` concurrently; one :class:`TaskOutcome` each, in order.

        The one thing the two executors do differently.  After the first
        failure, bodies that have not started are left ``skipped`` (those in
        flight finish), approximating where a sequential loop would have
        stopped.
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
        # One bag per run, however it is dispatched — except under a validator,
        # whose retry wrapper amends each call's span as soon as the call returns.
        bag = SettleBag() if self.retry_stats is None else None
        with _QueueDepth(self.instruments, len(normalized)), _settling(bag):
            if self.max_concurrency == 1 or len(normalized) == 1:
                return (yield from self._run_sequential(normalized))
            return (yield from self._run_concurrent(normalized))

    def _run_sequential(self, requests: Sequence[BatchRequest]) -> Body:
        params = {(request.model, request.temperature, request.max_tokens) for request in requests}
        budget_enforced = self.budget is not None and not self.budget.unlimited
        if len(params) == 1 and not budget_enforced and self.governor is None:
            # The common operator case: one prompt list, shared parameters, no
            # budget limit to check mid-batch and no governor to admit each
            # dispatch — hand the whole bag to the client's native batch
            # entry point in a single call.
            model, temperature, max_tokens = params.pop()
            prompts = [request.prompt for request in requests]
            return (yield Call(self._client, prompts, model, temperature, max_tokens))
        # Heterogeneous parameters (e.g. ensemble votes across models) or a
        # budget limit that must be able to stop the batch mid-way: dispatch
        # one by one, in order, so every call is charged before the next one
        # goes out.
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
        seen: set[tuple[str | None, str]] = set()
        pooled: list[int] = []
        deferred: list[int] = []
        for index, request in enumerate(requests):
            if request.temperature == 0.0:
                key = (request.model, request.prompt)
                if key in seen:
                    deferred.append(index)
                    continue
                seen.add(key)
            pooled.append(index)
        outcomes = yield Invoke(self._fan_out, [self._unit(requests[index]) for index in pooled])
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

    def _unit(self, request: BatchRequest) -> Body:
        """Body of one unit task: pre-check, gauges, admission, the call, feedback."""
        self._check_budget()
        if self.instruments is not None:
            self.instruments.note_task_started()
        try:
            call = Call(
                self._client,
                [request.prompt],
                request.model,
                request.temperature,
                request.max_tokens,
                single=True,
            )
            if self.governor is None:
                (response,) = yield call
                return response
            try:
                (response,) = yield _Admitted(self.governor, call)
            except BaseException as exc:
                if is_rate_limit(exc):
                    self.governor.record_failure(exc)
                raise
            self.governor.record_success()
            return response
        finally:
            if self.instruments is not None:
                self.instruments.note_task_done()

    def _check_budget(self) -> None:
        budget = self.budget
        if budget is not None and not budget.unlimited and budget.remaining <= 0.0:
            raise BudgetExceededError(budget.spent, budget.limit)

    def _map(self, tasks: Sequence[Callable[[], Any]]) -> Body:
        """Body of ``map``: one :class:`TaskOutcome` per task, in input order."""
        bodies = [self._guarded(task) for task in tasks]
        outcomes = [TaskOutcome(skipped=True) for _ in bodies]
        if not bodies:
            return outcomes
        with _QueueDepth(self.instruments, len(bodies)):
            if self.max_concurrency == 1 or len(bodies) == 1:
                for index, body in enumerate(bodies):
                    try:
                        outcomes[index] = TaskOutcome(value=(yield from body))
                    except (asyncio.CancelledError, GeneratorExit):
                        raise
                    except BaseException as exc:  # noqa: BLE001 - reported, not raised
                        outcomes[index] = TaskOutcome(error=exc)
                        break
            else:
                outcomes = yield Invoke(self._fan_out, bodies)
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
        try:
            self._check_budget()
        except BudgetExceededError as exc:
            raise _BudgetPreCheckStop(exc) from exc
        return (yield _RunTask(task))


class BatchExecutor(_ExecutorCore):
    """Dispatch a list of independent unit tasks against one LLM client.

    Sequential at ``max_concurrency == 1`` (the default).  Above that it is
    a ceiling on calls in flight, not a thread count: the dispatching thread
    drains the bag itself, up to ``max_concurrency - 1`` helper threads join
    it within about a millisecond of a call blocking, and all of them have
    exited when ``run``/``map`` returns.  Arguments: see :class:`_ExecutorCore`.
    """

    def run(self, requests: Iterable[BatchRequest | str]) -> list[LLMResponse]:
        """Execute every request and return the responses in input order.

        Plain strings are promoted to default-parameter :class:`BatchRequest`
        objects.  Raises :class:`~repro.exceptions.BudgetExceededError` before
        dispatching further unit tasks once an attached budget is exhausted.
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
        return drive(self._map(tasks))

    def _fan_out(self, bodies: list[Body]) -> list[TaskOutcome]:
        outcomes = [TaskOutcome(skipped=True) for _ in bodies]
        queue = deque(enumerate(bodies))
        stop = threading.Event()  # start no further body: a failure, or the bag is drained
        helpers: list[threading.Thread] = []

        def work() -> None:
            # What the dispatching thread and every helper run.  A body gets a
            # fresh copy of the dispatching context (or of a helper's copy of
            # it): trace labels and the open span reach it, what it sets stays.
            while not stop.is_set():
                try:
                    index, body = queue.popleft()
                except IndexError:
                    return
                try:
                    outcomes[index] = TaskOutcome(value=contextvars.copy_context().run(drive, body))
                except BaseException as exc:  # noqa: BLE001 - reported to the body
                    outcomes[index] = TaskOutcome(error=exc)
                    stop.set()

        def start(target: Callable[[], None]) -> None:
            thread = threading.Thread(target=contextvars.copy_context().run, args=(target,))
            thread.start()
            helpers.append(thread)

        def scout() -> None:
            # The first helper watches before it works: while bodies keep
            # starting, threads would only take turns on the interpreter lock;
            # once none has for a while a call is blocked: go to full width
            # now, not after it returns (eight slow calls are one wave).
            waiting = len(queue)
            while not stop.wait(_STALL_SECONDS):
                if len(queue) == waiting:
                    for _ in range(min(self.max_concurrency - 1, waiting) - 1):
                        start(work)
                    return work()
                waiting = len(queue)

        start(scout)
        try:
            work()
        finally:
            stop.set()
            for thread in helpers:  # complete once the scout, which starts the rest, has exited
                thread.join()
        return outcomes


class AsyncBatchExecutor(_ExecutorCore):
    """The same executor for callers on an event loop: ``run``/``map`` are awaited.

    Unit tasks are asyncio tasks bounded by a semaphore instead of threads
    in a pool.  For I/O-bound provider calls that is the difference between
    paying one OS thread per concurrent call and paying none: concurrency 64
    costs 64 pending awaits, not 64 threads.  ``map`` tasks may be coroutine
    functions — awaited natively on the loop — or plain sync callables, which
    are bridged into worker threads so a wave of blocking operator runs still
    overlaps.  Arguments: see :class:`_ExecutorCore`.
    """

    _default_concurrency = 16

    async def run(self, requests: Iterable[BatchRequest | str]) -> list[LLMResponse]:
        """Awaitable :meth:`BatchExecutor.run`: same results, same failures."""
        return await adrive(self._run(requests))

    async def map(
        self, tasks: Sequence[Callable[[], Any] | Callable[[], Awaitable[Any]]]
    ) -> list[TaskOutcome]:
        """Awaitable :meth:`BatchExecutor.map`: same outcomes."""
        return await adrive(self._map(tasks))

    async def _fan_out(self, bodies: list[Body]) -> list[TaskOutcome]:
        outcomes = [TaskOutcome(skipped=True) for _ in bodies]
        semaphore = asyncio.Semaphore(self.max_concurrency)
        stopped = False

        async def worker(index: int, body: Body) -> None:
            nonlocal stopped
            async with semaphore:
                if stopped:
                    return  # stays skipped: queued behind the failure
                try:
                    outcomes[index] = TaskOutcome(value=await adrive(body))
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - reported to the body
                    outcomes[index] = TaskOutcome(error=exc)
                    stopped = True

        # Each asyncio task copies the dispatching context at creation, so
        # trace labels and the ambient span reach the bodies as they do
        # on the sync executor's threads.
        await asyncio.gather(
            *(asyncio.create_task(worker(index, body)) for index, body in enumerate(bodies))
        )
        return outcomes
