"""Prompt sessions: the bundle of client, registry, cache, tracker, and budget.

A :class:`PromptSession` is what the engine hands to every operator it
constructs, so that all LLM traffic in a workflow shares one usage tracker,
one response cache, and one budget — regardless of how many operators or
strategies the workflow touches.

Sessions carry a ``max_concurrency`` knob: operators constructed by the
engine thread their independent unit tasks through a
:class:`~repro.core.executor.BatchExecutor` of that size, so one setting
controls the parallelism of every LLM-bound loop in the workflow.  The
session's cache, tracker, and budget are all thread-safe, so the concurrent
path never loses accounting updates.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import DEFAULT_CONFIG, ReproConfig
from repro.core.budget import Budget, BudgetLease
from repro.core.executor import OPEN_BAG, AsyncBatchExecutor, BatchExecutor
from repro.core.governor import ConcurrencyGovernor
from repro.core.stats import RuntimeStats
from repro.exceptions import BudgetExceededError, StoreError
from repro.llm.base import Body, Call, LLMClient, LLMResponse, adrive, drive
from repro.llm.cache import CachedClient, ResponseCache, ResponseCacheLike
from repro.llm.registry import ModelRegistry, default_registry
from repro.llm.tracker import UsageTracker
from repro.obs import MetricsRegistry, SessionInstruments, Span, SpanTracker, current_span_id
from repro.tokenizer.cost import CostModel
from repro.trace import TraceLabels, Tracer, current_labels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import Store

#: One structured line per call: DEBUG when it settled, WARNING when it raised.
_LOG = logging.getLogger("repro.calls")
_LOG.addHandler(logging.NullHandler())  # a library stays off stderr unless asked

#: One dispatch whose calls await their record: the calls as ``(model, status,
#: fields)``, ``(parent span id, start, end, calls)`` as read when it settled,
#: the ambient labels, each call's share of the duration, the responses the
#: spans' ids are owed to (``None``: the dispatch raised), cache hits, dollars.
_Settled = tuple[
    list[tuple[str, str, dict]],
    tuple[int | None, float, float, int],
    TraceLabels,
    float,
    list[LLMResponse] | None,
    int,
    float,
]


@dataclass
class SessionClient:
    """LLM client view bound to a session: cached, tracked, budget-enforced.

    ``budget`` optionally redirects where calls are *charged*: a pipeline
    step's client charges its per-step :class:`BudgetLease` (which forwards
    every dollar to the session budget), so the lease measures exactly the
    step's own spending even while sibling steps run concurrently.  An
    explicit ``budget=`` on a call still wins over the bound one.
    """

    session: "PromptSession"
    budget: Budget | BudgetLease | None = None

    def _bound(self, budget: Budget | BudgetLease | None) -> Budget | BudgetLease | None:
        return budget if budget is not None else self.budget

    def complete(
        self, prompt: str, *, budget: Budget | BudgetLease | None = None, **params
    ) -> LLMResponse:
        return self.session.complete(prompt, budget=self._bound(budget), **params)

    def complete_batch(
        self, prompts: list[str], *, budget: Budget | BudgetLease | None = None, **params
    ) -> list[LLMResponse]:
        return self.session.complete_batch(prompts, budget=self._bound(budget), **params)

    async def acomplete(
        self, prompt: str, *, budget: Budget | BudgetLease | None = None, **params
    ) -> LLMResponse:
        return await self.session.acomplete(prompt, budget=self._bound(budget), **params)

    async def acomplete_batch(
        self, prompts: list[str], *, budget: Budget | BudgetLease | None = None, **params
    ) -> list[LLMResponse]:
        return await self.session.acomplete_batch(
            prompts, budget=self._bound(budget), **params
        )

    @property
    def tracer(self) -> Tracer:
        """The session's call tracer (retry wrappers annotate through this)."""
        return self.session.tracer


class PromptSession:
    """Shared execution context for one declarative workflow.

    Args:
        client: the underlying LLM client (typically a :class:`SimulatedLLM`).
        registry: the model catalogue; defaults to the standard registry.
        budget: the monetary budget; defaults to unlimited.
        config: library configuration defaults.
        use_cache: whether identical temperature-0 prompts are deduplicated.
        max_concurrency: how many independent unit tasks operators keep in
            flight; 1 (the default) keeps everything sequential.
        governor: optional :class:`~repro.core.governor.ConcurrencyGovernor`
            every executor built from this session routes its dispatches
            through — one admission point (RPM/TPM quotas, in-flight cap,
            adaptive backoff) shared by the sync and async execution paths.
        store: optional durable :class:`~repro.store.Store`.  When given,
            the response cache lives in the store (temperature-0 calls are
            free across process lifetimes) and the saved workload profile —
            if one exists — is merged decay-weighted into this session's
            fresh :class:`RuntimeStats`, so the first quote is priced from
            the previous run's observations.
        profile_decay: weight applied to the loaded profile's observation
            counts (see :mod:`repro.store.profile`).
        metrics: optional shared :class:`~repro.obs.MetricsRegistry`; the
            multi-tenant service hands every tenant's session the same one
            so ``GET /metrics`` scrapes a single registry.  Defaults to a
            private registry per session.
        tenant_label: value of the ``tenant`` label on every metric series
            this session emits (empty for standalone sessions).
    """

    def __init__(
        self,
        client: LLMClient,
        *,
        registry: ModelRegistry | None = None,
        budget: Budget | None = None,
        config: ReproConfig = DEFAULT_CONFIG,
        use_cache: bool = True,
        max_concurrency: int = 1,
        governor: ConcurrencyGovernor | None = None,
        store: "Store | None" = None,
        profile_decay: float = 0.5,
        metrics: MetricsRegistry | None = None,
        tenant_label: str = "",
    ) -> None:
        self.registry = registry or default_registry()
        self.budget = budget or Budget()
        self.config = config
        self.max_concurrency = max_concurrency
        self.governor = governor
        self.cost_model: CostModel = self.registry.cost_model()
        self.tracker = UsageTracker(cost_model=self.cost_model)
        self.store = store
        self.cache: ResponseCacheLike = (
            store.response_cache() if store is not None else ResponseCache()
        )
        # Observed execution statistics (filter selectivities, dedup ratios,
        # per-strategy call counts).  The engine records into this after
        # every operator run; planners built from this session consume it so
        # later quotes are priced from what actually happened.  A store's
        # saved workload profile seeds it (decay-weighted) before anything
        # runs, so warm starts quote from history.
        self.stats = RuntimeStats()
        if store is not None:
            store.apply_profile(self.stats, decay=profile_decay)
        # Operational observability: one metric registry (possibly shared
        # across tenants), its per-tenant bound instruments, and the span
        # tree every pipeline/step/call of this session hangs off — one
        # ``call`` span per call issued through the session, flushed
        # best-effort into the store's spans table when one exists.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.instruments = SessionInstruments(self.metrics, tenant=tenant_label)
        self.spans = SpanTracker(store=store, on_drop=self.instruments.note_trace_dropped)
        if governor is not None:
            governor.bind_instruments(self.instruments)
        #: The call spans as :class:`~repro.trace.TraceRecord` views.
        self.tracer = Tracer(self.spans)
        self._client: LLMClient = CachedClient(client, self.cache) if use_cache else client

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> LLMResponse:
        """Issue one call through the session: cache, track, and charge it.

        ``budget`` redirects the charge (a :class:`BudgetLease` forwards
        every dollar to the session budget, so nothing is lost); by default
        the session's own budget is charged.

        This is :meth:`_issue` for one sync call, written out by hand over
        the same helpers: the executors cross the session once per unit
        task, where driving a generator is measurable (see
        :class:`~repro.llm.base.BaseClient`).
        """
        target = budget if budget is not None else self.budget
        model_name = model or self.config.chat_model
        start = time.perf_counter()
        try:
            response = self._client.complete(
                prompt, model=model_name, temperature=temperature, max_tokens=max_tokens
            )
        except Exception as exc:
            self._trace_failure(prompt, model_name, temperature, start, exc)
            raise
        return self._settle([prompt], [response], temperature, target, start)[0]

    def complete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> list[LLMResponse]:
        """Issue a whole batch through the session: cache, track, and charge it.

        The batch is dispatched as one unit, so the budget is checked up front
        and charged per response afterwards; callers that need a spend limit
        to interrupt a batch *between* unit tasks should dispatch through a
        :class:`~repro.core.executor.BatchExecutor` with the session budget
        attached (operators constructed by the engine do exactly that).
        """
        return drive(self._issue(list(prompts), model, temperature, max_tokens, budget, False))

    async def acomplete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> LLMResponse:
        """Awaitable :meth:`complete`: the same call path, the client stack awaited.

        Sync-only clients are bridged into a worker thread (see
        :func:`~repro.llm.base.call_acomplete`).
        """
        body = self._issue([prompt], model, temperature, max_tokens, budget, True)
        return (await adrive(body))[0]

    async def acomplete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> list[LLMResponse]:
        """Awaitable :meth:`complete_batch`: the same call path, awaited."""
        return await adrive(
            self._issue(list(prompts), model, temperature, max_tokens, budget, False)
        )

    def _issue(
        self,
        prompts: list[str],
        model: str | None,
        temperature: float,
        max_tokens: int | None,
        budget: Budget | BudgetLease | None,
        single: bool,
    ) -> Body:
        """The session's one call path: pre-check, dispatch, settle.

        A body in the sense of :mod:`repro.llm.base`: the four public entry
        points hand it to the sync or the async driver, so tracking, pricing,
        tracing and charging are the same code whichever way a call arrives.
        """
        target = budget if budget is not None else self.budget
        # Only a batch is refused up front: a single call is the unit the
        # executors pre-check themselves, and on its own it is made, charged
        # and *then* reported as the breach.
        if not single and not target.unlimited and target.remaining <= 0.0:
            raise BudgetExceededError(target.spent, target.limit or 0.0)
        model_name = model or self.config.chat_model
        start = time.perf_counter()
        try:
            responses = yield Call(
                self._client, prompts, model_name, temperature, max_tokens, single
            )
        except Exception as exc:
            # A batch is one dispatch unit: which prompt failed (and which
            # succeeded before it) is not observable here, so the failure is
            # traced as a single batch-level record with no prompt.
            self._trace_failure(prompts[0] if single else "", model_name, temperature, start, exc)
            raise
        return self._settle(prompts, responses, temperature, target, start)

    def _settle(
        self,
        prompts: list[str],
        responses: list[LLMResponse],
        temperature: float,
        target: Budget | BudgetLease,
        start: float,
    ) -> list[LLMResponse]:
        """The post-call path, in its two halves.

        *Per call, here and now* — what the dollars contract needs: the usage
        tracker, the price and ``target.charge`` of every response, in the
        calling thread before the call returns, so pre-checks, leases and
        early stops see every cent at once.  *Telemetry* — the ``call`` span,
        the ``AI_CALL`` line, the metrics, the runtime stats — is one entry
        per dispatch handed to :meth:`_hand_over`: recorded at once outside
        an executor's bag, with the rest of its run inside one.
        """
        end = time.perf_counter()
        share_ms = (end - start) * 1000.0 / len(responses) if responses else 0.0
        self.tracker.record_batch(responses)
        labels = current_labels()
        step, operator = labels.step, labels.operator
        has_model, price = self.cost_model.has_model, self.cost_model.cost
        calls: list[tuple[str, str, dict]] = []
        hits = 0
        spent = 0.0
        # Charge every response before surfacing a limit breach: the calls
        # were all made (and tracked), so stopping at the first raise would
        # leave the budget understating real spend.
        charge_error: BudgetExceededError | None = None
        for prompt, response in zip(prompts, responses):
            model, usage = response.model, response.usage
            priced = has_model(model)
            cost = price(model, usage) if priced else 0.0
            cache_hit = bool(response.metadata.get("cache_hit"))
            hits += cache_hit
            spent += cost
            calls.append(
                (
                    model,
                    "ok",
                    {
                        "step": step,
                        "operator": operator,
                        "temperature": temperature,
                        "prompt": prompt,
                        "response_text": response.text,
                        "prompt_tokens": usage.prompt_tokens,
                        "completion_tokens": usage.completion_tokens,
                        "cost": cost,
                        "duration_ms": share_ms,
                        "cache_hit": cache_hit,
                        "attempt": 0,
                        "parse_ok": None,
                        "error": None,
                        "finish_reason": response.finish_reason,
                        "confidence": response.confidence,
                    },
                )
            )
            if priced:
                try:
                    target.charge(cost)
                except BudgetExceededError as exc:
                    charge_error = charge_error or exc
        # Handed over whether or not charging breached the budget: the calls
        # happened, and are replayable.
        settled = (current_span_id(self.spans), end - share_ms / 1000.0, end, len(calls))
        self._hand_over((calls, settled, labels, share_ms, responses, hits, spent))
        if charge_error is not None:
            raise charge_error
        return responses

    # -- recording ----------------------------------------------------------------

    def _hand_over(self, entry: _Settled) -> None:
        """Leave a dispatch's calls to be recorded: now, or with their bag's run.

        A run is bounded by the ring's own flush bound, so a bag adds at most
        one run of unrecorded calls to what a kill can lose of a step.
        """
        bag = OPEN_BAG.get()
        if bag is None:
            self._record([entry])
        else:
            bag.add(self._record, entry, len(entry[0]), self.spans.flush_every)

    def _record(self, run: list[_Settled]) -> None:
        """The one record of each call of a run, in settle order: a ``call``
        span holding the trace fields (its id stamped on the response, where
        retry wrappers look for it), a ``repro.calls`` log line when anyone
        listens, and — crossing each once per run — the metrics and the
        runtime stats."""
        calls: list[tuple[str, str, dict]] = []
        settled = []
        owed: list[LLMResponse | None] = []  # whom each span's id is stamped on
        durations: list[tuple[float, int]] = []
        latencies: dict[str, list[tuple[float, int]]] = {}
        hits = ok = 0
        cost = 0.0
        for batch, when, labels, duration_ms, responses, batch_hits, batch_cost in run:
            count = len(batch)
            calls += batch
            settled.append(when)
            if labels.operator:
                latencies.setdefault(labels.operator, []).append((duration_ms, count))
            if responses is None:
                owed += [None] * count
                self.instruments.note_call_error(batch[0][2]["error"])
            else:
                owed += responses
                durations.append((duration_ms, count))
                ok += count
                hits += batch_hits
                cost += batch_cost
        spans = self.spans.record_calls(calls, settled=settled)
        for span, response in zip(spans, owed):
            if response is not None:
                response.metadata["trace_call_id"] = span.span_id
        if ok:
            self.instruments.note_calls(
                hits=hits, misses=ok - hits, cost=cost, durations_ms=durations
            )
            self.stats.record_cache(hit=True, requests=hits)
            self.stats.record_cache(hit=False, requests=ok - hits)
            self.instruments.note_budget_spent(self.budget.spent)
        for operator, samples in latencies.items():
            self.stats.record_latencies(operator, samples)
        if ok < len(spans) or _LOG.isEnabledFor(logging.DEBUG):
            labelled = [entry[2] for entry in run for _ in entry[0]]
            for span, labels in zip(spans, labelled):
                level = logging.DEBUG if span.status == "ok" else logging.WARNING
                if _LOG.isEnabledFor(level):
                    self._log(level, span, labels)

    def _log(self, level: int, span: Span, labels: TraceLabels) -> None:
        """One ``repro.calls`` line for a recorded call."""
        fields = span.attributes
        _LOG.log(
            level,
            "AI_CALL call_id=%d step=%s operator=%s model=%s duration_ms=%.3f "
            "cache_hit=%s error=%s",
            span.span_id,
            labels.step,
            labels.operator,
            span.label,
            fields["duration_ms"],
            fields["cache_hit"],
            fields["error"],
            extra={
                "tenant": self.instruments.tenant,
                "job": labels.job,
                "span_id": span.span_id,
                "parent_span_id": span.parent_id,
            },
        )

    def _trace_failure(
        self,
        prompt: str,
        model: str,
        temperature: float,
        start: float,
        error: BaseException,
    ) -> None:
        """Hand over the record of a call, started at ``start``, that raised
        (class from the taxonomy) — through the bag like a success, so the
        records of a bag stay in settle order."""
        end = time.perf_counter()
        duration_ms = (end - start) * 1000.0
        labels = current_labels()
        fields = {
            "step": labels.step,
            "operator": labels.operator,
            "temperature": temperature,
            "prompt": prompt,
            "duration_ms": duration_ms,
            "cache_hit": False,
            "error": type(error).__name__,
        }
        settled = (current_span_id(self.spans), start, end, 1)
        self._hand_over(([(model, "error", fields)], settled, labels, duration_ms, None, 0, 0.0))

    def client(self, budget: Budget | BudgetLease | None = None) -> SessionClient:
        """A client view suitable for handing to operators.

        Pass a :class:`BudgetLease` to charge that lease instead of the
        session budget directly (pipeline steps do this so each lease
        measures only its own step's spending).
        """
        return SessionClient(session=self, budget=budget)

    def batch_executor(
        self,
        *,
        max_concurrency: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> BatchExecutor:
        """An executor bound to this session's client.

        The DAG pipeline scheduler (:class:`~repro.core.workflow.Workflow`)
        runs each wave of independent steps through one of these; any caller
        fanning independent unit tasks through the session can do the same.
        ``max_concurrency`` defaults to the session's setting; the session's
        governor (when set) admits every dispatch.
        """
        return self._executor(BatchExecutor, max_concurrency, budget)

    def async_batch_executor(
        self,
        *,
        max_concurrency: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> AsyncBatchExecutor:
        """The asyncio-native executor, bound to this session's client.

        Shares the session's governor with every sync executor the session
        builds, so both paths go through one admission point.
        ``max_concurrency`` defaults to the session's setting.
        """
        return self._executor(AsyncBatchExecutor, max_concurrency, budget)

    def _executor(
        self,
        kind: type,
        max_concurrency: int | None,
        budget: Budget | BudgetLease | None,
    ):
        return kind(
            self.client(),
            # "is not None" rather than "or": an explicit invalid 0 must
            # reach the executor's validation, not be silently replaced.
            max_concurrency=(
                max_concurrency if max_concurrency is not None else self.max_concurrency
            ),
            budget=budget,
            governor=self.governor,
            instruments=self.instruments,
        )

    @property
    def spent_dollars(self) -> float:
        """Dollars spent through this session so far."""
        return self.budget.spent

    def reset_usage(self) -> None:
        """Clear the tracker (the budget's spend is intentionally kept)."""
        self.tracker.reset()

    def save_profile(self, store: "Store | None" = None, *, name: str = "default") -> None:
        """Persist this session's observed statistics as a workload profile.

        Saves to ``store`` when given, else to the session's own store.  The
        engine calls this automatically after ``run_pipeline(store=...)``;
        call it directly after ad-hoc operator runs worth remembering.
        """
        target = store if store is not None else self.store
        if target is None:
            raise StoreError(
                "no store to save the workload profile to; pass one, or build "
                "the session with store="
            )
        # Saving to a store this session was not seeded from merges the
        # saved history underneath (this session's stats do not contain it);
        # the session's own store is replaced exactly.
        target.save_profile(self.stats, name=name, merge=target is not self.store)
        self.spans.flush()


class BudgetScopedSession(SessionClient):
    """A session view whose LLM calls are charged to a specific budget.

    Everything else — tracker, cache, config, registry — forwards to the
    underlying session.  The pipeline scheduler hands one of these to
    callable steps when the pipeline carries its own ``budget_dollars`` cap,
    so even a raw ``session.complete`` call inside a step counts against the
    pipeline's lease (which forwards every dollar to the session budget).
    """

    def client(self, budget: Budget | BudgetLease | None = None) -> SessionClient:
        return self.session.client(self._bound(budget))

    def batch_executor(
        self,
        *,
        max_concurrency: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> BatchExecutor:
        return self.session.batch_executor(
            max_concurrency=max_concurrency, budget=self._bound(budget)
        )

    def async_batch_executor(
        self,
        *,
        max_concurrency: int | None = None,
        budget: Budget | BudgetLease | None = None,
    ) -> AsyncBatchExecutor:
        return self.session.async_batch_executor(
            max_concurrency=max_concurrency, budget=self._bound(budget)
        )

    def __getattr__(self, name: str):
        return getattr(self.session, name)
