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

The client stack is ``CachedClient`` over the backend's
:class:`~repro.core.governor.BackendGate`: a cache hit crosses no control.
"""

from __future__ import annotations

import contextvars
import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.budget import CHARGE_TARGET, Budget
from repro.core.executor import OPEN_BAG, AsyncBatchExecutor, BatchExecutor
from repro.core.governor import BackendGate, ConcurrencyGovernor
from repro.core.stats import RuntimeStats
from repro.exceptions import BudgetExceededError, StoreError
from repro.llm.base import Call, LLMClient, LLMResponse, answered_prefix, prompt_list
from repro.llm.cache import CachedClient, ResponseCache, ResponseCacheLike
from repro.llm.registry import ModelRegistry, default_registry
from repro.llm.tracker import UsageTracker
from repro.obs import MetricsRegistry, SessionInstruments, Span, SpanTracker, current_span_id
from repro.obs.spans import TraceLabels, current_labels
from repro.tokenizer.cost import CostModel, to_dollars

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import Store

#: The books of the pipeline step the running context works for (``None``
#: outside one): each call settled is tracked there too, so that a run's
#: report counts its own calls, whatever else shares the session.
STEP_USAGE: contextvars.ContextVar[UsageTracker | None] = contextvars.ContextVar(
    "repro_step_usage", default=None
)

#: One structured line per call: DEBUG when it settled, WARNING when it raised.
_LOG = logging.getLogger("repro.calls")
_LOG.addHandler(logging.NullHandler())  # a library stays off stderr unless asked

#: One dispatch whose calls await their record: the calls as ``(model, status,
#: fields)``, ``(parent span id, start, end, calls)`` as read when it settled,
#: the ambient labels, each call's share of the duration, the responses the
#: spans' ids are owed to (``None``: the dispatch raised), cache hits, n$,
#: completion tokens.
_Settled = tuple[
    list[tuple[str, str, dict]],
    tuple[int | None, float, float, int],
    TraceLabels,
    float,
    list[LLMResponse] | None,
    int,
    int,
    int,
]


@dataclass
class SessionClient:
    """LLM client view bound to a session: cached, tracked, budget-enforced.

    ``budget`` names where its calls are *charged* — the one handle that
    does: a pipeline step's client charges its per-step lease (which
    forwards every dollar to the session budget), so the lease measures
    exactly the step's own spending even while sibling steps run
    concurrently.  ``None`` charges the session budget.
    """

    #: What :func:`~repro.core.executor.backend_waits` stops at: the session's
    #: gate below books the spend and says when a call waits.
    gated = True

    session: "PromptSession"
    budget: Budget | None = None

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        return self.session._issue([prompt], model, temperature, max_tokens, self.budget, True)[0]

    def complete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> list[LLMResponse]:
        prompts = prompt_list(prompts)
        return self.session._issue(prompts, model, temperature, max_tokens, self.budget, False)

    @property
    def spans(self) -> SpanTracker:
        """The session's span ring (retry wrappers annotate through this)."""
        return self.session.spans


class PromptSession:
    """Shared execution context for one declarative workflow.

    Args:
        client: the underlying LLM client (typically a :class:`SimulatedLLM`).
        registry: the model catalogue; defaults to the standard registry.
        budget: the monetary budget; defaults to unlimited.
        use_cache: whether identical temperature-0 prompts are deduplicated.
        max_concurrency: how many independent unit tasks operators keep in
            flight; 1 (the default) keeps everything sequential.
        governor: optional :class:`~repro.core.governor.ConcurrencyGovernor`
            that admits every call reaching the backend (RPM/TPM quotas,
            in-flight cap, adaptive backoff), and no cache hit.
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
        # across tenants), this tenant's instruments (declared, bound on first
        # note), and the span tree every pipeline/step/call hangs off — one
        # ``call`` span per call, flushed best-effort into the store.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.instruments = SessionInstruments(self.metrics, tenant=tenant_label)
        self.spans = SpanTracker(store=store, on_drop=self.instruments.note_trace_dropped)
        if governor is not None:
            governor.bind_instruments(self.instruments)
        gate = BackendGate(client, governor, self.cost_model)
        self._model = gate.default_model
        self._client: LLMClient = CachedClient(gate, self.cache) if use_cache else gate

    def complete(
        self,
        prompt: str,
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LLMResponse:
        """Issue one call through the session: cache, track, and charge it
        to the session budget (:meth:`client` charges a lease instead)."""
        return self._issue([prompt], model, temperature, max_tokens, None, True)[0]

    def complete_batch(
        self,
        prompts: list[str],
        *,
        model: str | None = None,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> list[LLMResponse]:
        """Issue a whole batch through the session: cache, track, and charge it.

        The gate checks and charges each of its backend calls, so under a
        limited budget the batch stops before the call after the one whose
        charge crossed the limit.

        A batch that fails part-way books every call it made: the calls
        answered before the failure are tracked, charged, cached and recorded
        like a success, the failure is recorded against the prompt that
        raised, and the backend's error (or the budget's) is raised.
        """
        return self._issue(prompt_list(prompts), model, temperature, max_tokens, None, False)

    def _issue(
        self,
        prompts: list[str],
        model: str | None,
        temperature: float,
        max_tokens: int | None,
        budget: Budget | None,
        single: bool,
    ) -> list[LLMResponse]:
        """The session's one call path: name the charge target (``budget``,
        else the session's), dispatch, settle.  A ``single`` call
        that raised answered nothing, so its failure names its prompt, unless
        the gate says it was answered (its charge crossed the limit).  A run
        of an executor's may come back with a prefix of its answers."""
        target = budget if budget is not None else self.budget
        model_name = model or self._model
        token = CHARGE_TARGET.set(target)
        start = time.perf_counter()
        try:
            responses = Call(
                self._client, prompts, model_name, temperature, max_tokens, single
            ).run()
        except BaseException as exc:
            answered = answered_prefix(exc, prompts)
            answered = [] if single and answered is None else answered
            self._settle_failure(prompts, answered, model_name, temperature, start, exc)
            raise
        finally:
            CHARGE_TARGET.reset(token)
        if responses:
            self._settle(prompts, responses, temperature, start, time.perf_counter())
        return responses

    def _settle_failure(
        self,
        prompts: list[str],
        answered: list[LLMResponse] | None,
        model: str,
        temperature: float,
        start: float,
        error: BaseException,
    ) -> None:
        """Book a dispatch, started at ``start``, that raised ``error``.

        The calls it answered first (``answered``, a prefix of ``prompts``)
        settle as a success would.  The failure is recorded against the
        prompt that raised, each call with an equal share of the duration —
        unless ``error`` is Ctrl-C, an exit or a cancellation, which the
        per-call path does not record either, or the budget's: the call the
        gate refused was never made, the one whose charge crossed the limit
        is the last answered.  With ``answered`` unknown (``None``) the
        record names no prompt and takes it all.
        """
        end = time.perf_counter()
        made = len(answered) + 1 if answered else 1
        failed_at = end - (end - start) / made
        if answered:
            self._settle(prompts, answered, temperature, start, failed_at)
        if isinstance(error, Exception) and not isinstance(error, BudgetExceededError):
            prompt = "" if answered is None else prompts[len(answered)]
            self._trace_failure(prompt, model, temperature, failed_at, end, error)

    def _settle(
        self,
        prompts: list[str],
        responses: list[LLMResponse],
        temperature: float,
        start: float,
        end: float,
    ) -> None:
        """The post-call path, in its two halves.

        *Per call, here and now*: the usage trackers (the session's, and
        the running step's), in the calling thread before the call returns.  The charge is the gate's, made as each
        backend call returns, so pre-checks, leases and early stops see every
        cent before the next call.  *Telemetry* — the ``call`` span, the
        ``AI_CALL`` line, the metrics (each call priced here), the runtime
        stats — is one entry per dispatch handed to :meth:`_hand_over`:
        recorded at once outside an executor's bag, with the rest of its run
        inside one.
        """
        share_ms = (end - start) * 1000.0 / len(responses)
        self.tracker.record_batch(responses)
        step_usage = STEP_USAGE.get()
        if step_usage is not None:
            step_usage.record_batch(responses)
        labels = current_labels()
        step, operator = labels.step, labels.operator
        has_model, price = self.cost_model.has_model, self.cost_model.cost
        calls: list[tuple[str, str, dict]] = []
        hits = completion = spent = 0
        for prompt, response in zip(prompts, responses):
            model, usage = response.model, response.usage
            cost = price(model, usage) if has_model(model) else 0
            cache_hit = bool(response.metadata.get("cache_hit"))
            hits += cache_hit
            spent += cost
            completion += usage.completion_tokens
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
                        "cost": to_dollars(cost),
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
        settled = (current_span_id(self.spans), end - share_ms / 1000.0, end, len(calls))
        self._hand_over((calls, settled, labels, share_ms, responses, hits, spent, completion))

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
        # operator -> [completion tokens, live calls]: a cache hit bills none.
        completions: dict[str, list[int]] = {}
        hits = ok = cost = 0
        for batch, when, labels, duration_ms, responses, batch_hits, batch_cost, tokens in run:
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
                if labels.operator and count > batch_hits:
                    tally = completions.setdefault(labels.operator, [0, 0])
                    tally[0] += tokens
                    tally[1] += count - batch_hits
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
        for operator, (tokens, live) in completions.items():
            self.stats.record_completions(operator, tokens=tokens, calls=live)
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
        end: float,
        error: BaseException,
    ) -> None:
        """Hand over the record of a call, made from ``start`` to ``end``, that
        raised (class from the taxonomy) — through the bag like a success, so
        the records of a bag stay in settle order."""
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
        self._hand_over(([(model, "error", fields)], settled, labels, duration_ms, None, 0, 0, 0))

    def client(self, budget: Budget | None = None) -> SessionClient:
        """A client view suitable for handing to operators.

        Pass a lease to charge that lease instead of the
        session budget directly (pipeline steps do this so each lease
        measures only its own step's spending).
        """
        return SessionClient(session=self, budget=budget)

    def batch_executor(self, *, max_concurrency: int | None = None) -> BatchExecutor:
        """An executor bound to this session's client.

        The DAG pipeline scheduler (:class:`~repro.core.workflow.Workflow`)
        runs each wave of independent steps through one of these; any caller
        fanning independent unit tasks through the session can do the same.
        ``max_concurrency`` defaults to the session's setting.  Its calls are
        charged as :meth:`client`'s are; to charge a lease, build a
        :class:`BatchExecutor` over ``client(lease)``.
        """
        return self._executor(BatchExecutor, max_concurrency)

    def async_batch_executor(self, *, max_concurrency: int | None = None) -> AsyncBatchExecutor:
        """:meth:`batch_executor` for callers on an event loop: its ``run`` is
        awaited, one thread hop into :meth:`BatchExecutor.run`."""
        return self._executor(AsyncBatchExecutor, max_concurrency)

    def _executor(self, kind: type, max_concurrency: int | None):
        return kind(
            self.client(),
            # "is not None" rather than "or": an explicit invalid 0 must
            # reach the executor's validation, not be silently replaced.
            max_concurrency=(
                max_concurrency if max_concurrency is not None else self.max_concurrency
            ),
            instruments=self.instruments,
        )

    @property
    def spent_dollars(self) -> float:
        """Dollars spent through this session so far."""
        return self.budget.spent

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

    Everything else — tracker, cache, registry — forwards to the
    underlying session.  The pipeline scheduler hands one of these to
    callable steps when the pipeline carries its own ``budget_dollars`` cap,
    so even a raw ``session.complete`` call inside a step counts against the
    pipeline's lease (which forwards every dollar to the session budget).
    """

    def client(self, budget: Budget | None = None) -> SessionClient:
        return self.session.client(budget if budget is not None else self.budget)

    # The session's executor factories, run on this view: their client and
    # budget come from :meth:`client`, so they are bound to this budget.
    batch_executor = PromptSession.batch_executor
    async_batch_executor = PromptSession.async_batch_executor
    _executor = PromptSession._executor

    def __getattr__(self, name: str):
        return getattr(self.session, name)
