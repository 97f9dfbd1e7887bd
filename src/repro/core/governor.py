"""Admission control and the budget's check and charge, at the one place calls reach the backend.

Serving heavy multi-user traffic means the runtime — not each caller — has to
respect the backend's operating envelope: requests-per-minute and
tokens-per-minute quotas, a cap on simultaneous in-flight calls, and backing
off when the backend starts returning 429-style
:class:`~repro.exceptions.RateLimitError` signals.  The
:class:`ConcurrencyGovernor` holds all of that, and :class:`BackendGate` is
where calls meet it: a client wrapper directly around the backend, below a
session's response cache, so it sees exactly the calls that reach the
backend — however they reach the session, from an executor or a direct
call, a native batch or a unit task — and no cache hit.  Sessions that share
one governor share its token buckets, in-flight slots and adaptive backoff
state.

Design notes:

* **Token buckets** (:class:`TokenBucket`) implement the RPM/TPM quotas with
  a virtual-scheduling debit: each reservation deducts immediately and
  returns the wait the caller owes, so N concurrent reservations pace out at
  exactly the configured rate instead of racing a refill check.  Buckets,
  cooldowns and waits read :mod:`repro.clock`, so a test that scripts that
  one module runs the RPM-cap cases without wall-clock time.
* **Adaptive backoff** consumes the existing exception taxonomy: a
  :class:`~repro.exceptions.RateLimitError` carrying ``retry_after`` imposes
  at least that cooldown; without a hint the governor backs off
  exponentially, and any successful dispatch resets the failure streak.
* **Slots** bound simultaneous in-flight dispatches with a semaphore.  Each
  backend call is admitted on its own, on the thread that makes it: one slot
  each.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from repro import clock
from repro.config import DEFAULT_CHAT_MODEL
from repro.core.budget import CHARGE_TARGET, Budget
from repro.core.executor import backend_waits, call_waits
from repro.exceptions import ConfigurationError, RateLimitError
from repro.llm.base import BaseClient, Call, LLMResponse, answered_prefix, carry_answered
from repro.tokenizer.cost import CostModel


def estimated_prompt_tokens(prompt: str) -> int:
    """Cheap pre-dispatch token estimate for TPM pacing (chars / 4): the true
    count is only known after the call."""
    return max(1, len(prompt) // 4)


class TokenBucket:
    """A thread-safe token bucket paced at a per-minute rate.

    Args:
        rate_per_minute: sustained refill rate (requests or tokens / minute).
        burst: bucket capacity — how much can be drawn instantly from a cold
            start.  Defaults to one second's worth of the rate (at least 1),
            so a fresh bucket admits the first call immediately and then
            paces at the configured rate rather than allowing a full minute's
            burst up front.
    """

    def __init__(self, rate_per_minute: float, *, burst: float | None = None) -> None:
        if rate_per_minute <= 0:
            raise ConfigurationError("rate_per_minute must be positive")
        self.rate_per_minute = rate_per_minute
        self._rate = rate_per_minute / 60.0
        self.burst = float(burst) if burst is not None else max(1.0, self._rate)
        if self.burst <= 0:
            raise ConfigurationError("burst must be positive")
        self._tokens = self.burst
        self._stamp = clock.now()
        self._lock = threading.Lock()

    def reserve(self, tokens: float = 1.0) -> float:
        """Debit ``tokens`` and return the seconds the caller must wait.

        The debit happens immediately (the bucket may go negative), so
        concurrent reservations queue up linearly: the k-th over-budget
        reservation owes k refill intervals, which is exactly what caps
        sustained dispatch at the configured rate.
        """
        if tokens < 0:
            raise ConfigurationError("cannot reserve a negative token amount")
        with self._lock:
            now = clock.now()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self._rate)
            self._stamp = now
            self._tokens -= tokens
            if self._tokens >= 0:
                return 0.0
            return -self._tokens / self._rate


@dataclass(frozen=True)
class ModelRate:
    """Per-model quota overrides (None inherits the governor default)."""

    rpm: float | None = None
    tpm: float | None = None


@dataclass
class GovernorStats:
    """One governor's admission history (concurrent readers take
    :meth:`ConcurrencyGovernor.stats_snapshot`); ``admitted`` counts backend calls."""

    admitted: int = 0
    throttled: int = 0
    wait_seconds: float = 0.0
    rate_limit_events: int = 0
    max_in_flight: int = 0


class ConcurrencyGovernor:
    """Admission point for every call a gate sends to the backend.

    Args:
        max_in_flight: cap on simultaneous in-flight dispatches (None: no cap).
        rpm: default requests-per-minute quota applied per model (None: none).
        tpm: default (estimated prompt) tokens-per-minute quota per model.
        model_rates: per-model :class:`ModelRate` overrides by model name.
        burst: bucket capacity override forwarded to every bucket.
        backoff_initial: first exponential-backoff delay after a rate-limit
            failure with no ``retry_after`` hint.
        backoff_multiplier: growth factor for consecutive failures.
        backoff_max: ceiling on any single backoff delay.
    """

    def __init__(
        self,
        *,
        max_in_flight: int | None = None,
        rpm: float | None = None,
        tpm: float | None = None,
        model_rates: dict[str, ModelRate] | None = None,
        burst: float | None = None,
        backoff_initial: float = 0.5,
        backoff_multiplier: float = 2.0,
        backoff_max: float = 30.0,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1")
        if backoff_initial <= 0 or backoff_multiplier < 1.0 or backoff_max <= 0:
            raise ConfigurationError("invalid backoff configuration")
        self.max_in_flight = max_in_flight
        self.default_rpm = rpm
        self.default_tpm = tpm
        self.model_rates = dict(model_rates or {})
        self.burst = burst
        self.backoff_initial = backoff_initial
        self.backoff_multiplier = backoff_multiplier
        self.backoff_max = backoff_max
        self.stats = GovernorStats()
        self._instruments = None
        self._lock = threading.Lock()
        self._rpm_buckets: dict[str, TokenBucket] = {}
        self._tpm_buckets: dict[str, TokenBucket] = {}
        self._cooldown_until = clock.now()
        self._consecutive_failures = 0
        self._in_flight = 0
        self._slots = (
            threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        )

    # -- admission ----------------------------------------------------------------

    @contextmanager
    def admit(self, model: str | None = None, *, estimated_tokens: float = 0.0) -> Iterator[None]:
        """Admit one dispatch: wait out quotas/backoff, hold one slot."""
        wait = self._admission_wait(model, estimated_tokens)
        if wait > 0:
            clock.sleep(wait)
        if self._slots is not None:
            self._slots.acquire()
        self._note_dispatch(wait)
        try:
            yield
        finally:
            self._release_slot()

    # -- feedback -----------------------------------------------------------------

    def bind_instruments(self, instruments) -> None:
        """Mirror admission counters into a session's
        :class:`~repro.obs.SessionInstruments` (``GET /metrics``, under its
        tenant label); the latest binding wins."""
        self._instruments = instruments

    def record_success(self) -> None:
        """A dispatch completed normally: reset the failure streak."""
        with self._lock:
            self._consecutive_failures = 0

    def record_failure(self, error: BaseException | None = None) -> float:
        """A dispatch hit a rate limit: impose a cooldown; returns its length.

        A :class:`~repro.exceptions.RateLimitError` carrying ``retry_after``
        imposes at least the backend's suggested wait; the exponential
        schedule (initial × multiplier^streak, capped) governs otherwise.
        """
        with self._lock:
            self._consecutive_failures += 1
            delay = min(
                self.backoff_max,
                self.backoff_initial
                * self.backoff_multiplier ** (self._consecutive_failures - 1),
            )
            retry_after = float(getattr(error, "retry_after", 0.0) or 0.0)
            delay = max(delay, retry_after)
            self._cooldown_until = max(self._cooldown_until, clock.now() + delay)
            self.stats.rate_limit_events += 1
        if self._instruments is not None:
            self._instruments.note_rate_limit()
        return delay

    def stats_snapshot(self) -> GovernorStats:
        """A detached copy of the admission counters, taken under the lock
        every mutation holds, so its fields come from one instant
        (``throttled`` never exceeds ``admitted``)."""
        with self._lock:
            return replace(self.stats)

    @property
    def in_flight(self) -> int:
        """Dispatches currently admitted and not yet released."""
        with self._lock:
            return self._in_flight

    # -- internals ----------------------------------------------------------------

    def _bucket(
        self,
        buckets: dict[str, TokenBucket],
        model: str | None,
        rate: float | None,
    ) -> TokenBucket | None:
        if rate is None:
            return None
        key = model or "__default__"
        with self._lock:
            bucket = buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(rate, burst=self.burst)
                buckets[key] = bucket
            return bucket

    def _rates_for(self, model: str | None) -> tuple[float | None, float | None]:
        override = self.model_rates.get(model) if model is not None else None
        rpm = override.rpm if override is not None and override.rpm is not None else self.default_rpm
        tpm = override.tpm if override is not None and override.tpm is not None else self.default_tpm
        return rpm, tpm

    def _admission_wait(self, model: str | None, estimated_tokens: float) -> float:
        rpm, tpm = self._rates_for(model)
        wait = 0.0
        rpm_bucket = self._bucket(self._rpm_buckets, model, rpm)
        if rpm_bucket is not None:
            wait = max(wait, rpm_bucket.reserve())
        tpm_bucket = self._bucket(self._tpm_buckets, model, tpm)
        if tpm_bucket is not None and estimated_tokens > 0:
            wait = max(wait, tpm_bucket.reserve(estimated_tokens))
        with self._lock:
            wait = max(wait, self._cooldown_until - clock.now())
        return max(0.0, wait)

    def _note_dispatch(self, wait: float) -> None:
        with self._lock:
            self.stats.admitted += 1
            if wait > 0:
                self.stats.throttled += 1
                self.stats.wait_seconds += wait
            self._in_flight += 1
            self.stats.max_in_flight = max(self.stats.max_in_flight, self._in_flight)
            in_flight = self._in_flight
        if self._instruments is not None:
            self._instruments.note_admission(wait, in_flight)

    def _release_slot(self) -> None:
        with self._lock:
            self._in_flight -= 1
            in_flight = self._in_flight
        if self._slots is not None:
            self._slots.release()
        if self._instruments is not None:
            self._instruments.note_release(in_flight)


def is_rate_limit(error: BaseException) -> bool:
    """Whether an exception is the taxonomy's rate-limit signal: the one
    failure that feeds the governor's backoff (a parse failure must not)."""
    return isinstance(error, RateLimitError)


class BackendGate(BaseClient):
    """A client wrapper directly around the backend, below a session's cache.

    Every backend call crosses it, and no cache hit does, so it books the
    spend: before each call it refuses it with :class:`~repro.exceptions.
    BudgetExceededError` once the budget it is charged to
    (:data:`~repro.core.budget.CHARGE_TARGET`, which the session names for
    each call) is spent, and, given a ``cost_model``, it charges each call's
    price before the next goes out.
    A limited target or a ``governor`` has a batch sent one call at a time,
    under a governor each admitted on its own and reported to the backoff;
    an unlimited, ungoverned one goes out whole, charged after.  A call whose
    charge crosses the limit is made: the error carries it, answered.

    Before a call to a backend that waits it calls :func:`~repro.core.
    executor.call_waits`, so the open fan-outs bring their helpers in; a
    fan-out's run then ends there, and the gate returns it no answer.  A gate
    over another gate (a session's) leaves both to the one below.
    """

    #: What :func:`~repro.core.executor.backend_waits` stops at, as at a
    #: session client: the one marker of a gate.
    gated = True

    def __init__(
        self,
        client,
        governor: ConcurrencyGovernor | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self._client = client
        self.governor = governor
        waits = backend_waits(client)
        self._waits = bool(waits)
        self._cost_model = None if waits is None else cost_model
        # What a call that names no model runs on: the innermost client's default.
        while not hasattr(client, "default_model") and hasattr(client, "_client"):
            client = client._client
        self.default_model = getattr(client, "default_model", DEFAULT_CHAT_MODEL)

    def _charge(self, target: Budget | None, responses: list[LLMResponse]) -> None:
        """Charge ``target`` the price of ``responses``, all at once."""
        cost_model = self._cost_model
        if target is not None and cost_model is not None:
            has_model, price = cost_model.has_model, cost_model.cost
            spent = (price(r.model, r.usage) for r in responses if has_model(r.model))
            target.charge_nanos(sum(spent))

    def _call(self, call: Call) -> list[LLMResponse]:
        target, governor = CHARGE_TARGET.get(), self.governor
        if self._waits and call_waits() and not call.single:
            return []
        if governor is None and (target is None or target.unlimited):
            try:
                responses = call.to(self._client).run()
            except BaseException as exc:
                self._charge(target, answered_prefix(exc, call.prompts) or [])
                raise
            self._charge(target, responses)
            return responses
        responses: list[LLMResponse] = []
        try:
            for prompt in call.prompts:
                if target is not None:
                    target.check()
                if governor is None:
                    responses += call.to(self._client, [prompt], single=True).run()
                else:
                    tokens = estimated_prompt_tokens(prompt)
                    with governor.admit(call.model, estimated_tokens=tokens):
                        responses += call.to(self._client, [prompt], single=True).run()
                    governor.record_success()
                self._charge(target, responses[-1:])
        except BaseException as exc:
            if governor is not None and is_rate_limit(exc):
                governor.record_failure(exc)
            carry_answered(exc, call.prompts, responses)
            raise
        return responses
