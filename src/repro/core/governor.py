"""Rate-limited admission control for LLM dispatch.

Serving heavy multi-user traffic means the runtime — not each caller — has to
respect the backend's operating envelope: requests-per-minute and
tokens-per-minute quotas, a cap on simultaneous in-flight calls, and backing
off when the backend starts returning 429-style
:class:`~repro.exceptions.RateLimitError` signals.  The
:class:`ConcurrencyGovernor` is the single admission point for all of that:
both the threaded :class:`~repro.core.executor.BatchExecutor` and the
asyncio-native :class:`~repro.core.executor.AsyncBatchExecutor` route every
unit-task dispatch through one governor instance, so sync and async traffic
share the same token buckets, the same in-flight slots, and the same adaptive
backoff state.

Design notes:

* **Token buckets** (:class:`TokenBucket`) implement the RPM/TPM quotas with
  a virtual-scheduling debit: each reservation deducts immediately and
  returns the wait the caller owes, so N concurrent reservations pace out at
  exactly the configured rate instead of racing a refill check.  The clock is
  injectable, which is what makes the RPM-cap unit tests wall-clock-free.
* **Adaptive backoff** consumes the existing exception taxonomy: a
  :class:`~repro.exceptions.RateLimitError` carrying ``retry_after`` imposes
  at least that cooldown; without a hint the governor backs off
  exponentially, and any successful dispatch resets the failure streak.
* **Slots** bound simultaneous in-flight calls with a semaphore shared by
  both execution paths (the async side acquires it without ever blocking the
  event loop).
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import asynccontextmanager, contextmanager
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Callable, Iterator

from repro.exceptions import ConfigurationError, RateLimitError


def estimated_prompt_tokens(prompt: str) -> int:
    """Cheap pre-dispatch token estimate for TPM accounting (chars / 4).

    The governor needs an estimate *before* the call goes out (the true count
    is only known afterwards), and the standard chars/4 heuristic is accurate
    enough for pacing purposes.
    """
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
        clock: monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        rate_per_minute: float,
        *,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_per_minute <= 0:
            raise ConfigurationError("rate_per_minute must be positive")
        self.rate_per_minute = rate_per_minute
        self._rate = rate_per_minute / 60.0
        self.burst = float(burst) if burst is not None else max(1.0, self._rate)
        if self.burst <= 0:
            raise ConfigurationError("burst must be positive")
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
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
            now = self._clock()
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
    """Counters describing one governor's admission history.

    The live instance on a governor is mutated under the governor's lock;
    concurrent readers (the service's usage endpoint, monitoring threads)
    should take :meth:`ConcurrencyGovernor.stats_snapshot` instead of
    reading the live fields, so every field of what they see comes from one
    consistent instant.
    """

    admitted: int = 0
    throttled: int = 0
    wait_seconds: float = 0.0
    rate_limit_events: int = 0
    max_in_flight: int = 0

    def to_dict(self) -> dict[str, float | int]:
        """A JSON-shaped view (what the service's usage endpoint returns)."""
        return {
            "admitted": self.admitted,
            "throttled": self.throttled,
            "wait_seconds": self.wait_seconds,
            "rate_limit_events": self.rate_limit_events,
            "max_in_flight": self.max_in_flight,
        }


class ConcurrencyGovernor:
    """Admission point shared by the sync and async execution paths.

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
        clock: monotonic time source (injectable for tests).
        sleep: sync wait primitive (injectable for tests); the async path
            always uses ``asyncio.sleep``.
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
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
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
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rpm_buckets: dict[str, TokenBucket] = {}
        self._tpm_buckets: dict[str, TokenBucket] = {}
        self._cooldown_until = clock()
        self._consecutive_failures = 0
        self._in_flight = 0
        self._slots = (
            threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        )

    # -- admission ----------------------------------------------------------------

    @contextmanager
    def admit(self, model: str | None = None, *, estimated_tokens: float = 0.0) -> Iterator[None]:
        """Admit one sync dispatch: wait out quotas/backoff, hold a slot."""
        wait = self._admission_wait(model, estimated_tokens)
        if wait > 0:
            self._sleep(wait)
        if self._slots is not None:
            self._slots.acquire()
        self._note_dispatch(wait)
        try:
            yield
        finally:
            self._release_slot()

    @asynccontextmanager
    async def admit_async(
        self, model: str | None = None, *, estimated_tokens: float = 0.0
    ) -> AsyncIterator[None]:
        """Admit one async dispatch without ever blocking the event loop.

        Quota waits become ``asyncio.sleep``; the shared in-flight semaphore
        is acquired non-blockingly with a short poll, so a sync worker thread
        and an async task contend for the same slots fairly enough for
        admission purposes while the loop stays responsive.
        """
        wait = self._admission_wait(model, estimated_tokens)
        if wait > 0:
            await asyncio.sleep(wait)
        if self._slots is not None:
            while not self._slots.acquire(blocking=False):
                await asyncio.sleep(0.001)
        self._note_dispatch(wait)
        try:
            yield
        finally:
            self._release_slot()

    # -- feedback -----------------------------------------------------------------

    def bind_instruments(self, instruments) -> None:
        """Mirror admission counters into a metrics registry.

        Sessions call this with their :class:`~repro.obs.SessionInstruments`
        so the governor's admissions/waits/rate-limit events show up in
        ``GET /metrics`` under that session's tenant label.  Only one
        binding is kept (latest wins) — a governor is owned by one tenant
        in the service topology.
        """
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
            self._cooldown_until = max(self._cooldown_until, self._clock() + delay)
            self.stats.rate_limit_events += 1
        if self._instruments is not None:
            self._instruments.note_rate_limit()
        return delay

    def stats_snapshot(self) -> GovernorStats:
        """A lock-consistent copy of the admission counters.

        Taken under the same lock every mutation holds, so the returned
        instance is internally consistent (``throttled`` never exceeds
        ``admitted``, ``wait_seconds`` matches the throttles it counts) and
        safe to read field-by-field from a concurrent request handler while
        dispatches keep flowing.  The copy is detached: later admissions do
        not mutate it.
        """
        with self._lock:
            return replace(self.stats)

    @property
    def in_flight(self) -> int:
        """Dispatches currently admitted and not yet released."""
        with self._lock:
            return self._in_flight

    @property
    def cooldown_remaining(self) -> float:
        """Seconds of backoff cooldown still in force (0 when clear)."""
        with self._lock:
            return max(0.0, self._cooldown_until - self._clock())

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
                bucket = TokenBucket(rate, burst=self.burst, clock=self._clock)
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
            wait = max(wait, rpm_bucket.reserve(1.0))
        tpm_bucket = self._bucket(self._tpm_buckets, model, tpm)
        if tpm_bucket is not None and estimated_tokens > 0:
            wait = max(wait, tpm_bucket.reserve(estimated_tokens))
        with self._lock:
            wait = max(wait, self._cooldown_until - self._clock())
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
    """Whether an exception is the taxonomy's rate-limit signal.

    The executors use this to decide which failures feed the governor's
    adaptive backoff (parse failures and budget breaches must not).
    """
    return isinstance(error, RateLimitError)
