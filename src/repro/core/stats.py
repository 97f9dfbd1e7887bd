"""Observed execution statistics, fed back into subsequent quotes.

:class:`RuntimeStats` is a thread-safe store of what actually happened:
per-predicate filter selectivities, dedup survivor ratios, join match
selectivities, blocked-pair rates, per-strategy actual/estimated call ratios,
per-label call latencies and completion lengths, the session cache hit-rate
and per-pipeline critical paths.  The engine records into it after every
operator run; the :class:`~repro.core.planner.CostPlanner` and the query
optimizer consult it on subsequent quotes so the second quote of a workload
is priced from observations rather than from static priors.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from repro.exceptions import ConfigurationError

#: Revision stamps, unique in the process: equal stamps are one stats
#: object in one state (``Store.save_profile`` skips re-encoding on it).
_REVISIONS = itertools.count()

#: Kinds with one ratio per store, exported as one ``[numerator,
#: denominator]`` pair each.
_SCALARS = ("dedup", "join", "blocked_pairs", "cache")
#: Kinds with one ratio per label (a predicate, an ``"<op>:<strategy>"``
#: label or a pipeline name), exported as ``{label: pair}``.
_LABELLED = ("filter", "calls", "completions", "critical_path")


@dataclass
class _Ratio:
    """A running numerator/denominator pair (observed fraction)."""

    numerator: float = 0.0
    denominator: float = 0.0

    @property
    def value(self) -> float | None:
        if self.denominator <= 0:
            return None
        return self.numerator / self.denominator


def _saved_pairs(state: Mapping[str, Any]) -> Iterator[tuple[tuple[str, str | None], Any]]:
    """``((kind, label), pair)`` per kept kind of an exported state (others skipped)."""
    for kind in _SCALARS:
        if kind in state:
            yield (kind, None), state[kind]
    for kind in _LABELLED:
        for label, pair in dict(state.get(kind, {})).items():
            yield (kind, label), pair


class RuntimeStats:
    """Observed execution statistics, fed back into subsequent quotes.

    All recorders are thread-safe (pipeline steps run concurrently).  Every
    getter returns ``None`` until at least one observation exists, so a
    fresh session quotes exactly from the static priors.
    """

    #: Per-label latency reservoir bound: enough samples for stable p95
    #: estimates while keeping exported profiles small.
    LATENCY_SAMPLE_CAP = 512

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.revision = next(_REVISIONS)  # restamped by every recorder
        self._ratios: dict[tuple[str, str | None], _Ratio] = {}
        # Per-operator/strategy call durations (ms), most recent last; fed by
        # the session's call spans so quotes can carry wall-clock estimates.
        self._latency: dict[str, list[float]] = {}

    def _add(self, kind: str, num: float, den: float, label: str | None = None) -> None:
        """Add ``num / den`` to the ``(kind, label)`` ratio (made on first use),
        stamping a revision."""
        with self._lock:
            self.revision = next(_REVISIONS)
            ratio = self._ratios.setdefault((kind, label), _Ratio())
            ratio.numerator += num
            ratio.denominator += den

    def _value(self, kind: str, label: str | None = None) -> float | None:
        """The ``(kind, label)`` ratio's observed value, or ``None``."""
        with self._lock:
            ratio = self._ratios.get((kind, label))
            return ratio.value if ratio is not None else None

    # -- recorders -------------------------------------------------------------------

    def record_filter(self, predicate: str, *, evaluated: int, kept: int) -> None:
        """Record one predicate pass: ``kept`` of ``evaluated`` items survived."""
        if evaluated > 0:
            self._add("filter", kept, evaluated, predicate)

    def record_dedup(self, *, inputs: int, survivors: int) -> None:
        """Record a whole-corpus dedup: ``survivors`` clusters from ``inputs`` records."""
        if inputs > 0:
            self._add("dedup", survivors, inputs)

    def record_join(self, *, left: int, matched: int) -> None:
        """Record a semi-join: ``matched`` of ``left`` records found a partner."""
        if left > 0:
            self._add("join", matched, left)

    def record_blocked_pairs(self, *, candidates: int, upper_bound: int) -> None:
        """Record a blocking run: the mutual-neighbor blocker emitted
        ``candidates`` pairs where the k·n bound allowed ``upper_bound``."""
        if upper_bound > 0:
            self._add("blocked_pairs", candidates, upper_bound)

    def record_calls(self, label: str, *, estimated: int, actual: int) -> None:
        """Record a strategy run: the planner quoted ``estimated`` calls, it took ``actual``."""
        if estimated > 0:
            self._add("calls", actual, estimated, label)

    def record_latency(self, label: str, duration_ms: float) -> None:
        """Record one call's wall-clock duration under a strategy label."""
        self.record_latencies(label, ((duration_ms, 1),))

    def record_latencies(self, label: str, durations_ms: Iterable[tuple[float, int]]) -> None:
        """Record ``(duration_ms, count)`` pairs under a strategy label:
        ``count`` calls of ``duration_ms`` each.

        The session feeds this once per recorded run of calls that carry an
        operator label (every call of a native batch is booked at the same
        share of its duration), so the reservoir blends live-call and
        cache-hit durations in their observed proportions — which is exactly
        the per-call latency a quote should extrapolate from.
        """
        cap = self.LATENCY_SAMPLE_CAP
        with self._lock:
            self.revision = next(_REVISIONS)
            samples = self._latency.setdefault(label, [])
            for duration_ms, count in durations_ms:
                if duration_ms >= 0 and count > 0:
                    samples.extend([float(duration_ms)] * min(count, cap))
            if len(samples) > cap:
                del samples[: len(samples) - cap]

    def record_completions(self, label: str, *, tokens: int, calls: int) -> None:
        """Record ``calls`` live calls under a strategy label that returned
        ``tokens`` completion tokens between them (a cache hit bills none)."""
        if calls > 0:
            self._add("completions", tokens, calls, label)

    def record_critical_path(self, pipeline: str, seconds: float) -> None:
        """Record one pipeline run's observed critical-path wall-clock.

        The engine measures the longest dependent chain of step spans after
        each run (see :func:`repro.obs.critical_path`), which is the
        wall-clock a concurrency-aware quote should predict — independent
        branches overlap, so the sum of step durations overstates reality.
        """
        if seconds >= 0:
            self._add("critical_path", seconds, 1, pipeline)

    def record_cache(self, *, hit: bool, requests: int = 1) -> None:
        """Record cacheable session traffic: ``requests`` calls, hit or missed.
        The planner discounts dollar quotes by the observed hit rate."""
        if requests > 0:
            self._add("cache", requests if hit else 0, requests)

    # -- observations ----------------------------------------------------------------

    def filter_selectivity(self, predicate: str) -> float | None:
        """Observed surviving fraction of ``predicate``, or ``None``."""
        return self._value("filter", predicate)

    def dedup_survivor_ratio(self) -> float | None:
        """Observed clusters-per-record ratio of whole-corpus dedups."""
        return self._value("dedup")

    def join_selectivity(self) -> float | None:
        """Observed fraction of left records with at least one join match."""
        return self._value("join")

    def blocked_pair_rate(self) -> float | None:
        """Observed candidate-pair fraction of the blocker's k·n upper bound."""
        return self._value("blocked_pairs")

    def call_ratio(self, label: str) -> float | None:
        """Observed actual/estimated call ratio for a strategy label."""
        return self._value("calls", label)

    def latency_percentile(self, label: str, quantile: float) -> float | None:
        """The ``quantile`` (in [0, 1]) of observed call durations, in ms.

        Nearest-rank on the retained reservoir; ``None`` until at least one
        duration was recorded under ``label``.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ConfigurationError("quantile must be within [0, 1]")
        with self._lock:
            samples = self._latency.get(label)
            if not samples:
                return None
            ordered = sorted(samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
        return ordered[rank]

    def latency_p50(self, label: str) -> float | None:
        """Median observed call duration (ms) under a strategy label."""
        return self.latency_percentile(label, 0.5)

    def completion_tokens_per_call(self, label: str) -> float | None:
        """Observed mean completion tokens of a live call under a strategy label."""
        return self._value("completions", label)

    def cache_hit_rate(self) -> float | None:
        """Observed cache-hit fraction of session traffic, or ``None``."""
        return self._value("cache")

    def critical_path_seconds(self, pipeline: str) -> float | None:
        """Mean observed critical-path seconds of a pipeline, or ``None``."""
        return self._value("critical_path", pipeline)

    # -- durable state (workload profiles) ---------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Every statistic as plain JSON-shaped data (see ``repro.store``).

        The export carries raw numerator/denominator pairs rather than the
        derived ratios, so merging two states (or decay-scaling one) keeps
        the evidence-weighting exact: a ratio observed over 1000 items
        outweighs one observed over 10.
        """
        with self._lock:
            state: dict[str, Any] = {kind: [0.0, 0.0] for kind in _SCALARS}
            state.update((kind, {}) for kind in _LABELLED)
            for (kind, label), ratio in self._ratios.items():
                pair = [ratio.numerator, ratio.denominator]
                if label is None:
                    state[kind] = pair
                else:
                    state[kind][label] = pair
            state["latency"] = {label: list(samples) for label, samples in self._latency.items()}
            return state

    def merge_state(self, state: Mapping[str, Any], *, weight: float = 1.0) -> None:
        """Add an exported state's counts into this store, scaled by ``weight``.

        ``weight < 1`` is how workload profiles decay: saved observations
        arrive with reduced evidence mass, so fresh observations of the
        same statistic overtake them instead of being averaged away.
        Scaling numerator and denominator alike leaves the merged *ratios*
        identical to the saved ones until new evidence lands.  Every value is
        read before any is added: a malformed state raises and merges nothing.
        """
        if weight <= 0:
            return
        pairs = [
            (key, float(numerator) * weight, float(denominator) * weight)
            for key, (numerator, denominator) in _saved_pairs(state)
        ]
        latency = {
            label: [float(value) for value in saved]
            for label, saved in dict(state.get("latency", {})).items()
        }
        with self._lock:
            self.revision = next(_REVISIONS)
            for key, numerator, denominator in pairs:
                ratio = self._ratios.setdefault(key, _Ratio())
                ratio.numerator += numerator
                ratio.denominator += denominator
            # Latency samples have no numerator/denominator to scale, so
            # decay keeps a weight-sized share of the *most recent* saved
            # samples — history fades by shrinking its sample mass, and the
            # merged reservoir stays bounded.
            for label, saved in latency.items():
                keep = int(round(len(saved) * min(1.0, weight)))
                if keep <= 0:
                    continue
                samples = self._latency.setdefault(label, [])
                samples.extend(saved[-keep:])
                if len(samples) > self.LATENCY_SAMPLE_CAP:
                    del samples[: len(samples) - self.LATENCY_SAMPLE_CAP]
