"""Observed execution statistics, fed back into subsequent quotes.

:class:`RuntimeStats` is a thread-safe store of what actually happened:
per-predicate filter selectivities, dedup survivor ratios and pair match
rates, join match selectivities, per-strategy call counts (estimated vs.
actual), per-label call latencies, the session cache hit-rate and
per-pipeline critical paths.  The engine records into it after every
operator run; the :class:`~repro.core.planner.CostPlanner` and the query
optimizer consult it on subsequent quotes so the second quote of a workload
is priced from observations rather than from static priors.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.exceptions import ConfigurationError


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
        self._filter: dict[str, _Ratio] = {}
        self._dedup = _Ratio()
        self._pair_match = _Ratio()
        self._join = _Ratio()
        self._blocked_pairs = _Ratio()
        self._probe_candidates = _Ratio()
        self._calls: dict[str, _Ratio] = {}
        self._call_counts: dict[str, float] = {}
        self._runs: dict[str, float] = {}
        # Per-operator/strategy call durations (ms), most recent last; fed by
        # the session's tracer so quotes can carry wall-clock estimates.
        self._latency: dict[str, list[float]] = {}
        # Session-global cache hits over requests, also fed per traced call;
        # the planner discounts dollar quotes by the observed hit rate.
        self._cache = _Ratio()
        # Per-pipeline critical-path wall-clock seconds (mean over runs),
        # fed by the engine's span tree after each pipeline execution.
        self._critical_path: dict[str, _Ratio] = {}

    # -- recorders -------------------------------------------------------------------

    def record_filter(self, predicate: str, *, evaluated: int, kept: int) -> None:
        """Record one predicate pass: ``kept`` of ``evaluated`` items survived."""
        if evaluated <= 0:
            return
        with self._lock:
            ratio = self._filter.setdefault(predicate, _Ratio())
            ratio.numerator += kept
            ratio.denominator += evaluated

    def record_dedup(self, *, inputs: int, survivors: int) -> None:
        """Record a whole-corpus dedup: ``survivors`` clusters from ``inputs`` records."""
        if inputs <= 0:
            return
        with self._lock:
            self._dedup.numerator += survivors
            self._dedup.denominator += inputs

    def record_pair_match(self, *, judged: int, duplicates: int) -> None:
        """Record a pair-judgment run: ``duplicates`` of ``judged`` pairs matched."""
        if judged <= 0:
            return
        with self._lock:
            self._pair_match.numerator += duplicates
            self._pair_match.denominator += judged

    def record_join(self, *, left: int, matched: int) -> None:
        """Record a semi-join: ``matched`` of ``left`` records found a partner."""
        if left <= 0:
            return
        with self._lock:
            self._join.numerator += matched
            self._join.denominator += left

    def record_blocked_pairs(self, *, candidates: int, upper_bound: int) -> None:
        """Record a blocking run: the mutual-neighbor blocker emitted
        ``candidates`` pairs where the k·n bound allowed ``upper_bound``."""
        if upper_bound <= 0:
            return
        with self._lock:
            self._blocked_pairs.numerator += candidates
            self._blocked_pairs.denominator += upper_bound

    def record_probe_candidates(self, *, candidates: int, probed: int) -> None:
        """Record vector-index probes: ``candidates`` rows were distance-ranked
        across ``probed`` probes.  The rate is a mean candidate count per
        probe (it can exceed 1), which is what prices an LSH probe against
        the exact index's full-corpus rank."""
        if probed <= 0:
            return
        with self._lock:
            self._probe_candidates.numerator += candidates
            self._probe_candidates.denominator += probed

    def record_calls(self, label: str, *, estimated: int, actual: int) -> None:
        """Record a strategy run: the planner quoted ``estimated`` calls, it took ``actual``."""
        with self._lock:
            self._call_counts[label] = self._call_counts.get(label, 0.0) + actual
            self._runs[label] = self._runs.get(label, 0.0) + 1
            if estimated > 0:
                ratio = self._calls.setdefault(label, _Ratio())
                ratio.numerator += actual
                ratio.denominator += estimated

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
            samples = self._latency.setdefault(label, [])
            for duration_ms, count in durations_ms:
                if duration_ms >= 0 and count > 0:
                    samples.extend([float(duration_ms)] * min(count, cap))
            if len(samples) > cap:
                del samples[: len(samples) - cap]

    def record_critical_path(self, pipeline: str, seconds: float) -> None:
        """Record one pipeline run's observed critical-path wall-clock.

        The engine measures the longest dependent chain of step spans after
        each run (see :func:`repro.obs.critical_path`), which is the
        wall-clock a concurrency-aware quote should predict — independent
        branches overlap, so the sum of step durations overstates reality.
        """
        if seconds < 0:
            return
        with self._lock:
            ratio = self._critical_path.setdefault(pipeline, _Ratio())
            ratio.numerator += seconds
            ratio.denominator += 1

    def record_cache(self, *, hit: bool, requests: int = 1) -> None:
        """Record cacheable session traffic: ``requests`` calls, hit or missed."""
        if requests <= 0:
            return
        with self._lock:
            self._cache.numerator += requests if hit else 0
            self._cache.denominator += requests

    # -- observations ----------------------------------------------------------------

    def filter_selectivity(self, predicate: str) -> float | None:
        """Observed surviving fraction of ``predicate``, or ``None``."""
        with self._lock:
            ratio = self._filter.get(predicate)
            return ratio.value if ratio is not None else None

    def dedup_survivor_ratio(self) -> float | None:
        """Observed clusters-per-record ratio of whole-corpus dedups."""
        with self._lock:
            return self._dedup.value

    def pair_match_rate(self) -> float | None:
        """Observed duplicate fraction among judged pairs."""
        with self._lock:
            return self._pair_match.value

    def join_selectivity(self) -> float | None:
        """Observed fraction of left records with at least one join match."""
        with self._lock:
            return self._join.value

    def blocked_pair_rate(self) -> float | None:
        """Observed candidate-pair fraction of the blocker's k·n upper bound."""
        with self._lock:
            return self._blocked_pairs.value

    def probe_candidate_rate(self) -> float | None:
        """Observed mean candidates ranked per index probe, or ``None``."""
        with self._lock:
            return self._probe_candidates.value

    def call_ratio(self, label: str) -> float | None:
        """Observed actual/estimated call ratio for a strategy label."""
        with self._lock:
            ratio = self._calls.get(label)
            return ratio.value if ratio is not None else None

    def call_count(self, label: str) -> int:
        """Total observed calls recorded under a strategy label.

        Decay-weighted history merged from a workload profile contributes
        fractionally; the reported count rounds to the nearest whole call.
        """
        with self._lock:
            return int(round(self._call_counts.get(label, 0.0)))

    def run_count(self, label: str) -> int:
        """How many operator runs were recorded under a strategy label."""
        with self._lock:
            return int(round(self._runs.get(label, 0.0)))

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

    def latency_p95(self, label: str) -> float | None:
        """95th-percentile observed call duration (ms) under a strategy label."""
        return self.latency_percentile(label, 0.95)

    def latency_labels(self) -> list[str]:
        """Strategy labels with at least one recorded duration."""
        with self._lock:
            return sorted(label for label, samples in self._latency.items() if samples)

    def cache_hit_rate(self) -> float | None:
        """Observed cache-hit fraction of session traffic, or ``None``."""
        with self._lock:
            return self._cache.value

    def critical_path_seconds(self, pipeline: str) -> float | None:
        """Mean observed critical-path seconds of a pipeline, or ``None``."""
        with self._lock:
            ratio = self._critical_path.get(pipeline)
            return ratio.value if ratio is not None else None

    @property
    def empty(self) -> bool:
        """Whether nothing has been recorded yet."""
        with self._lock:
            return not (
                self._filter
                or self._calls
                or self._call_counts
                or self._latency
                or self._dedup.denominator
                or self._pair_match.denominator
                or self._join.denominator
                or self._blocked_pairs.denominator
                or self._probe_candidates.denominator
                or self._cache.denominator
                or self._critical_path
            )

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every observed statistic (for debugging/explain)."""
        with self._lock:
            return {
                "filter_selectivity": {
                    predicate: ratio.value for predicate, ratio in self._filter.items()
                },
                "dedup_survivor_ratio": self._dedup.value,
                "pair_match_rate": self._pair_match.value,
                "join_selectivity": self._join.value,
                "blocked_pair_rate": self._blocked_pairs.value,
                "probe_candidate_rate": self._probe_candidates.value,
                "call_ratio": {label: ratio.value for label, ratio in self._calls.items()},
                "call_count": {
                    label: int(round(count)) for label, count in self._call_counts.items()
                },
                "cache_hit_rate": self._cache.value,
                "critical_path_seconds": {
                    pipeline: ratio.value
                    for pipeline, ratio in self._critical_path.items()
                },
                "latency_samples": {
                    label: len(samples) for label, samples in self._latency.items()
                },
            }

    # -- durable state (workload profiles) ---------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Every accumulator as plain JSON-shaped data (see ``repro.store``).

        The export carries raw numerator/denominator pairs rather than the
        derived ratios, so merging two states (or decay-scaling one) keeps
        the evidence-weighting exact: a ratio observed over 1000 items
        outweighs one observed over 10.
        """

        def pair(ratio: _Ratio) -> list[float]:
            return [ratio.numerator, ratio.denominator]

        with self._lock:
            return {
                "filter": {predicate: pair(r) for predicate, r in self._filter.items()},
                "dedup": pair(self._dedup),
                "pair_match": pair(self._pair_match),
                "join": pair(self._join),
                "blocked_pairs": pair(self._blocked_pairs),
                "probe_candidates": pair(self._probe_candidates),
                "calls": {label: pair(r) for label, r in self._calls.items()},
                "call_counts": dict(self._call_counts),
                "runs": dict(self._runs),
                "cache": pair(self._cache),
                "critical_path": {
                    pipeline: pair(r) for pipeline, r in self._critical_path.items()
                },
                "latency": {label: list(samples) for label, samples in self._latency.items()},
            }

    def merge_state(self, state: Mapping[str, Any], *, weight: float = 1.0) -> None:
        """Add an exported state's counts into this store, scaled by ``weight``.

        ``weight < 1`` is how workload profiles decay: saved observations
        arrive with reduced evidence mass, so fresh observations of the
        same statistic overtake them instead of being averaged away.
        Scaling numerator and denominator alike leaves the merged *ratios*
        identical to the saved ones until new evidence lands.
        """
        if weight <= 0:
            return

        def add(ratio: _Ratio, pair: Any) -> None:
            numerator, denominator = pair
            ratio.numerator += float(numerator) * weight
            ratio.denominator += float(denominator) * weight

        with self._lock:
            for predicate, pair in dict(state.get("filter", {})).items():
                add(self._filter.setdefault(predicate, _Ratio()), pair)
            add(self._dedup, state.get("dedup", (0, 0)))
            add(self._pair_match, state.get("pair_match", (0, 0)))
            add(self._join, state.get("join", (0, 0)))
            add(self._blocked_pairs, state.get("blocked_pairs", (0, 0)))
            add(self._probe_candidates, state.get("probe_candidates", (0, 0)))
            for label, pair in dict(state.get("calls", {})).items():
                add(self._calls.setdefault(label, _Ratio()), pair)
            for label, count in dict(state.get("call_counts", {})).items():
                self._call_counts[label] = (
                    self._call_counts.get(label, 0.0) + float(count) * weight
                )
            for label, count in dict(state.get("runs", {})).items():
                self._runs[label] = self._runs.get(label, 0.0) + float(count) * weight
            add(self._cache, state.get("cache", (0, 0)))
            for pipeline, pair in dict(state.get("critical_path", {})).items():
                add(self._critical_path.setdefault(pipeline, _Ratio()), pair)
            # Latency samples have no numerator/denominator to scale, so
            # decay keeps a weight-sized share of the *most recent* saved
            # samples — history fades by shrinking its sample mass, and the
            # merged reservoir stays bounded.
            for label, saved in dict(state.get("latency", {})).items():
                saved = [float(value) for value in saved]
                keep = int(round(len(saved) * min(1.0, weight)))
                if keep <= 0:
                    continue
                samples = self._latency.setdefault(label, [])
                samples.extend(saved[-keep:])
                if len(samples) > self.LATENCY_SAMPLE_CAP:
                    del samples[: len(samples) - self.LATENCY_SAMPLE_CAP]

