"""The measuring side: runs one workload inside its own subprocess.

The command line (:mod:`.cli`) starts one Python process per workload so
each begins with cold caches and owns its ``peak_rss_mb``; this module is
what runs inside that process.  Order of events::

    import repro, generate inputs, pre-populate       -> setup_s
    calibration kernel                                 -> noisy? (first reading)
    warm-up repetitions (3; discarded)
    timed repetitions, tracing off                     -> end-to-end metrics
    workload extras (untraced diagnostics)
    traced repetitions, wrappers installed             -> per-layer metrics
    calibration kernel again                           -> noisy? (second reading)

Timings are medians over the timed repetitions; the sample count travels
with each.

**Every timing is reported in reference-machine time.**  The sandbox this
benchmark has to repeat on changes speed by a fifth to a half for tens of
seconds at a time (a fixed loop pinned to one CPU reads 6 to 13 ms within
a minute, with no steal time reported), so no statistic of raw times
repeats within a tenth from one ten-second run to the next.  What does
repeat is the *ratio* of the program's time to a fixed piece of similar
work done next to it: the :class:`Calibrator` runs between any two
repetitions, and each repetition's times are divided by how slow the
machine was around it (the readings before and after, over the reference
values below).  The disk has moods of its own - the same ``fsync`` takes
2.5 times longer for minutes on end - so there are two readings: a CPU
kernel, which scales the time a repetition spent on the CPU, and a durable
write, which scales the time it spent off it beyond the backend waits the
workload injects (see :meth:`Repetition.reference_scale`).  Work done by
threads that have just slept is a third kind: it starts on cold caches, costs
1.3 to 1.5 times what the same work costs in a hot loop, and follows the
machine's moods little more than half as far, so dividing it by the kernel
reading *added* scatter (9 % between runs, against 7 % off the clock and 5 %
over the wake reading).  A workload that injects backend waits therefore has its
CPU time divided by a **wake** reading, the same slice of work done on its
own number of threads behind its own sleeps (see :meth:`Calibrator.wake`).
A program change moves the ratio one for one; a machine change cancels.
The raw medians and the readings are kept in the result, so nothing is
hidden.  ``setup_s`` leaves this module as read off the clock; the command
line sets it against a set-up probe of its own (:func:`.cli.run_workload`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import sqlite3
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, NamedTuple

from .metrics import PER_LAYER
from .tracing import Recorder
from .workloads import WORKLOADS, Repetition, Workload

#: In ``--seconds`` mode: never report a median of fewer timed repetitions.
MIN_TIMED_REPETITIONS = 5
#: Fixed, so that the spans kept in memory are bounded and counts per op
#: repeat from run to run.
TRACED_REPETITIONS = 8
#: The two calibrations may differ by this share before a run is ``noisy``.
NOISE_TOLERANCE = 0.10


#: What one pass of the calibration kernel and one durable 4 KiB write
#: take on the reference machine state (a quiet spell of the sandbox the
#: seed numbers were taken on).  They only fix the unit: timings read as
#: they would on a machine on which the two take this long.
KERNEL_REFERENCE_MS = 3.0
DISK_REFERENCE_MS = 0.11
#: Durable writes per calibrator pass; a repetition's disk reading is the
#: median of the passes before and after it.
DISK_PROBES = 3
#: CPU microseconds one task of the wake probe costs in that machine state,
#: and tasks per pass (three rounds on eight threads: about 30 ms).
WAKE_REFERENCE_US = 160.0
WAKE_TASKS = 24


class Reading(NamedTuple):
    """One calibrator pass."""

    kernel_ms: float
    disk_ms: list[float]
    #: CPU microseconds per wake-probe task; 0.0 when the workload has none.
    wake_us: float


class Calibrator:
    """A fixed piece of work whose duration says how fast the machine is now.

    The kernel never changes, so a different reading means a different
    machine state, not a different program.  It does what the program
    does per call - format and split strings, fill a dict, tokenize with
    a regular expression, hash, write and read a few hundred sqlite rows -
    because a slowdown is not the same for all code: against a bare
    arithmetic loop these three kinds of work drift by a fifth, against
    each other by a fiftieth.
    """

    def __init__(self, workdir: Path, wake_probe: tuple[int, float] | None = None) -> None:
        """``wake_probe``: threads and seconds slept per task, for a workload
        whose CPU work is done by pool threads waking from backend waits."""
        self._token = re.compile(r"\w+|[^\w\s]")
        self._nap_s = wake_probe[1] if wake_probe else 0.0
        self._pool = ThreadPoolExecutor(max_workers=wake_probe[0]) if wake_probe else None
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE kernel (key TEXT PRIMARY KEY, value BLOB)")
        # Where the workloads keep their store files: the same disk's mood.
        self._probe_path = workdir / "calibration.bin"
        self._probe = open(self._probe_path, "wb")

    def sample(self) -> Reading:
        return Reading(
            self.kernel(), [self.durable_write() for _ in range(DISK_PROBES)], self.wake()
        )

    def durable_write(self) -> float:
        """Milliseconds until 4 KiB written to the work directory are on disk."""
        self._probe.seek(0)
        self._probe.write(b"x" * 4096)
        self._probe.flush()
        start = time.perf_counter()
        os.fsync(self._probe.fileno())
        return (time.perf_counter() - start) * 1e3

    def kernel(self) -> float:
        """Milliseconds one pass of the CPU kernel takes now."""
        start = time.perf_counter()
        seen: dict[str, int] = {}
        rows = []
        for index in range(1500):
            text = f"is item {index} lot-{index % 97} a premium listing"
            seen[text] = len(text.split())
            rows.append((index, text, seen[text]))
        for index in range(200):
            self._token.findall(
                f"Does the item {index} lot-{index % 97} satisfy: is a premium listing? Yes or No."
            )
            hashlib.sha256(b"x" * 200).digest()
        with self._db:
            self._db.execute("DELETE FROM kernel")
            self._db.executemany(
                "INSERT INTO kernel VALUES (?, ?)",
                ((f"key{index}", b"v" * 300) for index in range(400)),
            )
        self._db.execute("SELECT count(*), sum(length(value)) FROM kernel").fetchone()
        return (time.perf_counter() - start) * 1e3

    def wake(self) -> float:
        """CPU microseconds per task of :data:`WAKE_TASKS` tasks that each sleep
        like the workload's backend and then do a slice of the kernel's string
        work, on as many threads as the workload's pool: what the same work
        costs a thread that has just woken."""
        if self._pool is None:
            return 0.0
        start = time.process_time()
        for future in [self._pool.submit(self._wake_task) for _ in range(WAKE_TASKS)]:
            future.result()
        return (time.process_time() - start) * 1e6 / WAKE_TASKS

    def _wake_task(self) -> None:
        time.sleep(self._nap_s)
        seen: dict[str, int] = {}
        for index in range(40):
            text = f"is item {index} lot-{index % 97} a premium listing"
            seen[text] = len(text.split())
            self._token.findall(text)

    def reading(self) -> float:
        """A steadier kernel reading for the interference guard: median of 5."""
        return statistics.median(self.kernel() for _ in range(5))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
        self._db.close()
        self._probe.close()
        self._probe_path.unlink(missing_ok=True)


def measure(
    workload: Workload,
    calibrator: Calibrator,
    *,
    repetitions: int,
    seconds: float | None,
    recorder: Recorder | None = None,
) -> list[Repetition]:
    """Run repetitions: a fixed count, or (``seconds``) until the time is up.

    The calibrator runs between repetitions (one pass serves as the "after"
    of one and the "before" of the next) and sets each one's ``machine``,
    ``disk`` and ``wake``.
    """
    deadline = None if seconds is None else time.perf_counter() + seconds
    done: list[Repetition] = []
    before = calibrator.sample()
    while True:
        repetition = workload.repetition(recorder)
        after = calibrator.sample()
        repetition.machine = (before.kernel_ms + after.kernel_ms) / 2 / KERNEL_REFERENCE_MS
        repetition.disk = statistics.median(before.disk_ms + after.disk_ms) / DISK_REFERENCE_MS
        repetition.wake = (before.wake_us + after.wake_us) / 2 / WAKE_REFERENCE_US
        if recorder is not None:
            recorder.close_repetition(repetition.reference_scale())
        before = after
        done.append(repetition)
        if len(done) >= repetitions and (deadline is None or time.perf_counter() >= deadline):
            return done


def summarize(
    timed: list[Repetition],
) -> tuple[dict[str, float], dict[str, list[float]], list[str], int, int]:
    """End-to-end metrics (minus ``setup_s``/``peak_rss_mb``), samples,
    errors, units attempted and units failed."""
    errors = [error for repetition in timed for error in repetition.errors]
    failed = sum(repetition.failed for repetition in timed)
    reference = timed[0].signature
    for repetition in timed[1:]:
        if reference is not None and repetition.signature != reference and not repetition.errors:
            errors.append("output differs from the first repetition's on the same inputs")
            failed += len(repetition.unit_s)
    attempted = sum(len(repetition.unit_s) for repetition in timed)
    samples = {
        "ops_per_s": [r.ops / (r.wall_s * r.reference_scale()) for r in timed],
        "unit_ms": [unit * r.reference_scale() * 1e3 for r in timed for unit in r.unit_s],
        "cpu_us_per_op": [r.cpu_s / r.cpu_scale() * 1e6 / r.ops for r in timed],
        # As read off the clock, and how slow the machine was at the time.
        "raw_unit_ms": [unit * 1e3 for r in timed for unit in r.unit_s],
        "machine": [r.machine for r in timed],
        "disk": [r.disk for r in timed],
        "wake": [r.wake for r in timed],
    }
    metrics = {
        "ops_per_s": statistics.median(samples["ops_per_s"]),
        "unit_ms_p50": statistics.median(samples["unit_ms"]),
        "cpu_us_per_op": statistics.median(samples["cpu_us_per_op"]),
        "llm_calls": statistics.median(repetition.llm_calls for repetition in timed),
        "dollars": statistics.median(repetition.dollars for repetition in timed),
        "quality": statistics.fmean(repetition.quality for repetition in timed),
        "failed_share": failed / attempted,
    }
    return metrics, samples, errors, attempted, failed


def _fact_medians(timed: list[Repetition]) -> dict[str, float]:
    keys = {key for repetition in timed for key in repetition.facts}
    return {
        key: statistics.median(r.facts[key] for r in timed if key in r.facts) for key in keys
    }


def per_layer(
    workload: Workload,
    recorder: Recorder,
    timed: list[Repetition],
    traced: list[Repetition],
    samples: dict[str, list[float]],
    extras: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric by name; a layer that did no work reads 0."""
    values = {metric.name: 0.0 for metric in PER_LAYER}
    values.update(
        recorder.layer_metrics(
            ops=sum(repetition.ops for repetition in traced),
            units=sum(len(repetition.unit_s) for repetition in traced),
            steps=sum(repetition.steps for repetition in traced),
        )
    )
    values.update(_fact_medians(timed))
    for name in timed[0].timings:
        values[name] = statistics.median(
            r.timings[name] * r.reference_scale() * 1e3 for r in timed
        )
    if workload.tail_metric:
        latencies = sorted(samples["unit_ms"])
        values[workload.tail_metric] = latencies[int(0.9 * (len(latencies) - 1))]
    values.update(extras)
    untraced = statistics.median(samples["unit_ms"])
    waited = statistics.median(r.wait_s for r in timed) * 1e3
    if waited:
        values["core.executor.dispatch_efficiency"] = waited / untraced
    with_trace = statistics.median(
        unit * r.reference_scale() * 1e3 for r in traced for unit in r.unit_s
    )
    values["harness.trace_overhead_ratio"] = with_trace / untraced
    values["harness.raw_unit_ms_p50"] = statistics.median(samples["raw_unit_ms"])
    values["harness.calib_ms"] = statistics.median(samples["machine"]) * KERNEL_REFERENCE_MS
    return values


def run_worker(
    name: str,
    *,
    seed: int,
    size: str,
    workdir: Path,
    started: float,
    repetitions: int | None = None,
    seconds: float | None = None,
    warmup: int | None = None,
    trace: bool = False,
    trace_file: Path | None = None,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Measure one workload in this process (see module docstring).

    ``started`` is the wall-clock time at which the caller launched this
    process; ``setup_s`` counts from there, so it includes interpreter
    start and ``import repro``.  It is returned as read off the clock.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, size, workdir)
    calibrator = Calibrator(workdir, workload.wake_probe)
    try:
        setup_s = time.time() - started
        if setup_only:
            return {"workload": name, "end_to_end": {"setup_s": setup_s}}
        calib_before = calibrator.reading()
        if repetitions is None:
            repetitions = MIN_TIMED_REPETITIONS if seconds is not None else workload.repetitions
        if warmup is None:
            warmup = workload.warmup_repetitions
        if warmup:
            measure(workload, calibrator, repetitions=warmup, seconds=None)
        timed = measure(workload, calibrator, repetitions=repetitions, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, samples, errors, attempted, failed = summarize(timed)
        result: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "size": size,
            "repetitions": len(timed),
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **metrics},
            "samples": samples,
        }
        if trace:
            extras = workload.extras()
            recorder = Recorder()
            with recorder.installed():
                traced = measure(
                    workload,
                    calibrator,
                    repetitions=TRACED_REPETITIONS,
                    seconds=None,
                    recorder=recorder,
                )
            errors += [error for repetition in traced for error in repetition.errors]
            result["per_layer"] = per_layer(workload, recorder, timed, traced, samples, extras)
            result["traced_repetitions"] = len(traced)
            result["unwrapped"] = recorder.unwrapped
            if trace_file is not None:
                trace_file.write_text(json.dumps({"workload": name, **recorder.dump()}))
        calib_after = calibrator.reading()
        result["calib_ms"] = [calib_before, calib_after]
        result["noisy"] = (
            abs(calib_after - calib_before) / min(calib_before, calib_after) > NOISE_TOLERANCE
        )
        result["errors"] = errors[:10]
        result["correct"] = not errors
        return result
    finally:
        calibrator.close()
        workload.close()
