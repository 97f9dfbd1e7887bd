"""Command line: run the workloads, print the numbers, compare two runs.

``python -m benchmarks.perf`` (with ``PYTHONPATH=src``) and
``python3 benchmarks/perf/run.py`` are the same program; the second needs
no environment and is what ``BENCHMARK.json`` names.

* no ``--seconds``: every (or the named) workload at its fixed repetition
  count, a table of every metric by name and unit, and one JSON document
  under ``.perfbench/``;
* ``--seconds S``: the driver contract — one workload measured for ``S``
  seconds, the last stdout line a ``{"correct", "attempted", "failed",
  "metrics"}`` object holding the end-to-end (``--trace 0``) or per-layer
  (``--trace 1``: half the time untraced, then the traced repetitions)
  metrics ``BENCHMARK.json`` lists;
* ``compare A.json B.json``: per workload x end-to-end metric, both
  values, the delta, the bound and ``ok`` / ``worse`` / ``unresolved``.

This process never imports ``repro``: each workload (and each extra
set-up sample) runs in a subprocess of its own.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from .metrics import DRIVER_END_TO_END, DRIVER_EXTRA_PER_LAYER, END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).with_name("run.py")
OUT_DIR = ROOT / ".perfbench"
#: Set-ups per workload run (the measuring process plus processes that only
#: set up); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A fixed set-up, run before and after each of those: an interpreter that
#: starts, pins itself like a worker and imports what the image has but
#: nothing of ``repro``.  Set-up is mostly imports (``scipy.stats`` alone is a
#: second), which slow down and speed up with this probe, not with the
#: calibrator's hot kernel: over the kernel reading ``setup_s`` scattered by
#: 18 to 32 % between processes, off the clock by 14 to 21 %, over the probe by
#: 9 to 16 %.  The reference value only fixes the unit (see ``harness``).
SETUP_PROBE = (
    "import os\n"
    "if hasattr(os, 'sched_setaffinity'):\n"
    "    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})\n"
    "import asyncio, concurrent.futures, dataclasses, hashlib, json, re, sqlite3\n"
    "import numpy\n"
)
SETUP_PROBE_REFERENCE_S = 0.16
WORKER_TIMEOUT_S = 170


# -- subprocesses -----------------------------------------------------------------


def _spawn(arguments: Sequence[str]) -> dict[str, Any]:
    """Run one worker to completion; its last stdout line is its result."""
    command = [sys.executable, str(RUN_PY), "worker", "--started", repr(time.time()), *arguments]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker failed ({done.returncode}): {' '.join(arguments)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_probe() -> float:
    """Seconds :data:`SETUP_PROBE` takes now, over its reference: how slow
    the machine is at starting a process."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S
    )
    return (time.perf_counter() - start) / SETUP_PROBE_REFERENCE_S


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float | None = None,
    trace: bool = False,
    trace_file: Path | None = None,
) -> dict[str, Any]:
    """One workload, measured in a fresh process; ``setup_s`` from several,
    each set against the set-up probes run around it."""
    common = ["--workload", name, "--seed", str(seed)]
    raw_setups, setups = [], []
    before = _setup_probe()
    for _ in range(SETUP_SAMPLES - 1):
        raw_setups.append(_spawn([*common, "--setup-only"])["end_to_end"]["setup_s"])
        after = _setup_probe()
        setups.append(raw_setups[-1] / ((before + after) / 2))
        before = after
    arguments = list(common)
    if seconds is not None:
        # A traced driver run splits its time: untraced repetitions give the
        # base of ``trace_overhead_ratio``, then the traced ones follow.
        arguments += ["--seconds", repr(seconds * 0.5 if trace else seconds)]
    if trace:
        arguments.append("--trace")
        if trace_file is not None:
            arguments += ["--trace-file", str(trace_file)]
    result = _spawn(arguments)
    # The measuring process runs too long for a probe after it to say
    # anything about its set-up: the one before it stands alone.
    raw_setups.append(result["end_to_end"]["setup_s"])
    setups.append(raw_setups[-1] / before)
    result["setup_samples"] = setups
    result["raw_setup_samples"] = raw_setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["why"] = WORKLOADS[name]
    return result


def environment() -> dict[str, Any]:
    """Where the numbers were taken, so a bad number can be told from a bad machine."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = ""
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "store_filesystem": _filesystem(OUT_DIR.parent),
    }


def _filesystem(path: Path) -> str:
    """Filesystem type holding ``path`` (the stores are written there)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and str(path).startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


# -- output -----------------------------------------------------------------------


def print_workload(result: dict[str, Any]) -> None:
    flags = ["noisy"] if result["noisy"] else []
    if not result["correct"]:
        flags.append("INCORRECT")
    print(f"\n== {result['workload']}  ({result['why']})")
    print(
        f"   seed {result['seed']}, {result['repetitions']} timed repetitions, "
        f"{result['attempted']} units attempted, {result['failed']} failed"
        + (f"  [{', '.join(flags)}]" if flags else "")
    )
    counts = {
        "setup_s": len(result["setup_samples"]),
        "unit_ms_p50": len(result["samples"]["unit_ms"]),
    }
    for metric in END_TO_END:
        samples = counts.get(metric.name, result["repetitions"])
        print(
            f"   {metric.name:<40} {result['end_to_end'][metric.name]:>16.6f} "
            f"{metric.unit:<6} n={samples}"
        )
    for metric in PER_LAYER:
        value = result.get("per_layer", {}).get(metric.name)
        if value:
            print(f"   {metric.name:<40} {value:>16.6f} {metric.unit}")
    for error in result["errors"]:
        print(f"   error: {error}")


def driver_line(result: dict[str, Any], trace: bool) -> str:
    """The contract's result object for one ``--seconds`` run."""
    if trace:
        metrics = {
            metric.name: {"value": result["per_layer"][metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        }
        units = {metric.name: metric.unit for metric in END_TO_END}
        for name in DRIVER_EXTRA_PER_LAYER:
            metrics[name] = {"value": result["end_to_end"][name], "unit": units[name]}
    else:
        metrics = {
            metric.name: {"value": result["end_to_end"][metric.name], "unit": metric.unit}
            for metric in END_TO_END
            if metric.name in DRIVER_END_TO_END
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# -- compare ----------------------------------------------------------------------


def _spread(samples: Sequence[float]) -> float:
    """Inter-quartile range of the repetitions as a share of their median."""
    if len(samples) < 4:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)


_SAMPLES = {"ops_per_s": "ops_per_s", "unit_ms_p50": "unit_ms", "cpu_us_per_op": "cpu_us_per_op"}


def compare(path_a: Path, path_b: Path) -> int:
    """Print A against B; return 1 when any metric is ``worse``."""
    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    worse = 0
    print(f"{'workload':<14}{'metric':<15}{'A':>14}{'B':>14}{'delta':>9}{'bound':>8}  verdict")
    for name in WORKLOADS:
        if name not in doc_a["workloads"] or name not in doc_b["workloads"]:
            continue
        a, b = doc_a["workloads"][name], doc_b["workloads"][name]
        for metric in END_TO_END:
            before, after = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            change = after - before if metric.better == "lower" else before - after
            # Worsening as a share of A; from an exact 0 any rise is unbounded.
            share = change / abs(before) if before else (float("inf") if change > 0 else 0.0)
            key = _SAMPLES.get(metric.name)
            spread = max(_spread(a["samples"][key]), _spread(b["samples"][key])) if key else 0.0
            if share <= metric.bound:
                verdict = "ok"
            elif spread > metric.bound:
                # The repetitions scatter more than the bound: one pair of
                # runs cannot tell a regression from noise.
                verdict = "unresolved"
            else:
                verdict = "worse"
                worse += 1
            print(
                f"{name:<14}{metric.name:<15}{before:>14.6g}{after:>14.6g}"
                f"{share:>+9.1%}{metric.bound:>8.0%}  {verdict}"
                + ("  (noisy run)" if a.get("noisy") or b.get("noisy") else "")
            )
    return 1 if worse else 0


# -- entry ------------------------------------------------------------------------


def _pin_to_one_cpu() -> None:
    """Keep this process and every thread it starts on one CPU.

    Where the scheduler puts a thread pool decides what it costs: on the
    2-CPU sandbox the same eight threads take 100 to 310 us per call from one
    process to the next, as they share a core or bounce the interpreter lock
    between two.  Pinned (as ``pyperf --affinity`` does) the number repeats;
    what is left out is the cross-core share of that cost.  Done before
    ``numpy`` is imported, so its BLAS pool sizes itself to the one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _worker(arguments: argparse.Namespace) -> int:
    _pin_to_one_cpu()
    from .harness import run_worker  # imports repro: only inside the subprocess

    result = run_worker(
        arguments.workload,
        seed=arguments.seed,
        size="full",
        workdir=OUT_DIR / "work",
        started=arguments.started,
        seconds=arguments.seconds,
        trace=arguments.trace,
        trace_file=None if arguments.trace_file is None else Path(arguments.trace_file),
        setup_only=arguments.setup_only,
    )
    print(json.dumps(result))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.perf compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        arguments = parser.parse_args(argv[1:])
        return compare(arguments.a, arguments.b)
    if argv[:1] == ["worker"]:
        parser = argparse.ArgumentParser(prog="benchmarks.perf worker")
        parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--started", type=float, required=True)
        parser.add_argument("--seconds", type=float)
        parser.add_argument("--trace", action="store_true")
        parser.add_argument("--trace-file")
        parser.add_argument("--setup-only", action="store_true")
        return _worker(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all seven")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="driver mode: measure this long")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also run the traced repetitions and report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="where to write the JSON document")
    arguments = parser.parse_args(argv)
    trace = bool(arguments.trace)

    if arguments.seconds is not None:
        if arguments.workload is None:
            parser.error("--seconds needs --workload")
        result = run_workload(
            arguments.workload, seed=arguments.seed, seconds=arguments.seconds, trace=trace
        )
        print_workload(result)
        print(driver_line(result, trace))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    document: dict[str, Any] = {"seed": arguments.seed, "env": environment(), "workloads": {}}
    for name in names:
        result = run_workload(
            name,
            seed=arguments.seed,
            trace=trace,
            trace_file=OUT_DIR / f"trace_{name}.json" if trace else None,
        )
        print_workload(result)
        document["workloads"][name] = result
    document["env"]["loadavg_after"] = list(os.getloadavg())
    out = arguments.out or OUT_DIR / f"perf_seed{arguments.seed}.json"
    out.write_text(json.dumps(document, indent=1))
    print(f"\nwrote {out}")
    return 0 if all(result["correct"] for result in document["workloads"].values()) else 1
