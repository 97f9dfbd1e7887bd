"""The benchmark's metric and workload names, in one place.

``BENCHMARK.json`` at the repo root is the driver-facing copy of these
tables; the smoke test asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen under
    #: the same seed before ``compare`` calls it ``worse``.
    bound: float = 0.0


#: Every workload reports all nine; measured with tracing off.  One bound
#: per metric has to serve every workload, so the timing bounds follow the
#: least steady one: ``service_jobs`` and ``calls_threads`` (two clients and
#: eight threads taking turns on the interpreter lock) scatter by 4 to 8 %
#: between ten-second runs, the single-threaded workloads by 1 to 4 %.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("unit_ms_p50", "ms", "lower", 0.25),
    Metric("cpu_us_per_op", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("llm_calls", "count", "lower", 0.0),
    Metric("dollars", "USD", "lower", 1e-9),
    Metric("quality", "ratio", "higher", 0.0),
    Metric("failed_share", "ratio", "lower", 0.0),
)

#: The subset the driver contract can carry as ``end_to_end``: a metric
#: there may never read 0.  ``llm_calls`` and ``dollars`` are 0 on
#: ``store_warm``/``plan_quote`` and ``failed_share`` is 0 everywhere, so the
#: driver sees them as per-layer numbers and through ``correct``/``failed``.
DRIVER_END_TO_END = ("setup_s", "ops_per_s", "unit_ms_p50", "cpu_us_per_op", "peak_rss_mb", "quality")
DRIVER_EXTRA_PER_LAYER = ("llm_calls", "dollars", "failed_share")
#: The driver compares runs of *different* seeds, across which accuracy is
#: not exact: 80 to 600 labelled decisions per run scatter by 1 to 8 %.
DRIVER_QUALITY_BOUND = 0.25

#: Layers are this repo's module names.
LAYERS = (
    "llm", "tokenizer", "core.session", "trace", "obs", "core.executor",
    "core.governor", "core.workflow", "core.engine", "core.planner",
    "core.physical", "query", "operators", "proxies", "consistency", "index",
    "store", "service",
)

_DERIVED = (
    Metric("llm.cache_hit_ratio", "ratio", "higher"),
    Metric("tokenizer.count_calls_per_op", "count", "lower"),
    Metric("core.executor.dispatch_efficiency", "ratio", "higher"),
    Metric("core.executor.async_us_per_call", "us", "lower"),
    Metric("core.governor.admit_us_per_op", "us", "lower"),
    Metric("core.workflow.self_us_per_step", "us", "lower"),
    Metric("core.planner.quote_ms", "ms", "lower"),
    Metric("core.planner.quote_calls_rel_err", "ratio", "lower"),
    Metric("core.planner.quote_dollars_rel_err", "ratio", "lower"),
    Metric("core.physical.resolve_ms", "ms", "lower"),
    Metric("query.compile_ms", "ms", "lower"),
    Metric("query.optimize_ms", "ms", "lower"),
    Metric("proxies.block_ms", "ms", "lower"),
    Metric("consistency.repair_ms", "ms", "lower"),
    Metric("index.embed_ms", "ms", "lower"),
    Metric("index.build_ms", "ms", "lower"),
    Metric("index.probe_us", "us", "lower"),
    Metric("store.write_calls_per_unit", "count", "lower"),
    Metric("store.read_calls_per_unit", "count", "lower"),
    Metric("store.bytes_per_llm_call", "B", "lower"),
    Metric("store.restore_ms", "ms", "lower"),
    Metric("service.submit_ms_p50", "ms", "lower"),
    Metric("service.codec_ms_per_job", "ms", "lower"),
    Metric("service.job_latency_ms_p90", "ms", "lower"),
    Metric("harness.unattributed_share", "ratio", "lower"),
    Metric("harness.trace_overhead_ratio", "ratio", "lower"),
    Metric("harness.calib_ms", "ms", "lower"),
    Metric("harness.raw_unit_ms_p50", "ms", "lower"),
)

PER_LAYER = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"{layer}.calls_per_op", "count", "lower"),
            Metric(f"{layer}.self_us_per_op", "us", "lower"),
        )
    )
    + _DERIVED
)

WORKLOADS = {
    "calls_seq": "sequential per-item filter at zero latency: the per-call path "
    "(llm, tokenizer, session settle, trace, obs) does almost all the work",
    "calls_threads": "same filter on the 8-thread pool at zero latency: "
    "core.executor dispatch and lock contention dominate",
    "calls_latency": "same filter on 8 threads behind a 10 ms backend: the executor "
    "overlapping waits, where per-call CPU savings should not show",
    "store_cold": "filter-resolve-top_k product query into a fresh store file: the "
    "store's write side plus operators, proxies and the DAG scheduler",
    "store_warm": "the same query restored from a populated store with 0 LLM calls: "
    "fingerprinting, checkpoint load, profile apply, index load",
    "service_jobs": "2 closed-loop clients submitting 2-step jobs to the in-process "
    "service: ASGI, codec, admission, job table, SSE, async scheduler",
    "plan_quote": "Dataset.quote on 300 listings plus a 20-step pipeline quote, no "
    "execution: query compile/optimize, planner, physical planner",
}


def manifest(run_seconds: int = 10) -> dict:
    """The content of ``BENCHMARK.json`` (the driver's copy of the tables above)."""
    end_to_end = {metric.name: metric for metric in END_TO_END}
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {
                "name": name,
                "unit": end_to_end[name].unit,
                "better": end_to_end[name].better,
                "bound": DRIVER_QUALITY_BOUND if name == "quality" else end_to_end[name].bound,
            }
            for name in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER + tuple(end_to_end[name] for name in DRIVER_EXTRA_PER_LAYER)
        ],
    }
