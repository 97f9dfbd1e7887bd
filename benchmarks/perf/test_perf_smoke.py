"""Smoke test of the perf benchmark: every workload at toy size, in-process.

Checks shape and correctness only — never a timing: that every workload
yields every metric, that outputs pass their ground-truth checks, that the
cost and quality numbers repeat under a seed, that the tracing wrappers
come off again, and that ``BENCHMARK.json`` still says what the code does.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from . import cli, corpus, harness
from .metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS, manifest

EXACT = ("llm_calls", "dollars", "quality")


def _toy(name: str, workdir: Path, *, seed: int = 1, trace: bool = False) -> dict:
    return harness.run_worker(
        name,
        seed=seed,
        size="toy",
        workdir=workdir,
        started=time.time(),
        repetitions=1,
        warmup=0,
        trace=trace,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_and_repeats_under_a_seed(name, tmp_path):
    first = _toy(name, tmp_path)
    again = _toy(name, tmp_path)
    assert first["correct"], first["errors"]
    assert set(first["end_to_end"]) == {metric.name for metric in END_TO_END}
    assert first["end_to_end"]["failed_share"] == 0
    assert first["attempted"] >= 1 and first["failed"] == 0
    for metric in EXACT:
        # Two clients settle their spend in either order: equal to 1e-9, the
        # metric's bound, not to the last bit.
        assert first["end_to_end"][metric] == pytest.approx(
            again["end_to_end"][metric], rel=0, abs=1e-9
        ), metric
    assert 0 < first["end_to_end"]["quality"] <= 1
    assert not list(tmp_path.iterdir()), "a workload must remove its scratch stores"


def test_a_second_seed_changes_every_generated_input():
    assert corpus.filter_corpus(1, 8).items != corpus.filter_corpus(2, 8).items
    assert corpus.product_feed(1, 4).items != corpus.product_feed(2, 4).items
    assert corpus.job_words(1, 0, 4) != corpus.job_words(2, 0, 4)
    assert corpus.job_words(1, 0, 4) != corpus.job_words(1, 1, 4)
    one = corpus.many_step_spec(corpus.product_feed(1, 4), 1, 8, 4)
    two = corpus.many_step_spec(corpus.product_feed(2, 4), 2, 8, 4)
    assert [step.task.__class__ for step in one.steps] == [step.task.__class__ for step in two.steps]
    assert one.steps[0].task.items != two.steps[0].task.items
    # ... and the same seed gives the same inputs.
    assert corpus.filter_corpus(3, 8).items == corpus.filter_corpus(3, 8).items


def _zero_layers(per_layer: dict, *layers: str) -> bool:
    return all(
        per_layer[f"{layer}.calls_per_op"] == 0 and per_layer[f"{layer}.self_us_per_op"] == 0
        for layer in layers
    )


def test_traced_runs_separate_the_layers_and_leave_no_wrapper_behind(tmp_path):
    from repro.llm.simulated import SimulatedLLM
    from repro.query.dataset import optimize

    original = SimulatedLLM.__dict__["complete"]
    calls = _toy("calls_seq", tmp_path, trace=True)["per_layer"]
    warm = _toy("store_warm", tmp_path, trace=True)["per_layer"]
    jobs = _toy("service_jobs", tmp_path, trace=True)["per_layer"]
    quote = _toy("plan_quote", tmp_path, trace=True)["per_layer"]

    for per_layer in (calls, warm, jobs, quote):
        assert set(per_layer) == {metric.name for metric in PER_LAYER}
    assert calls["llm.calls_per_op"] > 0 and calls["tokenizer.count_calls_per_op"] > 0
    assert _zero_layers(calls, "store", "service", "index", "proxies")
    assert calls["store.write_calls_per_unit"] == 0
    assert warm["llm.calls_per_op"] == 0 and warm["store.read_calls_per_unit"] > 0
    assert _zero_layers(warm, "service")
    assert jobs["service.calls_per_op"] > 0 and jobs["store.write_calls_per_unit"] > 0
    assert jobs["core.governor.calls_per_op"] > 0
    assert quote["llm.calls_per_op"] == 0 and quote["core.planner.calls_per_op"] > 0
    assert _zero_layers(quote, "store", "service", "core.executor")

    assert SimulatedLLM.__dict__["complete"] is original
    assert not hasattr(optimize, "__wrapped__")


def test_calls_per_op_repeat_exactly_on_a_single_threaded_workload(tmp_path):
    first = _toy("store_cold", tmp_path, trace=True)["per_layer"]
    again = _toy("store_cold", tmp_path, trace=True)["per_layer"]
    counts = [name for name in first if name.endswith(("calls_per_op", "calls_per_unit"))]
    assert counts and all(first[name] == again[name] for name in counts)
    assert first["harness.unattributed_share"] <= 0.10


def test_benchmark_json_matches_the_metric_tables():
    root = Path(__file__).resolve().parents[2]
    assert json.loads((root / "BENCHMARK.json").read_text()) == manifest()


def test_driver_line_carries_exactly_the_contract_keys(tmp_path):
    result = _toy("calls_seq", tmp_path, trace=True)
    plain = json.loads(cli.driver_line(result, trace=False))
    traced = json.loads(cli.driver_line(result, trace=True))
    assert set(plain) == set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert set(plain["metrics"]) == set(DRIVER_END_TO_END)
    assert all(entry["value"] != 0 for entry in plain["metrics"].values())
    declared = {entry["name"] for entry in manifest()["per_layer"]}
    assert set(traced["metrics"]) == declared


def test_compare_flags_a_cost_regression_and_passes_an_identical_run(tmp_path, capsys):
    result = _toy("calls_seq", tmp_path / "work")
    result["setup_samples"] = [result["end_to_end"]["setup_s"]]
    document = {"seed": 1, "env": {}, "workloads": {"calls_seq": result}}
    (tmp_path / "a.json").write_text(json.dumps(document))
    result["end_to_end"]["llm_calls"] += 1
    (tmp_path / "b.json").write_text(json.dumps(document))

    assert cli.compare(tmp_path / "a.json", tmp_path / "a.json") == 0
    assert cli.compare(tmp_path / "a.json", tmp_path / "b.json") == 1
    assert "worse" in capsys.readouterr().out
