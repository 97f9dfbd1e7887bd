"""A run reports its own spend: the sum of the books of the steps it ran.

Runs that share one session — a tenant's jobs — go side by side, and each
report's totals are its own: the calls, dollars and tokens of its steps,
validation samples and a callable step's raw session calls included, never
another run's.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.data.words import random_words
from tests.doubles import CRITERION, simulated_client

MODEL = "sim-gpt-3.5-turbo"
PREDICATE = "comes before m"
TOTALS = ("total_calls", "total_cost", "total_prompt_tokens", "total_completion_tokens")


def pipeline(index: int) -> PipelineSpec:
    """Filter, an ``auto`` sort chosen on a labelled sample, and a callable
    step's raw call; the words of one index are no other index's."""
    words = [f"{word}-{index}" for word in random_words(6, seed=index)]
    note = lambda session, inputs: session.complete(f"Name one of {words}.").text  # noqa: E731
    return PipelineSpec(
        name=f"run-{index}",
        steps=[
            PipelineStep("filter", task=FilterSpec(items=words, predicate=PREDICATE)),
            PipelineStep(
                "sort",
                task=SortSpec(
                    items=words, criterion=CRITERION, strategy="auto",
                    validation_order=sorted(words[:4]),
                ),
                depends_on=("filter",),
            ),
            PipelineStep("note", run=note),
        ],
    )  # fmt: skip


def engine(width: int) -> DeclarativeEngine:
    client = simulated_client()
    client.oracle.register_predicate(PREDICATE, lambda word: word < "m")
    session = PromptSession(client, max_concurrency=width)
    return DeclarativeEngine(session=session, default_model=MODEL)


def totals(report) -> list:
    return [getattr(report, key) for key in TOTALS]


def test_a_runs_totals_are_its_steps_and_the_sessions_spend():
    """Alone on its session, a run's totals are the session's whole spend: a
    validation sample and a callable step's call land in a step's report."""
    solo = engine(1)
    report = solo.run_pipeline(pipeline(0))
    tracker = solo.session.tracker
    assert report.total_calls == tracker.usage.calls > 0
    assert report.total_cost == solo.session.budget.spent
    assert report.step_reports["note"].calls == 1
    assert sum(step.calls for step in report.step_reports.values()) == report.total_calls
    assert report.step_reports["sort"].calls > report.results["sort"].usage.calls  # its sample


@settings(max_examples=12, deadline=None)
@given(runs=st.integers(1, 4), width=st.sampled_from([1, 4]))
def test_runs_side_by_side_each_report_what_it_reports_alone(runs, width):
    specs = [pipeline(index) for index in range(runs)]
    alone = [totals(engine(width).run_pipeline(spec)) for spec in specs]
    shared = engine(width)
    before = shared.session.tracker.usage.calls
    reports: list = [None] * runs
    start = threading.Barrier(runs)

    def run(index: int) -> None:
        start.wait()
        reports[index] = shared.run_pipeline(specs[index])

    threads = [threading.Thread(target=run, args=(index,)) for index in range(runs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [totals(report) for report in reports] == alone
    tracker = shared.session.tracker
    assert sum(report.total_calls for report in reports) == tracker.usage.calls - before
    assert sum(report.total_prompt_tokens for report in reports) == tracker.usage.prompt_tokens
    spent = sum(round(report.total_cost * 1e9) for report in reports)
    assert spent == tracker.cost()
