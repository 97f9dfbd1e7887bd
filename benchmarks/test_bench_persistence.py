"""Benchmark — the durable store makes repeat and resumed workloads cheap.

Two production claims of the persistence layer (ISSUE 5), each pinned by
exact call counts (timings of the store live in ``benchmarks/perf``'s
``store_cold`` / ``store_warm`` workloads):

* **Warm-start quote accuracy** — a *fresh process* (new session, new
  engine) that loads the previous run's workload profile quotes the
  workload with the same zero call-count error a warm in-process session
  achieves, and annotates the same prior→observed corrections.  Without the
  profile the cold quote misprices the filter at its 0.5 prior.
* **Resumed-run call counts** — a pipeline killed mid-run resumes against
  the same store and completes having spent LLM calls only on the steps
  that had not finished; a rerun of a partially *edited* pipeline spends
  only the changed subtree.  Identity of results with an uninterrupted run
  is asserted exactly.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.llm.faulty import FaultyLLM
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset
from repro.store import Store
from tests.query.support import clean_behavior, product_corpus

N_ENTITIES = 12
VARIANTS = 3  # 36 listings

WORDS = [
    "apple", "banana", "cherry", "damson", "elder", "fig",
    "grape", "honeydew", "kiwi", "lemon",
]
PREDICATE = "starts early in the alphabet"


def _letters_llm(seed: int = 11) -> SimulatedLLM:
    oracle = Oracle()
    oracle.register_key("alphabetical order", key=lambda item: item)
    oracle.register_predicate(PREDICATE, lambda item: item[0] in "abcdef")
    return SimulatedLLM(oracle, seed=seed)


def _pipeline() -> PipelineSpec:
    return PipelineSpec(
        name="persistence-bench",
        steps=[
            PipelineStep(
                name="screen",
                task=FilterSpec(items=WORDS, predicate=PREDICATE, strategy="per_item"),
            ),
            PipelineStep(
                name="order",
                task=lambda inputs: SortSpec(
                    items=list(inputs["screen"].kept),
                    criterion="alphabetical order",
                    strategy="pairwise",
                ),
                depends_on=("screen",),
            ),
        ],
    )


def _query(items: list[str]) -> Dataset:
    return (
        Dataset(items, name="persistence-bench")
        .filter("keeps everything", expected_selectivity=0.5)
        .resolve()
    )


def test_warm_start_quote_accuracy_across_processes(tmp_path):
    items, oracle = product_corpus(n_entities=N_ENTITIES, variants=VARIANTS)
    path = tmp_path / "store.db"

    # Process one: cold quote, execute, profile saved to the store by .run.
    with Store(path) as store:
        session = PromptSession(
            SimulatedLLM(oracle, seed=11, behavior=clean_behavior()), store=store
        )
        engine = DeclarativeEngine.from_session(session)
        cold_quote = _query(items).quote(optimized=False, planner=engine.planner())
        first_run = _query(items).with_store(store).run(engine, optimized=False)
        actual_calls = first_run.total_calls
        warm_quote = _query(items).quote(optimized=False, planner=engine.planner())

    # Process two: a brand-new session loads the profile from the store.
    with Store(path) as store:
        fresh = PromptSession(
            SimulatedLLM(oracle, seed=11, behavior=clean_behavior()), store=store
        )
        planner = DeclarativeEngine.from_session(fresh).planner()
        profile_quote = _query(items).quote(optimized=False, planner=planner)

    cold_error = abs(cold_quote.total_calls - actual_calls)
    warm_error = abs(warm_quote.total_calls - actual_calls)
    profile_error = abs(profile_quote.total_calls - actual_calls)
    print_table(
        "Persistence: warm-start quote accuracy (calls vs actual)",
        ["quote", "quoted calls", "actual calls", "|error|"],
        [
            ["cold (priors)", cold_quote.total_calls, actual_calls, cold_error],
            ["warm in-process", warm_quote.total_calls, actual_calls, warm_error],
            ["fresh process + profile", profile_quote.total_calls, actual_calls, profile_error],
        ],
    )

    # The profile-loaded fresh process quotes exactly like the warm session
    # (decay scales numerators and denominators together), and both beat
    # the cold prior-based quote down to zero error on this workload.
    assert cold_error > 0
    assert warm_error == 0
    assert profile_quote.total_calls == warm_quote.total_calls
    assert profile_error == 0
    # The same prior -> observed annotations drive both quotes.
    assert planner.stats.filter_selectivity("keeps everything") == pytest.approx(1.0)


def test_resumed_run_spends_only_the_unfinished_subtree(tmp_path):
    # Reference: one uninterrupted run.
    reference_path = tmp_path / "reference.db"
    with Store(reference_path) as store:
        session = PromptSession(_letters_llm(), store=store)
        uninterrupted = DeclarativeEngine.from_session(session).run_pipeline(_pipeline())
    screen_calls = uninterrupted.step_reports["screen"].calls
    total_calls = uninterrupted.total_calls

    # Kill the process right after the screen step finishes.
    crash_path = tmp_path / "crash.db"
    with Store(crash_path) as store:
        crash = {screen_calls: RuntimeError("simulated crash")}
        crashing = PromptSession(FaultyLLM(_letters_llm(), crash), store=store)
        with pytest.raises(RuntimeError, match="simulated crash"):
            DeclarativeEngine.from_session(crashing).run_pipeline(_pipeline())

    # Resume in a fresh process against the same store.
    with Store(crash_path) as store:
        session = PromptSession(_letters_llm(), store=store)
        resumed = DeclarativeEngine.from_session(session).run_pipeline(_pipeline())

    # Rerun the whole pipeline once more: everything restores, zero calls.
    with Store(crash_path) as store:
        session = PromptSession(_letters_llm(), store=store)
        replay = DeclarativeEngine.from_session(session).run_pipeline(_pipeline())

    print_table(
        "Persistence: crash-resume call counts",
        ["run", "calls", "restored steps"],
        [
            ["uninterrupted", total_calls, "-"],
            ["resumed after crash", resumed.total_calls, ", ".join(resumed.restored_steps)],
            ["replay (fully warm)", replay.total_calls, ", ".join(sorted(replay.restored_steps))],
        ],
    )

    assert resumed.restored_steps == ["screen"]
    assert resumed.total_calls == total_calls - screen_calls
    assert resumed.results["order"].order == uninterrupted.results["order"].order
    assert replay.total_calls == 0
    assert sorted(replay.restored_steps) == ["order", "screen"]


def test_incremental_rerun_after_editing_one_step(tmp_path):
    path = tmp_path / "store.db"
    with Store(path) as store:
        session = PromptSession(_letters_llm(), store=store)
        cold = DeclarativeEngine.from_session(session).run_pipeline(_pipeline())

    edited = _pipeline()
    edited.steps[1].task = lambda inputs: SortSpec(
        items=list(inputs["screen"].kept),
        criterion="alphabetical order",
        strategy="rating",  # the only change
    )
    with Store(path) as store:
        session = PromptSession(_letters_llm(), store=store)
        rerun = DeclarativeEngine.from_session(session).run_pipeline(edited)

    survivors = len(cold.results["screen"].kept)
    print_table(
        "Persistence: incremental re-execution after an edit",
        ["run", "calls", "restored steps"],
        [
            ["cold", cold.total_calls, "-"],
            ["edited sort strategy", rerun.total_calls, ", ".join(rerun.restored_steps)],
        ],
    )
    assert rerun.restored_steps == ["screen"]
    # Only the edited sort re-ran: one rating call per surviving item.
    assert rerun.total_calls == survivors
    assert rerun.total_calls < cold.total_calls
