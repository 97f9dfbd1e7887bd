"""Durable store walkthrough: crash-resume, incremental reruns, warm quotes.

Run with:  python examples/resumable_pipeline.py

Everything below shares one SQLite store file, the whole durable state of a
deployment.  The walkthrough plays three production scenarios:

1. **Crash and resume** — a pipeline is killed (simulated) mid-run; a fresh
   "process" pointed at the same store restores every step that had already
   completed (zero LLM calls for them) and finishes the rest, producing
   results identical to an uninterrupted run.
2. **Incremental re-execution** — one step of the pipeline is edited; the
   rerun restores the untouched upstream step from its checkpoint and
   spends calls only on the changed subtree.
3. **Warm-started quotes** — the second process starts with the saved
   workload profile, so its *first* pre-flight quote is priced from the
   previous run's observed statistics instead of static priors.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import DeclarativeEngine, PromptSession, SimulatedLLM, Store
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.llm.faulty import FaultyLLM
from repro.llm.oracle import Oracle

WORDS = [
    "apple", "banana", "cherry", "damson", "elder", "fig",
    "grape", "honeydew", "kiwi", "lemon",
]
PREDICATE = "starts early in the alphabet"


def make_llm() -> SimulatedLLM:
    oracle = Oracle()
    oracle.register_key("alphabetical order", key=lambda item: item)
    oracle.register_predicate(PREDICATE, lambda item: item[0] in "abcdef")
    return SimulatedLLM(oracle, seed=11)


def make_pipeline() -> PipelineSpec:
    """Filter the corpus, then pairwise-sort the survivors."""
    return PipelineSpec(
        name="resumable",
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


def main() -> None:
    store_path = Path(tempfile.mkdtemp()) / "repro-store.db"
    print(f"store file: {store_path}\n")

    # -- 1. a run that dies mid-pipeline ---------------------------------------
    print("=== run 1: killed after the screen step ===")
    with Store(store_path) as store:
        # The call after the screen step's raises: a stand-in for `kill -9`.
        crashing = FaultyLLM(make_llm(), {len(WORDS): RuntimeError("simulated crash")})
        session = PromptSession(crashing, store=store)
        engine = DeclarativeEngine.from_session(session)
        try:
            engine.run_pipeline(make_pipeline())
        except RuntimeError as exc:
            print(f"pipeline died: {exc} (after {len(crashing.answered)} calls)")
        print(f"checkpoints on disk: {store.checkpoint_count()}")

    # -- 2. a fresh process resumes against the same store ---------------------
    print("\n=== run 2: fresh process, same store ===")
    with Store(store_path) as store:
        session = PromptSession(make_llm(), store=store)
        engine = DeclarativeEngine.from_session(session)
        report = engine.run_pipeline(make_pipeline())
        print(f"restored steps: {report.restored_steps}")
        print(f"LLM calls this run: {report.total_calls} "
              "(the screen step cost nothing — it came from the checkpoint)")
        print(f"final order: {report.results['order'].order}")

    # -- 3. edit one step: only the changed subtree re-executes ----------------
    print("\n=== run 3: sort strategy edited to 'rating' ===")
    edited = make_pipeline()
    edited.steps[1].task = lambda inputs: SortSpec(
        items=list(inputs["screen"].kept),
        criterion="alphabetical order",
        strategy="rating",
    )
    with Store(store_path) as store:
        session = PromptSession(make_llm(), store=store)
        engine = DeclarativeEngine.from_session(session)
        report = engine.run_pipeline(edited)
        print(f"restored steps: {report.restored_steps}")
        print(f"LLM calls this run: {report.total_calls} "
              "(one rating call per survivor; the screen step restored)")

    # -- 4. the saved workload profile warms the next session's quotes ---------
    print("\n=== run 4: warm-started quote from the saved profile ===")
    with Store(store_path) as store:
        session = PromptSession(make_llm(), store=store)
        engine = DeclarativeEngine.from_session(session)
        observed = session.stats.filter_selectivity(PREDICATE)
        quote = engine.quote_pipeline(make_pipeline())
        print(f"loaded observed selectivity for {PREDICATE!r}: {observed:.2f}")
        print(f"pre-flight quote (priced from history): {quote.total_calls} calls, "
              f"${quote.total_dollars:.6f}")


if __name__ == "__main__":
    main()
