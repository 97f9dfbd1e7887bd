"""Structured call tracing, latency-aware quotes, and deterministic replay.

Run with:  python examples/traced_pipeline.py

Every LLM call a :class:`~repro.core.session.PromptSession` makes is
recorded in its span ring: which pipeline step and operator strategy issued
it, what it cost, how long it took, whether the session cache answered
it.  This example runs a small dedup pipeline, then uses the trace three
ways:

1. **Inspect** — per-call records and an aggregate summary (calls, cache
   hits, errors, dollars, wall-clock).
2. **Quote sharper** — the traced durations and cache hits feed the
   session's :class:`~repro.core.physical.RuntimeStats`, so a second
   ``.quote()``/``.explain()`` carries ``~X.Xs`` wall-clock estimates and
   discounts dollars by the observed cache hit-rate.
3. **Replay** — ``replay_trace(records)`` rebuilds the recorded run as a
   fixture client that serves the recorded responses and refuses any
   prompt the trace never saw, so the same query re-executes to identical
   results with zero live LLM calls.
"""

from __future__ import annotations

from repro import Dataset, DeclarativeEngine, PromptSession, SimulatedLLM, replay_trace
from repro.llm.oracle import Oracle
from repro.obs import summarize_records

WORDS = ["laptop", "monitor", "keyboard", "mouse", "webcam", "router"]


def product_feed() -> tuple[list[str], Oracle]:
    items: list[str] = []
    entities: dict[str, str] = {}
    scores: dict[str, float] = {}
    for rank, word in enumerate(WORDS):
        base = f"{word} pro 4000 wireless workstation device"
        for variant, text in enumerate([base, base + " refurbished"]):
            items.append(text)
            entities[text] = word
            scores[text] = float((len(WORDS) - rank) * 100 - variant)
    oracle = Oracle()
    oracle.register_entities(entities)
    oracle.register_scores("important to stock", scores)
    oracle.register_predicate("has a short brand word", lambda text: len(text.split()[0]) <= 6)
    return items, oracle


def main() -> None:
    items, oracle = product_feed()
    engine = DeclarativeEngine(SimulatedLLM(oracle, seed=3), default_model="sim-gpt-3.5-turbo")

    query = (
        Dataset(items, name="traced-feed")
        .filter("has a short brand word")
        .resolve()
        .top_k("important to stock", k=3, strategy="pairwise_tournament")
    )
    result = query.run(engine)
    print("top 3 products:", result.items)

    # -- 1. inspect the trace --------------------------------------------------------
    records = engine.session.spans.records()
    print(f"\n{len(records)} traced calls; first three:")
    for record in records[:3]:
        print(
            f"  #{record.call_id:<3} step={record.step} operator={record.operator} "
            f"{record.duration_ms:.2f}ms cache_hit={record.cache_hit}"
        )
    summary = summarize_records(records)
    print(
        f"summary: {summary['calls']} calls, {summary['cache_hits']} cache hits, "
        f"{summary['errors']} errors, ${summary['cost']:.6f}, "
        f"{summary['duration_ms']:.1f}ms total"
    )

    # -- 2. latency- and cache-aware second quote ------------------------------------
    # The trace fed per-strategy latency percentiles and the session cache
    # hit-rate into RuntimeStats; the same query now quotes wall-clock
    # seconds next to (discounted) dollars.
    quote = query.quote(planner=engine.planner())
    print(
        f"\nsecond quote: {quote.total_calls} calls, ${quote.total_dollars:.6f}"
        + (f", ~{quote.total_seconds:.1f}s" if quote.total_seconds is not None else "")
    )
    for note in quote.notes:
        print(f"  note: {note}")
    p50 = engine.stats.latency_p50("filter:per_item")
    if p50 is not None:
        print(f"  observed filter:per_item p50 latency: {p50:.2f}ms")

    # -- 3. deterministic replay -----------------------------------------------------
    # A fresh session whose only "LLM" is the recorded trace re-executes
    # the query to the same answer without a single live call.
    replay_llm = replay_trace(records)
    replay_engine = DeclarativeEngine.from_session(PromptSession(replay_llm))
    replayed = query.run(replay_engine)
    print(
        f"\nreplayed from the trace: {replayed.items} "
        f"(identical: {replayed.items == result.items}, "
        f"served from recording: {replay_llm.served} lookups)"
    )


if __name__ == "__main__":
    main()
