"""Product dedup as one fluent chain: filter -> resolve -> top_k.

Run with:  python examples/query_product_dedup.py

A synthetic product feed contains several listings per underlying product
(clean plus "refurb" variants).  The query keeps electronics with a short
brand word, deduplicates to one representative listing per product, and
asks for the top three by importance — under a hard $0.25 budget cap.

The interesting part happens before execution: ``.explain()`` shows that
the optimizer ran the cheap per-item filter ahead of the pairwise dedup
and (on a feed this size) wired an LLM-free embedding-blocking proxy in
front of the duplicate judgments, so the executed pipeline asks the LLM
about ~k·n candidate pairs instead of all O(n²).

After the run, the session's :class:`~repro.core.physical.RuntimeStats`
hold what actually happened — the predicate's observed selectivity, the
dedup survivor ratio, the blocked-pair rate — and quoting the *same*
query on the *same* engine a second time prices every step from those
observations instead of the static priors (the ``.explain()`` lines grow
``prior -> observed`` annotations).  That is the physical-planning
feedback loop: quotes get sharper the more the session executes.
"""

from __future__ import annotations

from repro import Dataset, DeclarativeEngine, SimulatedLLM
from repro.llm.oracle import Oracle

WORDS = [
    "laptop", "monitor", "keyboard", "mouse", "webcam", "router",
    "speaker", "headset", "printer", "scanner", "tablet", "charger",
]


def product_feed() -> tuple[list[str], Oracle]:
    """Listings with duplicate variants plus the ground-truth oracle.

    The variants share most of their text (like real retailer feeds), which
    is what lets the noisy duplicate judgments recognise them reliably.
    """
    items: list[str] = []
    entities: dict[str, str] = {}
    scores: dict[str, float] = {}
    for rank, word in enumerate(WORDS):
        base = f"{word} pro 4000 wireless workstation device"
        for variant, text in enumerate([base, base + " refurbished", base + " (open box)"]):
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
        Dataset(items, name="product-feed")
        .filter("has a short brand word")
        .resolve()  # one representative listing per product
        .top_k("important to stock", k=3, strategy="pairwise_tournament")
        .with_budget(0.25)
    )

    print(f"{len(items)} listings in the feed; nothing has run yet.\n")
    print(query.explain())
    print()
    naive = query.quote(optimized=False)
    optimized = query.quote()
    print(
        f"naive plan would quote  {naive.total_calls:>4} calls / ${naive.total_dollars:.6f}\n"
        f"optimized plan quotes   {optimized.total_calls:>4} calls / ${optimized.total_dollars:.6f}"
    )

    result = query.run(engine)
    print("\ntop 3 products to stock:", result.items)
    print(f"executed: {result.total_calls} calls, ${result.total_cost:.6f}")
    for name, report in result.report.step_reports.items():
        print(f"  {name:<12} {report.status:<10} {report.calls:>4} calls  ${report.cost:.6f}")

    # -- the adaptive second quote -------------------------------------------------
    # The run fed observed statistics back into the session; quoting the
    # same query again prices it from what actually happened.
    adaptive = query.quote(planner=engine.planner())
    print(
        f"\nfirst quote (priors)      {optimized.total_calls:>4} calls / "
        f"${optimized.total_dollars:.6f}\n"
        f"second quote (observed)   {adaptive.total_calls:>4} calls / "
        f"${adaptive.total_dollars:.6f}\n"
        f"actually executed         {result.total_calls:>4} calls / "
        f"${result.total_cost:.6f}"
    )
    # The proxy rewrite's feedback records what its second quote prices the
    # dedup from: clusters per listing, and candidate pairs per the
    # blocker's k·n bound.
    stats = engine.stats
    print(
        "\nobserved by the session: "
        f"filter selectivity {stats.filter_selectivity('has a short brand word'):.2f}, "
        f"dedup survivors {stats.dedup_survivor_ratio():.2f}, "
        f"blocked pairs {stats.blocked_pair_rate():.2f} of the k·n bound"
    )
    print("\nsecond explain (prior -> observed annotations):")
    print(query.explain(planner=engine.planner()))


if __name__ == "__main__":
    main()
