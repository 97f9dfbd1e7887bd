"""Golden snapshot of ``.explain()`` — the optimizer's user-facing contract.

The pinned text asserts, in one place: deterministic step naming, the
filter-pushdown reordering, lineage-inferred ``depends_on`` edges, per-step
planner quotes, totals, the budget cap line, and the optimizer notes.  If an
intentional change to any of those alters this output, re-pin it here.
"""

from __future__ import annotations

import re

from repro.core.planner import CostPlanner
from repro.query import Dataset
from tests.query.support import MODEL, clean_engine, product_corpus

OPTIMIZED_GOLDEN = """\
Query plan: products (optimized)
  s1_filter      16 calls  $0.001780  <- -
              filter: is a short name
  s2_resolve     28 calls  $0.004326  <- s1_filter
              resolve duplicates to one representative per entity
  s3_top_k       28 calls  $0.004760  <- s2_resolve, s1_filter
              top 3 by 'important'
Estimated total: 72 calls, $0.010866
Budget cap: $0.050000
Optimizer notes:
  - pushed filter 'is a short name' ahead of resolve"""

NAIVE_GOLDEN = """\
Query plan: products (naive)
  s1_resolve    120 calls  $0.018540  <- -
              resolve duplicates to one representative per entity
  s2_filter      16 calls  $0.001780  <- s1_resolve
              filter: is a short name
  s3_top_k       28 calls  $0.004760  <- s2_filter
              top 3 by 'important'
Estimated total: 164 calls, $0.025080
Budget cap: $0.050000"""


def _query() -> Dataset:
    items, _ = product_corpus(n_entities=8, variants=2)
    return (
        Dataset(items, name="products")
        .resolve()
        .filter("is a short name", expected_selectivity=0.5)
        .top_k("important", k=3, strategy="pairwise_tournament")
        .with_budget(0.05)
    )


def test_optimized_explain_matches_golden():
    assert _query().explain(planner=CostPlanner(MODEL)) == OPTIMIZED_GOLDEN


def test_naive_explain_matches_golden():
    assert _query().explain(optimized=False, planner=CostPlanner(MODEL)) == NAIVE_GOLDEN


def test_quote_totals_match_the_rendered_totals():
    quote = _query().quote(planner=CostPlanner(MODEL))
    assert quote.total_calls == 72
    assert f"${quote.total_dollars:.6f}" == "$0.010866"


# -- ISSUE 4: shared-prefix and observed-stats annotations -----------------------------

SHARED_PREFIX_GOLDEN = """\
Query plan: products (optimized)
  s1_filter      6 calls  $0.000645  <- -
             filter: is a short name
  s2_join        9 calls  $0.001323  <- s1_filter
             semi-join against a second dataset
Estimated total: 15 calls, $0.001968
Optimizer notes:
  - shared common filter subplan across branches (compiled once, dependents fan out)"""

ADAPTIVE_GOLDEN = """\
Query plan: products (optimized)
  s1_filter      16 calls  $0.001780  ~0.0s  <- -
              filter: is a short name [selectivity prior 0.50 -> observed 0.50]
  s2_resolve     28 calls  $0.004302  ~0.0s  <- s1_filter
              resolve duplicates to one representative per entity [dedup survivors observed 0.50; call ratio observed 1.00]
  s3_top_k        6 calls  $0.001020  ~0.0s  <- s2_resolve, s1_filter
              top 3 by 'important' [call ratio observed 1.00]
Estimated total: 50 calls, $0.007102, ~0.0s
Budget cap: $0.050000
Optimizer notes:
  - pushed filter 'is a short name' ahead of resolve"""


def _mask_seconds(explain: str) -> str:
    """Replace wall-clock estimates with a placeholder.

    The ``~X.Xs`` figures extrapolate from *measured* call durations, so
    their exact values depend on machine speed; the snapshot pins their
    presence and placement, not the timing itself.
    """
    return re.sub(r"~\d+\.\d+s", "~_s", explain)


def _branched_query() -> Dataset:
    """A join whose two branches rebuild the same filter prefix from scratch."""
    items, _ = product_corpus(n_entities=6, variants=1)

    def prefix() -> Dataset:
        return Dataset(items, name="products").filter("is a short name")

    return prefix().join(prefix(), strategy="all_pairs")


def test_shared_prefix_explain_matches_golden():
    """The duplicated prefix compiles once; both consumers fan out from it."""
    assert _branched_query().explain(planner=CostPlanner(MODEL)) == SHARED_PREFIX_GOLDEN


def test_adaptive_explain_matches_golden():
    """After one run, the same session's quotes show prior -> observed stats."""
    items, oracle = product_corpus(n_entities=8, variants=2)
    query = (
        Dataset(items, name="products")
        .resolve()
        .filter("is a short name", expected_selectivity=0.5)
        .top_k("important", k=3, strategy="pairwise_tournament")
        .with_budget(0.05)
    )
    engine = clean_engine(oracle)
    first = query.explain(planner=engine.planner())
    assert first == OPTIMIZED_GOLDEN  # a fresh session quotes from the priors
    query.run(engine)
    assert _mask_seconds(query.explain(planner=engine.planner())) == _mask_seconds(
        ADAPTIVE_GOLDEN
    )
