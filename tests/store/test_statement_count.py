"""How many SQL statements a cold query makes, counted rather than timed.

A fixed-seed filter -> resolve -> top_k query runs into a fresh store file
with a ``sqlite3`` trace callback on the store's connection.  A flush writes
its call spans as one ``calls`` row, so the statements on the ``spans`` table
are at most one per flush, one per structural span (pipeline, wave, step,
operator, index: each upserted on its own) and the eviction's own; before,
each call was a statement of its own.  The counts do not depend on how busy
the host is.
"""

from __future__ import annotations

import re

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset
from repro.store import Store
from tests.query.support import MODEL, clean_behavior, product_corpus

#: Every statement of the run below stays under this: 189 at the change that
#: wrote call spans as one row per flush, 276 before it.
MAX_STATEMENTS = 200


def test_span_statements_are_per_flush_not_per_call(tmp_path):
    items, oracle = product_corpus(n_entities=12, variants=3)
    query = (
        Dataset(items, name="products")
        .filter("is a short name")
        .resolve()
        .top_k("important", k=3, strategy="pairwise_tournament")
    )
    statements: list[str] = []
    flushes: list[list] = []
    with Store(tmp_path / "store.db") as store:
        store.db._conn.set_trace_callback(statements.append)
        save = store.save_spans

        def spy(spans, *, origin):
            flushes.append(list(spans))
            save(spans, origin=origin)

        store.save_spans = spy
        session = PromptSession(
            SimulatedLLM(oracle, seed=11, behavior=clean_behavior()), store=store
        )
        engine = DeclarativeEngine.from_session(session, default_model=MODEL)
        query.run(engine, store=store)
    calls = session.tracker.usage.calls
    stored_calls = sum(span.kind == "call" for flush in flushes for span in flush)
    structural = sum(span.kind != "call" for flush in flushes for span in flush)
    on_spans = [sql for sql in statements if re.search(r"\bspans\b", sql)]
    evictions = [sql for sql in on_spans if sql.startswith(("SELECT COUNT(*)", "SELECT rowid",
                                                            "DELETE"))]
    assert calls == stored_calls == 90
    assert len(flushes) < structural < calls
    assert len(on_spans) <= len(flushes) + structural + len(evictions)
    assert len(statements) <= MAX_STATEMENTS
