"""Upgrading a store file keeps what tenants paid for.

A schema bump used to answer any older file by dropping every table —
response cache, checkpoints, profile and job table included.  Version 6
(a call is a ``call`` span; no ``traces`` table) drops only the two tables
whose layout it changed.  The version-5 file below is built from the schema
string the commit before this one shipped, filled with what that code wrote.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.exceptions import StoreError
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset
from repro.store import APPLICATION_ID, SCHEMA_VERSION, Store
from repro.store.jobs import JobRecord
from tests.query.support import MODEL, clean_behavior, product_corpus

#: ``repro.store.db._SCHEMA`` at schema version 5, verbatim.
V5_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cache (
    key TEXT PRIMARY KEY,
    model TEXT NOT NULL,
    prompt TEXT NOT NULL,
    payload TEXT NOT NULL,
    size INTEGER NOT NULL,
    access_seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS cache_access ON cache (access_seq);
CREATE TABLE IF NOT EXISTS profiles (
    name TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    updated_seq INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    fingerprint TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    spec_type TEXT NOT NULL,
    strategy TEXT NOT NULL,
    calls INTEGER NOT NULL,
    cost REAL NOT NULL,
    access_seq INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS traces (
    trace_id TEXT PRIMARY KEY,
    origin TEXT NOT NULL,
    call_id INTEGER NOT NULL,
    step TEXT,
    operator TEXT,
    model TEXT NOT NULL,
    temperature REAL NOT NULL,
    prompt TEXT NOT NULL,
    response TEXT,
    prompt_tokens INTEGER NOT NULL,
    completion_tokens INTEGER NOT NULL,
    cost REAL NOT NULL,
    duration_ms REAL NOT NULL,
    cache_hit INTEGER NOT NULL,
    attempt INTEGER NOT NULL,
    parse_ok INTEGER,
    error TEXT,
    finish_reason TEXT,
    confidence REAL,
    span_id INTEGER
);
CREATE INDEX IF NOT EXISTS traces_origin ON traces (origin, call_id);
CREATE TABLE IF NOT EXISTS spans (
    row_id TEXT PRIMARY KEY,
    origin TEXT NOT NULL,
    span_id INTEGER NOT NULL,
    parent_id INTEGER,
    kind TEXT NOT NULL,
    label TEXT NOT NULL,
    start_time REAL NOT NULL,
    end_time REAL,
    status TEXT NOT NULL,
    attributes TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS spans_origin ON spans (origin, span_id);
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    tenant TEXT NOT NULL,
    status TEXT NOT NULL,
    pipeline TEXT NOT NULL,
    quote TEXT,
    report TEXT,
    error TEXT,
    resumable INTEGER NOT NULL DEFAULT 0,
    submitted_seq INTEGER NOT NULL,
    updated_seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs (tenant, submitted_seq);
CREATE TABLE IF NOT EXISTS embeddings (
    fingerprint TEXT PRIMARY KEY,
    model TEXT NOT NULL,
    dimensions INTEGER NOT NULL,
    vector BLOB NOT NULL,
    access_seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS embeddings_access ON embeddings (access_seq);
CREATE TABLE IF NOT EXISTS vector_indexes (
    name TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    dimensions INTEGER NOT NULL,
    size INTEGER NOT NULL,
    payload BLOB NOT NULL,
    updated_seq INTEGER NOT NULL
);
"""

#: Tables whose layout version 6 left alone.
KEPT = ("cache", "profiles", "checkpoints", "jobs", "embeddings", "vector_indexes")


def product_query() -> tuple[Dataset, object]:
    items, oracle = product_corpus(n_entities=6, variants=2)
    query = (
        Dataset(items, name="products")
        .filter("is a short name")
        .resolve()
        .top_k("important", k=3, strategy="pairwise_tournament")
    )
    return query, oracle


def run_product_query(store: Store):
    query, oracle = product_query()
    session = PromptSession(
        SimulatedLLM(oracle, seed=11, behavior=clean_behavior()), store=store
    )
    engine = DeclarativeEngine.from_session(session, default_model=MODEL)
    return query.run(engine, store=store), session


def write_v5_file(path, source) -> None:
    """A version-5 store at ``path`` holding the rows of ``source`` (a closed
    current store) in the tables the two versions share, plus one trace row
    and one call span as version 5 laid them out."""
    conn = sqlite3.connect(path, isolation_level=None)
    for statement in V5_SCHEMA.split(";"):
        if statement.strip():
            conn.execute(statement)
    conn.execute(f"PRAGMA application_id = {APPLICATION_ID}")
    conn.execute("ATTACH DATABASE ? AS source", (str(source),))
    for table in KEPT:
        conn.execute(f"INSERT INTO main.{table} SELECT * FROM source.{table}")
    conn.execute("INSERT INTO main.meta SELECT * FROM source.meta WHERE key = 'seq'")
    conn.execute("INSERT INTO meta (key, value) VALUES ('schema_version', '5')")
    conn.execute(
        "INSERT INTO traces (trace_id, origin, call_id, model, temperature, prompt, "
        "prompt_tokens, completion_tokens, cost, duration_ms, cache_hit, attempt) "
        "VALUES ('o:0', 'o', 0, 'm', 0.0, 'p', 1, 1, 0.0, 1.0, 0, 0)"
    )
    conn.execute(
        "INSERT INTO spans (row_id, origin, span_id, kind, label, start_time, status, "
        "attributes) VALUES ('o:1', 'o', 1, 'call', 'm', 0.0, 'ok', "
        "'{\"cache_hit\": false, \"call_id\": 0, \"cost\": 0.0}')"
    )
    conn.execute("DETACH DATABASE source")
    conn.close()


def table_names(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return {row[0] for row in rows}
    finally:
        conn.close()


def test_v5_file_keeps_cache_checkpoints_and_jobs_and_restores_for_free(tmp_path):
    current, old = tmp_path / "current.db", tmp_path / "old.db"
    with Store(current) as store:
        cold, cold_session = run_product_query(store)
        store.save_job(JobRecord(job_id="j1", tenant="acme", status="succeeded"))
        kept = {
            table: store.db.execute(f"SELECT COUNT(*) FROM {table}")[0][0] for table in KEPT
        }
    assert cold_session.tracker.usage.calls > 0
    assert all(kept[table] > 0 for table in ("cache", "profiles", "checkpoints", "jobs"))
    write_v5_file(old, current)
    assert "traces" in table_names(old)

    with Store(old) as store:
        assert "traces" not in table_names(old)
        version = store.db.execute("SELECT value FROM meta WHERE key = 'schema_version'")
        assert int(version[0][0]) == SCHEMA_VERSION == 6
        for table, rows in kept.items():
            assert store.db.execute(f"SELECT COUNT(*) FROM {table}")[0][0] == rows, table
        # The old call span lacked the record's fields: rebuilt empty.
        assert store.span_count() == store.trace_count() == 0
        assert store.load_job("j1").status == "succeeded"

        warm, warm_session = run_product_query(store)
        assert warm_session.tracker.usage.calls == 0
        assert warm.report.total_calls == 0
        assert sorted(warm.report.restored_steps) == sorted(cold.report.results)
        assert warm.items == cold.items


def test_a_version_7_file_is_still_refused(tmp_path):
    path = tmp_path / "store.db"
    Store(path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = '7' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="newer"):
        Store(path)
    assert "cache" in table_names(path)  # refused, not rebuilt
