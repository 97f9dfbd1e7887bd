"""Upgrading a store file keeps what tenants paid for.

A schema bump used to answer any older file by dropping every table —
response cache, checkpoints, profile and job table included.  Each step now
drops only the tables whose layout it changed: version 6 (a call is a
``call`` span; no ``traces`` table) drops ``traces`` and ``spans``, version 7
(the k-NN graphs ride the index row) drops ``vector_indexes``, whose indexes
the next blocked run rebuilds from the kept embedding vectors, and version 8
(checkpoints keyed by lineage, with result digests) drops ``checkpoints``:
each step re-runs once, every call answered by the kept response cache.
The old files below are built from the schema strings those versions
shipped, filled with what that code wrote.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.exceptions import StoreError
from repro.index import CachedEmbedder, build_index
from repro.llm.embeddings import HashingEmbedder
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset
from repro.store import APPLICATION_ID, SCHEMA_VERSION, Store
from repro.store.jobs import JobRecord
from tests.query.support import MODEL, clean_behavior, product_corpus

#: ``repro.store.db._SCHEMA`` at schema version 6, verbatim.
V6_SCHEMA = """
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

#: Version 5 had every version-6 table plus this one, verbatim.
V5_SCHEMA = V6_SCHEMA + """
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
"""

#: Tables every step since version 5 left alone.
KEPT = ("cache", "profiles", "jobs", "embeddings")

#: The ``checkpoints`` columns versions 5 to 7 had.
OLD_CHECKPOINT_COLUMNS = "fingerprint, payload, spec_type, strategy, calls, cost, access_seq"

#: The product query's corpus: small enough that its resolve is not blocked.
CORPUS = {"n_entities": 6, "variants": 2}

#: A saved index, which an upgrade to version 7 drops.
INDEX = "corpus:products"

#: The ``vector_indexes`` columns versions 5 and 6 had.
OLD_INDEX_COLUMNS = "name, kind, dimensions, size, payload, updated_seq"


def product_query() -> tuple[Dataset, object]:
    items, oracle = product_corpus(**CORPUS)
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


def write_old_file(path, source, version: int) -> None:
    """A version-``version`` (5 or 6) store at ``path`` holding the rows of
    ``source`` (a closed current store) laid out as that version did.  A
    version-5 file also gets one trace row and one call span as version 5
    wrote them."""
    conn = sqlite3.connect(path, isolation_level=None)
    for statement in {5: V5_SCHEMA, 6: V6_SCHEMA}[version].split(";"):
        if statement.strip():
            conn.execute(statement)
    conn.execute(f"PRAGMA application_id = {APPLICATION_ID}")
    conn.execute("ATTACH DATABASE ? AS source", (str(source),))
    for table in KEPT + (("spans",) if version == 6 else ()):
        conn.execute(f"INSERT INTO main.{table} SELECT * FROM source.{table}")
    conn.execute(
        f"INSERT INTO main.checkpoints ({OLD_CHECKPOINT_COLUMNS}) "
        f"SELECT {OLD_CHECKPOINT_COLUMNS} FROM source.checkpoints"
    )
    conn.execute(
        f"INSERT INTO main.vector_indexes ({OLD_INDEX_COLUMNS}) "
        f"SELECT {OLD_INDEX_COLUMNS} FROM source.vector_indexes"
    )
    conn.execute("INSERT INTO main.meta SELECT * FROM source.meta WHERE key = 'seq'")
    conn.execute("INSERT INTO meta (key, value) VALUES ('schema_version', ?)", (str(version),))
    if version == 5:
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


def column_names(path, table: str) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        return {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
    finally:
        conn.close()


def count_rows(store: Store, tables) -> dict[str, int]:
    return {
        table: store.db.execute(f"SELECT COUNT(*) FROM {table}")[0][0] for table in tables
    }


def count_rows_at(path, tables) -> dict[str, int]:
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] for table in tables
        }
    finally:
        conn.close()


def upgrade(tmp_path, version: int):
    """A cold run's store, plus one saved index, written back as a
    version-``version`` file: its path, the cold result and the row counts
    of the tables the upgrade keeps."""
    current, old = tmp_path / "current.db", tmp_path / "old.db"
    with Store(current) as store:
        cold, cold_session = run_product_query(store)
        store.save_job(JobRecord(job_id="j1", tenant="acme", status="succeeded"))
        build_index(product_corpus(**CORPUS)[0], store=store, name=INDEX)
        kept = count_rows(store, KEPT + (("spans",) if version == 6 else ()))
    assert cold_session.tracker.usage.calls > 0
    assert all(kept[table] > 0 for table in kept)
    write_old_file(old, current, version)
    assert count_rows_at(old, ("vector_indexes",)) == {"vector_indexes": 1}
    assert count_rows_at(old, ("checkpoints",))["checkpoints"] > 0
    return old, cold, kept


def assert_upgraded_and_restores_for_free(path, cold, kept) -> None:
    with Store(path) as store:
        version = store.db.execute("SELECT value FROM meta WHERE key = 'schema_version'")
        assert int(version[0][0]) == SCHEMA_VERSION == 8
        assert count_rows(store, kept) == kept
        assert store.load_job("j1").status == "succeeded"
        # A dropped table comes back empty: old call spans lacked the
        # record's fields, an old index row has no graphs, and an old
        # checkpoint has no result digest.
        dropped = {"spans", "vector_indexes", "checkpoints"} - set(kept)
        assert count_rows(store, dropped) == dict.fromkeys(dropped, 0)

        # The old checkpoints miss once; the kept cache answers every call.
        warm, warm_session = run_product_query(store)
        assert (warm_session.cache.stats.hits > 0, warm_session.cache.stats.misses) == (True, 0)
        assert warm.report.restored_steps == []
        assert warm.items == cold.items

        again, again_session = run_product_query(store)
        assert again_session.tracker.usage.calls == 0
        assert again.report.total_calls == 0
        assert sorted(again.report.restored_steps) == sorted(cold.report.results)
        assert again.items == cold.items

        # The index is rebuilt from the kept vectors: nothing is re-embedded.
        cache = store.embedding_cache()
        items = product_corpus(**CORPUS)[0]
        embedder = CachedEmbedder(HashingEmbedder(), cache)
        build_index(items, embedder=embedder, store=store, name=INDEX)
        assert (cache.stats.hits, cache.stats.misses) == (len(items), 0)
        assert store.vector_index_count() == 1


def test_v5_file_keeps_cache_checkpoints_and_jobs_and_restores_for_free(tmp_path):
    path, cold, kept = upgrade(tmp_path, 5)
    assert "traces" in table_names(path)
    assert_upgraded_and_restores_for_free(path, cold, kept)
    assert "traces" not in table_names(path)


def test_v6_file_keeps_cache_checkpoints_profiles_jobs_and_spans(tmp_path):
    path, cold, kept = upgrade(tmp_path, 6)
    assert "graphs" not in column_names(path, "vector_indexes")
    assert_upgraded_and_restores_for_free(path, cold, kept)
    assert "graphs" in column_names(path, "vector_indexes")


def test_a_newer_file_is_still_refused(tmp_path):
    path = tmp_path / "store.db"
    Store(path).close()
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'", (str(SCHEMA_VERSION + 1),)
    )
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="newer"):
        Store(path)
    assert "cache" in table_names(path)  # refused, not rebuilt
