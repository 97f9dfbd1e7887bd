"""Upgrading a store file keeps what tenants paid for.

A schema bump used to answer any older file by dropping every table —
response cache, checkpoints, profile and job table included.  Each step now
drops only the tables whose layout it changed: version 6 (a call is a
``call`` span; no ``traces`` table) drops ``traces`` and ``spans``, version 7
(the k-NN graphs ride the index row) drops ``vector_indexes``, whose indexes
the next blocked run rebuilds from the kept embedding vectors, version 8
(checkpoints keyed by lineage, with result digests) drops ``checkpoints``:
each step re-runs once, every call answered by the kept response cache, and
version 9 (a flush's call spans are one ``calls`` row) drops nothing: the
per-span rows version 8 wrote read back unchanged.
The old files below are built from the schema strings those versions
shipped, filled with what that code wrote.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.exceptions import StoreError
from repro.index import CachedEmbedder, build_index
from repro.llm.embeddings import HashingEmbedder
from repro.llm.simulated import SimulatedLLM
from repro.obs.spans import CALL_ATTRIBUTES, Span, SpanTracker, TraceRecord
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

#: ``repro.store.db._SCHEMA`` at schema version 8, verbatim.
V8_SCHEMA = """
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
    access_seq INTEGER NOT NULL,
    digest TEXT NOT NULL
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
    graphs TEXT NOT NULL DEFAULT '{}',
    payload BLOB NOT NULL,
    updated_seq INTEGER NOT NULL
);
"""

#: How version 8's ``Store.save_spans`` wrote each span, verbatim: one row
#: per span, re-sent spans updated in place.
V8_UPSERT = (
    "INSERT INTO spans "
    "(row_id, origin, span_id, parent_id, kind, label, "
    "start_time, end_time, status, attributes) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
    "ON CONFLICT(row_id) DO UPDATE SET end_time = excluded.end_time, "
    "status = excluded.status, attributes = excluded.attributes"
)

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
        assert int(version[0][0]) == SCHEMA_VERSION == 9
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
        assert store.db.execute("SELECT COUNT(*) FROM vector_indexes") == [(1,)]


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


def v8_rows(spans: list[Span], origin: str) -> list[tuple]:
    """``spans`` as version 8's ``save_spans`` laid them out under ``origin``."""
    return [
        (
            f"{origin}:{span.span_id}",
            origin,
            span.span_id,
            span.parent_id,
            span.kind,
            span.label,
            span.start,
            span.end,
            span.status,
            json.dumps(span.attributes, sort_keys=True),
        )
        for span in spans
    ]


def traced_run(tracker: SpanTracker, prompts: list[str]) -> list[Span]:
    """A step and an operator span around one call per prompt, each call
    carrying every record field, as a session records them."""
    with tracker.span("step", "screen"), tracker.span("operator", "filter:per_item"):
        tracker.record_calls(
            [
                (MODEL, "ok", {name: getattr(TraceRecord(0, prompt=prompt), name)
                               for name in CALL_ATTRIBUTES})
                for prompt in prompts
            ]
        )
    return tracker.spans()


def test_v8_span_rows_read_back_unchanged_and_new_flushes_append_calls_rows(tmp_path):
    path = tmp_path / "v8.db"
    plain, tenant = SpanTracker(), SpanTracker()
    runs = {"run-1": traced_run(plain, ["p0", "p1"]), "acme::run-2": traced_run(tenant, ["q0"])}
    conn = sqlite3.connect(path, isolation_level=None)
    for statement in V8_SCHEMA.split(";"):
        if statement.strip():
            conn.execute(statement)
    conn.execute(f"PRAGMA application_id = {APPLICATION_ID}")
    conn.execute("INSERT INTO meta (key, value) VALUES ('schema_version', '8')")
    # The first call was flushed before a retry amended it: written twice.
    first = runs["run-1"][2]
    before = Span(**{**vars(first), "attributes": dict(first.attributes)})
    first.attributes.update(attempt=1, parse_ok=False)
    conn.executemany(V8_UPSERT, v8_rows([before], "run-1"))
    for origin, spans in runs.items():
        conn.executemany(V8_UPSERT, v8_rows(spans, origin))
    conn.close()
    calls = {origin: [span for span in spans if span.kind == "call"] for origin, spans in runs.items()}

    with Store(path) as store:
        version = store.db.execute("SELECT value FROM meta WHERE key = 'schema_version'")
        assert int(version[0][0]) == SCHEMA_VERSION == 9
        # What version 8 read: every span as last written, in creation order.
        assert store.load_spans() == runs["acme::run-2"] + runs["run-1"]
        assert store.load_spans(origin="run-1") == runs["run-1"]
        assert store.load_spans(kind="call") == calls["acme::run-2"] + calls["run-1"]
        assert store.load_spans(kind="operator") == [runs["acme::run-2"][1], runs["run-1"][1]]
        records = store.trace_records(origin="run-1")
        assert records == [TraceRecord.from_span(span) for span in calls["run-1"]]
        assert (records[0].attempt, records[0].parse_ok) == (1, False)
        acme = store.namespace("acme")
        assert acme.load_spans() == runs["acme::run-2"]
        assert acme.trace_records(origin="run-2") == [
            TraceRecord.from_span(span) for span in calls["acme::run-2"]
        ]
        assert (store.span_count(), store.trace_count()) == (7, 3)

        # A new flush writes one ``calls`` row beside the old per-span rows.
        tracker = SpanTracker(store=store)
        new = traced_run(tracker, ["r0", "r1"])
        tracker.flush()
        assert store.db.execute("SELECT kind, COUNT(*) FROM spans GROUP BY kind ORDER BY kind") == [
            ("call", 3), ("calls", 1), ("operator", 3), ("step", 3)
        ]
        assert store.load_spans(origin=tracker.origin) == new
        assert store.load_spans(origin="run-1") == runs["run-1"]
        assert (store.span_count(), store.trace_count()) == (11, 5)


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
