"""The SQLite substrate of the durable store.

One :class:`StoreDB` wraps one database file holding every persistent
artifact of the library — cached LLM responses, workload profiles, and
pipeline checkpoints — so a single ``store.db`` path is the whole durable
state of a deployment.  SQLite is the right substrate here: it ships with
CPython (no new dependency), WAL mode gives concurrent readers alongside a
single writer, and a ``busy_timeout`` makes multi-process access degrade to
short waits instead of errors.

Robustness rules (exercised by ``tests/store/test_db_edge_cases.py``):

* **Empty file** — a zero-byte file is a valid "fresh" SQLite database; it
  is initialised in place.
* **Corrupt file** — garbage that SQLite refuses to open is moved aside to
  ``<path>.corrupt-N`` (never deleted: it may be a user's mis-pathed file)
  and a fresh database is created at the original path.
* **Foreign database** — a *valid* SQLite file that carries someone else's
  schema (wrong ``application_id``) raises :class:`StoreError` instead of
  being clobbered; unlike a corrupt blob, it is clearly live data.
* **Schema versions** — a database written by a *newer* library raises
  :class:`StoreError` (we cannot know how to read it); an *older* one is
  taken forward version by version, each step dropping only the tables
  whose layout it changed (:data:`_DROPPED_AFTER`) — the response cache,
  profiles and jobs a tenant paid for survive an upgrade.  A
  version from before those steps is rebuilt from scratch, which is safe
  because everything in the store is derived data that a re-run recreates.
* **Current file** — a file already stamped with our ``application_id`` and
  this :data:`SCHEMA_VERSION` is opened without a write: the two connection
  PRAGMAs, no schema transaction (``tests/store/test_open_current.py``).

All access goes through :meth:`StoreDB.execute` under one re-entrant lock,
so a single :class:`StoreDB` can be shared by every thread of a concurrent
pipeline; cross-process writers are serialised by SQLite itself (WAL +
immediate transactions + busy timeout).

Response-cache writes go through :meth:`StoreDB.buffer` into an overlay
every cache view on the handle reads first.  Outside a :meth:`StoreDB.step`
scope each is flushed at once — on disk when ``put`` returns; inside one
they wait for the scope's exit and reach disk as one transaction, which the
engine shares with the step's call spans and checkpoint.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro import clock
from repro.exceptions import StoreError

#: "repro declarative store" marker stamped into the SQLite application_id
#: pragma so a foreign database file is recognised before it is touched.
APPLICATION_ID = 0x5250_5253  # spells "RPRS"

#: Bump whenever the table layout changes, with a :data:`_DROPPED_AFTER`
#: entry for the version left behind.  Newer stores are refused.
SCHEMA_VERSION = 9

# An index row's ``graphs`` precede its ``payload``, so that reading them
# stops short of the payload's overflow pages.  A ``spans`` row of kind
# ``calls`` holds the call spans of one flush (``repro.store.store``):
# ``attributes`` is their list rows, ``span_id`` their highest id and
# ``parent_id`` how many they are.
_SCHEMA = """
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

#: What a hard kill (the only way past a step's settle) can lose: inside a
#: step the overlay is flushed once it holds this many rows, or once its
#: oldest row is this old (checked as a row is buffered).
MAX_PENDING_ROWS = 256
MAX_PENDING_SECONDS = 1.0

#: The store's tables (anything else in the file is someone else's).
_TABLES = (
    "meta",
    "cache",
    "profiles",
    "checkpoints",
    "spans",
    "jobs",
    "embeddings",
    "vector_indexes",
)

#: Tables a version-``v`` file loses on its way to ``v + 1``; the schema
#: script recreates the ones still in use.  6 made a call one ``call`` span
#: (no ``traces`` table; older call spans lack the record's fields); 7 put
#: the k-NN graphs on the index row (an index is rebuilt from the kept
#: embedding vectors); 8 put a result digest on each checkpoint row (each
#: step re-runs once, from the kept cache); 9 writes a flush's call spans as
#: one ``calls`` row and keeps every table (the per-span rows read as before).
#: Versions before 5 lose every table.
_DROPPED_AFTER: dict[int, tuple[str, ...]] = {
    5: ("traces", "spans"), 6: ("vector_indexes",), 7: ("checkpoints",), 8: ()
}


class StoreDB:
    """A thread-safe handle on one store database file.

    Args:
        path: database file path; ``":memory:"`` gives an ephemeral store
            (useful in tests — it behaves identically minus durability).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.RLock()
        self._conn = self._open()
        self._depth = 0  # nesting of atomic() on the thread holding the lock
        self._steps = 0  # open step() scopes, from any thread
        #: Unwritten cache rows in recency order: key -> ``(model, prompt,
        #: payload, size, max_entries, max_bytes)``, or ``None`` for a touch.
        self.pending: OrderedDict[str, tuple | None] = OrderedDict()
        self._pending_since = 0.0
        # Rows the open transaction wrote; a ROLLBACK puts them back, and
        # runs what its writers registered (:meth:`on_rollback`).
        self._written: OrderedDict[str, tuple | None] | None = None
        self._undo: list[Callable[[], None]] = []
        # Capped table -> (data_version, entries, bytes): an upper bound on
        # the table, so that a write counts it only when a cap may be passed.
        self._totals: dict[str, tuple[int, int, int]] = {}
        # Checkpoints read since this handle's last write transaction, oldest
        # first; the next one opens by stamping their recency.
        self._touched: list[str] = []
        #: Profile name -> (payload, ``RuntimeStats.revision``) this handle last
        #: wrote under it (what ``Store.save_profile`` need not write, nor for
        #: an unchanged revision encode, again); a ROLLBACK forgets.
        self.saved_profiles: dict[str, tuple[str, int | None]] = {}
        #: Span origin -> the highest call-span id this handle put in a
        #: ``calls`` row under it (a rollback leaves it high): a call above it
        #: is not stored yet.
        self.stored_calls: dict[str, int] = {}

    # -- connection management ---------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        # autocommit mode: transactions are explicit (BEGIN IMMEDIATE), so a
        # multi-statement update is atomic and takes the write lock up front.
        conn = sqlite3.connect(self.path, check_same_thread=False, isolation_level=None)
        conn.execute("PRAGMA busy_timeout = 10000")
        return conn

    def _open(self) -> sqlite3.Connection:
        conn: sqlite3.Connection | None = None
        try:
            conn = self._connect()
            application_id = conn.execute("PRAGMA application_id").fetchone()[0]
        except sqlite3.DatabaseError:
            # Not a SQLite file at all: move the blob aside (never delete —
            # it might be a mis-pathed user file) and start fresh.  The
            # failed connection must be closed first — renaming a file a
            # handle is still open on fails on Windows.
            if conn is not None:
                conn.close()
            self._move_corrupt_aside()
            conn = self._connect()
            application_id = 0
        if application_id not in (0, APPLICATION_ID):
            conn.close()
            raise StoreError(
                f"{self.path!r} is a SQLite database belonging to another "
                f"application (application_id {application_id:#x}); refusing to "
                "overwrite it — point the store at its own file"
            )
        if application_id == 0 and self._has_foreign_tables(conn):
            conn.close()
            raise StoreError(
                f"{self.path!r} is a SQLite database with an unrecognised "
                "schema; refusing to overwrite it — point the store at its "
                "own file"
            )
        version = self._read_schema_version(conn)
        if version is not None and version > SCHEMA_VERSION:
            conn.close()
            raise StoreError(
                f"store {self.path!r} uses schema version {version}, newer than "
                f"this library's {SCHEMA_VERSION}; upgrade the library (the "
                "store is not forward-compatible)"
            )
        if version is not None:
            for step in range(version, SCHEMA_VERSION):
                for table in _DROPPED_AFTER.get(step, _TABLES + ("traces",)):
                    conn.execute(f"DROP TABLE IF EXISTS {table}")
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        # A file that is already ours and current is left unwritten: the
        # schema transaction would queue on the write lock and leave a WAL
        # frame for close to checkpoint, to change nothing.
        if application_id != APPLICATION_ID or version != SCHEMA_VERSION:
            self._initialize(conn)
        return conn

    def _move_corrupt_aside(self) -> None:
        suffix = 0
        while True:
            candidate = f"{self.path}.corrupt-{suffix}"
            if not os.path.exists(candidate):
                break
            suffix += 1
        os.replace(self.path, candidate)

    @staticmethod
    def _has_foreign_tables(conn: sqlite3.Connection) -> bool:
        names = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        return bool(names - set(_TABLES))

    @staticmethod
    def _read_schema_version(conn: sqlite3.Connection) -> int | None:
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "meta" not in tables:
            return None
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row[0]) if row is not None else None

    def _initialize(self, conn: sqlite3.Connection) -> None:
        conn.execute("BEGIN IMMEDIATE")
        try:
            # executescript() would implicitly COMMIT the open transaction,
            # so the schema runs statement by statement.
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    conn.execute(statement)
            conn.execute(f"PRAGMA application_id = {APPLICATION_ID}")
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    # -- access -------------------------------------------------------------------

    def execute(self, sql: str, parameters: Iterable[Any] = ()) -> list[tuple]:
        """Run one statement under the store lock and return its rows."""
        with self._lock:
            return self._conn.execute(sql, tuple(parameters)).fetchall()

    def executemany(self, sql: str, rows: Iterable[Iterable[Any]]) -> None:
        """Run one statement once per row, as one transaction."""
        with self.atomic():
            self._conn.executemany(sql, rows)

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """One immediate transaction around the block; re-entrant.

        The lock is held throughout, so a nested scope is always the same
        thread's and joins the outermost one, which commits on a normal exit
        and rolls everything back when an exception leaves it.  An exception
        the block itself handles between two scopes rolls nothing back.
        """
        with self._lock:
            touched = 0
            if self._depth == 0:
                self._conn.execute("BEGIN IMMEDIATE")
                touched = len(self._touched)
            self._depth += 1
            try:
                if touched:
                    # First, so an eviction in this transaction sees the
                    # recency each read would have written at once.
                    first = self._take_seq(touched)
                    self._conn.executemany(
                        "UPDATE checkpoints SET access_seq = ? WHERE fingerprint = ?",
                        list(enumerate(self._touched[:touched], first)),
                    )
                yield
                if self._depth == 1:
                    self._conn.execute("COMMIT")
                    del self._touched[:touched]
            except BaseException:
                if self._depth == 1:
                    if self._conn.in_transaction:
                        self._conn.execute("ROLLBACK")
                    self.saved_profiles.clear()
                    self._totals.clear()  # they counted rows the rollback took back
                    if self._written is not None:
                        for key, row in self.pending.items():
                            self._remember(self._written, key, row)
                        self.pending = self._written
                    for undo in self._undo:
                        undo()
                raise
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self._written = None
                    self._undo.clear()

    def on_rollback(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` if the transaction open on the calling thread rolls
        back (outside one, what was written is committed: nothing to run)."""
        with self._lock:
            if self._depth:
                self._undo.append(undo)

    def next_seq(self) -> int:
        """A monotonically increasing ordinal (LRU ordering without clocks).

        Sequence numbers order cache/checkpoint recency deterministically —
        wall-clock timestamps would make eviction order depend on timer
        resolution and clock adjustments.  The counter lives in ``meta`` so
        it survives reopening and is shared across processes.
        """
        with self.atomic():
            return self._take_seq(1)

    def _take_seq(self, count: int) -> int:
        """The first of ``count`` consecutive ordinals (inside a transaction)."""
        row = self._conn.execute("SELECT value FROM meta WHERE key = 'seq'").fetchone()
        first = int(row[0]) + 1 if row is not None else 1
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('seq', ?)",
            (str(first + count - 1),),
        )
        return first

    def touch_checkpoint(self, fingerprint: str) -> None:
        """Queue a read checkpoint's recency stamp for this handle's next
        write transaction (:meth:`atomic`; :meth:`close` writes what is left),
        so that restoring a step does not cost a transaction of its own."""
        with self._lock:
            self._touched.append(fingerprint)

    # -- write-behind -------------------------------------------------------------

    @contextmanager
    def step(self) -> Iterator[None]:
        """Defer this handle's cache writes until the block exits.

        Scopes overlap freely (DAG branches, the service's jobs): any exit,
        normal or not, flushes everything pending on the handle.
        """
        with self._lock:
            self._steps += 1
        try:
            yield
        finally:
            with self._lock:
                self._steps -= 1
            self.flush()

    def defers(self, rows: int) -> bool:
        """Whether a writer holding ``rows`` unwritten rows may keep waiting:
        only inside a step, and only below :data:`MAX_PENDING_ROWS`."""
        return self._steps > 0 and rows < MAX_PENDING_ROWS

    @staticmethod
    def _remember(pending: "OrderedDict[str, tuple | None]", key: str, row: tuple | None) -> None:
        if row is None:  # a touch keeps the put it follows
            row = pending.get(key)
        pending[key] = row
        pending.move_to_end(key)

    def buffer(self, key: str, row: tuple | None = None) -> None:
        """Queue one cache write as the most recent (``row`` as laid out in
        :attr:`pending`; ``None`` touches a stored key), then flush unless a
        step defers it."""
        with self._lock:
            if not self.pending:
                self._pending_since = clock.now()
            self._remember(self.pending, key, row)
            if (
                not self.defers(len(self.pending))
                or clock.now() - self._pending_since >= MAX_PENDING_SECONDS
            ):
                self.flush()

    def flush(self) -> None:
        """Write the pending cache rows and enforce the LRU caps, atomically.

        Recency ordinals continue from the table's maximum in overlay order,
        so rows land exactly as if each had been written when it was
        buffered.  Rows leave the overlay only by ``COMMIT``.
        """
        with self._lock:
            if not self.pending:
                return
            with self.atomic():
                rows, self.pending = self.pending, OrderedDict()
                if self._written is None:
                    self._written = rows
                else:
                    for key, row in rows.items():
                        self._remember(self._written, key, row)
                conn = self._conn
                seq = conn.execute("SELECT COALESCE(MAX(access_seq), 0) FROM cache").fetchone()[0]
                puts: list[tuple] = []
                touches: list[tuple] = []
                for seq, (key, row) in enumerate(rows.items(), seq + 1):
                    if row is None:
                        touches.append((seq, key))
                    else:
                        puts.append((key, *row[:4], seq))
                        caps = row[4:]  # the latest writer's, as when each put evicted
                if touches:
                    conn.executemany("UPDATE cache SET access_seq = ? WHERE key = ?", touches)
                if puts:
                    conn.executemany(
                        "INSERT OR REPLACE INTO cache (key, model, prompt, payload, size, "
                        "access_seq) VALUES (?, ?, ?, ?, ?, ?)",
                        puts,
                    )
                    size = sum(put[4] for put in puts)
                    self.evict("cache", caps[0], "access_seq", len(puts), size, caps[1])

    def evict(
        self,
        table: str,
        cap: int,
        oldest: str,
        written: int,
        size: int | None = None,
        max_bytes: int | None = None,
        extra: str = "0",
    ) -> tuple[int, int] | None:
        """Delete the oldest rows of ``table`` (lowest ``oldest`` first) until
        at most ``cap`` entries remain, after this handle wrote ``written``
        entries into it.  A table with a ``size`` column (the cache) passes
        the ``size`` written, and ``max_bytes`` caps its sum too.  A row holds
        one entry plus ``extra`` (SQL; a ``calls`` row of spans holds many):
        a row that holds the cap's edge is kept and returned as ``(rowid,
        entries to trim from its oldest end)``, for the caller to trim.

        The table is counted only when its running total may have passed a
        cap.  The total is an upper bound (a replaced row counts twice), kept
        per table and trusted while ``PRAGMA data_version`` says no other
        connection has committed since.
        """
        sizes = "0" if size is None else "size"
        trim = None
        with self._lock:
            conn = self._conn
            version = conn.execute("PRAGMA data_version").fetchone()[0]
            known = self._totals.get(table)
            if known is not None and known[0] == version:
                entries, total = known[1] + written, known[2] + (size or 0)
                if entries <= cap and (max_bytes is None or total <= max_bytes):
                    self._totals[table] = (version, entries, total)
                    return None
            entries, total = conn.execute(
                f"SELECT COUNT(*) + COALESCE(SUM({extra}), 0), COALESCE(SUM({sizes}), 0) "
                f"FROM {table}"
            ).fetchone()
            if entries > cap or (max_bytes is not None and total > max_bytes):
                victims: list[tuple[int]] = []
                rows = conn.execute(
                    f"SELECT rowid, 1 + {extra}, {sizes} FROM {table} ORDER BY {oldest} ASC"
                )
                for rowid, weight, row_size in rows:
                    # At least one row is always kept — a single oversized
                    # response must not leave the cache empty and thrashing.
                    if entries <= cap and (
                        max_bytes is None or total <= max_bytes or entries <= 1
                    ):
                        break
                    if cap < entries < cap + weight:
                        trim, entries = (rowid, entries - cap), cap
                        break
                    victims.append((rowid,))
                    entries -= weight
                    total -= row_size
                rows.close()
                conn.executemany(f"DELETE FROM {table} WHERE rowid = ?", victims)
            self._totals[table] = (version, entries, total)
        return trim

    @property
    def lock(self) -> threading.RLock:
        """The store-wide lock (for callers composing multi-step operations)."""
        return self._lock

    def close(self) -> None:
        with self._lock:
            try:
                self.flush()
                if self._touched:
                    with self.atomic():
                        pass
            finally:
                self._conn.close()

    def __enter__(self) -> "StoreDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
