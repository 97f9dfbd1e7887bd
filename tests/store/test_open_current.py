"""Opening a store file that is already current writes nothing to it.

The schema transaction on open (``BEGIN IMMEDIATE``, the ``CREATE … IF NOT
EXISTS`` script, the ``meta`` upsert) is for files that need it — fresh,
older, or never stamped.  On a current file it would queue behind another
process's writer and leave a WAL frame for ``close`` to checkpoint, to change
nothing.  ``PRAGMA data_version`` on a second connection moves exactly when
another connection commits, so it is the probe.
"""

from __future__ import annotations

import sqlite3

from repro.llm.base import LLMResponse
from repro.store import SCHEMA_VERSION, Store, StoreDB


def _data_version(conn: sqlite3.Connection) -> int:
    return conn.execute("PRAGMA data_version").fetchone()[0]


def test_open_and_close_of_a_current_file_commit_nothing(tmp_path):
    path = tmp_path / "store.db"
    Store(path).close()
    watcher = sqlite3.connect(path)
    try:
        before = _data_version(watcher)
        StoreDB(path).close()
        assert _data_version(watcher) == before

        # The probe is live: a handle that does write moves it.
        with Store(path) as store:
            store.response_cache().put("m", "p", LLMResponse(text="x", model="m"))
        assert _data_version(watcher) != before
    finally:
        watcher.close()


def test_open_of_a_current_file_does_not_wait_for_the_write_lock(tmp_path):
    path = tmp_path / "store.db"
    Store(path).close()
    writer = sqlite3.connect(path, isolation_level=None)
    try:
        writer.execute("BEGIN IMMEDIATE")  # another process mid-transaction
        with StoreDB(path) as db:  # would sit out the 10 s busy_timeout and fail
            assert db.execute("SELECT value FROM meta WHERE key = 'schema_version'") == [
                (str(SCHEMA_VERSION),)
            ]
    finally:
        writer.execute("ROLLBACK")
        writer.close()
