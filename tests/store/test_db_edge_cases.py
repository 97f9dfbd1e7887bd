"""Robustness tests for the store's SQLite substrate.

Covers the edge cases a long-lived on-disk artifact actually meets in
production: files that are empty, corrupt, or belong to someone else;
schema drift between library versions; many threads hammering one cache;
and fingerprints that must agree across independent processes.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.exceptions import StoreError
from repro.llm.base import LLMResponse
from repro.store import SCHEMA_VERSION, Store, StoreDB, fingerprint_spec
from repro.store.db import APPLICATION_ID
from repro.core.spec import FilterSpec, SortSpec
from repro.tokenizer.cost import Usage

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestFileStates:
    def test_empty_file_is_initialised_in_place(self, tmp_path):
        path = tmp_path / "store.db"
        path.touch()  # zero bytes: what a crashed first open leaves behind
        with Store(path) as store:
            store.response_cache().put("m", "p", LLMResponse(text="x", model="m"))
            assert len(store.response_cache()) == 1

    def test_corrupt_file_is_moved_aside_not_deleted(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database at all" * 10)
        with Store(path) as store:
            assert len(store.response_cache()) == 0
        moved = tmp_path / "store.db.corrupt-0"
        assert moved.exists()
        assert moved.read_bytes().startswith(b"this is not")

    def test_second_corruption_gets_a_fresh_suffix(self, tmp_path):
        path = tmp_path / "store.db"
        for expected in ("store.db.corrupt-0", "store.db.corrupt-1"):
            path.write_bytes(b"garbage garbage garbage garbage garbage!")
            Store(path).close()
            assert (tmp_path / expected).exists()
            os.remove(path)

    def test_foreign_sqlite_database_is_refused(self, tmp_path):
        path = tmp_path / "app.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, email TEXT)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="unrecognised schema"):
            Store(path)
        # The foreign data is untouched.
        conn = sqlite3.connect(path)
        assert conn.execute(
            "SELECT name FROM sqlite_master WHERE name = 'users'"
        ).fetchone()
        conn.close()

    def test_foreign_application_id_is_refused(self, tmp_path):
        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA application_id = 12345")
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="another"):
            Store(path)


class TestSchemaVersions:
    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "store.db"
        Store(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            Store(path)

    def test_older_schema_is_rebuilt_empty(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as store:
            store.response_cache().put("m", "p", LLMResponse(text="x", model="m"))
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '0' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with Store(path) as rebuilt:
            # Derived data from the old layout is dropped, not migrated.
            assert len(rebuilt.response_cache()) == 0
            row = rebuilt.db.execute("SELECT value FROM meta WHERE key = 'schema_version'")
            assert int(row[0][0]) == SCHEMA_VERSION

    def test_application_id_is_stamped(self, tmp_path):
        path = tmp_path / "store.db"
        Store(path).close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA application_id").fetchone()[0] == APPLICATION_ID
        conn.close()


class TestConcurrentWriters:
    def test_threads_hammering_one_cache(self, tmp_path):
        threads_n = int(os.environ.get("REPRO_TEST_THREADS", "8"))
        with Store(tmp_path / "store.db", max_cache_entries=50) as store:
            cache = store.response_cache()
            errors: list[BaseException] = []

            def worker(worker_id: int) -> None:
                try:
                    for i in range(40):
                        key = f"w{worker_id}-p{i % 10}"
                        cache.put(
                            "m",
                            key,
                            LLMResponse(
                                text=f"r{worker_id}-{i}",
                                model="m",
                                usage=Usage(prompt_tokens=i, calls=1),
                            ),
                        )
                        restored = cache.get("m", key)
                        assert restored is None or restored.text.startswith("r")
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            workers = [
                threading.Thread(target=worker, args=(n,)) for n in range(threads_n)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
            assert not errors
            assert len(cache) <= 50

    def test_two_store_handles_on_one_file(self, tmp_path):
        path = tmp_path / "store.db"
        with Store(path) as first, Store(path) as second:
            first.response_cache().put("m", "shared", LLMResponse(text="one", model="m"))
            restored = second.response_cache().get("m", "shared")
            assert restored is not None and restored.text == "one"


class TestFingerprintStability:
    def test_fingerprint_identical_in_a_fresh_process(self):
        spec = FilterSpec(
            items=("alpha", "beta", "gamma"),
            predicates=("is greek", "is short"),
            expected_selectivities=(0.5, 0.25),
            strategy="per_item",
        )
        local = fingerprint_spec(spec)
        script = (
            "from repro.core.spec import FilterSpec\n"
            "from repro.store import fingerprint_spec\n"
            "spec = FilterSpec(items=('alpha', 'beta', 'gamma'),\n"
            "                  predicates=('is greek', 'is short'),\n"
            "                  expected_selectivities=(0.5, 0.25),\n"
            "                  strategy='per_item')\n"
            "print(fingerprint_spec(spec))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="99")
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert remote.returncode == 0, remote.stderr
        assert remote.stdout.strip() == local

    def test_fingerprint_ignores_budget_but_not_semantics(self):
        base = SortSpec(items=("a", "b"), criterion="size")
        assert fingerprint_spec(base) == fingerprint_spec(
            SortSpec(items=("a", "b"), criterion="size", budget_dollars=1.5)
        )
        assert fingerprint_spec(base) != fingerprint_spec(
            SortSpec(items=("a", "b"), criterion="weight")
        )
        assert fingerprint_spec(base) != fingerprint_spec(
            SortSpec(items=("a", "c"), criterion="size")
        )
        assert fingerprint_spec(base) != fingerprint_spec(
            SortSpec(items=("a", "b"), criterion="size", strategy="rating")
        )
        # The model the calls go out with is semantics too.
        on_small = fingerprint_spec(base, model="sim-small")
        assert on_small == fingerprint_spec(base, model="sim-small")
        assert len({fingerprint_spec(base), on_small, fingerprint_spec(base, model="sim-gpt-4")}) == 3

    def test_dict_key_order_does_not_matter(self):
        left = FilterSpec(
            items=("a", "b", "c", "d", "e"),
            predicate="keep",
            validation_labels={"a": True, "b": False, "c": True, "d": False, "e": True},
        )
        right = FilterSpec(
            items=("a", "b", "c", "d", "e"),
            predicate="keep",
            validation_labels={"e": True, "d": False, "c": True, "b": False, "a": True},
        )
        assert fingerprint_spec(left) == fingerprint_spec(right)


class TestStoreDBLifecycle:
    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "store.db"
        with StoreDB(path) as db:
            db.execute("SELECT 1")
        with pytest.raises(sqlite3.ProgrammingError):
            db.execute("SELECT 1")

    def test_next_seq_is_monotonic_across_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        with StoreDB(path) as db:
            first = db.next_seq()
            second = db.next_seq()
        with StoreDB(path) as db:
            third = db.next_seq()
        assert first < second < third
