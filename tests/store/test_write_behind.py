"""The store's write-behind buffer and the durability contract it keeps.

Outside a pipeline step a cache write is on disk when ``put`` returns; inside
one it waits in the handle's overlay (read back by every view on the handle)
and reaches disk with the step's call spans and checkpoint as one
transaction — on success, on an exception, at the two bounds, and at
``close()``.  Only a hard kill loses rows, and at most ``MAX_PENDING_ROWS``.

Run as a script (``python test_write_behind.py <db> <calls>``) this file is
the child of the hard-kill test: it runs the pipeline below against ``<db>``
and ``os._exit(1)``s before backend call number ``<calls>`` + 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep
from repro.llm.base import LLMResponse
from repro.llm.faulty import FaultyLLM
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.store import PersistentResponseCache, Store, fingerprint_spec
from repro.store import db as db_module
from repro.store.db import MAX_PENDING_ROWS
from repro.store.jobs import JobRecord
from repro.store.response_cache import encode_response
from repro.tokenizer.cost import Usage

MODEL = "sim-gpt-3.5-turbo"
THREADS = int(os.environ.get("REPRO_TEST_THREADS", "8"))


def response(text: str) -> LLMResponse:
    return LLMResponse(text=text, model=MODEL, usage=Usage(prompt_tokens=3, calls=1))


def stored_size(prompt: str, text: str) -> int:
    return len(encode_response(response(text)).encode()) + len(prompt.encode())


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "store.db"


# -- the scope ---------------------------------------------------------------------------


class TestStepScope:
    def test_rows_wait_for_the_exit_and_are_read_back_meanwhile(self, path):
        with Store(path) as store, Store(path) as other:
            ours = store.response_cache()
            with store.db.step():
                ours.put("m", "p", response("buffered"))
                assert not other.response_cache().contains("m", "p")
                # Every view on the handle reads the overlay first ...
                view = store.response_cache()
                assert view.get("m", "p").text == "buffered"
                assert view.contains("m", "p")
                assert view.contains_many("m", ["p", "p", "absent"]) == 2
                assert (view.stats.hits, view.stats.misses) == (1, 0)
                # ... but only its own namespace's rows.
                assert store.namespace("tenant").response_cache().get("m", "p") is None
            assert other.response_cache().get("m", "p").text == "buffered"

    def test_any_exit_flushes_the_whole_handle(self, path):
        with Store(path) as store, Store(path) as other:
            cache = store.response_cache()
            with store.db.step():
                cache.put("m", "outer", response("1"))
                with store.db.step():
                    cache.put("m", "inner", response("2"))
                assert other.response_cache().contains_many("m", ["outer", "inner"]) == 2
                cache.put("m", "late", response("3"))
                assert not other.response_cache().contains("m", "late")
            assert other.response_cache().contains("m", "late")

    def test_an_exception_out_of_the_scope_still_settles(self, path):
        with Store(path) as store, Store(path) as other:
            with pytest.raises(KeyboardInterrupt):
                with store.db.step():
                    store.response_cache().put("m", "paid", response("kept"))
                    raise KeyboardInterrupt
            assert other.response_cache().get("m", "paid").text == "kept"

    def test_row_bound_flushes_inside_a_step(self, path, monkeypatch):
        monkeypatch.setattr(db_module, "MAX_PENDING_ROWS", 4)
        with Store(path) as store, Store(path) as other:
            cache = store.response_cache()
            with store.db.step():
                for index in range(5):
                    cache.put("m", f"p{index}", response("x"))
                    assert len(store.db.pending) == (index + 1) % 4
                assert len(other.response_cache()) == 4

    def test_age_bound_flushes_inside_a_step(self, path, scripted_clock):
        with Store(path) as store, Store(path) as other:
            cache = store.response_cache()
            with store.db.step():
                cache.put("m", "old", response("x"))
                scripted_clock.advance(db_module.MAX_PENDING_SECONDS / 2)
                cache.put("m", "young", response("x"))
                assert len(other.response_cache()) == 0
                scripted_clock.advance(db_module.MAX_PENDING_SECONDS / 2)
                cache.put("m", "late", response("x"))
                assert len(other.response_cache()) == 3

    def test_close_flushes_an_open_scope(self, path):
        store = Store(path)
        scope = store.db.step()
        scope.__enter__()  # a step that never gets to its exit
        store.response_cache().put("m", "p", response("durable"))
        assert store.db.pending
        store.close()
        with Store(path) as reopened:
            assert reopened.response_cache().get("m", "p").text == "durable"

    def test_recency_is_the_buffered_order(self, path):
        with Store(path, max_cache_entries=3) as store:
            cache = store.response_cache()
            for key in "abc":
                cache.put("m", key, response(key))
            with store.db.step():
                cache.get("m", "a")  # touch: "b" is now the LRU victim
                cache.put("m", "d", response("d"))
                cache.put("m", "c", response("c again"))  # and "c" the newest
            assert len(cache) == 3
            assert not cache.contains("m", "b")
            cache.put("m", "e", response("e"))
            assert not cache.contains("m", "a") and cache.contains("m", "c")

    def test_a_rolled_back_transaction_returns_rows_to_the_overlay(self, path):
        with Store(path) as store, Store(path) as other:
            cache = store.response_cache()
            with pytest.raises(RuntimeError):
                with store.db.atomic():
                    cache.put("m", "p", response("kept"))  # written, not committed
                    raise RuntimeError("the enclosing transaction fails")
            assert not other.response_cache().contains("m", "p")
            assert cache.get("m", "p").text == "kept"
            assert other.response_cache().contains("m", "p")  # the hit's touch flushed both


class TestAtomic:
    def test_nested_scopes_are_one_transaction(self, path):
        with Store(path) as store:
            before = store.db.next_seq()
            with pytest.raises(RuntimeError):
                with store.db.atomic():
                    store.db.next_seq()
                    store.save_job(JobRecord(job_id="j", tenant="t"))
                    raise RuntimeError
            assert store.load_job("j") is None
            assert store.db.next_seq() == before + 1

    def test_two_handles_saving_one_job_keep_its_submission_ordinal(self, path):
        with Store(path) as first, Store(path) as second:
            ours = JobRecord(job_id="shared", tenant="t")
            theirs = JobRecord(job_id="shared", tenant="t")
            other = threading.Thread(target=second.save_job, args=(theirs,))
            next_seq = first.db.next_seq

            def interleaved() -> int:
                # The other handle gets its chance in the middle of this save:
                # after the row was looked up, before any ordinal is drawn.
                first.db.next_seq = next_seq
                other.start()
                other.join(timeout=0.2)  # it waits for our transaction instead
                return next_seq()

            first.db.next_seq = interleaved
            first.save_job(ours)
            other.join(timeout=30)
            assert not other.is_alive()
            stored = first.load_job("shared")
            assert ours.submitted_seq == theirs.submitted_seq == stored.submitted_seq
            assert ours.updated_seq < theirs.updated_seq == stored.updated_seq


# -- against a write-through model ---------------------------------------------------------

KEYS = [f"prompt {index}" for index in range(6)]
OPERATIONS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.text("ab", min_size=1, max_size=40)),
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.tuples(st.just("contains"), st.sampled_from(KEYS)),
    st.tuples(st.just("contains_many"), st.lists(st.sampled_from(KEYS), max_size=4)),
    st.tuples(st.sampled_from(["len", "enter", "exit", "reopen"])),
)


class WriteThroughModel:
    """An LRU dict that is always current; its caps are enforced whenever
    the real cache's rows reach disk (``settle``)."""

    def __init__(self, max_entries: int, max_bytes: int | None) -> None:
        self.rows: OrderedDict[str, str] = OrderedDict()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = self.misses = 0

    def put(self, key: str, text: str) -> None:
        self.rows[key] = text
        self.rows.move_to_end(key)

    def get(self, key: str) -> str | None:
        if key not in self.rows:
            self.misses += 1
            return None
        self.hits += 1
        self.rows.move_to_end(key)
        return self.rows[key]

    def settle(self) -> None:
        def too_big() -> bool:
            size = sum(stored_size(key, text) for key, text in self.rows.items())
            return self.max_bytes is not None and size > self.max_bytes and len(self.rows) > 1

        while len(self.rows) > self.max_entries or too_big():
            self.rows.popitem(last=False)


@settings(max_examples=80, deadline=None)
@given(
    operations=st.lists(OPERATIONS, max_size=40),
    max_entries=st.sampled_from([2, 3, 100]),
    max_bytes=st.sampled_from([None, 3 * stored_size(KEYS[0], "a" * 20)]),
)
def test_buffered_cache_equals_a_write_through_one(
    tmp_path_factory, operations, max_entries, max_bytes
):
    path = tmp_path_factory.mktemp("model") / "store.db"
    model = WriteThroughModel(max_entries, max_bytes)
    hits = misses = 0
    store = Store(path, max_cache_entries=max_entries, max_cache_bytes=max_bytes)
    cache = store.response_cache()
    scopes: list = []  # entered StoreDB.step() scopes, innermost last
    for name, *arguments in operations:
        if name == "put":
            cache.put("m", arguments[0], response(arguments[1]))
            model.put(*arguments)
            if not scopes:
                model.settle()
        elif name == "get":
            got = cache.get("m", arguments[0])
            assert (got and got.text) == model.get(arguments[0])
        elif name == "contains":
            assert cache.contains("m", arguments[0]) == (arguments[0] in model.rows)
        elif name == "contains_many":
            expected = sum(key in model.rows for key in arguments[0])
            assert cache.contains_many("m", arguments[0]) == expected
        elif name == "len":
            model.settle()
            assert len(cache) == len(model.rows)
        elif name == "enter":
            scopes.append(store.db.step())
            scopes[-1].__enter__()
        elif name == "exit" and scopes:
            scopes.pop().__exit__(None, None, None)  # any exit settles the whole handle
            model.settle()
        elif name == "reopen":
            hits, misses = hits + cache.stats.hits, misses + cache.stats.misses
            store.close()  # scopes still open are abandoned, as by a process that ends
            del scopes[:]
            model.settle()
            store = Store(path, max_cache_entries=max_entries, max_cache_bytes=max_bytes)
            cache = store.response_cache()
    store.close()
    model.settle()
    assert (hits + cache.stats.hits, misses + cache.stats.misses) == (model.hits, model.misses)
    with Store(path) as final:
        rows = final.db.execute("SELECT prompt FROM cache ORDER BY access_seq")
        # The same survivors — so the same LRU victims — in the same recency order.
        assert [prompt for (prompt,) in rows] == list(model.rows)
        view = final.response_cache()
        assert [view.get("m", key).text for key in model.rows] == list(model.rows.values())


# -- pipelines -------------------------------------------------------------------------------

SMALL = [f"item-{index:03d}" for index in range(40)]
LARGE = [f"entry-{index:03d}" for index in range(MAX_PENDING_ROWS + 44)]
EARLY = "has an even number"
LATE = "has a small number"


def kill_llm() -> SimulatedLLM:
    oracle = Oracle()
    oracle.register_predicate(EARLY, lambda item: int(item[-3:]) % 2 == 0)
    oracle.register_predicate(LATE, lambda item: int(item[-3:]) < 100)
    return SimulatedLLM(oracle, seed=5)


def kill_pipeline() -> PipelineSpec:
    """A 40-call step, then a step longer than the buffer's row bound."""
    return PipelineSpec(
        name="killed",
        steps=[
            PipelineStep(
                name="screen", task=FilterSpec(items=SMALL, predicate=EARLY, strategy="per_item")
            ),
            PipelineStep(
                name="sweep",
                task=FilterSpec(items=LARGE, predicate=LATE, strategy="per_item"),
                depends_on=("screen",),
            ),
        ],
    )


def run_kill_pipeline(store: Store | None, plan=None):
    client = FaultyLLM(kill_llm(), plan)
    # Two wide, so that a step's calls are unit tasks, each cached as it returns
    # (one wide the step is one native batch: all of it is cached, or none).
    engine = DeclarativeEngine(session=PromptSession(client, store=store, max_concurrency=2))
    return client, engine.run_pipeline(kill_pipeline())


def checkpoint_key(task) -> str:
    """The key ``run_kill_pipeline``'s engine files a step under: the spec and
    the session's default model, which its calls go out with."""
    return fingerprint_spec(task, model=MODEL)


class TestSettle:
    def test_a_step_that_raises_keeps_what_it_paid_for_but_no_checkpoint(self, path):
        paid = len(SMALL) + 25
        with Store(path) as store, Store(path) as other:
            with pytest.raises(RuntimeError):
                run_kill_pipeline(store, {paid: RuntimeError("simulated crash")})
            # Visible to another handle while this one is still open.
            assert len(other.response_cache()) == paid
            assert other.trace_count() >= paid
            sweep = kill_pipeline().steps[1].task
            assert other.load_checkpoint(checkpoint_key(kill_pipeline().steps[0].task))
            assert other.load_checkpoint(checkpoint_key(sweep)) is None

    def test_a_checkpoint_commits_with_the_rows_of_its_calls(self, path):
        with Store(path) as store, Store(path) as other:
            seen: list[tuple[int, int, int]] = []
            save = store.save_checkpoint

            def spy(fingerprint, spec, result):
                # Mid-settle: this step's rows are written but not committed.
                seen.append((len(other.response_cache()), other.checkpoint_count(),
                             other.trace_count()))
                save(fingerprint, spec, result)

            store.save_checkpoint = spy
            run_kill_pipeline(store)
            total = len(SMALL) + len(LARGE)
            # ... beyond what the row bound already flushed of the long one.
            early = len(SMALL) + MAX_PENDING_ROWS
            assert [row[:2] for row in seen] == [(0, 0), (early, 1)]
            # The span ring flushes at the same bound (soft when a helper thread
            # joined the step), counted over all its dirty spans: five of them
            # are structural, not calls — screen's step and wave, which closed
            # after its settle, and sweep's open wave, step and operator.
            assert seen[0][2] == 0 and early - 5 <= seen[1][2] < total
            assert (len(other.response_cache()), other.checkpoint_count()) == (total, 2)
            assert other.trace_count() == total

    def test_hard_kill_loses_at_most_the_row_bound_and_resumes(self, path):
        made = len(SMALL) + len(LARGE) - 10
        child = subprocess.run(
            [sys.executable, __file__, str(path), str(made)],
            # The child imports ``repro`` and, for the double, ``tests``.
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    [str(Path(repro.__file__).parents[1]), str(Path(__file__).parents[2])]
                ),
            },
            timeout=120,
        )
        assert child.returncode == 1
        reference_client, reference = run_kill_pipeline(None)
        with Store(path) as store:  # reopens cleanly, WAL and all
            entries = len(store.response_cache())
            assert made - MAX_PENDING_ROWS <= entries < made
            # Trace rows are best effort (a flush may be in flight on a helper
            # thread when the process dies); the settled step's are there.
            assert len(SMALL) <= store.trace_count() <= made
            steps = kill_pipeline().steps
            assert store.load_checkpoint(checkpoint_key(steps[0].task)) is not None
            assert store.load_checkpoint(checkpoint_key(steps[1].task)) is None
            client, resumed = run_kill_pipeline(store)
            assert resumed.restored_steps == ["screen"]
            # Everything that reached disk is served from it.
            assert client.calls == reference_client.calls - entries
            for name in ("screen", "sweep"):
                assert resumed.results[name].kept == reference.results[name].kept


class TestConcurrentScopes:
    def test_overlapping_scopes_on_one_handle_lose_no_entry(self, path):
        rounds, puts = 6, 25
        errors: list[BaseException] = []
        store = Store(path)
        cache = store.response_cache()

        def worker(worker_id: int) -> None:
            try:
                for round_ in range(rounds):
                    with store.db.step():
                        for index in range(puts):
                            key = f"w{worker_id}-r{round_}-p{index}"
                            cache.put("m", key, response(key))
                            assert cache.get("m", key).text == key
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        store.close()
        assert not errors
        with Store(path) as reopened:
            assert len(reopened.response_cache()) == THREADS * rounds * puts

    def test_one_tenants_settle_flushes_the_others_rows_but_shows_them_to_nobody(self, path):
        with Store(path) as store, Store(path) as other:
            acme = store.namespace("acme").response_cache()
            beta = store.namespace("beta").response_cache()
            with store.db.step():  # acme's step
                acme.put("m", "p", response("acme's"))
                with store.db.step():  # beta's, overlapping
                    beta.put("m", "p", response("beta's"))
                    assert beta.get("m", "p").text == "beta's"
                assert len(other.response_cache()) == 2  # beta's settle wrote both
                assert acme.get("m", "p").text == "acme's"
                assert beta.get("m", "p").text == "beta's"
                assert store.response_cache().get("m", "p") is None
            assert PersistentResponseCache(other.db, namespace="acme").get("m", "p").text == "acme's"

    def test_two_tenants_overlapping_pipelines_pay_for_their_own_calls(self, path):
        gate = threading.Barrier(2, timeout=60)
        solo_client, _ = run_kill_pipeline(None)
        clients: dict[str, FaultyLLM] = {}
        reports: dict[str, object] = {}

        def tenant(name: str, store: Store) -> None:
            # Both tenants are inside their first step before either calls.
            client = FaultyLLM(kill_llm(), {0: gate.wait})
            session = PromptSession(client, store=store.namespace(name), max_concurrency=2)
            clients[name] = client
            reports[name] = DeclarativeEngine(session=session).run_pipeline(kill_pipeline())

        with Store(path) as store:
            threads = [
                threading.Thread(target=tenant, args=(name, store)) for name in ("acme", "beta")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert clients["acme"].calls == clients["beta"].calls == solo_client.calls
            assert not reports["acme"].restored_steps and not reports["beta"].restored_steps
            assert len(store.response_cache()) == 2 * solo_client.calls


if __name__ == "__main__":
    with Store(sys.argv[1]) as killed_store:
        run_kill_pipeline(killed_store, {int(sys.argv[2]): lambda: os._exit(1)})
