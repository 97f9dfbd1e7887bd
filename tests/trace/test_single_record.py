"""One record per call: the ``call`` span is the trace record.

A call settled through a session is recorded once — a ``call`` span whose
attributes are the audit record, with :class:`TraceRecord` its typed view —
and a settled batch feeds the metrics and the runtime stats once.  Pinned
here: the records equal what the two-ring design recorded (digests taken at
the commit before this one), the ring and its consumers agree under eight
threads, eviction and a failing flush lose nothing they should not, and a
call's log line, span, record and metric series join by id.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
import threading
from functools import partial

import pytest

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import SortSpec
from repro.data.flavors import flavor_oracle
from repro.exceptions import UnknownModelError
from repro.llm.simulated import SimulatedLLM
from repro.obs import SpanTracker, TraceRecord, replay_trace, trace_label
from repro.query import Dataset
from repro.wire import to_wire
from tests.doubles import hop
from tests.query.support import MODEL, clean_engine, product_corpus

#: sha256 over the sorted records (ids and durations left out) of the two
#: replay fixtures, as ``Tracer.records()`` returned them one commit earlier
#: — the same under the sync and 8-thread drivers, and from an event loop.
PARENT_ER_DIGEST = ("a90c4923139bd3772ae9af8bd66138ee0e7861dd4d127193598095d84ecae6cc", 46)
PARENT_CACHE_HEAVY_DIGEST = (
    "a03d1c617d6b2c96af05a54a701918491808ec1df3f14b987e9d5444e64de43a",
    20,
)

#: driver -> (max_concurrency, run from an event loop through one thread hop?)
DRIVERS = {"sync": (1, False), "threads": (8, False), "asyncio": (8, True)}


def digest(records: list[TraceRecord]) -> tuple[str, int]:
    rows = []
    for record in records:
        fields = to_wire(record)
        for name in ("call_id", "span_id", "duration_ms"):
            del fields[name]
        rows.append(json.dumps(fields, sort_keys=True))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest(), len(rows)


def er_query() -> tuple[Dataset, object]:
    items, oracle = product_corpus(n_entities=6, variants=2)
    query = (
        Dataset(items, name="products")
        .filter("is a short name")
        .resolve()
        .top_k("important", k=3, strategy="pairwise_tournament")
    )
    return query, oracle


def run_er(engine, hopped: bool):
    query, _ = er_query()
    compiled = query.compile(planner=engine.planner())
    run = partial(hop, engine.run_pipeline) if hopped else engine.run_pipeline
    return run(compiled.spec, quote=compiled.quote)


class TestEquivalence:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_er_records_equal_the_parents_and_replay(self, driver):
        width, hopped = DRIVERS[driver]
        _, oracle = er_query()
        engine = clean_engine(oracle, max_concurrency=width)
        original = run_er(engine, hopped)
        records = engine.session.spans.records()
        assert digest(records) == PARENT_ER_DIGEST

        session = PromptSession(replay_trace(records), max_concurrency=width)
        replayed = run_er(DeclarativeEngine.from_session(session), hopped)
        assert replayed.results == original.results
        assert session.tracker.usage.calls == engine.session.tracker.usage.calls

    @pytest.mark.parametrize("width", [1, 8])
    def test_cache_heavy_records_equal_the_parents(self, width):
        items, oracle = product_corpus(n_entities=5, variants=1)
        spec = SortSpec(items=items, criterion="important", strategy="pairwise")
        engine = clean_engine(oracle, max_concurrency=width)
        first, second = engine.sort(spec), engine.sort(spec)
        records = engine.session.spans.records()
        assert digest(records) == PARENT_CACHE_HEAVY_DIGEST
        replay = DeclarativeEngine.from_session(PromptSession(replay_trace(records)))
        assert (replay.sort(spec).order, replay.sort(spec).order) == (first.order, second.order)


def _session(**kwargs) -> PromptSession:
    return PromptSession(SimulatedLLM(flavor_oracle(), seed=7), **kwargs)


class TestHammer:
    def test_eight_threads_settling_batches_of_1_and_64(self):
        session = _session(budget=Budget(), use_cache=True)
        rounds, threads_n = 6, 8
        batches: list[list[int]] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def worker(worker_id: int) -> None:
            try:
                for round_ in range(rounds):
                    size = 64 if round_ % 2 else 1
                    # Prompts repeat inside a batch and across workers: hits.
                    prompts = [f"w{worker_id % 3} r{round_} p{i % 48}?" for i in range(size)]
                    responses = session.complete_batch(prompts, model=MODEL)
                    with lock:
                        batches.append([r.metadata["trace_call_id"] for r in responses])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors

        total = threads_n * (rounds // 2) * (1 + 64)
        ids = [call_id for batch in batches for call_id in batch]
        assert sorted(ids) == list(range(1, total + 1))  # unique, none skipped
        for batch in batches:  # contiguous within a batch, in prompt order
            assert batch == list(range(batch[0], batch[0] + len(batch)))

        records = session.spans.records()
        assert len(records) == total
        assert sum(record.cost for record in records) == pytest.approx(session.budget.spent)
        hits = sum(record.cache_hit for record in records)
        assert 0 < hits < total
        series = session.metrics.snapshot()
        assert series["repro_llm_calls_total"] == {
            '{tenant="",cache="hit"}': hits,
            '{tenant="",cache="miss"}': total - hits,
        }
        assert series["repro_call_duration_seconds"]['_count{tenant=""}'] == total
        assert series["repro_llm_cost_dollars_total"]['{tenant=""}'] == pytest.approx(
            session.budget.spent
        )
        assert session.stats.cache_hit_rate() == pytest.approx(hits / total)


class RecordingStore:
    """A span sink that can be made to fail."""

    def __init__(self) -> None:
        self.fail = False
        self.saved: list[int] = []

    def save_spans(self, spans, *, origin):
        if self.fail:
            raise RuntimeError("disk full")
        self.saved.extend(span.span_id for span in spans)


class TestOverflow:
    def test_drops_count_once_per_eviction_and_evicted_spans_are_not_flushed(self):
        session = _session()
        store = RecordingStore()
        session.spans.capacity, session.spans.store = 10, store
        session.complete_batch([f"p{i}?" for i in range(8)], model=MODEL)
        assert session.spans.dropped == 0
        session.complete_batch([f"q{i}?" for i in range(7)], model=MODEL)
        assert session.spans.dropped == session.spans.dropped_calls == 5
        dropped = session.metrics.snapshot()["repro_trace_records_dropped_total"]
        assert dropped == {'{tenant=""}': 5}
        assert [record.call_id for record in session.spans.records()] == list(range(6, 16))
        assert session.spans.flush() == 10
        assert store.saved == list(range(6, 16))  # the evicted ids left the dirty set

    def test_only_evicted_calls_count_as_dropped_records(self):
        drops: list[int] = []
        tracker = SpanTracker(capacity=4, on_drop=drops.append)
        with tracker.span("step", "s"), tracker.span("operator", "o"):
            tracker.record_calls([("m", "ok", {}) for _ in range(4)])  # evicts both structural
            assert (tracker.dropped, tracker.dropped_calls, drops) == (2, 0, [])
            tracker.record_calls([("m", "ok", {}) for _ in range(3)])
        assert (tracker.dropped, tracker.dropped_calls, drops) == (5, 3, [3])
        # What was recorded is what is retained plus what was dropped.
        assert len(tracker.records()) + tracker.dropped_calls == 7

    def test_a_failing_drop_callback_is_swallowed(self):
        def explode(count):
            raise RuntimeError("observer bug")

        tracker = SpanTracker(capacity=1, on_drop=explode)
        tracker.record_calls([("m", "ok", {}), ("m", "ok", {})])
        assert tracker.dropped == 1


class TestFailingFlush:
    def test_call_spans_stay_dirty_and_the_result_is_intact(self):
        store = RecordingStore()
        store.fail = True
        session = _session()
        session.spans.store, session.spans.flush_every = store, 1
        response = session.complete("rate this", model=MODEL)  # auto-flush raises inside
        assert response.text
        assert [record.prompt for record in session.spans.records()] == ["rate this"]
        assert store.saved == []
        store.fail = False
        assert session.spans.flush() == 1
        assert store.saved == [response.metadata["trace_call_id"]]
        assert session.spans.flush() == 0


class TestJoinById:
    def test_log_line_span_record_and_metric_share_the_call(self, caplog):
        session = _session(tenant_label="acme")
        with caplog.at_level(logging.DEBUG, logger="repro.calls"):
            with trace_label(step="screen", operator="filter:per_item", job="job-7"):
                with session.spans.span("step", "screen") as step:
                    response = session.complete("rate this", model=MODEL)
        call_id = response.metadata["trace_call_id"]

        (line,) = [entry for entry in caplog.records if entry.name == "repro.calls"]
        assert line.levelno == logging.DEBUG
        assert line.getMessage().startswith(
            f"AI_CALL call_id={call_id} step=screen operator=filter:per_item model={MODEL} "
        )
        assert "cache_hit=False error=None" in line.getMessage()
        assert (line.tenant, line.job, line.span_id, line.parent_span_id) == (
            "acme",
            "job-7",
            call_id,
            step.span_id,
        )

        span = session.spans.get(call_id)
        assert (span.kind, span.label, span.parent_id) == ("call", MODEL, step.span_id)
        (record,) = session.spans.records()
        assert record == TraceRecord.from_span(span)
        assert (record.call_id, record.span_id, record.step) == (call_id, call_id, "screen")
        assert record.prompt == "rate this" and record.response_text == response.text
        calls = session.metrics.snapshot()["repro_llm_calls_total"]
        assert calls == {'{tenant="acme",cache="hit"}': 0, '{tenant="acme",cache="miss"}': 1}

    def test_settled_calls_log_nothing_unless_debug_is_on(self, caplog):
        session = _session()
        with caplog.at_level(logging.INFO, logger="repro.calls"):
            session.complete_batch(["a?", "b?"], model=MODEL)
        assert not caplog.records

    def test_a_failed_call_logs_a_warning_without_being_asked(self, caplog):
        class ExplodingClient:
            default_model = MODEL

            def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
                raise UnknownModelError("simulated outage")

        session = PromptSession(ExplodingClient(), use_cache=False)
        with caplog.at_level(logging.WARNING, logger="repro.calls"):
            with pytest.raises(UnknownModelError):
                session.complete("boom", model=MODEL)
        (line,) = caplog.records
        (record,) = session.spans.records()
        assert line.levelno == logging.WARNING
        assert f"call_id={record.call_id} " in line.getMessage()
        assert line.getMessage().endswith("error=UnknownModelError")
        assert session.spans.get(record.call_id).status == "error"
