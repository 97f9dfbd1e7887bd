"""SpanTracker unit tests: parentage, status, propagation, persistence."""

from __future__ import annotations

import contextvars
import enum
import json
import threading

import numpy as np
import pytest

from repro.exceptions import BudgetExceededError
from repro.obs import Span, SpanTracker
from repro.obs.spans import current_span_id
from repro.store import Store


class TestSpanTree:
    def test_nested_spans_record_parentage(self):
        tracker = SpanTracker()
        with tracker.span("pipeline", "demo") as root:
            with tracker.span("step", "sort") as step:
                with tracker.span("call", "gpt") as call:
                    assert call.parent_id == step.span_id
            assert step.parent_id == root.span_id
        assert root.parent_id is None
        assert [sp.kind for sp in tracker.spans()] == ["pipeline", "step", "call"]

    def test_siblings_share_a_parent(self):
        tracker = SpanTracker()
        with tracker.span("pipeline") as root:
            with tracker.span("step", "a") as a:
                pass
            with tracker.span("step", "b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_ambient_span_restored_on_exit(self):
        tracker = SpanTracker()
        assert current_span_id() is None
        with tracker.span("pipeline") as root:
            assert current_span_id() == root.span_id
            with tracker.span("step"):
                pass
            assert current_span_id() == root.span_id
        assert current_span_id() is None

    def test_current_span_id_is_tracker_scoped(self):
        ours = SpanTracker()
        theirs = SpanTracker()
        with ours.span("pipeline") as root:
            assert current_span_id(ours) == root.span_id
            assert current_span_id(theirs) is None

    def test_subtree_collects_transitive_children_only(self):
        tracker = SpanTracker()
        with tracker.span("pipeline") as root:
            with tracker.span("step", "inside") as step:
                tracker.record_span("call", "leaf")
        with tracker.span("pipeline", "other"):
            pass
        subtree = tracker.subtree(root.span_id)
        assert [sp.kind for sp in subtree] == ["pipeline", "step", "call"]
        assert all(sp.label != "other" for sp in subtree)
        assert tracker.subtree(step.span_id)[0].label == "inside"


class TestStatusMapping:
    def test_clean_exit_is_ok(self):
        tracker = SpanTracker()
        with tracker.span("step") as sp:
            pass
        assert sp.status == "ok"
        assert sp.end is not None
        assert sp.duration_seconds >= 0.0

    def test_budget_exhaustion_is_stopped_not_error(self):
        tracker = SpanTracker()
        with pytest.raises(BudgetExceededError):
            with tracker.span("step") as sp:
                raise BudgetExceededError(1.0, 0.5)
        assert sp.status == "stopped"
        assert "error" not in sp.attributes

    def test_other_exceptions_are_error_with_class_name(self):
        tracker = SpanTracker()
        with pytest.raises(ValueError):
            with tracker.span("step") as sp:
                raise ValueError("boom")
        assert sp.status == "error"
        assert sp.attributes["error"] == "ValueError"


class TestRecordSpan:
    def test_backdated_leaf_parented_to_ambient(self):
        tracker = SpanTracker()
        with tracker.span("step") as step:
            leaf = tracker.record_span("call", "gpt", duration_seconds=0.25)
        assert leaf.parent_id == step.span_id
        assert leaf.status == "ok"
        assert leaf.duration_seconds == pytest.approx(0.25, abs=0.01)

    def test_explicit_parent_wins_over_ambient(self):
        tracker = SpanTracker()
        with tracker.span("step") as step:
            pass
        leaf = tracker.record_span("call", parent_id=step.span_id)
        assert leaf.parent_id == step.span_id

    def test_non_json_attributes_are_coerced(self):
        tracker = SpanTracker()
        leaf = tracker.record_span("call", payload=object())
        assert isinstance(leaf.attributes["payload"], str)

    def test_primitives_are_kept_as_they_are(self):
        # The per-call attributes (cache_hit, cost, call_id, a label) skip
        # the json.dumps round trip and come back as the same objects.
        tracker = SpanTracker()
        values = {"hit": True, "cost": 0.25, "call_id": 7, "model": "gpt", "none": None}
        values.update(nan=float("nan"), inf=float("inf"))
        leaf = tracker.record_span("call", **values)
        assert all(leaf.attributes[key] is value for key, value in values.items())
        json.dumps(leaf.attributes)  # NaN and infinities are what dumps accepts too

    def test_everything_else_still_goes_through_dumps_or_repr(self):
        class Tier(enum.IntEnum):
            CHEAP = 1

        class Opaque:
            def __repr__(self) -> str:
                return "<opaque>"

        tracker = SpanTracker()
        values = {
            "tier": Tier.CHEAP,  # an int subclass json.dumps accepts: kept
            "np_float": np.float64(0.5),  # a float subclass: kept
            "np_int": np.int64(3),  # not JSON: repr
            "np_bool": np.bool_(True),
            "pair": (1, "a"),
            "nested": {"a": [1, 2.5, None]},
            "bad_key": {(1, 2): "x"},
            "holds_opaque": [Opaque()],
            "opaque": Opaque(),
            "bytes": b"raw",
        }
        leaf = tracker.record_span("call", **values)
        with tracker.span("step") as step:
            tracker.annotate(step.span_id, **values)

        def reference(value):  # the rule before the fast path
            try:
                json.dumps(value)
                return value
            except (TypeError, ValueError):
                return repr(value)

        for attributes in (leaf.attributes, step.attributes):
            for key, value in values.items():
                assert attributes[key] == reference(value), key
                assert type(attributes[key]) is type(reference(value)), key
        assert leaf.attributes["tier"] is Tier.CHEAP
        assert leaf.attributes["np_int"] == repr(np.int64(3))
        assert leaf.attributes["holds_opaque"] == "[<opaque>]"
        json.dumps(leaf.attributes)

    def test_annotate_merges_and_ignores_unknown_ids(self):
        tracker = SpanTracker()
        with tracker.span("step") as sp:
            pass
        assert tracker.annotate(sp.span_id, retries=2)
        assert not tracker.annotate(10_000, retries=9)  # ignored, and says so
        assert not tracker.annotate(None, retries=9)
        assert tracker.get(sp.span_id).attributes["retries"] == 2


class TestCapacity:
    def test_fifo_eviction_counts_dropped(self):
        tracker = SpanTracker(capacity=3)
        for index in range(5):
            tracker.record_span("call", f"c{index}")
        assert len(tracker) == 3
        assert tracker.dropped == 2
        assert [sp.label for sp in tracker.spans()] == ["c2", "c3", "c4"]

    def test_clear_resets_everything(self):
        tracker = SpanTracker(capacity=1)
        tracker.record_span("call", "a")
        tracker.record_span("call", "b")
        assert tracker.dropped == 1
        tracker.clear()
        assert len(tracker) == 0
        assert tracker.dropped == 0


class TestThreadPropagation:
    def test_parentage_survives_worker_threads(self):
        """The executor dispatches via copy_context; children keep the parent."""
        tracker = SpanTracker()
        results = []

        def worker(label):
            with tracker.span("step", label) as sp:
                results.append((label, sp.parent_id))

        with tracker.span("pipeline") as root:
            threads = [
                threading.Thread(target=contextvars.copy_context().run, args=(worker, f"t{i}"))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert sorted(results) == [(f"t{i}", root.span_id) for i in range(4)]

    def test_plain_thread_without_copied_context_has_no_parent(self):
        tracker = SpanTracker()
        seen = []

        def worker():
            seen.append(current_span_id(tracker))

        with tracker.span("pipeline"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]


class TestPersistence:
    def test_flush_roundtrips_through_the_store(self, tmp_path):
        store = Store(tmp_path / "spans.db")
        tracker = SpanTracker(store=store)
        with tracker.span("pipeline", "demo"):
            tracker.record_span("call", "gpt", duration_seconds=0.1, tokens=42)
        written = tracker.flush()
        assert written == 2
        loaded = store.load_spans(origin=tracker.origin)
        assert [sp.kind for sp in loaded] == ["pipeline", "call"]
        assert loaded[1].attributes["tokens"] == 42
        assert loaded[1].parent_id == loaded[0].span_id

    def test_flush_is_incremental(self, tmp_path):
        store = Store(tmp_path / "spans.db")
        tracker = SpanTracker(store=store)
        tracker.record_span("call", "a")
        assert tracker.flush() == 1
        assert tracker.flush() == 0  # nothing newly dirty
        tracker.record_span("call", "b")
        assert tracker.flush() == 1
        assert store.span_count() == 2

    def test_reflushing_a_mutated_span_replaces_the_row(self, tmp_path):
        store = Store(tmp_path / "spans.db")
        tracker = SpanTracker(store=store)
        with tracker.span("step") as sp:
            tracker.flush()  # flushed while still open
        tracker.flush()  # re-flushed after close
        loaded = store.load_spans(origin=tracker.origin)
        assert len(loaded) == 1
        assert loaded[0].status == "ok"
        assert loaded[0].end is not None

    def test_auto_flush_past_threshold(self, tmp_path):
        store = Store(tmp_path / "spans.db")
        tracker = SpanTracker(store=store, flush_every=4)
        for index in range(4):
            with tracker.span("step", f"s{index}"):
                pass
        assert store.span_count() >= 4

    def test_failing_store_never_raises(self, tmp_path):
        class BrokenStore:
            def save_spans(self, spans, *, origin):
                raise OSError("disk gone")

        tracker = SpanTracker(store=BrokenStore(), flush_every=1)
        with tracker.span("step"):
            pass
        assert tracker.flush() == 0  # swallowed, pipeline unharmed

    def test_store_failure_keeps_spans_dirty_for_the_next_try(self):
        class FailingStore:
            def __init__(self) -> None:
                self.fail = True
                self.saved: list = []

            def save_spans(self, spans, *, origin):
                if self.fail:
                    raise RuntimeError("disk full")
                self.saved.extend(spans)

        store = FailingStore()
        tracker = SpanTracker(store=store, flush_every=1)  # type: ignore[arg-type]
        with tracker.span("step", "s0"):  # auto-flush on close fails silently
            tracker.record_span("call", "c0")
        assert store.saved == []
        store.fail = False
        assert tracker.flush() == 2  # both spans stayed dirty
        assert sorted(sp.label for sp in store.saved) == ["c0", "s0"]
        assert tracker.flush() == 0

    def test_span_dict_roundtrip(self):
        sp = Span(
            span_id=3,
            parent_id=1,
            kind="call",
            label="gpt",
            start=10.0,
            end=10.5,
            status="ok",
            attributes={"tokens": 7},
        )
        assert Span.from_dict(sp.to_dict()) == sp
