"""Critical-path extraction and waterfall rendering over span trees."""

from __future__ import annotations

import pytest

from repro.obs import Span, SpanTracker, critical_path, render_timeline
from repro.obs.timeline import summarize_path


def _step(span_id, label, seconds, *, depends_on=(), start=0.0):
    return Span(
        span_id=span_id,
        parent_id=None,
        kind="step",
        label=label,
        start=start,
        end=start + seconds,
        status="ok",
        attributes={"depends_on": list(depends_on)},
    )


class TestCriticalPath:
    def test_longest_branch_dominates(self):
        # left (3s) and right (1s) feed merge (0.5s): the path is left->merge.
        spans = [
            _step(1, "left", 3.0),
            _step(2, "right", 1.0),
            _step(3, "merge", 0.5, depends_on=("left", "right")),
        ]
        path = critical_path(spans)
        assert path.steps == ("left", "merge")
        assert path.seconds == pytest.approx(3.5)
        assert path.sum_seconds == pytest.approx(4.5)
        assert path.seconds < path.sum_seconds

    def test_chain_path_is_the_whole_chain(self):
        spans = [
            _step(1, "a", 1.0),
            _step(2, "b", 2.0, depends_on=("a",)),
            _step(3, "c", 1.0, depends_on=("b",)),
        ]
        path = critical_path(spans)
        assert path.steps == ("a", "b", "c")
        assert path.seconds == pytest.approx(4.0)
        assert path.seconds == pytest.approx(path.sum_seconds)

    def test_non_step_spans_and_unknown_deps_are_ignored(self):
        spans = [
            Span(span_id=1, parent_id=None, kind="pipeline", label="p", start=0.0, end=9.0),
            _step(2, "a", 1.0, depends_on=("ghost",)),
        ]
        path = critical_path(spans)
        assert path.steps == ("a",)
        assert path.seconds == pytest.approx(1.0)

    def test_empty_input(self):
        path = critical_path([])
        assert path.steps == ()
        assert path.seconds == 0.0
        assert summarize_path(path) == "critical path: (none)"

    def test_accepts_a_tracker(self):
        tracker = SpanTracker()
        with tracker.span("step", "solo"):
            pass
        assert critical_path(tracker).steps == ("solo",)

    def test_summarize_mentions_chain_and_serial_sum(self):
        path = critical_path([_step(1, "a", 1.0), _step(2, "b", 2.0, depends_on=("a",))])
        text = summarize_path(path)
        assert "a -> b" in text
        assert "3.000s" in text


class TestRenderTimeline:
    def test_nesting_and_ordering(self):
        tracker = SpanTracker()
        with tracker.span("pipeline", "demo"):
            with tracker.span("wave", "wave 0"):
                with tracker.span("step", "sort"):
                    tracker.record_span("call", "gpt", duration_seconds=0.01)
        text = render_timeline(tracker)
        lines = text.splitlines()
        assert lines[0].startswith("pipeline:demo")
        assert lines[1].startswith("  wave:wave 0")
        assert lines[2].startswith("    step:sort")
        assert lines[3].startswith("      call:gpt")
        assert all("|" in line and "ok" in line for line in lines)

    def test_open_spans_render_as_open(self):
        spans = [Span(span_id=1, parent_id=None, kind="step", label="hung", start=0.0)]
        assert "open" in render_timeline(spans)

    def test_empty_is_placeholder(self):
        assert render_timeline([]) == "(no spans)"
        assert render_timeline(SpanTracker()) == "(no spans)"

    def test_accepts_report_like_objects(self):
        class FakeReport:
            spans = [Span(span_id=1, parent_id=None, kind="step", label="s", start=0.0, end=1.0)]

        assert "step:s" in render_timeline(FakeReport())
