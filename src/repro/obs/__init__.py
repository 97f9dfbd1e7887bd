"""Operational observability: span tracing, call records, metrics, replay.

Distinct from :mod:`repro.metrics`, which holds *evaluation* metrics
(accuracy, clustering quality, ranking agreement); this package is about
where wall-clock and capacity go at run time.  :mod:`repro.obs.spans` holds
the session's one ring (a call is a ``call`` span, :class:`TraceRecord` its
typed view) and :mod:`repro.obs.replay` rebuilds a recorded run as a
zero-live-call fixture.
"""

from repro.obs.instruments import SessionInstruments
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.replay import replay_trace
from repro.obs.spans import (
    Span,
    SpanTracker,
    TraceRecord,
    current_span_id,
    summarize_records,
    trace_label,
)
from repro.obs.timeline import CriticalPath, critical_path, render_timeline, summarize_path

__all__ = [
    "Counter",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SessionInstruments",
    "Span",
    "SpanTracker",
    "TraceRecord",
    "critical_path",
    "current_span_id",
    "render_timeline",
    "replay_trace",
    "summarize_path",
    "summarize_records",
    "trace_label",
]
