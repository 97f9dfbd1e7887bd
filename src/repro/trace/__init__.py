"""Structured call tracing and deterministic trace replay.

See :mod:`repro.trace.tracer` for :class:`TraceRecord`, the typed view of a
``call`` span, and the :class:`Tracer` facade every
:class:`~repro.core.session.PromptSession` carries over its span ring, and
:mod:`repro.trace.replay` for rebuilding a recorded run as a zero-live-call
fixture.
"""

from repro.trace.replay import ReplayLLM, replay_trace
from repro.trace.tracer import (
    TraceLabels,
    TraceRecord,
    Tracer,
    current_labels,
    summarize_records,
    trace_label,
)

__all__ = [
    "ReplayLLM",
    "TraceLabels",
    "TraceRecord",
    "Tracer",
    "current_labels",
    "replay_trace",
    "summarize_records",
    "trace_label",
]
