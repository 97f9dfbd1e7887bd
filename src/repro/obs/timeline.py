"""Waterfall rendering and critical-path analysis over span trees."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.obs.spans import Span

__all__ = ["CriticalPath", "critical_path", "render_timeline"]

_BAR_WIDTH = 30


@dataclass(frozen=True)
class CriticalPath:
    """The dominating chain of step spans in one pipeline run."""

    steps: tuple[str, ...]
    seconds: float
    step_seconds: Mapping[str, float] = field(default_factory=dict)

    @property
    def sum_seconds(self) -> float:
        """Total step time if the DAG had been run serially."""

        return sum(self.step_seconds.values())


def _coerce_spans(source: object) -> list[Span]:
    """Accept a span iterable or anything carrying a ``spans`` attribute."""

    spans = getattr(source, "spans", source)
    if callable(spans):  # a SpanTracker
        spans = spans()
    return [sp for sp in spans if isinstance(sp, Span)]


def _finish(
    name: str,
    edges: dict[str, tuple[str, ...]],
    durations: dict[str, float],
    finish: dict[str, float],
    via: dict[str, str | None],
) -> float:
    """Finish time of ``name`` on its longest upstream chain (memoized in ``finish``)."""
    if name in finish:
        return finish[name]
    finish[name] = 0.0  # cycle guard; well-formed DAGs never hit it
    best_dep: str | None = None
    best = 0.0
    for dep in edges[name]:
        candidate = _finish(dep, edges, durations, finish, via)
        if candidate > best:
            best, best_dep = candidate, dep
    via[name] = best_dep
    finish[name] = best + durations[name]
    return finish[name]


def critical_path(source: Iterable[Span] | object) -> CriticalPath:
    """Extract the longest dependency chain of step spans.

    Step spans carry their declared ``depends_on`` edges as an
    attribute, so the critical path is the longest weighted path over
    that DAG — the wall-clock floor no amount of extra concurrency can
    beat.  Spans of other kinds are ignored.
    """

    spans = _coerce_spans(source)
    steps: dict[str, Span] = {}
    for sp in spans:
        if sp.kind == "step" and sp.label:
            steps[sp.label] = sp

    durations = {
        name: sp.duration_seconds or 0.0 for name, sp in steps.items()
    }
    edges = {
        name: tuple(
            dep
            for dep in (sp.attributes.get("depends_on") or ())
            if dep in steps
        )
        for name, sp in steps.items()
    }

    if not steps:
        return CriticalPath(steps=(), seconds=0.0, step_seconds={})

    finish: dict[str, float] = {}
    via: dict[str, str | None] = {}
    for name in steps:
        _finish(name, edges, durations, finish, via)
    tail = max(steps, key=finish.__getitem__)
    chain: list[str] = []
    cursor: str | None = tail
    while cursor is not None:
        chain.append(cursor)
        cursor = via.get(cursor)
    chain.reverse()
    return CriticalPath(
        steps=tuple(chain),
        seconds=finish[tail],
        step_seconds=dict(durations),
    )


def _render_one(
    sp: Span,
    children: Mapping[int | None, list[Span]],
    depth: int,
    origin: float,
    total: float,
    lines: list[str],
) -> None:
    start = sp.start - origin
    duration = sp.duration_seconds
    if total > 0:
        lead = int(_BAR_WIDTH * start / total)
        span_cells = int(_BAR_WIDTH * (duration or 0.0) / total)
        bar = " " * min(lead, _BAR_WIDTH) + "█" * max(
            1, min(span_cells, _BAR_WIDTH - min(lead, _BAR_WIDTH))
        )
    else:
        bar = "█"
    shown = f"{duration * 1000:.1f}ms" if duration is not None else "open"
    name = f"{'  ' * depth}{sp.kind}:{sp.label}" if sp.label else f"{'  ' * depth}{sp.kind}"
    lines.append(f"{name:<44.44} |{bar:<{_BAR_WIDTH}}| {shown:>10} {sp.status}")
    for child in children.get(sp.span_id, []):
        _render_one(child, children, depth + 1, origin, total, lines)


def render_timeline(source: Iterable[Span] | object) -> str:
    """Render a span tree as an indented text waterfall.

    Accepts a list of spans, a :class:`SpanTracker`, or a report object
    exposing ``spans`` (such as ``WorkflowReport`` after a traced run).
    Bars are positioned proportionally inside the overall time window.
    """

    spans = _coerce_spans(source)
    if not spans:
        return "(no spans)"

    by_id = {sp.span_id: sp for sp in spans}
    children: dict[int | None, list[Span]] = {}
    roots: list[Span] = []
    for sp in spans:
        if sp.parent_id in by_id:
            children.setdefault(sp.parent_id, []).append(sp)
        else:
            roots.append(sp)
    for bucket in children.values():
        bucket.sort(key=lambda sp: (sp.start, sp.span_id))
    roots.sort(key=lambda sp: (sp.start, sp.span_id))

    origin = min(sp.start for sp in spans)
    horizon = max((sp.end if sp.end is not None else sp.start) for sp in spans)
    total = max(0.0, horizon - origin)

    lines: list[str] = []
    for root in roots:
        _render_one(root, children, 0, origin, total, lines)
    return "\n".join(lines)


def summarize_path(path: CriticalPath) -> str:
    """One-line description of the dominating chain, for notes and logs."""

    if not path.steps:
        return "critical path: (none)"
    chain = " -> ".join(path.steps)
    return (
        f"critical path: {chain} = {path.seconds:.3f}s "
        f"(serial sum {path.sum_seconds:.3f}s)"
    )
