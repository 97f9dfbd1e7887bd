"""A stdlib-only operational metrics registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — each a *family* keyed by metric name that fans out
into labelled children via :meth:`labels`.  One lock, owned by the
registry and shared by every child, makes increments and
:meth:`MetricsRegistry.render` mutually consistent: a scrape never sees
a histogram whose ``_sum`` and ``_count`` disagree.

``render`` emits Prometheus text exposition format 0.0.4 with
deterministic ordering (families by name, samples by label values) so
the output can be pinned by a golden test.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Child:
    """A single labelled time series; all mutation goes through the shared lock."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class CounterChild(_Child):
    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeChild(_Child):
    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramChild(_Child):
    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]) -> None:
        super().__init__(lock)
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self.observe_many(((value, 1),))

    def observe_many(self, observations: Iterable[tuple[float, int]]) -> None:
        """``(value, count)`` pairs — *count* observations of *value*, as the
        calls of one dispatch share its duration — under one crossing."""
        buckets, counts = self._buckets, self._counts
        with self._lock:
            for value, count in observations:
                self._sum += value * count
                self._count += count
                counts[bisect_left(buckets, value)] += count  # the first bound >= value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class _Family:
    kind = "untyped"
    child_class: type[_Child] = _Child

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._children: dict[tuple[str, ...], _Child] = {}

    def labels(self, **labels: str) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> _Child:
        return self.child_class(self._lock)

    def _default(self) -> _Child:
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labelled; call .labels() first")
        return self.labels()

    def samples(self) -> list[tuple[str, str, float]]:
        """(suffix, label-block, value) triples; caller holds the lock."""

        raise NotImplementedError


class Counter(_Family):
    kind = "counter"
    child_class = CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]

    def samples(self) -> list[tuple[str, str, float]]:
        return [
            ("", _format_labels(self.labelnames, key), child._value)  # type: ignore[attr-defined]
            for key, child in sorted(self._children.items())
        ]


class Gauge(_Family):
    kind = "gauge"
    child_class = GaugeChild

    def set(self, value: float) -> None:
        self._default().set(value)  # type: ignore[attr-defined]

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)  # type: ignore[attr-defined]

    def samples(self) -> list[tuple[str, str, float]]:
        return [
            ("", _format_labels(self.labelnames, key), child._value)  # type: ignore[attr-defined]
            for key, child in sorted(self._children.items())
        ]


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self.buckets = buckets

    def observe(self, value: float) -> None:
        self._default().observe(value)  # type: ignore[attr-defined]

    def _make_child(self) -> _Child:
        return HistogramChild(self._lock, self.buckets)

    def samples(self) -> list[tuple[str, str, float]]:
        out: list[tuple[str, str, float]] = []
        for key, child in sorted(self._children.items()):
            assert isinstance(child, HistogramChild)
            cumulative = 0
            for bound, count in zip(child._buckets, child._counts):
                cumulative += count
                labels = _format_labels(
                    self.labelnames + ("le",), key + (_format_value(bound),)
                )
                out.append(("_bucket", labels, float(cumulative)))
            cumulative += child._counts[-1]
            labels = _format_labels(self.labelnames + ("le",), key + ("+Inf",))
            out.append(("_bucket", labels, float(cumulative)))
            plain = _format_labels(self.labelnames, key)
            out.append(("_sum", plain, child._sum))
            out.append(("_count", plain, float(child._count)))
        return out


class MetricsRegistry:
    """Get-or-create registry of metric families sharing one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(
        self,
        factory: type[_Family],
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        **extra: object,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name: {label!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not factory or existing.labelnames != names:
                    raise ValueError(
                        f"metric {name!r} already registered with a different "
                        f"kind or label set"
                    )
                return existing
            family = factory(name, help_text, names, self._lock, **extra)  # type: ignore[arg-type]
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        family = self._register(Counter, name, help_text, labelnames)
        assert isinstance(family, Counter)
        return family

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        family = self._register(Gauge, name, help_text, labelnames)
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        family = self._register(
            Histogram, name, help_text, labelnames, buckets=bounds
        )
        assert isinstance(family, Histogram)
        if family.buckets != bounds:
            raise ValueError(f"metric {name!r} already registered with different buckets")
        return family

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4, deterministically ordered."""

        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help_text:
                    lines.append(f"# HELP {name} {family.help_text}")
                lines.append(f"# TYPE {name} {family.kind}")
                for suffix, labels, value in family.samples():
                    lines.append(f"{name}{suffix}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Mapping[str, dict[str, float]]:
        """Plain-dict view for tests: family name -> label-block -> value."""

        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for name, family in self._families.items():
                out[name] = {
                    f"{suffix}{labels}": value
                    for suffix, labels, value in family.samples()
                }
        return out
