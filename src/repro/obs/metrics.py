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

A table of families declared ahead of use (``_declare``) is built on first
use or read, and reads as if it had been built at the declaration.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

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
        self._value = 0  # int increments keep it an exact int

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
    per_unit = 1

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
        **options: Any,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._children: dict[tuple[str, ...], _Child] = {}
        vars(self).update(options)  # the kind's own: ``per_unit``, ``buckets``

    def labels(self, **labels: str) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            return self._child(key)

    def _child(self, key: tuple[str, ...]) -> _Child:
        """Get or create the child at ``key``; caller holds the lock."""
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _make_child(self) -> _Child:
        return self.child_class(self._lock)

    def _default(self) -> _Child:
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labelled; call .labels() first")
        return self.labels()

    def samples(self) -> list[tuple[str, str, float]]:
        """(suffix, label-block, value) triples; caller holds the lock."""
        return [  # a counter's or a gauge's: its value in units
            ("", _format_labels(self.labelnames, key), child._value / self.per_unit)
            for key, child in sorted(self._children.items())
        ]


class Counter(_Family):
    """Counts in whole sub-units when ``per_unit`` > 1 (int increments of
    n$, say), exposed divided into units (dollars)."""

    kind = "counter"
    child_class = CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]


class Gauge(_Family):
    kind = "gauge"
    child_class = GaugeChild

    def set(self, value: float) -> None:
        self._default().set(value)  # type: ignore[attr-defined]

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)  # type: ignore[attr-defined]


class Histogram(_Family):
    kind = "histogram"
    buckets: tuple[float, ...]

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
        # Declared (``_declare``): tables whose families may be unregistered,
        # (table, leading label values) whose pre-bound children may be unbound.
        self._unbuilt: list[Sequence[Any]] = []
        self._unbound: list[tuple[Sequence[Any], tuple[str, ...]]] = []

    def _declare(self, table: Sequence[Any], leading: tuple[str, ...]) -> None:
        """Declare ``table``'s families, built on first use or read (rows: ``name``, ``kind``,
        ``help_text``, ``labelnames``, ``options``, ``prebound`` values after ``leading``).
        A registry already holding families builds them now, raising ``ValueError`` on a clash."""
        with self._lock:
            if self._families:
                self._build(table)
            elif table not in self._unbuilt:
                self._unbuilt.append(table)
            if (table, leading) not in self._unbound:
                self._unbound.append((table, leading))

    def _build(self, table: Sequence[Any]) -> None:
        """Register ``table``'s unregistered families, checking the rest; lock held."""
        for row in table:
            family = self._families.get(row.name)
            if family is None:
                self._families[row.name] = row.kind(
                    row.name, row.help_text, row.labelnames, self._lock, **row.options
                )
            elif type(family) is not row.kind or family.labelnames != row.labelnames:
                raise ValueError(
                    f"metric {row.name!r} already registered with a different kind or label set"
                )
            elif getattr(family, "buckets", None) != row.options.get("buckets"):
                raise ValueError(f"metric {row.name!r} already registered with different buckets")

    def _materialise(self, children: bool) -> None:
        """Build what is declared and unbuilt, pre-bound children with ``children``; lock held."""
        for table in self._unbuilt:
            self._build(table)
        self._unbuilt.clear()
        if children:
            for table, leading in self._unbound:
                for row in table:
                    for values in row.prebound:
                        self._families[row.name]._child(leading + values)
            self._unbound.clear()

    def _bind(self, name: str, key: tuple[str, ...] | None) -> Any:
        """The declared family ``name``, or its child at ``key``, built if need be."""
        with self._lock:
            self._materialise(children=False)
            family = self._families[name]
            return family if key is None else family._child(key)

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
            self._materialise(children=False)
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
        self, name: str, help_text: str = "", labelnames: Iterable[str] = (), *, per_unit: int = 1
    ) -> Counter:
        family = self._register(Counter, name, help_text, labelnames, per_unit=per_unit)
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
            self._materialise(children=True)
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
            self._materialise(children=True)
            for name, family in self._families.items():
                out[name] = {
                    f"{suffix}{labels}": value
                    for suffix, labels, value in family.samples()
                }
        return out
