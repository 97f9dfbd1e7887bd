"""Workload profiles: durable :class:`~repro.core.physical.RuntimeStats`.

The adaptive planner gets sharper the more it has observed — filter
selectivities, dedup survivor ratios, blocked-pair rates, per-strategy call
ratios — but those observations historically died with the process.  A
:class:`WorkloadProfile` is the serialised form of a session's
``RuntimeStats``: saved after a run, loaded into the next session's fresh
stats store, so the *first* quote of a warm-started session is priced from
the previous run's observations.

Loading merges with **decay weighting**: the saved counts are scaled by
``decay`` (default 0.5) before being added, so a profile carried across
many sessions fades geometrically — each generation's observations count
half as much as the next, and a drifted workload re-converges on fresh
evidence instead of being anchored to stale history.  Because the scaling
multiplies numerator and denominator alike, the *ratios* a loaded profile
reports are exactly the ratios that were saved: a cold session that loads a
profile quotes identically to the warm session that wrote it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.exceptions import StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.physical import RuntimeStats

#: Bump when the exported state layout changes.
PROFILE_VERSION = 1

#: Default weight applied to saved observations when merging into a fresh
#: session, chosen so two generations of history weigh less than one fresh
#: run of comparable size.
DEFAULT_DECAY = 0.5

#: The payload's one encoder (``json.dumps`` builds one per call).
_PAYLOAD = json.JSONEncoder(sort_keys=True)


@dataclass
class WorkloadProfile:
    """A saved snapshot of one session's observed execution statistics."""

    state: dict[str, Any] = field(default_factory=dict)
    version: int = PROFILE_VERSION

    @classmethod
    def from_stats(cls, stats: "RuntimeStats") -> "WorkloadProfile":
        """Snapshot a live stats store."""
        return cls(state=stats.export_state())

    def apply_to(self, stats: "RuntimeStats", *, decay: float = DEFAULT_DECAY) -> None:
        """Merge this profile into ``stats``, scaling saved counts by ``decay``."""
        if not 0.0 < decay <= 1.0:
            raise StoreError("profile decay must be in (0, 1]")
        stats.merge_state(self.state, weight=decay)

    def to_json(self) -> str:
        return _PAYLOAD.encode({"version": self.version, "state": self.state})

    @classmethod
    def from_json(cls, payload: str) -> "WorkloadProfile":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise StoreError(f"malformed workload profile payload: {exc}") from exc
        version = int(data.get("version", 0))
        if version > PROFILE_VERSION:
            raise StoreError(
                f"workload profile version {version} is newer than this "
                f"library's {PROFILE_VERSION}"
            )
        return cls(state=dict(data.get("state", {})), version=version)
