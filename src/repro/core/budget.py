"""Monetary budgets for LLM workflows.

The declarative vision lets a user say "stay under $X"; the :class:`Budget`
object tracks spending against that limit and raises
:class:`~repro.exceptions.BudgetExceededError` the moment an operation would
push past it.  It can also *reserve* portions of the budget up front, which is
how the engine splits one overall budget across the steps of a workflow.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field

from repro.exceptions import BudgetExceededError, ConfigurationError


@dataclass
class Budget:
    """A dollar budget with spend tracking and reservations.

    Attributes:
        limit: the maximum spend in dollars; ``None`` means unlimited.
        spent: dollars spent so far.
    """

    limit: float | None = None
    spent: float = 0.0
    _reserved: dict[str, float] = field(default_factory=dict, repr=False)
    # Charges may arrive from the BatchExecutor's worker threads; the
    # read-modify-write on ``spent`` must not lose updates.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    # Set on children created by reserve(): which parent holds this child's
    # reservation, and under what name — absorb() uses them to give the hold
    # back exactly once.
    _reservation_parent: "Budget | None" = field(default=None, repr=False, compare=False)
    _reservation_name: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise ConfigurationError("budget limit must be non-negative")

    @property
    def unlimited(self) -> bool:
        """Whether this budget has no limit."""
        return self.limit is None

    @property
    def reserved(self) -> float:
        """Dollars currently held by outstanding reservations."""
        with self._lock:
            return sum(self._reserved.values())

    @property
    def remaining(self) -> float:
        """Dollars left before the limit (infinity when unlimited).

        Outstanding reservations are held out: money promised to a child
        budget is not available here until the child is absorbed (or
        released), so two sibling ``reserve`` calls carve their fractions
        from successively smaller pools instead of double-counting the same
        dollars.
        """
        if self.limit is None:
            return float("inf")
        with self._lock:
            return max(0.0, self.limit - self.spent - sum(self._reserved.values()))

    def can_afford(self, amount: float) -> bool:
        """Whether spending ``amount`` more would stay within the limit.

        Reserved dollars are spoken for, so they count against affordability
        exactly like spent ones.
        """
        if self.limit is None:
            return True
        with self._lock:
            committed = self.spent + sum(self._reserved.values())
        return committed + amount <= self.limit + 1e-12

    def charge(self, amount: float) -> None:
        """Record a spend of ``amount`` dollars.

        Raises:
            BudgetExceededError: if the charge would exceed the limit.  The
                charge is still recorded so callers can report the overshoot.
                A zero charge (a cache hit) records nothing and never raises.
        """
        if amount < 0:
            raise ConfigurationError("cannot charge a negative amount")
        if amount == 0.0:
            return
        with self._lock:
            self.spent += amount
            spent = self.spent
        if self.limit is not None and spent > self.limit + 1e-12:
            raise BudgetExceededError(spent, self.limit)

    def reserve(self, name: str, fraction: float) -> "Budget":
        """Carve out a named sub-budget as a fraction of the remaining budget.

        The reserved amount is *held*: it leaves :attr:`remaining` (and
        :meth:`can_afford`) immediately, so sibling reservations split what
        is genuinely left rather than each carving their fraction from the
        same pool and jointly over-committing the limit.  The hold is given
        back when the child is passed to :meth:`absorb` (exchanged for the
        child's real spend) or dropped via :meth:`release`.  Re-reserving an
        existing name releases the old hold first — the replacement's size
        is computed against a pool that no longer contains it — instead of
        silently leaking the superseded reservation forever.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("reservation fraction must be in (0, 1]")
        if self.limit is None:
            return Budget(limit=None)
        with self._lock:
            self._reserved.pop(name, None)
            available = max(0.0, self.limit - self.spent - sum(self._reserved.values()))
            amount = available * fraction
            self._reserved[name] = amount
        child = Budget(limit=amount)
        child._reservation_parent = self
        child._reservation_name = name
        return child

    def release(self, name: str) -> float:
        """Drop a named reservation, returning the held dollars to the pool.

        Returns the amount released (0.0 for an unknown name — releasing
        twice is harmless).
        """
        with self._lock:
            return self._reserved.pop(name, 0.0)

    def absorb(self, child: "Budget") -> None:
        """Fold a sub-budget's spending back into this budget.

        A child created by :meth:`reserve` gives its hold back first, so the
        parent is charged the child's *actual* spend instead of paying the
        spend on top of the still-held reservation.
        """
        name = getattr(child, "_reservation_name", None)
        if name is not None and getattr(child, "_reservation_parent", None) is self:
            self.release(name)
            child._reservation_name = None
        self.charge(child.spent)

    def lease(self, allocation: float) -> "BudgetLease":
        """A spend cap of ``allocation`` dollars layered over this budget.

        Unlike :meth:`reserve`, a lease stays attached to its parent: every
        ``lease.charge`` both counts against the allocation and is forwarded
        here, so the shared budget sees all spending while the lease measures
        only the charges routed through it.  The pipeline scheduler gives
        each step a lease and charges that step's LLM calls through it, so a
        step's batches stop once its apportioned share is gone — and
        concurrent sibling steps never count against each other.  A lease
        constrains even when the parent is unlimited (that is how a
        pipeline-level ``budget_dollars`` cap works on a session with no
        global limit).
        """
        return BudgetLease(self, allocation)


class BudgetLease:
    """A spend cap over a parent :class:`Budget` (or another lease).

    Exposes the same surface an executor or session checks (``unlimited``,
    ``remaining``, ``spent``, ``limit``, ``charge``).  Every charge is
    recorded against the lease's own counter *and* forwarded to the parent,
    so a lease only ever measures the spending routed through it: concurrent
    sibling steps each charging their own lease never count against each
    other, while the shared parent still sees every dollar.
    """

    def __init__(self, parent: "Budget | BudgetLease", allocation: float) -> None:
        if allocation < 0:
            raise ConfigurationError("lease allocation must be non-negative")
        self.parent = parent
        self.allocation = allocation
        self._own_spent = 0.0
        self._lock = threading.Lock()

    @property
    def unlimited(self) -> bool:
        """Always limited: the allocation caps spending even under an unlimited parent."""
        return False

    @property
    def limit(self) -> float:
        return self.allocation

    @property
    def spent(self) -> float:
        """Dollars charged through this lease."""
        return self._own_spent

    @property
    def remaining(self) -> float:
        """Dollars left under both the allocation and the parent's limit."""
        own = max(0.0, self.allocation - self._own_spent)
        return min(self.parent.remaining, own)

    def can_afford(self, amount: float) -> bool:
        """Whether ``amount`` more fits under the allocation and the parent."""
        return (
            self._own_spent + amount <= self.allocation + 1e-12
            and self.parent.can_afford(amount)
        )

    def charge(self, amount: float) -> None:
        """Record a spend against the lease and forward it to the parent.

        Raises:
            BudgetExceededError: if the charge pushes past the allocation
                (or the parent's limit).  Like :meth:`Budget.charge`, the
                charge is still recorded so callers can report overshoot,
                and a zero charge records nothing.
        """
        if amount < 0:
            raise ConfigurationError("cannot charge a negative amount")
        if amount == 0.0:
            return
        with self._lock:
            self._own_spent += amount
            own = self._own_spent
        self.parent.charge(amount)
        if own > self.allocation + 1e-12:
            raise BudgetExceededError(own, self.allocation)

    def lease(self, allocation: float) -> "BudgetLease":
        """A sub-lease (pipeline cap → per-step share nests this way)."""
        return BudgetLease(self, allocation)


#: What the calls being made are charged to (for the gate): set per bag and per call.
CHARGE_TARGET: contextvars.ContextVar[Budget | BudgetLease | None] = contextvars.ContextVar(
    "repro_charge_target", default=None
)
