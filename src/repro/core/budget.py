"""Monetary budgets for LLM workflows.

The declarative vision lets a user say "stay under $X"; the :class:`Budget`
object tracks spending against that limit and raises
:class:`~repro.exceptions.BudgetExceededError` the moment an operation would
push past it.  :meth:`Budget.lease` layers a child budget over it, which is
how the engine splits one overall budget across the steps of a workflow.

Money is counted in whole nano-dollars (see :mod:`repro.tokenizer.cost`):
``limit``, ``spent`` and ``remaining`` are float dollars read from the
integers, and every comparison is on the integers.
"""

from __future__ import annotations

import contextvars
import threading

from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.tokenizer.cost import to_dollars, to_nanos


class Budget:
    """A dollar budget with spend tracking, optionally under a parent budget.

    A child (see :meth:`lease`) counts its own spend, forwards every charge
    to its parent, and has left the smaller of its own and its parent's
    remainder.  Charges may arrive from executor worker threads; each
    counter is updated under its own lock, so no charge is lost.

    Args:
        limit: the maximum spend in dollars; ``None`` means unlimited.  A
            negative one, or one with no whole n$ count (see
            :func:`~repro.tokenizer.cost.to_nanos`), is a ``ConfigurationError``.
        parent: the budget every charge is forwarded to, if any.
    """

    def __init__(self, limit: float | None = None, parent: Budget | None = None) -> None:
        if limit is not None and limit < 0:
            raise ConfigurationError("budget limit must be non-negative")
        self.parent = parent
        self._limit = None if limit is None else to_nanos(limit)
        self._spent = 0
        self._lock = threading.Lock()

    @property
    def unlimited(self) -> bool:
        """Whether no limit binds here or on any parent."""
        return self._left() is None

    @property
    def limit(self) -> float | None:
        """This budget's own limit in dollars (``None``: unlimited)."""
        return None if self._limit is None else to_dollars(self._limit)

    @property
    def spent(self) -> float:
        """Dollars charged to this budget (a child's charges included)."""
        return to_dollars(self._spent)

    @property
    def remaining(self) -> float:
        """Dollars left here and on every parent (infinity when unlimited)."""
        left = self._left()
        return float("inf") if left is None else to_dollars(left)

    @property
    def exhausted(self) -> bool:
        """Whether a limit here or on a parent has nothing left: the one "spent" test."""
        return self._left() == 0

    def _left(self) -> int | None:
        """Whole n$ left under this budget and every parent (``None``: no limit)."""
        left = None if self._limit is None else max(0, self._limit - self._spent)
        if self.parent is not None:
            above = self.parent._left()
            if left is None or (above is not None and above < left):
                left = above
        return left

    def can_afford(self, amount: float) -> bool:
        """Whether ``amount`` dollars fit in what is left here and on every parent."""
        left = self._left()
        return left is None or to_nanos(amount) <= left

    def check(self) -> None:
        """Raise :class:`~repro.exceptions.BudgetExceededError` if :attr:`exhausted`."""
        if self.exhausted:
            node = self
            # Report the limit that binds: the nearest budget that is spent.
            while node._limit is None or node._spent < node._limit:
                node = node.parent
            raise BudgetExceededError(node.spent, node.limit)

    def charge(self, amount: float) -> None:
        """Record a spend of ``amount`` dollars, rounded to the nearest n$.

        A convenience for callers that count in dollars; the runtime charges
        whole n$ through :meth:`charge_nanos`, so a charge under half a n$
        records nothing here.
        """
        self.charge_nanos(to_nanos(amount))

    def charge_nanos(self, nanos: int) -> None:
        """Record a spend of ``nanos`` n$ here and on every parent.

        Raises:
            BudgetExceededError: if the charge pushes past this limit or a
                parent's.  The charge is still recorded so callers can report
                the overshoot.  A zero charge (a cache hit) records nothing
                and never raises.
        """
        if nanos < 0:
            raise ConfigurationError("cannot charge a negative amount")
        if not nanos:
            return
        with self._lock:
            self._spent += nanos
            spent = self._spent
        if self.parent is not None:
            self.parent.charge_nanos(nanos)
        if self._limit is not None and spent > self._limit:
            raise BudgetExceededError(to_dollars(spent), to_dollars(self._limit))

    def lease(self, allocation: float) -> Budget:
        """A child budget capped at ``allocation`` dollars over this one.

        Every charge to the child both counts against the allocation and is
        forwarded here, so this budget sees all spending while the child
        measures only the charges routed through it.  The pipeline scheduler
        gives each step a lease and charges that step's LLM calls through
        it, so a step's batches stop once its apportioned share is gone — and
        concurrent sibling steps never count against each other.  A lease
        constrains even when this budget is unlimited (that is how a
        pipeline-level ``budget_dollars`` cap works on a session with no
        global limit).
        """
        return Budget(allocation, parent=self)


#: What the calls being made are charged to (for the gate): set per call, by
#: ``PromptSession._issue`` alone.
CHARGE_TARGET: contextvars.ContextVar[Budget | None] = contextvars.ContextVar(
    "repro_charge_target", default=None
)
