"""Budget accounting under nested leases and concurrent charging.

A multi-threaded hammer over sibling leases sharing one parent (the parent's
total equals the sum of the lease spends exactly, and each breaching lease
raises exactly once), and a Hypothesis state machine over one budget tree:
it leases at random, charges from threads, and checks after every step that
each budget's spend is its own charges plus its children's, to the n$, that
a budget no charge raised through is within its limit, and that ``remaining``
is the smallest remainder on its path to the root.
"""

from __future__ import annotations

import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from repro.core.budget import Budget
from repro.exceptions import BudgetExceededError
from repro.tokenizer.cost import to_dollars


class TestLeaseHammer:
    """Sibling leases charged from many threads over one parent."""

    LEASES = 16
    CHARGE = 0.01
    ALLOCATION = 0.10  # 10 charges fit, the 11th breaches

    def test_parent_total_equals_sum_of_lease_spends(self):
        parent = Budget(limit=float(self.LEASES))  # roomy: leases breach first
        leases = [parent.lease(self.ALLOCATION) for _ in range(self.LEASES)]
        breaches = [0] * self.LEASES
        barrier = threading.Barrier(self.LEASES)

        def hammer(index: int, lease: Budget) -> None:
            barrier.wait()
            # Charge until the lease stops us, exactly like an executor's
            # unit-task loop; the first breach ends the loop.
            for _ in range(1000):
                try:
                    lease.charge(self.CHARGE)
                except BudgetExceededError:
                    breaches[index] += 1
                    break

        threads = [
            threading.Thread(target=hammer, args=(index, lease))
            for index, lease in enumerate(leases)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Every breaching lease raised exactly once, every charge that the
        # leases recorded reached the parent, and nothing was double-counted.
        assert breaches == [1] * self.LEASES
        assert parent.spent == 1.76  # 16 leases of 0.11, to the n$
        for lease in leases:
            # 10 in-allocation charges plus the one recorded breaching charge.
            assert lease.spent == 0.11

    def test_concurrent_charges_on_one_budget_never_lose_updates(self):
        budget = Budget(limit=10_000.0)
        threads = 8
        per_thread = 500
        barrier = threading.Barrier(threads)

        def charge() -> None:
            barrier.wait()
            for _ in range(per_thread):
                budget.charge(0.001)

        workers = [threading.Thread(target=charge) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert budget.spent == 4.0


NANOS = st.integers(min_value=0, max_value=5_000)


class BudgetTree(RuleBasedStateMachine):
    """One root budget, leases nested under any budget, charges from threads."""

    budgets = Bundle("budgets")

    def __init__(self) -> None:
        super().__init__()
        self.nodes: list[Budget] = []
        self.limits: dict[int, int | None] = {}  # id -> own limit in n$
        self.own: dict[int, int] = {}  # id -> n$ charged to it directly
        self.children: dict[int, list[Budget]] = {}
        self.raised: set[int] = set()  # ids a charge raised through

    def _add(self, budget: Budget, limit: int | None) -> Budget:
        self.nodes.append(budget)
        self.limits[id(budget)] = limit
        self.own[id(budget)] = 0
        self.children[id(budget)] = []
        return budget

    @initialize(target=budgets, limit=st.none() | NANOS)
    def root(self, limit: int | None) -> Budget:
        return self._add(Budget(None if limit is None else to_dollars(limit)), limit)

    @rule(target=budgets, parent=budgets, allocation=NANOS)
    def lease(self, parent: Budget, allocation: int) -> Budget:
        child = self._add(parent.lease(to_dollars(allocation)), allocation)
        self.children[id(parent)].append(child)
        return child

    @rule(
        budget=budgets,
        charges=st.lists(st.integers(min_value=0, max_value=800), min_size=1, max_size=12),
        threads=st.integers(min_value=1, max_value=4),
    )
    def charge(self, budget: Budget, charges: list[int], threads: int) -> None:
        raised: list[int] = []

        def work(part: list[int]) -> None:
            for nanos in part:
                try:
                    budget.charge_nanos(nanos)
                except BudgetExceededError:
                    raised.append(nanos)

        workers = [
            threading.Thread(target=work, args=(charges[start::threads],))
            for start in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        self.own[id(budget)] += sum(charges)
        if raised:
            node: Budget | None = budget
            while node is not None:
                self.raised.add(id(node))
                node = node.parent

    def _total(self, budget: Budget) -> int:
        return self.own[id(budget)] + sum(map(self._total, self.children[id(budget)]))

    def _left(self, budget: Budget) -> int | None:
        limit = self.limits[id(budget)]
        left = None if limit is None else max(0, limit - self._total(budget))
        above = None if budget.parent is None else self._left(budget.parent)
        return above if left is None else left if above is None else min(left, above)

    @invariant()
    def spend_is_own_charges_plus_childrens(self) -> None:
        for budget in self.nodes:
            assert budget.spent == to_dollars(self._total(budget))

    @invariant()
    def within_the_limit_unless_a_charge_raised(self) -> None:
        for budget in self.nodes:
            limit = self.limits[id(budget)]
            if limit is not None and id(budget) not in self.raised:
                assert self._total(budget) <= limit

    @invariant()
    def remaining_is_the_tightest_on_the_path(self) -> None:
        for budget in self.nodes:
            left = self._left(budget)
            assert budget.remaining == (float("inf") if left is None else to_dollars(left))
            assert budget.exhausted == (left == 0)
            assert budget.unlimited == (left is None)


BudgetTree.TestCase.settings = settings(max_examples=60, stateful_step_count=20, deadline=None)
TestBudgetTree = BudgetTree.TestCase
