"""Tests for budgets and declarative task specs."""

from __future__ import annotations

import pytest

from repro.core.budget import Budget
from repro.core.spec import ImputeSpec, ResolveSpec, SortSpec
from repro.data.products import generate_restaurant_dataset
from repro.exceptions import BudgetExceededError, ConfigurationError, SpecError


class TestBudget:
    def test_unlimited_by_default(self):
        budget = Budget()
        assert budget.unlimited
        assert budget.remaining == float("inf")
        budget.charge(1_000_000.0)  # never raises

    def test_charge_and_remaining(self):
        budget = Budget(limit=1.0)
        budget.charge(0.4)
        assert budget.remaining == 0.6
        assert budget.can_afford(0.6)
        assert not budget.can_afford(0.61)
        assert not budget.exhausted
        budget.charge(0.6)
        assert budget.remaining == 0.0 and budget.exhausted

    def test_sums_are_exact_decimals(self):
        # 0.1 + 0.2 is 0.30000000000000004 in floats; in n$ it is 0.3.
        budget = Budget(limit=0.3)
        budget.charge(0.1)
        budget.charge(0.2)
        assert (budget.spent, budget.remaining, budget.exhausted) == (0.3, 0.0, True)

    def test_exceeding_raises_and_records(self):
        budget = Budget(limit=0.5)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge(0.7)
        assert excinfo.value.spent == 0.7
        assert budget.spent == 0.7

    def test_a_zero_charge_past_the_limit_records_and_raises_nothing(self):
        # The state a budget stop leaves: the breaching charge is recorded.
        budget = Budget(limit=1.0)
        with pytest.raises(BudgetExceededError):
            budget.charge(1.2)
        budget.charge(0.0)
        assert budget.spent == 1.2

    def test_check_raises_only_once_nothing_is_left(self):
        budget = Budget(limit=0.5)
        budget.check()
        budget.charge(0.5)
        with pytest.raises(BudgetExceededError):
            budget.check()
        Budget().check()  # an unlimited budget is never spent

    def test_limit_reads_back_as_float_dollars(self):
        assert Budget(limit=0.3).limit == 0.3
        assert type(Budget(limit=2).limit) is float
        assert Budget().limit is None
        # A limit under half a n$ rounds to zero: nothing may be spent.
        assert Budget(limit=4e-10).exhausted

    def test_the_error_reports_the_exact_overshoot(self):
        budget = Budget(limit=0.25)
        budget.charge(0.1)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge(0.2)
        # 0.1 + 0.2 in floats would report 0.30000000000000004.
        assert (excinfo.value.spent, excinfo.value.limit) == (0.3, 0.25)

    def test_charges_count_whole_nano_dollars(self):
        budget = Budget(limit=1e-8)
        for _ in range(3):
            budget.charge_nanos(1)
        budget.charge(4e-10)  # under half a n$: records nothing
        assert budget.spent == 3e-9 and budget.remaining == 7e-9
        with pytest.raises(ConfigurationError):
            budget.charge_nanos(-1)

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(limit=-1.0)
        # Nor a limit with no whole n$ count: not finite, or past ~1.8e299.
        for limit in (float("inf"), float("nan"), 1e300):
            with pytest.raises(ConfigurationError):
                Budget(limit=limit)
            with pytest.raises(ConfigurationError):
                Budget().lease(limit)
        with pytest.raises(ConfigurationError):
            Budget(limit=1.0).charge(-0.1)


class TestSortSpec:
    def test_valid_spec(self):
        SortSpec(items=["a", "b", "c"], criterion="size").validate()

    def test_missing_criterion(self):
        with pytest.raises(SpecError):
            SortSpec(items=["a", "b"]).validate()

    def test_empty_items_rejected_single_item_allowed(self):
        with pytest.raises(SpecError):
            SortSpec(items=[], criterion="size").validate()
        # One item is a valid degenerate sort (the operator short-circuits
        # without LLM calls), which compiled query factories rely on.
        SortSpec(items=["a"], criterion="size").validate()

    def test_validation_items_must_be_subset(self):
        with pytest.raises(SpecError):
            SortSpec(items=["a", "b"], criterion="size", validation_order=["z"]).validate()

    def test_invalid_budget_and_accuracy(self):
        with pytest.raises(SpecError):
            SortSpec(items=["a", "b"], criterion="size", budget_dollars=-1).validate()
        for dollars in (float("inf"), float("nan"), 1e300):
            with pytest.raises(SpecError):
                SortSpec(items=["a", "b"], criterion="size", budget_dollars=dollars).validate()
        with pytest.raises(SpecError):
            SortSpec(items=["a", "b"], criterion="size", accuracy_target=1.5).validate()


class TestResolveSpec:
    def test_valid_with_pairs(self):
        ResolveSpec(pairs=[("a", "b")]).validate()

    def test_needs_records_or_pairs(self):
        with pytest.raises(SpecError):
            ResolveSpec().validate()

    def test_negative_k_rejected(self):
        with pytest.raises(SpecError):
            ResolveSpec(pairs=[("a", "b")], neighbors_k=-1).validate()


class TestImputeSpec:
    def test_valid_spec(self):
        data = generate_restaurant_dataset(50, seed=1)
        ImputeSpec(data=data, n_examples=3).validate()

    def test_missing_data(self):
        with pytest.raises(SpecError):
            ImputeSpec().validate()

    def test_negative_examples(self):
        data = generate_restaurant_dataset(50, seed=1)
        with pytest.raises(SpecError):
            ImputeSpec(data=data, n_examples=-1).validate()


class TestLease:
    def test_lease_measures_only_its_own_charges(self):
        parent = Budget(limit=1.0)
        left = parent.lease(0.4)
        right = parent.lease(0.4)
        left.charge(0.3)
        # Sibling leases are independent: right has spent nothing.
        assert left.spent == 0.3
        assert right.spent == 0.0
        assert right.remaining == 0.4
        # Every dollar still reached the shared parent.
        assert parent.spent == 0.3

    def test_lease_caps_even_an_unlimited_parent(self):
        parent = Budget()
        lease = parent.lease(0.01)
        assert not lease.unlimited
        assert lease.remaining == 0.01
        with pytest.raises(BudgetExceededError):
            lease.charge(0.02)
        # The overshooting charge is still recorded, on the parent too.
        assert lease.spent == 0.02
        assert parent.spent == 0.02

    def test_a_zero_charge_past_the_allocation_records_and_raises_nothing(self):
        parent = Budget()
        lease = parent.lease(0.5)
        with pytest.raises(BudgetExceededError):
            lease.charge(0.6)
        lease.charge(0.0)
        assert (lease.spent, parent.spent) == (0.6, 0.6)

    def test_lease_respects_the_parent_limit(self):
        parent = Budget(limit=0.05)
        parent.charge(0.04)
        lease = parent.lease(0.5)
        assert lease.remaining == 0.01
        assert lease.can_afford(0.01) and not lease.can_afford(0.02)
        parent.charge(0.01)
        assert lease.exhausted and lease.spent == 0.0

    def test_nested_leases_forward_to_the_root(self):
        root = Budget(limit=1.0)
        cap = root.lease(0.5)
        step = cap.lease(0.2)
        step.charge(0.1)
        assert step.spent == cap.spent == root.spent == 0.1

    def test_negative_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget().lease(-0.1)

    def test_sibling_leases_cannot_jointly_overcommit_the_parent(self):
        parent = Budget(limit=0.5)
        left, right = parent.lease(0.4), parent.lease(0.4)
        left.charge(0.3)
        # Each lease has room, but the parent does not: its limit raises.
        with pytest.raises(BudgetExceededError) as excinfo:
            right.charge(0.3)
        assert (excinfo.value.spent, excinfo.value.limit) == (0.6, 0.5)
        assert (left.spent, right.spent, parent.spent) == (0.3, 0.3, 0.6)
        assert left.exhausted and left.remaining == 0.0

    def test_an_exhausted_parent_stops_an_unspent_lease(self):
        parent = Budget(limit=1.0)
        lease = parent.lease(0.5)
        parent.charge(1.0)
        assert lease.spent == 0.0 and lease.exhausted
        with pytest.raises(BudgetExceededError):
            lease.check()

    def test_a_child_without_its_own_limit_reports_the_parents(self):
        parent = Budget(limit=1.0)
        child = Budget(parent=parent)
        assert not child.unlimited and child.remaining == 1.0
        child.charge(0.25)
        parent.charge(0.75)
        with pytest.raises(BudgetExceededError) as excinfo:
            child.check()
        assert (excinfo.value.spent, excinfo.value.limit) == (1.0, 1.0)

    def test_a_lease_under_a_spent_parent_reports_the_parents_limit(self):
        root = Budget(limit=1.0)
        cap = Budget(parent=root)  # no limit of its own
        step = root.lease(0.5)
        under_cap = cap.lease(0.5)
        step.charge(0.1)
        root.charge(0.9)
        # Neither lease is spent; the root's limit is the one that binds.
        for lease in (step, under_cap):
            with pytest.raises(BudgetExceededError) as excinfo:
                lease.check()
            assert (excinfo.value.spent, excinfo.value.limit) == (1.0, 1.0)
