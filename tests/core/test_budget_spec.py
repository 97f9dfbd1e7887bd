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
        assert budget.remaining == pytest.approx(0.6)
        assert budget.can_afford(0.6)
        assert not budget.can_afford(0.61)

    def test_exceeding_raises_and_records(self):
        budget = Budget(limit=0.5)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge(0.7)
        assert excinfo.value.spent == pytest.approx(0.7)
        assert budget.spent == pytest.approx(0.7)

    def test_a_zero_charge_past_the_limit_records_and_raises_nothing(self):
        # The state a budget stop leaves: the breaching charge is recorded.
        budget = Budget(limit=1.0, spent=1.2)
        budget.charge(0.0)
        assert budget.spent == 1.2

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(limit=-1.0)
        with pytest.raises(ConfigurationError):
            Budget(limit=1.0).charge(-0.1)

    def test_reserve_and_absorb(self):
        budget = Budget(limit=2.0)
        child = budget.reserve("step-1", 0.5)
        assert child.limit == pytest.approx(1.0)
        child.charge(0.8)
        budget.absorb(child)
        assert budget.spent == pytest.approx(0.8)

    def test_reserve_from_unlimited_budget(self):
        child = Budget().reserve("step", 0.5)
        assert child.unlimited

    def test_invalid_reservation_fraction(self):
        with pytest.raises(ConfigurationError):
            Budget(limit=1.0).reserve("step", 0.0)


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


class TestBudgetLease:
    def test_lease_measures_only_its_own_charges(self):
        parent = Budget(limit=1.0)
        left = parent.lease(0.4)
        right = parent.lease(0.4)
        left.charge(0.3)
        # Sibling leases are independent: right has spent nothing.
        assert left.spent == pytest.approx(0.3)
        assert right.spent == 0.0
        assert right.remaining == pytest.approx(0.4)
        # Every dollar still reached the shared parent.
        assert parent.spent == pytest.approx(0.3)

    def test_lease_caps_even_an_unlimited_parent(self):
        parent = Budget()
        lease = parent.lease(0.01)
        assert not lease.unlimited
        assert lease.remaining == pytest.approx(0.01)
        with pytest.raises(BudgetExceededError):
            lease.charge(0.02)
        # The overshooting charge is still recorded, like Budget.charge.
        assert lease.spent == pytest.approx(0.02)
        assert parent.spent == pytest.approx(0.02)

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
        assert lease.remaining == pytest.approx(0.01)
        assert not lease.can_afford(0.02)

    def test_nested_leases_forward_to_the_root(self):
        root = Budget(limit=1.0)
        cap = root.lease(0.5)
        step = cap.lease(0.2)
        step.charge(0.1)
        assert step.spent == pytest.approx(0.1)
        assert cap.spent == pytest.approx(0.1)
        assert root.spent == pytest.approx(0.1)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget().lease(-0.1)
