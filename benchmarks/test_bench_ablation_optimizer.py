"""Ablation C — validation-sample strategy selection under a budget (Section 4).

The engine labels a small validation sample, measures every candidate sorting
strategy's accuracy on it, prices each at the planner's quote for the full
dataset, and picks a strategy.
The ablation checks that the recommendation moves from cheap strategies to the
expensive pairwise strategy as the budget loosens, and that the auto-selected
strategy's accuracy tracks the best affordable candidate.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.core.engine import DeclarativeEngine
from repro.core.spec import SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.llm.simulated import SimulatedLLM
from repro.metrics.ranking import kendall_tau_b

# Dollar budgets chosen so that (under the default price table) only the
# single-prompt strategy fits the first one, the linear rating strategy also
# fits the second, and everything including O(n^2) pairwise fits the third.
BUDGETS = (0.001, 0.005, 0.2)


def run_optimizer_ablation(seed: int = 0) -> dict[float, dict[str, float]]:
    results: dict[float, dict[str, float]] = {}
    truth = list(FLAVORS)
    for budget in BUDGETS:
        engine = DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=seed))
        # The labelled validation sample spans the whole chocolateyness range
        # (every third flavor) so that it is representative of the full list.
        spec = SortSpec(
            items=truth,
            criterion=CHOCOLATEY,
            strategy="auto",
            validation_order=truth[::3],
            budget_dollars=budget,
        )
        result = engine.sort(spec)
        order = list(result.order) + [item for item in truth if item not in set(result.order)]
        results[budget] = {
            "strategy": result.strategy,
            "tau": kendall_tau_b(order, truth),
            "spent": engine.spent_dollars,
        }
    return results


def test_ablation_strategy_optimizer(benchmark):
    measured = benchmark.pedantic(run_optimizer_ablation, rounds=1, iterations=1)

    rows = [
        [f"${budget:.4f}", values["strategy"], f"{values['tau']:.3f}", f"${values['spent']:.5f}"]
        for budget, values in measured.items()
    ]
    print_table(
        "Ablation C: budget-driven strategy selection for the 20-flavor sort",
        ["budget", "chosen strategy", "tau", "dollars spent"],
        rows,
    )

    cheap_choice = measured[BUDGETS[0]]["strategy"]
    rich_choice = measured[BUDGETS[-1]]["strategy"]
    # A tight budget rules out the quadratic pairwise strategy entirely.
    assert cheap_choice in {"single_prompt", "rating"}
    # A loose budget affords the finer-grained strategies; the selector picks
    # whichever scored best on the labelled validation sample.
    assert rich_choice in {"rating", "pairwise"}
    # More budget never hurts accuracy (beyond validation-sample noise).
    assert measured[BUDGETS[-1]]["tau"] >= measured[BUDGETS[0]]["tau"] - 0.1
