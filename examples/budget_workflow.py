"""Multi-step workflow under one budget: filter, then sort, then top-k.

Run with:  python examples/budget_workflow.py

Shows the engine-level plumbing the paper's vision requires: one
PromptSession (shared cache, tracker, budget) spanning a filtering step, a
sorting step, and a top-k step, with multi-model quality control on the
filter.  The pipeline is declared once, as a PipelineSpec whose steps name
what they depend on, and the engine runs it.
"""

from __future__ import annotations

from repro import DeclarativeEngine, PromptSession, SimulatedLLM
from repro.core.budget import Budget
from repro.core.spec import PipelineSpec, PipelineStep
from repro.data import FLAVORS, flavor_oracle
from repro.operators import FilterOperator, SortOperator, TopKOperator

CRITERION = "chocolatey"
PREDICATE = "is a dessert flavor containing chocolate or cocoa"


def main() -> None:
    oracle = flavor_oracle()
    oracle.register_predicate(
        PREDICATE, lambda flavor: oracle.score(flavor, CRITERION) >= 5.0
    )
    session = PromptSession(SimulatedLLM(oracle, seed=11), budget=Budget(limit=1.0))

    def filter_step(session_, results):
        operator = FilterOperator(session_.client(), PREDICATE, model="sim-gpt-3.5-turbo")
        result = operator.run(
            list(FLAVORS),
            strategy="ensemble_vote",
            models=["sim-gpt-3.5-turbo", "sim-claude", "sim-small"],
        )
        return result.kept

    def sort_step(session_, results):
        operator = SortOperator(session_.client(), CRITERION, model="sim-gpt-3.5-turbo")
        return operator.run(results["filter"], strategy="rating").order

    def top_step(session_, results):
        operator = TopKOperator(session_.client(), CRITERION, model="sim-gpt-3.5-turbo")
        return operator.run(results["sort"], k=3, strategy="hybrid_rating_comparison").top_items

    pipeline = PipelineSpec(
        name="chocolate-shortlist",
        steps=[
            PipelineStep(
                "filter", run=filter_step, description="keep chocolate-forward flavors"
            ),
            PipelineStep(
                "sort", run=sort_step, depends_on=("filter",), description="rank the survivors"
            ),
            PipelineStep(
                "top", run=top_step, depends_on=("sort",), description="pick the top three"
            ),
        ],
    )
    report = DeclarativeEngine.from_session(session).run_pipeline(pipeline)

    print(f"flavors kept by the filter : {len(report.results['filter'])} of {len(FLAVORS)}")
    print(f"top three flavors          : {report.results['top']}")
    print(f"total prompt tokens        : {report.total_prompt_tokens}")
    print(f"total completion tokens    : {report.total_completion_tokens}")
    print(f"total cost                 : ${report.total_cost:.5f} (budget $1.00)")
    print(f"cache hit rate             : {session.cache.stats.hit_rate:.2%}")


if __name__ == "__main__":
    main()
