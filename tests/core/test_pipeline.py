"""Tests for the DAG pipeline engine (`repro.core.workflow` + friends).

Three batteries:

* **Equivalence** — the same pipeline expressed as a linear chain and as a
  DAG, executed at scheduler concurrency 1 and 4, produces element-wise
  identical step results at temperature 0.
* **Validation** — cycle detection, unknown dependencies, duplicate names,
  and malformed pipeline steps all raise :class:`SpecError`.
* **Budget** — the scheduler apportions the remaining dollars across
  pending steps (quote-weighted) and stops cleanly mid-pipeline, reporting
  partial results instead of raising.

Plus the golden end-to-end regression for the paper's block → resolve →
transitivity-repair entity-resolution pipeline, pinning clusters, call
counts, and cost against the seeded simulator.
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.transitivity import MatchGraph
from repro.core import (
    Budget,
    PipelineQuote,
    PipelineSpec,
    PipelineStep,
    Workflow,
    topological_waves,
    transitive_dependencies,
)
from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.spec import ResolveSpec, SortSpec
from repro.data.citations import generate_citation_corpus
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import SpecError
from repro.llm.prompts import RATING
from repro.llm.simulated import SimulatedLLM
from repro.operators.sort import SortOperator
from repro.proxies.blocking import EmbeddingBlocker
from repro.tokenizer.cost import to_dollars, to_nanos
from tests.doubles import EchoClient, LatencyClient, hop

MODEL = "sim-gpt-3.5-turbo"
# Pinned in CI (see .github/workflows/ci.yml) so the equivalence suite runs
# the same scheduler fan-out on every runner; locally defaults to 4.
SCHEDULER_CONCURRENCIES = (1, int(os.environ.get("REPRO_TEST_THREADS", "4")))

LEFT = list(FLAVORS[:8])
RIGHT = list(FLAVORS[8:16])


def _flavor_engine(seed: int = 21, **kwargs) -> DeclarativeEngine:
    return DeclarativeEngine(
        SimulatedLLM(flavor_oracle(), seed=seed), default_model=MODEL, **kwargs
    )


def _steps(report, status: str) -> list[str]:
    return [name for name, step in report.step_reports.items() if step.status == status]


def _merge(session, inputs):
    return list(inputs["left"].order) + list(inputs["right"].order)


def _two_branch_pipeline() -> PipelineSpec:
    """Two independent sort branches feeding one merge step."""
    return PipelineSpec(
        name="two-branch",
        steps=[
            PipelineStep("left", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")),
            PipelineStep(
                "right", task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
            ),
            PipelineStep("merge", run=_merge, depends_on=("left", "right")),
        ],
    )


def _chain_pipeline() -> PipelineSpec:
    """The same work forced into a linear chain."""
    return PipelineSpec(
        name="chain",
        steps=[
            PipelineStep("left", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")),
            PipelineStep(
                "right",
                task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating"),
                depends_on=("left",),
            ),
            PipelineStep("merge", run=_merge, depends_on=("right",)),
        ],
    )


class TestDagLinearEquivalence:
    """DAG and linear-chain execution agree element-wise at temperature 0."""

    def _step_outputs(self, report):
        return (
            list(report.results["left"].order),
            dict(report.results["left"].scores),
            list(report.results["right"].order),
            dict(report.results["right"].scores),
            list(report.results["merge"]),
        )

    @pytest.mark.parametrize("concurrency", SCHEDULER_CONCURRENCIES)
    def test_dag_matches_linear_chain(self, concurrency):
        chain_report = _flavor_engine().run_pipeline(_chain_pipeline(), max_concurrency=1)
        dag_report = _flavor_engine().run_pipeline(
            _two_branch_pipeline(), max_concurrency=concurrency
        )
        assert self._step_outputs(dag_report) == self._step_outputs(chain_report)
        assert dag_report.total_calls == chain_report.total_calls

    def test_dag_matches_linear_chain_behind_a_waiting_backend(self):
        """Calls that wait make the scheduler run a wave's steps on separate
        threads (at zero latency one thread drains the wave): operators stay
        sequential, so any difference would be the pipeline scheduling's."""

        def run(pipeline, concurrency):
            engine = DeclarativeEngine(
                LatencyClient(SimulatedLLM(flavor_oracle(), seed=21)),
                default_model=MODEL,
                max_concurrency=1,
            )
            return engine.run_pipeline(pipeline, max_concurrency=concurrency)

        chain_report = run(_chain_pipeline(), 1)
        dag_report = run(_two_branch_pipeline(), 2)
        assert self._step_outputs(dag_report) == self._step_outputs(chain_report)
        assert dag_report.total_calls == chain_report.total_calls == len(LEFT) + len(RIGHT)
        assert (len(chain_report.waves), len(dag_report.waves)) == (3, 2)

    def test_dag_concurrency_levels_agree(self):
        reports = [
            _flavor_engine().run_pipeline(_two_branch_pipeline(), max_concurrency=concurrency)
            for concurrency in SCHEDULER_CONCURRENCIES
        ]
        outputs = [self._step_outputs(report) for report in reports]
        assert all(output == outputs[0] for output in outputs)
        assert all(report.total_calls == reports[0].total_calls for report in reports)

    def test_dag_matches_legacy_callable_chain(self):
        """An explicit chain of callable steps is the degenerate DAG."""
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=21))

        def sort_step(items):
            def step(session_, inputs):
                operator = SortOperator(session_.client(), CHOCOLATEY, model=MODEL)
                return operator.run(items, strategy="rating")

            return step

        chain = PipelineSpec(
            name="callable-chain",
            steps=[
                PipelineStep("left", run=sort_step(LEFT)),
                PipelineStep("right", run=sort_step(RIGHT), depends_on=("left",)),
                PipelineStep("merge", run=_merge, depends_on=("right",)),
            ],
        )
        chain_report = Workflow.from_pipeline(chain).execute(session)
        dag_report = _flavor_engine().run_pipeline(_two_branch_pipeline(), max_concurrency=4)
        assert self._step_outputs(dag_report) == self._step_outputs(chain_report)

    def test_waves_and_step_order_are_deterministic(self):
        report = _flavor_engine().run_pipeline(_two_branch_pipeline(), max_concurrency=4)
        assert report.waves == [["left", "right"], ["merge"]]
        assert report.step_order == ["left", "right", "merge"]

    def test_inputs_are_transitive_dependencies(self):
        """A step sees every transitive upstream result, keyed by name."""
        seen = {}

        def tail(session_, inputs):
            seen.update(inputs)
            return "done"

        workflow = Workflow.from_pipeline(
            PipelineSpec(
                name="diamond",
                steps=[
                    PipelineStep("a", run=lambda s, i: 1),
                    PipelineStep("b", run=lambda s, i: i["a"] + 1, depends_on=("a",)),
                    PipelineStep("c", run=lambda s, i: i["a"] + 2, depends_on=("a",)),
                    PipelineStep("tail", run=tail, depends_on=("b", "c")),
                ],
            )
        )
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=1))
        report = workflow.execute(session, max_concurrency=4)
        assert report.results["tail"] == "done"
        assert seen == {"a": 1, "b": 2, "c": 3}


class TestPipelineValidation:
    def test_cycle_rejected(self):
        pipeline = PipelineSpec(
            steps=[
                PipelineStep("a", run=lambda s, i: 1, depends_on=("b",)),
                PipelineStep("b", run=lambda s, i: 2, depends_on=("a",)),
            ]
        )
        with pytest.raises(SpecError, match="cycle"):
            pipeline.validate()

    def test_self_cycle_rejected(self):
        pipeline = PipelineSpec(
            steps=[PipelineStep("a", run=lambda s, i: 1, depends_on=("a",))]
        )
        with pytest.raises(SpecError, match="cycle"):
            pipeline.waves()
        with pytest.raises(SpecError, match="cycle"):
            Workflow.from_pipeline(pipeline)

    def test_unknown_dependency_rejected(self):
        pipeline = PipelineSpec(
            steps=[PipelineStep("a", run=lambda s, i: 1, depends_on=("ghost",))]
        )
        with pytest.raises(SpecError, match="unknown"):
            pipeline.validate()

    def test_duplicate_names_rejected(self):
        pipeline = PipelineSpec(
            steps=[
                PipelineStep("a", run=lambda s, i: 1),
                PipelineStep("a", run=lambda s, i: 2),
            ]
        )
        with pytest.raises(SpecError, match="duplicate"):
            pipeline.validate()
        mixed = PipelineSpec(
            steps=[
                PipelineStep("a", task=SortSpec(items=LEFT, criterion=CHOCOLATEY)),
                PipelineStep("a", run=lambda s, i: 1),
            ]
        )
        with pytest.raises(SpecError, match="duplicate"):
            Workflow.from_pipeline(mixed)

    def test_deep_chains_do_not_overflow(self):
        """A thousands-deep chain declared leaf-first must not recurse out."""
        n = 1500
        deps = {f"s{i}": [f"s{i - 1}"] for i in range(n - 1, 0, -1)}
        deps["s0"] = []
        closures = transitive_dependencies(deps)
        assert len(closures[f"s{n - 1}"]) == n - 1
        assert len(topological_waves(deps)) == n

    def test_static_garbage_task_rejected_at_validate_time(self):
        """A non-spec, non-callable task must fail before any money is spent."""
        with pytest.raises(SpecError, match="TaskSpec or a spec factory"):
            PipelineStep("bad", task="resolve-me").validate()
        with pytest.raises(SpecError, match="must be callable"):
            PipelineStep("bad", run="not-callable").validate()

    def test_coroutine_run_steps_are_rejected_before_any_call(self):
        """A step runs on a thread, which would store its coroutine unawaited."""

        async def step(session, inputs):
            return session.complete("never sent").text

        with pytest.raises(SpecError, match="coroutine function"):
            PipelineStep("async", run=step).validate()
        engine = _flavor_engine()
        pipeline = PipelineSpec(
            steps=[
                PipelineStep("first", run=lambda session, inputs: 1),
                PipelineStep("async", run=step, depends_on=("first",)),
            ]
        )
        with pytest.raises(SpecError, match="'async' run= must not be a coroutine"):
            engine.run_pipeline(pipeline)
        assert engine.session.tracker.usage.calls == 0

    def test_step_needs_exactly_one_of_task_and_run(self):
        with pytest.raises(SpecError, match="exactly one"):
            PipelineStep("a").validate()
        with pytest.raises(SpecError, match="exactly one"):
            PipelineStep(
                "a", task=SortSpec(items=LEFT, criterion=CHOCOLATEY), run=lambda s, i: 1
            ).validate()

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SpecError, match="no steps"):
            PipelineSpec().validate()
        with pytest.raises(SpecError, match="no steps"):
            Workflow.from_pipeline(PipelineSpec())

    def test_spec_steps_need_an_engine(self):
        workflow = Workflow.from_pipeline(
            PipelineSpec(
                steps=[PipelineStep("sort", task=SortSpec(items=LEFT, criterion=CHOCOLATEY))]
            )
        )
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=1))
        with pytest.raises(SpecError, match="run_pipeline"):
            workflow.execute(session)

    def test_factory_must_produce_a_spec(self):
        pipeline = PipelineSpec(
            steps=[PipelineStep("bad", task=lambda inputs: "not a spec")]
        )
        with pytest.raises(SpecError, match="expected a TaskSpec"):
            _flavor_engine().run_pipeline(pipeline)


class TestBudgetApportionment:
    def test_allocations_are_quote_weighted(self):
        pipeline = PipelineSpec(
            steps=[
                PipelineStep(
                    "cheap", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "dear", task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="pairwise")
                ),
            ]
        )
        engine = _flavor_engine(budget=Budget(limit=1.0))
        report = engine.run_pipeline(pipeline)
        assert not report.stopped_early
        cheap = report.step_reports["cheap"].allocation
        dear = report.step_reports["dear"].allocation
        assert cheap is not None and dear is not None
        # 28 pairwise comparisons dwarf 8 rating calls in the quote.
        assert dear > cheap
        assert cheap + dear == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.integers(0, 10**10),
        weights=st.lists(st.floats(0.001, 1000.0), min_size=1, max_size=8),
    )
    def test_shares_are_whole_nano_dollars_that_never_exceed_the_remainder(self, left, weights):
        names = [f"s{index}" for index in range(len(weights))]
        steps = {name: SimpleNamespace(task=object()) for name in names}
        quote = SimpleNamespace(
            steps={name: SimpleNamespace(dollars=w) for name, w in zip(names, weights)}
        )
        shares = Workflow._apportion(names, steps, Budget(to_dollars(left)), quote)
        nanos = [to_nanos(share) for share in shares.values()]
        assert all(to_dollars(n) == share for n, share in zip(nanos, shares.values()))
        # Rounded down: together no more than is left, each at most 1 n$ short.
        assert left - len(nanos) <= sum(nanos) <= left

    def test_unlimited_budget_skips_apportionment(self):
        report = _flavor_engine().run_pipeline(_two_branch_pipeline())
        assert all(step.allocation is None for step in report.step_reports.values())

    def test_mid_pipeline_budget_stop_is_clean(self):
        engine = _flavor_engine(budget=Budget(limit=0.0009))
        report = engine.run_pipeline(_chain_pipeline())
        assert report.stopped_early
        assert report.stop_reason
        statuses = {name: step.status for name, step in report.step_reports.items()}
        # The first spec step hits its lease mid-batch; everything downstream
        # is never dispatched.
        assert statuses["left"] == "stopped"
        assert statuses["right"] == "skipped"
        assert statuses["merge"] == "skipped"
        assert _steps(report, "stopped") == ["left"]
        assert _steps(report, "skipped") == ["right", "merge"]
        # The stopped step's partial spend is still accounted per step.
        assert report.step_reports["left"].cost > 0.0
        assert report.step_reports["left"].cost == pytest.approx(report.total_cost)
        # The stop happened between unit tasks, not after blowing the limit.
        assert engine.spent_dollars <= 0.0009 + 1e-3

    def test_sequential_siblings_do_not_share_a_lease_window(self):
        """Regression: leases used to snapshot at wave build, so an earlier
        sibling's spending counted against every later step's allocation and
        an affordable pipeline stopped early at concurrency 1."""
        probe = _flavor_engine()
        one_branch = probe.sort(
            SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
        ).cost
        pipeline = PipelineSpec(
            steps=[
                PipelineStep(
                    "left", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "right", task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
                ),
            ]
        )
        engine = _flavor_engine(budget=Budget(limit=2.4 * one_branch))
        report = engine.run_pipeline(pipeline, max_concurrency=1)
        assert not report.stopped_early
        assert _steps(report, "completed") == ["left", "right"]

    def test_pipeline_budget_dollars_caps_an_unlimited_session(self):
        """A PipelineSpec-level cap binds even with no session limit."""
        pipeline = PipelineSpec(
            budget_dollars=0.0005,
            steps=[
                PipelineStep(
                    "left", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "right",
                    task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="pairwise"),
                    depends_on=("left",),
                ),
            ],
        )
        engine = _flavor_engine()  # unlimited session budget
        report = engine.run_pipeline(pipeline)
        assert report.stopped_early
        assert engine.spent_dollars < 0.002  # stopped near the cap, not at the full cost
        # The dispatched step was apportioned a share of the pipeline cap.
        assert report.step_reports["left"].allocation is not None
        assert report.step_reports["left"].allocation <= 0.0005

    def test_concurrent_siblings_have_independent_leases(self):
        """Regression: leases used to watch the shared spend counter, so two
        concurrent branches each stopped once their *combined* spend hit one
        allocation, stranding half the budget at max_concurrency > 1."""
        probe = _flavor_engine()
        one_branch = probe.sort(
            SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
        ).cost
        pipeline = PipelineSpec(
            steps=[
                PipelineStep(
                    "left", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "right", task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
                ),
            ]
        )
        engine = _flavor_engine(budget=Budget(limit=2.4 * one_branch))
        report = engine.run_pipeline(pipeline, max_concurrency=2)
        assert not report.stopped_early
        assert sorted(_steps(report, "completed")) == ["left", "right"]

    def test_stopped_branches_release_their_share(self):
        """Regression: a stopped step's unreachable dependents used to keep
        reserving budget, diluting the live branches' leases."""
        pipeline = PipelineSpec(
            steps=[
                PipelineStep(
                    "starved", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "dependent",
                    task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating"),
                    depends_on=("starved",),
                ),
                PipelineStep(
                    "live", task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
                ),
            ]
        )
        probe = _flavor_engine()
        branch_cost = probe.sort(
            SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
        ).cost
        engine = _flavor_engine(budget=Budget(limit=1.3 * branch_cost))
        real = engine.quote_pipeline(pipeline)
        skewed = PipelineQuote(
            pipeline=real.pipeline,
            steps={
                # "starved" gets a near-zero share and stops immediately;
                # "dependent" is then unreachable and must not hold onto its
                # share — "live" (which costs ~branch_cost) needs the rest.
                "starved": replace(
                    real.steps["starved"], dollars=real.steps["starved"].dollars / 10000
                ),
                "dependent": real.steps["dependent"],
                "live": real.steps["live"],
            },
            unquoted=real.unquoted,
        )
        report = engine.run_pipeline(pipeline, quote=skewed, max_concurrency=1)
        assert report.step_reports["starved"].status == "stopped"
        assert report.step_reports["dependent"].status == "skipped"
        assert report.step_reports["live"].status == "completed"

    def test_run_only_steps_get_no_budget_share(self):
        """A callable step can't charge a lease, so it must not hoard one."""
        pipeline = PipelineSpec(
            steps=[
                PipelineStep("noop", run=lambda s, i: None),
                PipelineStep(
                    "sort", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
            ]
        )
        engine = _flavor_engine(budget=Budget(limit=0.01))
        report = engine.run_pipeline(pipeline)
        assert not report.stopped_early
        assert report.step_reports["noop"].allocation is None
        # The whole remaining budget goes to the only step that can spend it.
        assert report.step_reports["sort"].allocation == pytest.approx(0.01)

    def test_lease_stop_is_contained_to_its_branch(self):
        """A step that exhausts its lease blocks only its dependents;
        independent branches keep running on their own allocations."""
        pipeline = PipelineSpec(
            steps=[
                PipelineStep(
                    "starved", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "healthy", task=SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
                ),
                PipelineStep(
                    "tail", run=lambda s, i: len(i["starved"].order), depends_on=("starved",)
                ),
            ]
        )
        probe = _flavor_engine()
        branch_cost = probe.sort(
            SortSpec(items=RIGHT, criterion=CHOCOLATEY, strategy="rating")
        ).cost
        engine = _flavor_engine(budget=Budget(limit=2.2 * branch_cost))
        real = engine.quote_pipeline(pipeline)
        # Doctor the quote so "starved" is apportioned almost nothing while
        # the shared budget comfortably covers "healthy".
        skewed = PipelineQuote(
            pipeline=real.pipeline,
            steps={
                "starved": replace(
                    real.steps["starved"], dollars=real.steps["starved"].dollars / 1000
                ),
                "healthy": real.steps["healthy"],
            },
            unquoted=real.unquoted,
        )
        report = engine.run_pipeline(pipeline, quote=skewed, max_concurrency=1)
        assert report.stopped_early
        assert report.step_reports["starved"].status == "stopped"
        assert report.step_reports["healthy"].status == "completed"
        assert report.step_reports["tail"].status == "skipped"
        assert "healthy" in report.results

    def test_budget_dollars_caps_callable_steps_too(self):
        """Regression: raw session calls inside a run= step used to charge
        the session budget directly and silently bypass the workflow cap."""

        def chatty(session_, inputs):
            for flavor in LEFT:
                session_.complete(RATING.render([flavor], (CHOCOLATEY,)))
            return True

        workflow = Workflow.from_pipeline(
            PipelineSpec(
                name="capped",
                steps=[PipelineStep("chatty", run=chatty)],
                budget_dollars=1e-6,
            )
        )
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=21))
        report = workflow.execute(session)
        assert session.budget.unlimited  # only the pipeline carried a cap
        assert report.stopped_early
        assert report.step_reports["chatty"].status == "stopped"
        # The step was cut off after its first over-cap call, not after all 8.
        assert report.total_calls < len(LEFT)

    def test_exhausted_budget_stops_before_the_first_wave(self):
        budget = Budget(limit=0.001)
        budget.charge(0.001)
        engine = _flavor_engine(budget=budget)
        report = engine.run_pipeline(_two_branch_pipeline())
        assert report.stopped_early
        assert report.stop_reason.startswith("budget exhausted before")
        assert _steps(report, "completed") == []
        assert report.total_calls == 0

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_a_step_that_finds_the_budget_spent_when_it_starts_does_not_run(self, concurrency):
        """A ``run=`` step spends the session budget ahead of a spec step in
        its wave: the spec step and its dependent are never dispatched."""

        def spend(session_, inputs):
            session_.budget.charge(session_.budget.remaining)
            return "spent"

        engine = _flavor_engine(budget=Budget(limit=0.001))
        pipeline = PipelineSpec(
            name="spent-ahead",
            steps=[
                PipelineStep("spend", run=spend),
                PipelineStep("rank", task=SortSpec(items=LEFT, criterion=CHOCOLATEY, strategy="rating")),
                PipelineStep("merge", run=lambda session_, inputs: True, depends_on=("rank",)),
            ],
        )
        report = engine.run_pipeline(pipeline, max_concurrency=concurrency)
        assert report.waves == [["spend", "rank"], ["merge"]]
        assert _steps(report, "completed") == ["spend"]
        assert _steps(report, "skipped") == ["rank", "merge"]
        assert report.stopped_early and report.stop_reason == (
            "budget exhausted before step(s) 'rank', 'merge': spent $0.001000 of $0.001000"
        )
        assert report.step_reports["rank"].calls == 0
        assert report.step_reports["rank"].span_id is None
        assert engine.session.tracker.usage.calls == 0
        steps = [span.label for span in engine.session.spans.spans() if span.kind == "step"]
        assert steps == ["spend"]

    def test_failure_in_a_step_raises_after_finalizing(self):
        def boom(session_, inputs):
            raise RuntimeError("step exploded")

        workflow = Workflow.from_pipeline(
            PipelineSpec(name="fails", steps=[PipelineStep("boom", run=boom)])
        )
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=1))
        with pytest.raises(RuntimeError, match="step exploded"):
            workflow.execute(session)


class TestGoldenEntityResolutionPipeline:
    """Golden end-to-end regression: block → resolve → transitivity repair.

    Pinned against the seeded simulator: the blocked candidate-pair count,
    the LLM call count, the reported cost, and the final clusters (including
    one transitivity flip).  Any scheduler, operator, or simulator change
    that shifts these shows up here first.
    """

    SEED = 5
    EXPECTED_CANDIDATE_PAIRS = 39
    EXPECTED_CALLS = 39
    EXPECTED_COST = 0.0097845
    EXPECTED_FLIPPED = 1
    EXPECTED_CLUSTERS = [
        [0, 1],
        [2, 3],
        [4, 5, 6],
        [7],
        [8],
        [9, 11],
        [10],
        [12, 13],
        [14, 15, 16],
        [17, 19],
        [18],
    ]

    def _pipeline(self, texts):
        def block_step(session, inputs):
            blocking = EmbeddingBlocker(k=3).block(texts)
            return [(texts[i], texts[j]) for i, j in blocking.candidate_pairs]

        def resolve_spec(inputs):
            return ResolveSpec(pairs=inputs["block"], strategy="pairwise")

        def repair_step(session, inputs):
            graph = MatchGraph()
            for text in texts:
                graph.add_node(text)
            for judgment in inputs["resolve"].judgments:
                if judgment.is_duplicate:
                    graph.add_match(judgment.left, judgment.right)
                else:
                    graph.add_non_match(judgment.left, judgment.right)
            index_of = {text: index for index, text in enumerate(texts)}
            clusters = sorted(
                sorted(index_of[text] for text in component)
                for component in graph.components()
            )
            return {"clusters": clusters, "flipped": len(graph.conflicts())}

        return PipelineSpec(
            name="entity-resolution",
            steps=[
                PipelineStep("block", run=block_step, description="embedding blocking"),
                PipelineStep(
                    "resolve",
                    task=resolve_spec,
                    depends_on=("block",),
                    description="LLM duplicate checks",
                ),
                PipelineStep(
                    "repair",
                    run=repair_step,
                    depends_on=("resolve",),
                    description="transitive-closure repair",
                ),
            ],
        )

    @pytest.mark.parametrize("concurrency", SCHEDULER_CONCURRENCIES)
    def test_golden_run(self, concurrency):
        corpus = generate_citation_corpus(
            n_entities=8, duplicates_per_entity=(2, 3), n_pairs=30, seed=self.SEED
        )
        texts = corpus.texts()
        engine = DeclarativeEngine(
            SimulatedLLM(corpus.oracle(), seed=self.SEED), default_model=MODEL
        )
        report = engine.run_pipeline(self._pipeline(texts), max_concurrency=concurrency)

        assert len(report.results["block"]) == self.EXPECTED_CANDIDATE_PAIRS
        assert report.step_reports["resolve"].calls == self.EXPECTED_CALLS
        assert report.total_calls == self.EXPECTED_CALLS
        assert report.total_cost == pytest.approx(self.EXPECTED_COST)
        assert report.step_reports["resolve"].cost == pytest.approx(self.EXPECTED_COST)
        assert report.results["repair"]["clusters"] == self.EXPECTED_CLUSTERS
        assert report.results["repair"]["flipped"] == self.EXPECTED_FLIPPED
        assert report.step_order == ["block", "resolve", "repair"]


def _inline_chain() -> PipelineSpec:
    """``one`` -> ``two``: one echo call, then a step that reads it."""
    return PipelineSpec(
        name="inline",
        steps=[
            PipelineStep("one", run=lambda s, inputs: s.complete("hello").text),
            PipelineStep("two", run=lambda s, inputs: inputs["one"] + "!", depends_on=("one",)),
        ],
    )


class TestFromAnEventLoop:
    """A pipeline run from inside ``asyncio.run`` is one hop to a worker thread."""

    def test_a_hopped_run_reports_what_a_direct_run_does(self):
        direct = _flavor_engine(max_concurrency=4).run_pipeline(_two_branch_pipeline())
        hopped = hop(_flavor_engine(max_concurrency=4).run_pipeline, _two_branch_pipeline())
        assert hopped.results["merge"] == direct.results["merge"]
        assert hopped.results["left"].order == direct.results["left"].order
        assert hopped.waves == direct.waves
        assert {name: step.status for name, step in hopped.step_reports.items()} == {
            name: step.status for name, step in direct.step_reports.items()
        }
        assert hopped.total_calls == direct.total_calls
        assert hopped.total_cost == pytest.approx(direct.total_cost)

    def test_a_workflow_executes_from_inside_a_running_loop(self):
        session = PromptSession(EchoClient(), max_concurrency=4)
        report = hop(Workflow.from_pipeline(_inline_chain()).execute, session)
        assert report.results["two"] == "echo:hello!"
        assert report.step_order == ["one", "two"]

    def test_on_step_runs_on_the_run_thread_not_the_loops(self):
        # Why the service crosses back with ``call_soon_threadsafe``: the
        # observer is called on the thread the run hopped to.
        seen: list[tuple[str, int]] = []

        async def job() -> int:
            await asyncio.to_thread(
                _flavor_engine().run_pipeline,
                _inline_chain(),
                on_step=lambda step: seen.append((step.name, threading.get_ident())),
            )
            return threading.get_ident()

        loop_thread = asyncio.run(job())
        assert [name for name, _ in seen] == ["one", "two"]
        assert loop_thread not in {ident for _, ident in seen}


class TestStopEvent:
    """``stop`` is checked before each wave: once set, no further wave starts."""

    def test_a_set_event_starts_no_step(self):
        stop = threading.Event()
        stop.set()
        engine = _flavor_engine()
        report = engine.run_pipeline(_two_branch_pipeline(), stop=stop)
        assert report.stopped_early
        assert report.stop_reason == "run stopped before step(s) 'left', 'right', 'merge'"
        assert _steps(report, "completed") == [] and report.results == {}
        assert report.total_calls == 0 and engine.session.tracker.calls == 0

    def test_a_stop_after_the_first_wave_keeps_its_results(self):
        stop = threading.Event()
        report = _flavor_engine().run_pipeline(
            _two_branch_pipeline(), on_step=lambda step: stop.set(), stop=stop
        )
        assert report.stopped_early
        assert report.stop_reason == "run stopped before step(s) 'merge'"
        assert sorted(_steps(report, "completed")) == ["left", "right"]
        assert "merge" not in report.results

    def test_the_wave_in_flight_is_not_cut_short(self):
        # Both branches are one wave: the first to settle sets the event,
        # and its sibling, already dispatched, still completes.
        stop = threading.Event()
        settled: list[str] = []

        def on_step(step) -> None:
            settled.append(step.name)
            stop.set()

        report = _flavor_engine(max_concurrency=4).run_pipeline(
            _two_branch_pipeline(), on_step=on_step, stop=stop
        )
        assert sorted(settled) == ["left", "right"]
        assert report.step_reports["left"].status == "completed"
        assert report.step_reports["right"].status == "completed"

    def test_an_event_never_set_changes_nothing(self):
        plain = _flavor_engine().run_pipeline(_two_branch_pipeline())
        watched = _flavor_engine().run_pipeline(_two_branch_pipeline(), stop=threading.Event())
        assert not watched.stopped_early and watched.stop_reason == ""
        assert watched.results["merge"] == plain.results["merge"]
        assert watched.total_calls == plain.total_calls
