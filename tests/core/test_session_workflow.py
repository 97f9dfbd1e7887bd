"""Tests for the prompt session and workflow execution."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CHAT_MODEL
from repro.core.budget import Budget
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec, PipelineStep
from repro.core.workflow import Workflow
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import BudgetExceededError, ConfigurationError, SpecError
from repro.llm.prompts import RATING
from repro.llm.simulated import SimulatedLLM
from repro.tokenizer.cost import to_dollars, to_nanos
from tests.doubles import hop


@pytest.fixture()
def session() -> PromptSession:
    return PromptSession(SimulatedLLM(flavor_oracle(), seed=81))


class TestPromptSession:
    def test_calls_are_tracked_and_charged(self, session):
        session.complete(RATING.render([FLAVORS[0]], (CHOCOLATEY,)))
        assert session.tracker.calls == 1
        assert session.spent_dollars > 0.0

    def test_cache_deduplicates_identical_calls(self, session):
        prompt = RATING.render([FLAVORS[1]], (CHOCOLATEY,))
        session.complete(prompt)
        before = session.tracker.usage.total_tokens
        session.complete(prompt)
        # The cached call contributes no new tokens.
        assert session.tracker.usage.total_tokens == before
        assert session.cache.stats.hits == 1

    def test_budget_enforced(self):
        budget = Budget(limit=1e-7)
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=82), budget=budget)
        with pytest.raises(BudgetExceededError):
            for flavor in FLAVORS:
                session.complete(RATING.render([flavor], (CHOCOLATEY,)))

    def test_batch_charges_every_response_before_raising(self):
        """Regression: a limit breach mid-batch used to stop the charging
        loop, leaving the budget understating what was actually spent."""
        budget = Budget(limit=5e-5)
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=82), budget=budget)
        prompts = [RATING.render([flavor], (CHOCOLATEY,)) for flavor in FLAVORS]
        with pytest.raises(BudgetExceededError):
            session.complete_batch(prompts)
        # Every tracked dollar reached the budget, overshoot included.
        assert budget.spent == to_dollars(session.tracker.cost())

    def test_client_view_routes_through_session(self, session):
        client = session.client()
        client.complete(RATING.render([FLAVORS[2]], (CHOCOLATEY,)))
        assert session.tracker.calls == 1

    def test_default_model_from_config(self, session):
        response = session.complete(RATING.render([FLAVORS[3]], (CHOCOLATEY,)))
        assert response.model == DEFAULT_CHAT_MODEL

    def test_tracker_reset_keeps_budget(self, session):
        session.complete(RATING.render([FLAVORS[4]], (CHOCOLATEY,)))
        spent = session.spent_dollars
        session.tracker.reset()
        assert session.tracker.calls == 0
        assert session.spent_dollars == spent

    @pytest.mark.parametrize("max_tokens", [-3, -1, 0, 1, None])
    def test_no_call_lowers_spend(self, session, max_tokens):
        """Regression: ``max_tokens=-3`` billed -3 completion tokens, and the
        tracker, the budget and ``spent_dollars`` took them as given."""
        prompts = [RATING.render([flavor], (CHOCOLATEY,)) for flavor in FLAVORS[:4]]
        session.complete(prompts[0])
        spent = session.spent_dollars
        for issue in (
            lambda: session.complete(prompts[1], max_tokens=max_tokens),
            lambda: session.complete_batch(prompts[2:], max_tokens=max_tokens),
        ):
            if max_tokens is not None and max_tokens < 0:
                with pytest.raises(ConfigurationError, match="max_tokens"):
                    issue()
                assert session.spent_dollars == spent
            else:
                issue()
                assert session.spent_dollars > spent
            spent = session.spent_dollars
        assert session.tracker.usage.completion_tokens >= 0
        assert session.budget.spent == to_dollars(session.tracker.cost())


def _workflow(name: str, *steps: PipelineStep) -> Workflow:
    return Workflow.from_pipeline(PipelineSpec(name=name, steps=list(steps)))


class TestWorkflow:
    def test_steps_run_in_order_and_share_results(self, session):
        workflow = _workflow(
            "demo",
            PipelineStep(name="first", run=lambda session_, results: 21),
            PipelineStep(
                name="second",
                run=lambda session_, results: results["first"] * 2,
                depends_on=("first",),
            ),
        )
        report = workflow.execute(session)
        assert report.step_order == ["first", "second"]
        assert report.results["second"] == 42

    def test_llm_usage_is_aggregated(self, session):
        workflow = _workflow(
            "llm-demo",
            PipelineStep(
                name="rate",
                run=lambda session_, results: session_.complete(
                    RATING.render([FLAVORS[0]], (CHOCOLATEY,))
                ).text,
            ),
        )
        report = workflow.execute(session)
        assert report.total_prompt_tokens > 0
        assert report.total_cost > 0.0

    def test_duplicate_step_names_rejected(self):
        spec = PipelineSpec(
            steps=[
                PipelineStep(name="a", run=lambda session_, results: 1),
                PipelineStep(name="a", run=lambda session_, results: 2),
            ]
        )
        with pytest.raises(SpecError):
            spec.validate()
        with pytest.raises(SpecError):
            Workflow.from_pipeline(spec)

    def test_execute_runs_under_asyncio_run_through_one_thread_hop(self, session):
        workflow = _workflow("only", PipelineStep(name="only", run=lambda s, inputs: 1))
        assert hop(workflow.execute, session).results == {"only": 1}

    def test_empty_workflow_rejected(self):
        with pytest.raises(SpecError):
            Workflow.from_pipeline(PipelineSpec())

    def test_second_workflow_on_same_session_reports_only_its_own_usage(self, session):
        """Regression: totals used to be session-lifetime, double-counting reuse."""

        def rate(flavor):
            def step(session_, results):
                return session_.complete(RATING.render([flavor], (CHOCOLATEY,))).text

            return step

        report_one = _workflow(
            "first", PipelineStep(name="rate", run=rate(FLAVORS[0]))
        ).execute(session)
        report_two = _workflow(
            "second", PipelineStep(name="rate", run=rate(FLAVORS[1]))
        ).execute(session)

        assert report_one.total_prompt_tokens > 0
        assert report_two.total_prompt_tokens > 0
        lifetime = session.tracker.usage
        # Each report carries its own delta; before the fix the second report
        # repeated the first run's usage on top of its own.
        assert report_two.total_prompt_tokens < lifetime.prompt_tokens
        assert (
            report_one.total_prompt_tokens + report_two.total_prompt_tokens
            == lifetime.prompt_tokens
        )
        assert report_one.total_calls + report_two.total_calls == lifetime.calls
        assert to_nanos(report_one.total_cost) + to_nanos(report_two.total_cost) == (
            session.tracker.cost()
        )
