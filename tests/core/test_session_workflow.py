"""Tests for the prompt session and workflow execution."""

from __future__ import annotations

import asyncio
import gc
import warnings

import pytest

from repro.core.budget import Budget
from repro.core.session import PromptSession
from repro.core.workflow import Workflow
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.exceptions import BudgetExceededError, ConfigurationError, SpecError
from repro.llm.prompts import rating_prompt
from repro.llm.simulated import SimulatedLLM


@pytest.fixture()
def session() -> PromptSession:
    return PromptSession(SimulatedLLM(flavor_oracle(), seed=81))


class TestPromptSession:
    def test_calls_are_tracked_and_charged(self, session):
        session.complete(rating_prompt(FLAVORS[0], CHOCOLATEY))
        assert session.tracker.calls == 1
        assert session.spent_dollars > 0.0

    def test_cache_deduplicates_identical_calls(self, session):
        prompt = rating_prompt(FLAVORS[1], CHOCOLATEY)
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
                session.complete(rating_prompt(flavor, CHOCOLATEY))

    def test_batch_charges_every_response_before_raising(self):
        """Regression: a limit breach mid-batch used to stop the charging
        loop, leaving the budget understating what was actually spent."""
        budget = Budget(limit=5e-5)
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=82), budget=budget)
        prompts = [rating_prompt(flavor, CHOCOLATEY) for flavor in FLAVORS]
        with pytest.raises(BudgetExceededError):
            session.complete_batch(prompts)
        # Every tracked dollar reached the budget, overshoot included.
        assert budget.spent == pytest.approx(session.tracker.cost())

    def test_client_view_routes_through_session(self, session):
        client = session.client()
        client.complete(rating_prompt(FLAVORS[2], CHOCOLATEY))
        assert session.tracker.calls == 1

    def test_default_model_from_config(self, session):
        response = session.complete(rating_prompt(FLAVORS[3], CHOCOLATEY))
        assert response.model == session.config.chat_model

    def test_reset_usage_keeps_budget(self, session):
        session.complete(rating_prompt(FLAVORS[4], CHOCOLATEY))
        spent = session.spent_dollars
        session.reset_usage()
        assert session.tracker.calls == 0
        assert session.spent_dollars == spent


class TestWorkflow:
    def test_steps_run_in_order_and_share_results(self, session):
        workflow = Workflow("demo")
        workflow.add_step("first", lambda session_, results: 21)
        workflow.add_step("second", lambda session_, results: results["first"] * 2)
        report = workflow.execute(session)
        assert report.step_order == ["first", "second"]
        assert report.results["second"] == 42

    def test_llm_usage_is_aggregated(self, session):
        workflow = Workflow("llm-demo")
        workflow.add_step(
            "rate",
            lambda session_, results: session_.complete(
                rating_prompt(FLAVORS[0], CHOCOLATEY)
            ).text,
        )
        report = workflow.execute(session)
        assert report.total_prompt_tokens > 0
        assert report.total_cost > 0.0

    def test_duplicate_step_names_rejected(self):
        workflow = Workflow()
        workflow.add_step("a", lambda session_, results: 1)
        with pytest.raises(SpecError):
            workflow.add_step("a", lambda session_, results: 2)

    def test_empty_workflow_rejected(self, session):
        with pytest.raises(SpecError):
            Workflow().execute(session)

    def test_legacy_add_step_builds_a_degenerate_chain(self):
        workflow = Workflow("chain")
        workflow.add_step("first", lambda session_, results: 1)
        workflow.add_step("second", lambda session_, results: 2)
        workflow.add_step("third", lambda session_, results: 3)
        assert [step.depends_on for step in workflow.steps] == [(), ("first",), ("second",)]
        assert workflow.waves() == [["first"], ["second"], ["third"]]

    def test_second_workflow_on_same_session_reports_only_its_own_usage(self, session):
        """Regression: totals used to be session-lifetime, double-counting reuse."""

        def rate(flavor):
            def step(session_, results):
                return session_.complete(rating_prompt(flavor, CHOCOLATEY)).text

            return step

        report_one = Workflow("first").add_step("rate", rate(FLAVORS[0])).execute(session)
        report_two = Workflow("second").add_step("rate", rate(FLAVORS[1])).execute(session)

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
        assert report_one.total_cost + report_two.total_cost == pytest.approx(
            session.tracker.cost()
        )


class TestAsyncSchedulerInsideARunningLoop:
    """``scheduler="async"`` owns its loop; inside one it must say so, cleanly.

    Regression: both entry points raised a bare ``RuntimeError`` from
    ``asyncio.run`` and leaked the never-awaited ``execute_async`` coroutine
    (a ``RuntimeWarning`` when it was collected).
    """

    @staticmethod
    def _inside_a_loop(run, match: str) -> None:
        async def main() -> None:
            with pytest.raises(ConfigurationError, match=match):
                run()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(main())
            gc.collect()  # a leaked coroutine warns when it is collected
        leaked = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not leaked, leaked

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_workflow_execute_names_execute_async(self, session):
        workflow = Workflow().add_step("only", lambda s, inputs: 1)
        self._inside_a_loop(
            lambda: workflow.execute(session, scheduler="async"), "Workflow.execute_async"
        )
        assert session.tracker.calls == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_engine_run_pipeline_names_run_pipeline_async(self, session):
        from repro.core.engine import DeclarativeEngine

        engine = DeclarativeEngine.from_session(session)
        workflow = Workflow().add_step("only", lambda s, inputs: 1)
        self._inside_a_loop(
            lambda: engine.run_pipeline(workflow, scheduler="async"), "run_pipeline_async"
        )

    def test_the_async_scheduler_still_runs_from_sync_code(self, session):
        workflow = Workflow().add_step("only", lambda s, inputs: 1)
        assert workflow.execute(session, scheduler="async").results == {"only": 1}
