"""A session's instruments are declared at construction and built on first use.

``tests/obs/test_exposition_golden.py`` pins what a registry reads as; these
pin what it costs: a session that only quotes builds no metric object, a
child is bound once however many threads note it first, and a registry that
holds a standard name with another shape still refuses the session at once.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import DeclarativeEngine, PromptSession
from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import MetricsRegistry
from repro.obs.instruments import FAMILIES
from repro.query import Dataset

MODEL = "sim-gpt-3.5-turbo"
WORDS = ["apple", "banana", "cherry", "damson", "elder", "fig"]


def _built(registry: MetricsRegistry) -> tuple[int, int]:
    """Families and children the registry holds, read without materialising."""
    families = list(registry._families.values())
    return len(families), sum(len(family._children) for family in families)


def _session(**kwargs) -> PromptSession:
    return PromptSession(SimulatedLLM(Oracle(), seed=3), **kwargs)


class TestNothingIsBuiltToQuote:
    def test_building_a_session_and_quoting_builds_no_metric_object(self):
        session = _session()
        engine = DeclarativeEngine.from_session(session, default_model=MODEL)
        Dataset(WORDS, name="words").filter("is a fruit", strategy="per_item").quote(
            planner=engine.planner()
        )
        engine.quote_pipeline(
            PipelineSpec(
                name="quoted",
                steps=[
                    PipelineStep("keep", task=FilterSpec(items=WORDS, predicate="is a fruit")),
                    PipelineStep(
                        "order",
                        task=SortSpec(items=WORDS, criterion="sweetness", strategy="rating"),
                        depends_on=("keep",),
                    ),
                ],
            )
        )
        assert _built(session.metrics) == (0, 0)
        # The first read builds every declared family and pre-bound child.
        session.metrics.snapshot()
        prebound = sum(len(family.prebound) for family in FAMILIES)
        assert _built(session.metrics) == (len(FAMILIES), prebound)

    def test_a_first_note_builds_the_families_and_only_its_child(self):
        session = _session()
        session.instruments.note_job("queued")
        families, children = _built(session.metrics)
        assert (families, children) == (len(FAMILIES), 1)
        assert list(session.metrics.snapshot()) == [family.name for family in FAMILIES]

    def test_a_family_registered_after_the_session_reads_after_the_standard_ones(self):
        session = _session()
        session.metrics.counter("repro_custom_total", "A caller's own family.")
        names = list(session.metrics.snapshot())
        assert names == [family.name for family in FAMILIES] + ["repro_custom_total"]


class TestConcurrentFirstNotes:
    def test_eight_threads_lose_no_increment_and_bind_one_child_per_series(self):
        session = _session()
        instruments = session.instruments
        threads, rounds = 8, 500
        start = threading.Barrier(threads)

        def note() -> None:
            start.wait()
            for _ in range(rounds):
                instruments.note_calls(hits=1, misses=2, cost=3, durations_ms=[(1.0, 1)])
                instruments.note_job("queued")
                instruments.note_task_started()

        workers = [threading.Thread(target=note) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the first notes as finely as possible
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)

        total = threads * rounds
        snapshot = session.metrics.snapshot()
        calls = snapshot["repro_llm_calls_total"]
        assert calls == {'{tenant="",cache="hit"}': total, '{tenant="",cache="miss"}': 2 * total}
        assert snapshot["repro_jobs_total"] == {'{tenant="",status="queued"}': total}
        assert snapshot["repro_executor_tasks_in_flight"] == {'{tenant=""}': total}
        assert snapshot["repro_call_duration_seconds"]['_count{tenant=""}'] == total
        families = session.metrics._families
        assert len(families["repro_llm_calls_total"]._children) == 2
        assert len(families["repro_jobs_total"]._children) == 1
        # The attribute a thread bound is the child the registry renders.
        assert instruments._calls_hit is families["repro_llm_calls_total"]._children[("", "hit")]


class TestConflictsRaiseAtConstruction:
    def test_a_standard_name_with_another_label_set_refuses_the_session(self):
        registry = MetricsRegistry()
        registry.counter("repro_llm_calls_total", "Same kind, other labels.", ("tenant",))
        with pytest.raises(ValueError, match="different kind or label set"):
            _session(metrics=registry)

    def test_a_standard_name_with_another_kind_refuses_the_session(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_active", "Not a gauge.", ("tenant",))
        with pytest.raises(ValueError, match="different kind or label set"):
            _session(metrics=registry)

    def test_a_conflicting_family_registered_after_the_session_still_raises(self):
        session = _session()
        with pytest.raises(ValueError, match="different kind or label set"):
            session.metrics.gauge("repro_llm_calls_total", "A gauge now.", ("tenant", "cache"))

    def test_a_shared_registry_binds_each_tenant_once(self):
        registry = MetricsRegistry()
        first = _session(metrics=registry, tenant_label="acme")
        second = _session(metrics=registry, tenant_label="acme")
        first.instruments.note_budget_spent(1.5)
        assert second.instruments._budget_spent is None  # unbound until it notes
        second.instruments.note_budget_spent(2.5)
        assert second.instruments._budget_spent is first.instruments._budget_spent
        assert registry.snapshot()["repro_budget_spent_dollars"] == {'{tenant="acme"}': 2.5}
        registry.render()
        assert _built(registry)[1] == sum(len(family.prebound) for family in FAMILIES)
