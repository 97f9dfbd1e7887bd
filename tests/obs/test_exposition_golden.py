"""The metrics exposition, pinned.

Three readings of the standard metric families: a fresh standalone
session's ``render()``, a fresh two-tenant service's ``GET /metrics`` body,
and a session's ``snapshot()`` after a seeded per-item filter (the
``repro_call_duration_seconds`` bucket and sum samples are wall-clock and
masked; the family order is pinned too).  Scrapers parse these bytes, so a
change to how families are registered or bound must leave every one of them
where it was.  Do not regenerate them to make a change pass.

Run this file as a script (``PYTHONPATH=src python
tests/obs/test_exposition_golden.py``) to print the current readings.
"""

from __future__ import annotations

import asyncio

from repro import DeclarativeEngine, PromptSession
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.query import Dataset
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry

MODEL = "sim-gpt-3.5-turbo"
WORDS = ["apple", "banana", "cherry", "damson", "elder", "fig", "grape", "kiwi"]
PREDICATE = "starts early in the alphabet"
_MASKED = "<wall-clock>"


def standalone_render() -> str:
    return PromptSession(SimulatedLLM(Oracle(), seed=3)).metrics.render()


def service_body() -> str:
    registry = TenantRegistry(
        SimulatedLLM(Oracle(), seed=3),
        [
            TenantConfig(
                tenant_id="acme", api_key="key-acme", budget_dollars=10.0, max_in_flight=2
            ),
            TenantConfig(tenant_id="beta", api_key="key-beta", budget_dollars=5.0),
        ],
    )
    app = ServiceApp(registry)
    for tenant in ("acme", "beta"):
        registry.get(tenant)
    response = asyncio.run(ServiceClient(app, api_key=None).get("/metrics"))
    assert response.status == 200
    return response.text


def filtered_snapshot() -> list[tuple[str, dict[str, object]]]:
    oracle = Oracle()
    oracle.register_predicate(PREDICATE, lambda item: item[0] in "abcde")
    session = PromptSession(SimulatedLLM(oracle, seed=5))
    engine = DeclarativeEngine.from_session(session, default_model=MODEL)
    result = Dataset(WORDS, name="words").filter(PREDICATE, strategy="per_item").run(engine)
    assert result.items == WORDS[:5]
    masked: list[tuple[str, dict[str, object]]] = []
    for name, samples in session.metrics.snapshot().items():
        if name == "repro_call_duration_seconds":
            samples = {
                key: value if key.startswith("_count") else _MASKED
                for key, value in samples.items()
            }
        masked.append((name, samples))
    return masked


STANDALONE_RENDER = """\
# HELP repro_budget_spent_dollars Current budget spend in dollars.
# TYPE repro_budget_spent_dollars gauge
repro_budget_spent_dollars{tenant=""} 0
# HELP repro_call_duration_seconds Wall-clock duration of settled model calls.
# TYPE repro_call_duration_seconds histogram
repro_call_duration_seconds_bucket{tenant="",le="0.001"} 0
repro_call_duration_seconds_bucket{tenant="",le="0.005"} 0
repro_call_duration_seconds_bucket{tenant="",le="0.01"} 0
repro_call_duration_seconds_bucket{tenant="",le="0.05"} 0
repro_call_duration_seconds_bucket{tenant="",le="0.1"} 0
repro_call_duration_seconds_bucket{tenant="",le="0.5"} 0
repro_call_duration_seconds_bucket{tenant="",le="1"} 0
repro_call_duration_seconds_bucket{tenant="",le="5"} 0
repro_call_duration_seconds_bucket{tenant="",le="10"} 0
repro_call_duration_seconds_bucket{tenant="",le="30"} 0
repro_call_duration_seconds_bucket{tenant="",le="+Inf"} 0
repro_call_duration_seconds_sum{tenant=""} 0
repro_call_duration_seconds_count{tenant=""} 0
# HELP repro_executor_queue_depth Batch-executor tasks submitted but not yet finished.
# TYPE repro_executor_queue_depth gauge
repro_executor_queue_depth{tenant=""} 0
# HELP repro_executor_tasks_in_flight Batch-executor tasks currently executing.
# TYPE repro_executor_tasks_in_flight gauge
repro_executor_tasks_in_flight{tenant=""} 0
# HELP repro_governor_admitted_total Backend calls admitted by the concurrency governor.
# TYPE repro_governor_admitted_total counter
repro_governor_admitted_total{tenant=""} 0
# HELP repro_governor_in_flight Calls currently holding a governor slot.
# TYPE repro_governor_in_flight gauge
repro_governor_in_flight{tenant=""} 0
# HELP repro_governor_rate_limit_events_total Rate-limit failures reported to the governor.
# TYPE repro_governor_rate_limit_events_total counter
repro_governor_rate_limit_events_total{tenant=""} 0
# HELP repro_governor_throttled_total Dispatches the governor made wait for a slot or pacing.
# TYPE repro_governor_throttled_total counter
repro_governor_throttled_total{tenant=""} 0
# HELP repro_governor_wait_seconds_total Total seconds dispatches spent waiting on the governor.
# TYPE repro_governor_wait_seconds_total counter
repro_governor_wait_seconds_total{tenant=""} 0
# HELP repro_jobs_active Jobs currently running.
# TYPE repro_jobs_active gauge
repro_jobs_active{tenant=""} 0
# HELP repro_jobs_total Job lifecycle transitions, by resulting status.
# TYPE repro_jobs_total counter
# HELP repro_llm_call_errors_total Model calls that raised, by exception class.
# TYPE repro_llm_call_errors_total counter
# HELP repro_llm_calls_total Model calls settled through a session, by response-cache outcome.
# TYPE repro_llm_calls_total counter
repro_llm_calls_total{tenant="",cache="hit"} 0
repro_llm_calls_total{tenant="",cache="miss"} 0
# HELP repro_llm_cost_dollars_total Accumulated model spend in dollars.
# TYPE repro_llm_cost_dollars_total counter
repro_llm_cost_dollars_total{tenant=""} 0
# HELP repro_step_observer_errors_total Exceptions raised by on_step observers and absorbed by the scheduler.
# TYPE repro_step_observer_errors_total counter
repro_step_observer_errors_total{tenant=""} 0
# HELP repro_trace_records_dropped_total Trace records evicted from the ring buffer before flushing.
# TYPE repro_trace_records_dropped_total counter
repro_trace_records_dropped_total{tenant=""} 0
"""

SERVICE_BODY = """\
# HELP repro_budget_spent_dollars Current budget spend in dollars.
# TYPE repro_budget_spent_dollars gauge
repro_budget_spent_dollars{tenant="acme"} 0
repro_budget_spent_dollars{tenant="beta"} 0
# HELP repro_call_duration_seconds Wall-clock duration of settled model calls.
# TYPE repro_call_duration_seconds histogram
repro_call_duration_seconds_bucket{tenant="acme",le="0.001"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="0.005"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="0.01"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="0.05"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="0.1"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="0.5"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="1"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="5"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="10"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="30"} 0
repro_call_duration_seconds_bucket{tenant="acme",le="+Inf"} 0
repro_call_duration_seconds_sum{tenant="acme"} 0
repro_call_duration_seconds_count{tenant="acme"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="0.001"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="0.005"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="0.01"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="0.05"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="0.1"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="0.5"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="1"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="5"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="10"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="30"} 0
repro_call_duration_seconds_bucket{tenant="beta",le="+Inf"} 0
repro_call_duration_seconds_sum{tenant="beta"} 0
repro_call_duration_seconds_count{tenant="beta"} 0
# HELP repro_executor_queue_depth Batch-executor tasks submitted but not yet finished.
# TYPE repro_executor_queue_depth gauge
repro_executor_queue_depth{tenant="acme"} 0
repro_executor_queue_depth{tenant="beta"} 0
# HELP repro_executor_tasks_in_flight Batch-executor tasks currently executing.
# TYPE repro_executor_tasks_in_flight gauge
repro_executor_tasks_in_flight{tenant="acme"} 0
repro_executor_tasks_in_flight{tenant="beta"} 0
# HELP repro_governor_admitted_total Backend calls admitted by the concurrency governor.
# TYPE repro_governor_admitted_total counter
repro_governor_admitted_total{tenant="acme"} 0
repro_governor_admitted_total{tenant="beta"} 0
# HELP repro_governor_in_flight Calls currently holding a governor slot.
# TYPE repro_governor_in_flight gauge
repro_governor_in_flight{tenant="acme"} 0
repro_governor_in_flight{tenant="beta"} 0
# HELP repro_governor_rate_limit_events_total Rate-limit failures reported to the governor.
# TYPE repro_governor_rate_limit_events_total counter
repro_governor_rate_limit_events_total{tenant="acme"} 0
repro_governor_rate_limit_events_total{tenant="beta"} 0
# HELP repro_governor_throttled_total Dispatches the governor made wait for a slot or pacing.
# TYPE repro_governor_throttled_total counter
repro_governor_throttled_total{tenant="acme"} 0
repro_governor_throttled_total{tenant="beta"} 0
# HELP repro_governor_wait_seconds_total Total seconds dispatches spent waiting on the governor.
# TYPE repro_governor_wait_seconds_total counter
repro_governor_wait_seconds_total{tenant="acme"} 0
repro_governor_wait_seconds_total{tenant="beta"} 0
# HELP repro_jobs_active Jobs currently running.
# TYPE repro_jobs_active gauge
repro_jobs_active{tenant="acme"} 0
repro_jobs_active{tenant="beta"} 0
# HELP repro_jobs_total Job lifecycle transitions, by resulting status.
# TYPE repro_jobs_total counter
# HELP repro_llm_call_errors_total Model calls that raised, by exception class.
# TYPE repro_llm_call_errors_total counter
# HELP repro_llm_calls_total Model calls settled through a session, by response-cache outcome.
# TYPE repro_llm_calls_total counter
repro_llm_calls_total{tenant="acme",cache="hit"} 0
repro_llm_calls_total{tenant="acme",cache="miss"} 0
repro_llm_calls_total{tenant="beta",cache="hit"} 0
repro_llm_calls_total{tenant="beta",cache="miss"} 0
# HELP repro_llm_cost_dollars_total Accumulated model spend in dollars.
# TYPE repro_llm_cost_dollars_total counter
repro_llm_cost_dollars_total{tenant="acme"} 0
repro_llm_cost_dollars_total{tenant="beta"} 0
# HELP repro_step_observer_errors_total Exceptions raised by on_step observers and absorbed by the scheduler.
# TYPE repro_step_observer_errors_total counter
repro_step_observer_errors_total{tenant="acme"} 0
repro_step_observer_errors_total{tenant="beta"} 0
# HELP repro_trace_records_dropped_total Trace records evicted from the ring buffer before flushing.
# TYPE repro_trace_records_dropped_total counter
repro_trace_records_dropped_total{tenant="acme"} 0
repro_trace_records_dropped_total{tenant="beta"} 0
"""

FILTERED_SNAPSHOT: list[tuple[str, dict[str, object]]] = [
    ('repro_llm_calls_total', {
        '{tenant="",cache="hit"}': 0.0,
        '{tenant="",cache="miss"}': 8.0,
    }),
    ('repro_llm_call_errors_total', {}),
    ('repro_llm_cost_dollars_total', {
        '{tenant=""}': 0.000905,
    }),
    ('repro_budget_spent_dollars', {
        '{tenant=""}': 0.000905,
    }),
    ('repro_call_duration_seconds', {
        '_bucket{tenant="",le="0.001"}': '<wall-clock>',
        '_bucket{tenant="",le="0.005"}': '<wall-clock>',
        '_bucket{tenant="",le="0.01"}': '<wall-clock>',
        '_bucket{tenant="",le="0.05"}': '<wall-clock>',
        '_bucket{tenant="",le="0.1"}': '<wall-clock>',
        '_bucket{tenant="",le="0.5"}': '<wall-clock>',
        '_bucket{tenant="",le="1"}': '<wall-clock>',
        '_bucket{tenant="",le="5"}': '<wall-clock>',
        '_bucket{tenant="",le="10"}': '<wall-clock>',
        '_bucket{tenant="",le="30"}': '<wall-clock>',
        '_bucket{tenant="",le="+Inf"}': '<wall-clock>',
        '_sum{tenant=""}': '<wall-clock>',
        '_count{tenant=""}': 8.0,
    }),
    ('repro_trace_records_dropped_total', {
        '{tenant=""}': 0.0,
    }),
    ('repro_step_observer_errors_total', {
        '{tenant=""}': 0.0,
    }),
    ('repro_governor_admitted_total', {
        '{tenant=""}': 0.0,
    }),
    ('repro_governor_throttled_total', {
        '{tenant=""}': 0.0,
    }),
    ('repro_governor_wait_seconds_total', {
        '{tenant=""}': 0.0,
    }),
    ('repro_governor_rate_limit_events_total', {
        '{tenant=""}': 0.0,
    }),
    ('repro_governor_in_flight', {
        '{tenant=""}': 0.0,
    }),
    ('repro_executor_tasks_in_flight', {
        '{tenant=""}': 0.0,
    }),
    ('repro_executor_queue_depth', {
        '{tenant=""}': 0.0,
    }),
    ('repro_jobs_total', {}),
    ('repro_jobs_active', {
        '{tenant=""}': 0.0,
    }),
]


def test_a_fresh_session_renders_every_standard_family():
    assert standalone_render() == STANDALONE_RENDER


def test_a_fresh_two_tenant_service_scrapes_both_tenants():
    assert service_body() == SERVICE_BODY


def test_a_filtered_session_snapshots_its_calls_and_spend():
    assert filtered_snapshot() == FILTERED_SNAPSHOT


if __name__ == "__main__":
    print(f'STANDALONE_RENDER = """\\\n{standalone_render()}"""\n')
    print(f'SERVICE_BODY = """\\\n{service_body()}"""\n')
    print("FILTERED_SNAPSHOT: list[tuple[str, dict[str, object]]] = [")
    for name, samples in filtered_snapshot():
        if not samples:
            print(f"    ({name!r}, {{}}),")
            continue
        print(f"    ({name!r}, {{")
        for key, value in samples.items():
            print(f"        {key!r}: {value!r},")
        print("    }),")
    print("]")
