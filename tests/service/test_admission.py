"""Admission control: rejections are decided before any LLM spend.

The declarative framing makes pipelines *priceable*: the controller quotes
the whole submission from the cost planner and compares it against the
tenant's remaining budget and queue depth.  The load-bearing assertion in
every rejection test is ``client.calls == 0`` — counted below every cache,
so a rejection provably costs the tenant nothing.
"""

from __future__ import annotations

import pytest

from repro.core.spec import PipelineSpec, PipelineStep, SortSpec, TopKSpec
from repro.exceptions import ConfigurationError
from repro.service import AdmissionController, TenantConfig, TenantRegistry
from repro.store import Store

from _service_helpers import CRITERION, MODEL, WORDS, demo_pipeline, make_client


def make_tenant(client, **overrides):
    config = TenantConfig(
        tenant_id=overrides.pop("tenant_id", "acme"),
        api_key=overrides.pop("api_key", "key-acme"),
        default_model=MODEL,
        **overrides,
    )
    registry = TenantRegistry(client, [config])
    return registry.get(config.tenant_id)


class TestAdmission:
    def test_affordable_pipeline_is_admitted_with_quote(self):
        client = make_client()
        tenant = make_tenant(client, budget_dollars=10.0)
        decision, quote = AdmissionController().review(
            tenant, demo_pipeline(), active_jobs=0
        )
        assert decision.admitted
        assert decision.status_code == 202
        assert decision.quote["total_dollars"] == pytest.approx(quote.total_dollars)
        assert quote.total_dollars > 0
        assert client.calls == 0  # quoting is planner work, not LLM work

    def test_over_budget_rejection_spends_nothing(self):
        client = make_client()
        tenant = make_tenant(client, budget_dollars=0.000001)
        decision, quote = AdmissionController().review(
            tenant, demo_pipeline(), active_jobs=0
        )
        assert not decision.admitted
        assert decision.status_code == 402
        assert "available" in decision.reason
        # The rejected caller still learns the full price...
        assert decision.quote["total_dollars"] == pytest.approx(quote.total_dollars)
        # ...and paid nothing to learn it.
        assert client.calls == 0

    def test_pipeline_budget_cap_tightens_an_unlimited_tenant(self):
        client = make_client()
        tenant = make_tenant(client)  # unlimited tenant budget
        decision, _ = AdmissionController().review(
            tenant, demo_pipeline(budget_dollars=0.0000001), active_jobs=0
        )
        assert not decision.admitted
        assert decision.status_code == 402
        assert client.calls == 0

    def test_queue_depth_rejection_comes_with_the_price(self):
        client = make_client()
        tenant = make_tenant(client, budget_dollars=10.0, max_queue_depth=2)
        decision, _ = AdmissionController().review(
            tenant, demo_pipeline(), active_jobs=2
        )
        assert not decision.admitted
        assert decision.status_code == 429
        assert "queue depth" in decision.reason
        assert decision.quote is not None
        assert client.calls == 0

    def test_spend_erodes_admission(self):
        client = make_client()
        tenant = make_tenant(client, budget_dollars=10.0)
        decision, quote = AdmissionController().review(
            tenant, demo_pipeline(), active_jobs=0
        )
        assert decision.admitted
        # Simulate the tenant having spent almost everything.
        tenant.session.budget.charge(10.0 - quote.total_dollars / 2)
        decision, _ = AdmissionController().review(
            tenant, demo_pipeline(), active_jobs=0
        )
        assert not decision.admitted
        assert decision.status_code == 402

    def test_precomputed_quote_is_reused(self):
        client = make_client()
        tenant = make_tenant(client, budget_dollars=10.0)
        quote = tenant.engine.quote_pipeline(demo_pipeline())
        decision, returned = AdmissionController().review(
            tenant, demo_pipeline(), active_jobs=0, quote=quote
        )
        assert decision.admitted
        assert returned is quote


    def test_a_resubmitted_pipeline_is_admitted_for_what_its_checkpoints_hold(
        self, tmp_path
    ):
        """A finished tournament is restored, not re-bought: its quote is $0.

        A ``pairwise_tournament`` step declares no static prompts, so no
        cache probe can discount it; only its checkpoint can.
        """
        pipeline = PipelineSpec(
            name="tournament",
            steps=[
                PipelineStep(
                    name="top",
                    task=TopKSpec(
                        items=WORDS, criterion=CRITERION, k=2, strategy="pairwise_tournament"
                    ),
                )
            ],
        )
        client = make_client()
        config = TenantConfig(
            tenant_id="acme", api_key="key-acme", default_model=MODEL, budget_dollars=1.0
        )
        with Store(tmp_path / "store.db") as store:
            tenant = TenantRegistry(client, [config], store=store).get("acme")
            price = tenant.engine.planner().quote_pipeline(pipeline).total_dollars
            assert price > 0
            tenant.engine.run_pipeline(pipeline)
            paid = client.calls
            assert paid > 0
            budget = tenant.session.budget
            budget.charge(budget.remaining - price / 2)
            assert budget.remaining < price

            decision, quote = AdmissionController().review(tenant, pipeline, active_jobs=0)
            assert decision.status_code == 202 and decision.admitted
            assert (quote.total_calls, quote.total_dollars) == (0, 0.0)
            report = tenant.engine.run_pipeline(pipeline, quote=quote)
        assert report.restored_steps == ["top"]
        assert client.calls == paid


class TestTenantConfigValidation:
    def test_rejects_blank_ids_and_keys(self):
        with pytest.raises(ConfigurationError):
            TenantConfig(tenant_id="", api_key="k")
        with pytest.raises(ConfigurationError):
            TenantConfig(tenant_id="t", api_key="")
        with pytest.raises(ConfigurationError):
            TenantConfig(tenant_id="t", api_key="k", max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            TenantConfig(tenant_id="t", api_key="k", max_concurrency=0)

    def test_registry_rejects_duplicates(self):
        client = make_client()
        with pytest.raises(ConfigurationError, match="duplicate tenant id"):
            TenantRegistry(
                client,
                [
                    TenantConfig(tenant_id="t", api_key="k1"),
                    TenantConfig(tenant_id="t", api_key="k2"),
                ],
            )
        with pytest.raises(ConfigurationError, match="collides"):
            TenantRegistry(
                client,
                [
                    TenantConfig(tenant_id="t1", api_key="k"),
                    TenantConfig(tenant_id="t2", api_key="k"),
                ],
            )

    def test_governor_only_built_when_an_envelope_is_set(self):
        client = make_client()
        assert make_tenant(client).governor is None
        assert make_tenant(client, rpm=600).governor is not None
