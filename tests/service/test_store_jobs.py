"""Durable job rows and store-level tenant namespacing.

The jobs table is the service's ledger: anything the admission controller
accepts must survive a process kill as a row an operator can read with
``sqlite3`` and a restart can re-enqueue.  The namespace view is the other
half of tenancy — two tenants sharing one SQLite file must never see each
other's cached responses, profiles, checkpoints, or traces.
"""

from __future__ import annotations

import pytest

from repro.exceptions import StoreError
from repro.obs import SpanTracker
from repro.store import JobRecord, Store, fingerprint_spec
from repro.store.jobs import validate_status

from _service_helpers import CRITERION, WORDS, demo_pipeline


@pytest.fixture()
def store(tmp_path):
    with Store(tmp_path / "svc.db") as s:
        yield s


class TestJobRows:
    def test_save_load_roundtrip(self, store):
        from repro.core.spec_codec import pipeline_to_json

        job = JobRecord(
            job_id="j1",
            tenant="acme",
            status="queued",
            pipeline_json=pipeline_to_json(demo_pipeline()),
            quote={"total_dollars": 0.5},
        )
        store.save_job(job)
        loaded = store.load_job("j1")
        assert loaded is not None
        assert loaded.tenant == "acme"
        assert loaded.status == "queued"
        assert loaded.quote == {"total_dollars": 0.5}
        assert loaded.pipeline_json == job.pipeline_json
        assert loaded.submitted_seq > 0
        assert not loaded.terminal

    def test_missing_job_is_none(self, store):
        assert store.load_job("nope") is None

    def test_upsert_preserves_submitted_seq_and_advances_updated_seq(self, store):
        job = JobRecord(job_id="j1", tenant="acme")
        store.save_job(job)
        first = store.load_job("j1")
        first.status = "running"
        store.save_job(first)
        first.status = "succeeded"
        first.report = {"total_cost": 0.25}
        first.steps = {"sort": {"status": "completed"}}
        store.save_job(first)
        final = store.load_job("j1")
        assert final.submitted_seq == first.submitted_seq
        assert final.updated_seq > final.submitted_seq
        assert final.status == "succeeded"
        assert final.terminal
        assert final.report == {"total_cost": 0.25}
        assert final.steps == {"sort": {"status": "completed"}}

    def test_list_jobs_filters_by_tenant_and_status(self, store):
        for job_id, tenant, status in [
            ("a1", "acme", "succeeded"),
            ("a2", "acme", "queued"),
            ("b1", "beta", "queued"),
        ]:
            store.save_job(JobRecord(job_id=job_id, tenant=tenant, status=status))
        assert [j.job_id for j in store.list_jobs()] == ["a1", "a2", "b1"]
        assert [j.job_id for j in store.list_jobs(tenant="acme")] == ["a1", "a2"]
        assert [j.job_id for j in store.list_jobs(status="queued")] == ["a2", "b1"]
        assert [j.job_id for j in store.list_jobs(tenant="acme", status="queued")] == ["a2"]
        assert store.job_count() == 3

    def test_rows_survive_reopen(self, store, tmp_path):
        store.save_job(JobRecord(job_id="j1", tenant="acme", status="stopped", resumable=True))
        with Store(tmp_path / "svc.db") as reopened:
            row = reopened.load_job("j1")
            assert row.status == "stopped"
            assert row.resumable

    def test_unknown_status_is_refused(self):
        with pytest.raises(ValueError, match="unknown job status"):
            validate_status("paused")


class TestStoreNamespace:
    def test_prefix_is_validated(self, store):
        with pytest.raises(StoreError):
            store.namespace("")
        with pytest.raises(StoreError):
            store.namespace("a::b")
        assert isinstance(store.namespace("acme"), Store)

    def test_response_caches_do_not_share_entries(self, store):
        from repro.llm.base import LLMResponse

        def reply(text):
            return LLMResponse(text=text, model="m")

        acme = store.namespace("acme").response_cache()
        beta = store.namespace("beta").response_cache()
        plain = store.response_cache()
        acme.put("m", "prompt", reply("acme-answer"))
        assert acme.get("m", "prompt").text == "acme-answer"
        assert beta.get("m", "prompt") is None
        assert plain.get("m", "prompt") is None
        beta.put("m", "prompt", reply("beta-answer"))
        assert acme.get("m", "prompt").text == "acme-answer"
        assert beta.get("m", "prompt").text == "beta-answer"

    def test_profiles_are_scoped(self, store):
        from repro.core.physical import RuntimeStats

        acme = store.namespace("acme")
        beta = store.namespace("beta")
        stats = RuntimeStats()
        stats.record_filter("p", evaluated=10, kept=4)
        acme.save_profile(stats)
        assert acme.load_profile() is not None
        assert beta.load_profile() is None
        assert store.load_profile() is None

    def test_checkpoints_are_scoped(self, store):
        from repro.core.spec import SortSpec
        from repro.operators.sort import SortResult

        spec = SortSpec(items=WORDS, criterion=CRITERION, strategy="pairwise")
        fingerprint = fingerprint_spec(spec)
        result = SortResult(strategy="pairwise", order=sorted(WORDS))
        store.namespace("acme").save_checkpoint(fingerprint, spec, result)
        assert fingerprint in store.namespace("acme").load_checkpoints([fingerprint])
        assert store.namespace("beta").load_checkpoints([fingerprint]) == {}
        assert store.load_checkpoint(fingerprint) is None

    def test_traces_are_scoped(self, store):
        spans = SpanTracker()
        spans.record_calls([("m", "ok", {"cost": 0.25})])
        store.namespace("acme").save_spans(spans.spans(), origin="run-1")
        assert len(store.namespace("acme").trace_records(origin="run-1")) == 1
        assert store.namespace("beta").trace_records(origin="run-1") == []
        assert store.trace_records(origin="run-1") == []

    def test_jobs_are_shared_but_tenant_scoped_by_column(self, store):
        # Job rows carry the tenant explicitly, so the namespace forwards
        # them unscoped — the JobManager filters by the tenant column.
        ns = store.namespace("acme")
        ns.save_job(JobRecord(job_id="j1", tenant="acme"))
        assert store.load_job("j1") is not None
        assert [j.job_id for j in ns.list_jobs(tenant="acme")] == ["j1"]

    def test_unfiltered_span_reads_see_only_their_own_origins(self, store):
        spans = SpanTracker()
        spans.record_calls([("m", "ok", {"cost": 0.25})])
        store.namespace("acme").save_spans(spans.spans(), origin="run-1")
        assert store.namespace("beta").trace_records() == []
        assert store.namespace("beta").load_spans() == []
        (call,) = store.namespace("acme").load_spans(origin="run-1", kind="call")
        assert call.kind == "call"
        assert len(store.trace_records()) == 1


class TestNamespaceKeysOnDisk:
    """The raw keys a namespace view writes.  Store files written before the
    view became a prefixed ``Store`` must restore through it, so these are
    pinned row by row, not through the view's own reads."""

    def test_each_artifact_is_stored_under_its_prefixed_key(self, store):
        import numpy as np

        from repro.core.physical import RuntimeStats
        from repro.core.spec import SortSpec
        from repro.index import ExactIndex
        from repro.operators.sort import SortResult

        acme = store.namespace("acme")
        assert acme.db is store.db
        for view in (acme, store.namespace("beta")):  # byte-identical profiles
            stats = RuntimeStats()
            stats.record_filter("p", evaluated=10, kept=4)
            view.save_profile(stats)
        spec = SortSpec(items=WORDS, criterion=CRITERION, strategy="pairwise")
        fingerprint = fingerprint_spec(spec)
        acme.save_checkpoint(fingerprint, spec, SortResult(strategy="pairwise", order=sorted(WORDS)))
        spans = SpanTracker()
        spans.record_calls([("m", "ok", {"cost": 0.25})])
        acme.save_spans(spans.spans(), origin="run-1")
        index = ExactIndex(2)
        index.add(np.array([[1.0, 0.0], [0.0, 1.0]]))
        acme.save_vector_index("idx", index)
        assert store.db.execute("SELECT name FROM profiles ORDER BY name") == [
            ("acme::default",),
            ("beta::default",),
        ]
        assert store.db.execute("SELECT fingerprint FROM checkpoints") == [
            (f"acme::{fingerprint}",)
        ]
        assert store.db.execute("SELECT DISTINCT origin FROM spans") == [("acme::run-1",)]
        assert store.db.execute("SELECT name FROM vector_indexes") == [("acme::idx",)]

    def test_a_cache_row_keyed_by_the_namespaced_digest_is_a_hit(self, store):
        import hashlib

        from repro.llm.base import LLMResponse
        from repro.store.response_cache import encode_response

        key = hashlib.sha256(b"ns:4:acme\x00m\x00prompt").hexdigest()
        payload = encode_response(LLMResponse(text="stored before", model="m"))
        store.db.execute(
            "INSERT INTO cache (key, model, prompt, payload, size, access_seq) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (key, "m", "prompt", payload, len(payload), 1),
        )
        assert store.namespace("acme").response_cache().get("m", "prompt").text == "stored before"
        assert store.namespace("beta").response_cache().get("m", "prompt") is None
