"""Durable persistence: response cache, workload profiles, checkpoints.

This package turns the engine from a one-shot library into a system whose
repeated and resumed workloads get cheaper over time.  One SQLite-backed
:class:`Store` file holds three kinds of derived state:

* a :class:`PersistentResponseCache` (drop-in for the in-memory
  :class:`~repro.llm.cache.ResponseCache`) so identical temperature-0
  calls are free across process lifetimes;
* :class:`WorkloadProfile` snapshots of a session's observed runtime
  statistics, merged decay-weighted into the next session so warm-start
  quotes are priced from history;
* content-addressed pipeline checkpoints
  (:func:`fingerprint_spec` + the engine's ``run_pipeline(store=...)``)
  giving crash-resume and incremental re-execution.

``store.namespace(prefix)`` is the same :class:`Store` over the same file
with every key scoped by ``prefix``: the service gives each tenant one.

See ``docs/api.md`` ("The store subsystem") for the user-facing tour and
``examples/resumable_pipeline.py`` for a runnable walkthrough.
"""

from repro.store.checkpoint import CHECKPOINT_VERSION, decode_result, encode_result
from repro.store.db import APPLICATION_ID, SCHEMA_VERSION, StoreDB
from repro.store.fingerprint import (
    FingerprintError,
    fingerprint_embedding,
    fingerprint_spec,
)
from repro.store.jobs import JOB_STATUSES, TERMINAL_STATUSES, JobRecord
from repro.store.profile import DEFAULT_DECAY, PROFILE_VERSION, WorkloadProfile
from repro.store.response_cache import PersistentResponseCache
from repro.store.store import Store
from repro.store.vectors import EmbeddingCache

__all__ = [
    "APPLICATION_ID",
    "CHECKPOINT_VERSION",
    "DEFAULT_DECAY",
    "EmbeddingCache",
    "FingerprintError",
    "JOB_STATUSES",
    "JobRecord",
    "PROFILE_VERSION",
    "PersistentResponseCache",
    "SCHEMA_VERSION",
    "Store",
    "StoreDB",
    "TERMINAL_STATUSES",
    "WorkloadProfile",
    "decode_result",
    "encode_result",
    "fingerprint_embedding",
    "fingerprint_spec",
]
