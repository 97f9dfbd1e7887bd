"""The :class:`Store` facade: one file, all of the library's durable state.

A store bundles the three persistence concerns behind one handle:

* **Response cache** — :meth:`Store.response_cache` returns the durable
  drop-in for the in-memory cache (see
  :mod:`repro.store.response_cache`); a
  :class:`~repro.core.session.PromptSession` built with ``store=`` uses it
  automatically.
* **Workload profiles** — :meth:`Store.save_profile` /
  :meth:`Store.apply_profile` persist a session's
  :class:`~repro.core.physical.RuntimeStats` and merge them (decay-weighted)
  into the next session's fresh stats.
* **Pipeline checkpoints** — :meth:`Store.save_checkpoint` /
  :meth:`Store.load_checkpoints` keyed by the lineage keys of
  :mod:`repro.store.fingerprint`; ``engine.run_pipeline(..., store=...)``
  uses them to skip any step already run over the same parent results.

Everything shares one SQLite file (see :mod:`repro.store.db` for the
corruption/versioning rules), so "make this deployment durable" is a single
``Store("repro-store.db")`` handed to the session or the engine.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.spec import TaskSpec
from repro.obs.spans import Span, TraceRecord
from repro.operators.base import OperatorResult
from repro.store.checkpoint import decode_result, encode_checkpoint
from repro.store.db import StoreDB
from repro.store.jobs import (
    JobRecord,
    job_from_row,
    job_quote_payload,
    job_report_payload,
    validate_status,
)
from repro.store.profile import DEFAULT_DECAY, WorkloadProfile
from repro.store.response_cache import PersistentResponseCache
from repro.store.vectors import EmbeddingCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.physical import RuntimeStats
    from repro.index.base import VectorIndex
    from repro.store.namespace import StoreNamespace

#: One encoder per JSON format a row stores (``json.dumps`` builds one per
#: call): span attributes, and an index row's k-NN graphs.
_ATTRIBUTES = json.JSONEncoder(sort_keys=True)
_GRAPHS = json.JSONEncoder(separators=(",", ":"))


class Store:
    """A durable store shared by sessions, engines, and queries.

    Args:
        path: SQLite file backing the store (``":memory:"`` for ephemeral).
        max_cache_entries: LRU entry cap of the response cache.
        max_cache_bytes: optional LRU byte cap of the response cache.
        max_checkpoints: LRU cap on retained step checkpoints.
        max_span_records: FIFO cap on retained span rows (call records
            included: a call is a ``call`` span).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        max_cache_entries: int = 100_000,
        max_cache_bytes: int | None = None,
        max_checkpoints: int = 10_000,
        max_span_records: int = 50_000,
        max_embedding_entries: int = 500_000,
    ) -> None:
        if max_checkpoints <= 0:
            raise ValueError("max_checkpoints must be positive")
        if max_span_records <= 0:
            raise ValueError("max_span_records must be positive")
        if max_embedding_entries <= 0:
            raise ValueError("max_embedding_entries must be positive")
        self.db = StoreDB(path)
        self.max_checkpoints = max_checkpoints
        self.max_span_records = max_span_records
        self.max_cache_entries = max_cache_entries
        self.max_cache_bytes = max_cache_bytes
        self.max_embedding_entries = max_embedding_entries
        self._cache = self.response_cache()

    @property
    def path(self) -> str:
        return self.db.path

    # -- response cache -----------------------------------------------------------

    def response_cache(self, *, namespace: str = "") -> PersistentResponseCache:
        """A durable response cache view (drop-in for ``ResponseCache``).

        Every call returns a *new* instance: the entries are shared (they
        live in the database), but hit/miss counters are per instance, so
        each :class:`~repro.core.session.PromptSession` built on this store
        reports its own hit rate — matching the semantics of handing every
        session a fresh in-memory cache.  A non-empty ``namespace`` is mixed
        into every key digest, so the view shares the file but can never
        read or collide with another namespace's entries (tenant isolation).
        """
        return PersistentResponseCache(
            self.db,
            max_entries=self.max_cache_entries,
            max_bytes=self.max_cache_bytes,
            namespace=namespace,
        )

    def namespace(self, prefix: str) -> "StoreNamespace":
        """A tenant-isolated view of this store (see :class:`StoreNamespace`)."""
        from repro.store.namespace import StoreNamespace  # breaks import cycle

        return StoreNamespace(self, prefix)

    # -- embedding vectors --------------------------------------------------------

    def embedding_cache(self) -> EmbeddingCache:
        """A durable embedding-vector cache view (fresh hit/miss counters).

        Like :meth:`response_cache`, every call returns a new instance over
        the shared rows, so each consumer (a
        :class:`~repro.index.CachedEmbedder`, a test pinning zero
        recomputation) reads its own hit rate.
        """
        return EmbeddingCache(self.db, max_entries=self.max_embedding_entries)

    def embedding_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM embeddings")[0][0])

    # -- vector indexes -----------------------------------------------------------

    def save_vector_index(
        self,
        name: str,
        index: "VectorIndex",
        graphs: Mapping[int, list[list[int]]] | None = None,
    ) -> None:
        """Persist a built index under ``name``, replacing any previous one
        together with the graphs stored on it.

        ``graphs`` maps ``k`` to the k-NN graph computed from this index (the
        neighbour ids of ids ``0..n-1``, in order).  They ride the index row,
        so they live and die with it: :meth:`load_knn_graphs` reads them
        without deserialising the index.
        """
        payload = index.to_payload()
        encoded = _GRAPHS.encode({str(k): graph for k, graph in (graphs or {}).items()})
        with self.db.atomic():
            self.db.execute(
                "INSERT OR REPLACE INTO vector_indexes "
                "(name, kind, dimensions, size, payload, updated_seq, graphs) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    name,
                    index.kind,
                    index.dimensions,
                    len(index),
                    payload,
                    self.db.next_seq(),
                    encoded,
                ),
            )

    def load_vector_index(self, name: str) -> "VectorIndex | None":
        """Rebuild the stored index, or ``None`` when absent or unreadable.

        An unreadable payload (an index kind this library version does not
        know, a mangled row) reports a miss — rebuilding an index is always
        correct, exactly like a failed checkpoint load.
        """
        rows = self.db.execute(
            "SELECT kind, payload FROM vector_indexes WHERE name = ?", (name,)
        )
        if not rows:
            return None
        from repro.index import index_from_payload  # breaks import cycle

        try:
            return index_from_payload(rows[0][0], rows[0][1])
        except Exception:
            return None

    def load_knn_graphs(self, name: str) -> tuple[str, dict[int, list[list[int]]]] | None:
        """``(kind, graphs)`` of the index stored under ``name``, or ``None``
        when there is none.

        ``graphs`` maps ``k`` to the k-NN graphs saved with the index; one
        that is unreadable or does not fit the index is left out, so it is a
        miss the caller recomputes, like a failed checkpoint load.
        """
        rows = self.db.execute(
            "SELECT kind, size, graphs FROM vector_indexes WHERE name = ?", (name,)
        )
        if not rows:
            return None
        kind, size, encoded = rows[0]
        return kind, _decode_graphs(encoded, int(size))

    def vector_index_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM vector_indexes")[0][0])

    # -- workload profiles --------------------------------------------------------

    def save_profile(
        self,
        stats: "RuntimeStats",
        *,
        name: str = "default",
        merge: bool = False,
        decay: float = DEFAULT_DECAY,
    ) -> None:
        """Persist a snapshot of ``stats`` under ``name``.

        By default the saved profile is *replaced* — correct for a session
        that loaded this store's profile at construction, whose stats
        therefore already contain the decayed history.  Pass ``merge=True``
        when ``stats`` did **not** start from this store's profile (an
        explicit ``store=`` argument on a session built without one): the
        existing saved history is decay-merged underneath first, exactly as
        a seeded session would have carried it, instead of being silently
        overwritten by one run's observations.
        """
        # Under the handle's lock from the revision read to the write: two
        # runs of one session saving from two threads must not write an
        # older export over a newer one.
        with self.db.lock:
            revision = None if merge else stats.revision  # read before the export
            saved = self.db.saved_profiles.get(name, (None, None))
            if revision is not None and saved[1] == revision:
                return  # the stats this handle last wrote, unchanged since
            if merge:
                from repro.core.physical import RuntimeStats

                combined = RuntimeStats()
                self.apply_profile(combined, name=name, decay=decay)
                combined.merge_state(stats.export_state())
                stats = combined
            payload = WorkloadProfile.from_stats(stats).to_json()
            if saved[0] != payload:  # else this handle's last write, byte for byte
                with self.db.atomic():
                    self.db.execute(
                        "INSERT OR REPLACE INTO profiles (name, payload, updated_seq) "
                        "VALUES (?, ?, ?)",
                        (name, payload, self.db.next_seq()),
                    )
            self.db.saved_profiles[name] = (payload, revision)

    def load_profile(self, *, name: str = "default") -> WorkloadProfile | None:
        """The saved profile, or ``None`` when none exists yet."""
        rows = self.db.execute("SELECT payload FROM profiles WHERE name = ?", (name,))
        if not rows:
            return None
        return WorkloadProfile.from_json(rows[0][0])

    def apply_profile(
        self,
        stats: "RuntimeStats",
        *,
        name: str = "default",
        decay: float = DEFAULT_DECAY,
    ) -> bool:
        """Merge the saved profile into ``stats`` (decay-weighted).

        Returns whether a profile existed.  Sessions built with ``store=``
        call this on construction, so their first quote is priced from the
        previous run's observations.
        """
        profile = self.load_profile(name=name)
        if profile is None:
            return False
        profile.apply_to(stats, decay=decay)
        return True

    # -- pipeline checkpoints -----------------------------------------------------

    def save_checkpoint(
        self, fingerprint: str, spec: TaskSpec, result: OperatorResult
    ) -> str:
        """Persist one completed step's result under its key; returns the
        result's digest, which the row also stores.

        The strategy that actually executed is recorded for observability
        (it is deliberately *not* part of the key — see
        :mod:`repro.store.fingerprint`).
        """
        payload, digest = encode_checkpoint(result)
        with self.db.atomic():
            self.db.execute(
                "INSERT OR REPLACE INTO checkpoints "
                "(fingerprint, payload, spec_type, strategy, calls, cost, access_seq, digest) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    payload,
                    type(spec).__name__,
                    result.strategy,
                    result.usage.calls,
                    result.cost,
                    self.db.next_seq(),
                    digest,
                ),
            )
            self.db.evict("checkpoints", self.max_checkpoints, "access_seq", 1)
        return digest

    def load_checkpoint(self, fingerprint: str) -> OperatorResult | None:
        """The stored result for ``fingerprint``, or ``None`` (a miss)."""
        return self.load_checkpoints([fingerprint]).get(fingerprint, (None,))[0]

    def load_checkpoints(self, fingerprints: list[str]) -> dict[str, tuple[OperatorResult, str]]:
        """Fingerprint → ``(result, digest)`` of the stored checkpoints among
        ``fingerprints``, in one ``SELECT``.  A hit's LRU stamp rides this
        handle's next write (:meth:`StoreDB.touch_checkpoint`); an unreadable
        row is a miss, and is dropped (that very payload: another handle may
        have replaced it since)."""
        if not fingerprints:
            return {}
        marks = ",".join("?" * len(fingerprints))
        rows = self.db.execute(
            f"SELECT fingerprint, payload, digest FROM checkpoints WHERE fingerprint IN ({marks})",
            fingerprints,
        )
        loaded: dict[str, tuple[OperatorResult, str]] = {}
        for fingerprint, payload, digest in rows:
            result = None
            with suppress(Exception):
                result = decode_result(payload)
            if result is None:
                self.db.execute(
                    "DELETE FROM checkpoints WHERE fingerprint = ? AND payload = ?",
                    (fingerprint, payload),
                )
                continue
            self.db.touch_checkpoint(fingerprint)
            result.metadata["checkpoint_hit"] = True
            loaded[fingerprint] = (result, digest)
        return loaded

    def checkpoint_digests(self, fingerprints: list[str]) -> dict[str, tuple[str, str]]:
        """Fingerprint → ``(executed strategy, result digest)`` of the stored
        checkpoints among ``fingerprints``: a quote's one ``SELECT``, no decode."""
        if not fingerprints:
            return {}
        marks = ",".join("?" * len(fingerprints))
        rows = self.db.execute(
            f"SELECT fingerprint, strategy, digest FROM checkpoints WHERE fingerprint IN ({marks})",
            fingerprints,
        )
        return {fingerprint: (strategy, digest) for fingerprint, strategy, digest in rows}

    def checkpoint_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM checkpoints")[0][0])

    # -- spans --------------------------------------------------------------------

    def save_spans(self, spans: list[Span], *, origin: str) -> None:
        """Upsert a tracker's spans atomically, keyed by ``origin:span_id``.

        The tracker re-sends spans whose status or attributes changed
        after the first flush (a span closes, a retry annotates its call,
        an observer error is annotated), so rows are updated in place, not
        duplicated — a re-sent span keeps its place in the FIFO that evicts
        the oldest rows beyond ``max_span_records``.
        """
        if not spans:
            return
        rows = [
            (
                f"{origin}:{span.span_id}",
                origin,
                span.span_id,
                span.parent_id,
                span.kind,
                span.label,
                span.start,
                span.end,
                span.status,
                _ATTRIBUTES.encode(span.attributes),
            )
            for span in spans
        ]
        with self.db.atomic():
            self.db.executemany(
                "INSERT INTO spans "
                "(row_id, origin, span_id, parent_id, kind, label, "
                "start_time, end_time, status, attributes) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(row_id) DO UPDATE SET end_time = excluded.end_time, "
                "status = excluded.status, attributes = excluded.attributes",
                rows,
            )
            self.db.evict("spans", self.max_span_records, "rowid", len(rows))

    def load_spans(self, *, origin: str | None = None, kind: str | None = None) -> list[Span]:
        """Stored spans (optionally one tracker's, of one kind), in creation order."""
        sql = (
            "SELECT span_id, parent_id, kind, label, start_time, end_time, "
            "status, attributes FROM spans"
        )
        filters = {
            column: value
            for column, value in (("origin", origin), ("kind", kind))
            if value is not None
        }
        if filters:
            sql += " WHERE " + " AND ".join(f"{column} = ?" for column in filters)
        sql += " ORDER BY origin, span_id"
        return [
            Span(
                span_id=int(row[0]),
                parent_id=None if row[1] is None else int(row[1]),
                kind=row[2],
                label=row[3],
                start=float(row[4]),
                end=None if row[5] is None else float(row[5]),
                status=row[6],
                attributes=json.loads(row[7]),
            )
            for row in self.db.execute(sql, filters.values())
        ]

    def span_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM spans")[0][0])

    def trace_records(self, *, origin: str | None = None) -> list[TraceRecord]:
        """Stored call records — the ``call`` spans, as their typed views
        (optionally one session's), oldest first."""
        return [
            TraceRecord.from_span(span) for span in self.load_spans(origin=origin, kind="call")
        ]

    def trace_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM spans WHERE kind = 'call'")[0][0])

    # -- jobs ---------------------------------------------------------------------

    _JOB_COLUMNS = (
        "job_id, tenant, status, pipeline, quote, report, error, resumable, "
        "submitted_seq, updated_seq"
    )

    def save_job(self, job: JobRecord) -> None:
        """Upsert one job row atomically (the service persists every
        transition: accepted, started, each streamed step, and the outcome).

        ``submitted_seq`` is assigned on first save and preserved on
        updates; ``updated_seq`` advances every save, so "most recently
        touched" is queryable without wall clocks.
        """
        validate_status(job.status)
        with self.db.atomic():
            if job.submitted_seq == 0:
                rows = self.db.execute(
                    "SELECT submitted_seq FROM jobs WHERE job_id = ?", (job.job_id,)
                )
                job.submitted_seq = (
                    int(rows[0][0]) if rows else self.db.next_seq()
                )
            job.updated_seq = self.db.next_seq()
            self.db.execute(
                f"INSERT OR REPLACE INTO jobs ({self._JOB_COLUMNS}) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job.job_id,
                    job.tenant,
                    job.status,
                    job.pipeline_json,
                    job_quote_payload(job),
                    job_report_payload(job),
                    job.error,
                    int(job.resumable),
                    job.submitted_seq,
                    job.updated_seq,
                ),
            )

    def load_job(self, job_id: str) -> JobRecord | None:
        """The stored job row, or ``None`` when no such job exists."""
        rows = self.db.execute(
            f"SELECT {self._JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
        )
        return job_from_row(rows[0]) if rows else None

    def list_jobs(
        self, *, tenant: str | None = None, status: str | None = None
    ) -> list[JobRecord]:
        """Stored jobs in submission order, optionally filtered."""
        sql = f"SELECT {self._JOB_COLUMNS} FROM jobs"
        clauses: list[str] = []
        parameters: list[Any] = []
        if tenant is not None:
            clauses.append("tenant = ?")
            parameters.append(tenant)
        if status is not None:
            clauses.append("status = ?")
            parameters.append(validate_status(status))
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY submitted_seq ASC"
        return [job_from_row(row) for row in self.db.execute(sql, parameters)]

    def job_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM jobs")[0][0])

    # -- lifecycle ----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Debug view of the store's contents."""
        profiles = [row[0] for row in self.db.execute("SELECT name FROM profiles")]
        return {
            "path": self.path,
            "cache": self._cache.snapshot(),
            "profiles": sorted(profiles),
            "checkpoints": self.checkpoint_count(),
            "traces": self.trace_count(),
            "spans": self.span_count(),
            "jobs": self.job_count(),
            "embeddings": self.embedding_count(),
            "vector_indexes": self.vector_index_count(),
        }

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _decode_graphs(encoded: str, size: int) -> dict[int, list[list[int]]]:
    """The well-formed graphs of an index row holding ``size`` ids: per ``k``,
    one neighbour list per id, each naming other ids of the index."""
    try:
        stored = json.loads(encoded)
    except ValueError:
        return {}
    graphs: dict[int, list[list[int]]] = {}
    for key, graph in stored.items() if isinstance(stored, dict) else ():
        if (
            key.isdecimal()
            and isinstance(graph, list)
            and len(graph) == size
            and all(
                isinstance(row, list)
                and all(
                    type(other) is int and 0 <= other < size and other != own for other in row
                )
                for own, row in enumerate(graph)
            )
        ):
            graphs[int(key)] = graph
    return graphs
