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
``Store("repro-store.db")`` handed to the session or the engine.  The
multi-tenant service keeps every tenant in that one file, each behind its own
:meth:`Store.namespace` view.
"""

from __future__ import annotations

import copy
import json
import os
from contextlib import suppress
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.spec import TaskSpec
from repro.exceptions import StoreError
from repro.obs.spans import CALL_ATTRIBUTES, Span, TraceRecord
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

#: One encoder per JSON format a row stores (``json.dumps`` builds one per
#: call): span attributes, a ``calls`` row's list rows, and an index row's
#: k-NN graphs.
_ATTRIBUTES = json.JSONEncoder(sort_keys=True)
_COMPACT = json.JSONEncoder(separators=(",", ":"))

#: The spans a ``spans`` row holds beyond one (a ``calls`` row holds
#: ``parent_id``: see :meth:`Store.save_spans`), and the spans of the rows.
_MORE_SPANS = "CASE kind WHEN 'calls' THEN parent_id - 1 ELSE 0 END"
_SPANS = f"COUNT(*) + COALESCE(SUM({_MORE_SPANS}), 0)"


class Store:
    """A durable store shared by sessions, engines, and queries.

    Args:
        path: SQLite file backing the store (``":memory:"`` for ephemeral).
        max_cache_entries: LRU entry cap of the response cache.
        max_cache_bytes: optional LRU byte cap of the response cache.
        max_checkpoints: LRU cap on retained step checkpoints.
        max_span_records: FIFO cap on retained spans (call records
            included: a call is a ``call`` span).

    ``prefix`` is ``""`` for a store opened on a file, and the namespace id
    for a view made by :meth:`namespace`.  Each keyed method scopes its key
    once, where the key meets SQL (:meth:`_scoped`).
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
        self.prefix = ""

    @property
    def path(self) -> str:
        return self.db.path

    def namespace(self, prefix: str) -> "Store":
        """A tenant-isolated view of this store: a ``Store`` with ``prefix``.

        Tenants share one file — one WAL, one LRU budget, one operational
        artifact — but must never observe each other's state: a cache hit on
        another tenant's paid-for response leaks it, and a checkpoint
        restored across tenants hands one tenant results priced against
        another's budget.  The view shares this store's :class:`StoreDB`
        (``view.db is store.db``: one lock, one write-behind overlay, one
        profile memo) and mixes ``prefix`` into every key before it reaches
        the shared tables: the response cache hashes it into each key digest
        (:func:`repro.store.response_cache._key`); profile names, checkpoint
        fingerprints, vector-index names (and with them the k-NN graphs on an
        index row) and span origins are stored as ``<prefix>::<key>``.  Raw
        fingerprints are bare hex, so a prefixed key never collides with an
        unprefixed one.  Job rows and embedding vectors are not scoped (see
        :meth:`save_job` and :meth:`embedding_cache`).

        Counts (``span_count``, ``checkpoint_count``, ...) and the LRU / FIFO
        caps stay file-wide, and closing a view closes the shared handle.
        The prefix replaces a view's own: ``view.namespace(p)`` is
        ``store.namespace(p)``.  :class:`~repro.service.tenants.TenantRegistry`
        hands each tenant's session ``store.namespace(tenant_id)``.
        """
        if not prefix:
            raise StoreError("a store namespace needs a non-empty prefix")
        if "::" in prefix:
            raise StoreError("a store namespace prefix must not contain '::'")
        view = copy.copy(self)
        view.prefix = prefix
        return view

    def _scoped(self, key: str) -> str:
        return f"{self.prefix}::{key}" if self.prefix else key

    # -- response cache -----------------------------------------------------------

    def response_cache(self) -> PersistentResponseCache:
        """A durable response cache view (drop-in for ``ResponseCache``).

        Every call returns a *new* instance: the entries are shared (they
        live in the database), but hit/miss counters are per instance, so
        each :class:`~repro.core.session.PromptSession` built on this store
        reports its own hit rate — matching the semantics of handing every
        session a fresh in-memory cache.  A namespace view's ``prefix`` is
        mixed into every key digest, so its cache shares the file but can
        never read or collide with another namespace's entries.
        """
        return PersistentResponseCache(
            self.db,
            max_entries=self.max_cache_entries,
            max_bytes=self.max_cache_bytes,
            namespace=self.prefix,
        )

    # -- embedding vectors --------------------------------------------------------

    def embedding_cache(self) -> EmbeddingCache:
        """A durable embedding-vector cache view (fresh hit/miss counters).

        Like :meth:`response_cache`, every call returns a new instance over
        the shared rows, so each consumer (a
        :class:`~repro.index.CachedEmbedder`, a test pinning zero
        recomputation) reads its own hit rate.  It is shared by every
        namespace: a stored vector is a pure function of ``(text, embedder
        config)`` computed locally at zero dollars, so a cross-tenant hit
        reuses arithmetic, not another tenant's paid-for content, and the
        cache offers no way to enumerate entries.  The whole deployment
        embeds each distinct text once.
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
        encoded = _COMPACT.encode({str(k): graph for k, graph in (graphs or {}).items()})
        with self.db.atomic():
            self.db.execute(
                "INSERT OR REPLACE INTO vector_indexes "
                "(name, kind, dimensions, size, payload, updated_seq, graphs) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    self._scoped(name),
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
            "SELECT kind, payload FROM vector_indexes WHERE name = ?",
            (self._scoped(name),),
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
            "SELECT kind, size, graphs FROM vector_indexes WHERE name = ?",
            (self._scoped(name),),
        )
        if not rows:
            return None
        kind, size, encoded = rows[0]
        return kind, _decode_graphs(encoded, int(size))

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
        key = self._scoped(name)  # the memo is keyed like the row: per namespace
        with self.db.lock:
            revision = None if merge else stats.revision  # read before the export
            saved = self.db.saved_profiles.get(key, (None, None))
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
                        (key, payload, self.db.next_seq()),
                    )
            self.db.saved_profiles[key] = (payload, revision)

    def load_profile(self, *, name: str = "default") -> WorkloadProfile | None:
        """The saved profile, or ``None`` when none exists yet."""
        rows = self.db.execute(
            "SELECT payload FROM profiles WHERE name = ?", (self._scoped(name),)
        )
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
                    self._scoped(fingerprint),
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
        keys = {self._scoped(fingerprint): fingerprint for fingerprint in fingerprints}
        marks = ",".join("?" * len(keys))
        rows = self.db.execute(
            f"SELECT fingerprint, payload, digest FROM checkpoints WHERE fingerprint IN ({marks})",
            keys,
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
            loaded[keys[fingerprint]] = (result, digest)
        return loaded

    def checkpoint_digests(self, fingerprints: list[str]) -> dict[str, tuple[str, str]]:
        """Fingerprint → ``(executed strategy, result digest)`` of the stored
        checkpoints among ``fingerprints``: a quote's one ``SELECT``, no decode."""
        if not fingerprints:
            return {}
        keys = {self._scoped(fingerprint): fingerprint for fingerprint in fingerprints}
        marks = ",".join("?" * len(keys))
        rows = self.db.execute(
            f"SELECT fingerprint, strategy, digest FROM checkpoints WHERE fingerprint IN ({marks})",
            keys,
        )
        return {keys[fingerprint]: (strategy, digest) for fingerprint, strategy, digest in rows}

    def checkpoint_count(self) -> int:
        return int(self.db.execute("SELECT COUNT(*) FROM checkpoints")[0][0])

    # -- spans --------------------------------------------------------------------

    def save_spans(self, spans: list[Span], *, origin: str) -> None:
        """Persist one flush of a tracker's spans atomically, under ``origin``.

        A span of any kind but ``call`` is one row, keyed by
        ``origin:span_id`` and upserted: the tracker re-sends a span whose
        status or attributes changed after its first flush (a span closes),
        and its row is updated where it sits.  The flush's new ``call`` spans
        are one ``calls`` row: ``attributes`` holds one list row each
        (:func:`_call_row`, oldest first), ``span_id`` the highest of their
        ids and ``parent_id`` how many they are.  A call re-sent after its
        flush (a retry's ``annotate``, an observer error) rewrites its own
        list row where a ``calls`` row holds it, so every call has one stored
        version.  Beyond ``max_span_records`` spans the oldest rows go first,
        a ``calls`` row weighing its calls; the row at the cap's edge loses
        its oldest calls.
        """
        if not spans:
            return
        origin = self._scoped(origin)
        calls = sorted((span for span in spans if span.kind == "call"), key=attrgetter("span_id"))
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
            if span.kind != "call"
        ]
        db = self.db
        with db.atomic():
            stored = db.stored_calls.get(origin, 0)
            if calls and calls[0].span_id <= stored:
                calls = self._rewrite_calls(calls, origin)
            if calls:
                first, last = calls[0], calls[-1]
                rows.append(
                    (
                        f"{origin}:{first.span_id}..{last.span_id}",
                        origin,
                        last.span_id,
                        len(calls),
                        "calls",
                        "",
                        first.start,
                        last.end,
                        "ok",
                        _COMPACT.encode([_call_row(span) for span in calls]),
                    )
                )
                db.stored_calls[origin] = max(stored, last.span_id)
            db.executemany(
                "INSERT INTO spans "
                "(row_id, origin, span_id, parent_id, kind, label, "
                "start_time, end_time, status, attributes) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(row_id) DO UPDATE SET end_time = excluded.end_time, "
                "status = excluded.status, attributes = excluded.attributes",
                rows,
            )
            trim = db.evict("spans", self.max_span_records, "rowid", len(spans), extra=_MORE_SPANS)
            if trim is not None:
                rowid, count = trim
                (encoded,) = db.execute("SELECT attributes FROM spans WHERE rowid = ?", (rowid,))[0]
                self._put_calls(rowid, json.loads(encoded)[count:])

    def _rewrite_calls(self, calls: list[Span], origin: str) -> list[Span]:
        """Rewrite each of ``calls`` where a ``calls`` row of ``origin`` holds
        it; returns the others (never stored, or evicted since)."""
        waiting = {span.span_id: span for span in calls}
        rows = self.db.execute(
            "SELECT rowid, attributes FROM spans "
            "WHERE origin = ? AND span_id >= ? AND kind = 'calls' ORDER BY span_id",
            (origin, calls[0].span_id),
        )
        for rowid, encoded in rows:
            elements = json.loads(encoded)
            held = [index for index, element in enumerate(elements) if element[0] in waiting]
            for index in held:
                elements[index] = _call_row(waiting.pop(elements[index][0]))
            if held:
                self._put_calls(rowid, elements)
            if not waiting:
                break
        return [span for span in calls if span.span_id in waiting]

    def _put_calls(self, rowid: int, elements: list[list[Any]]) -> None:
        self.db.execute(
            "UPDATE spans SET parent_id = ?, attributes = ? WHERE rowid = ?",
            (len(elements), _COMPACT.encode(elements), rowid),
        )

    def load_spans(self, *, origin: str | None = None, kind: str | None = None) -> list[Span]:
        """Stored spans (optionally one tracker's, of one kind), in creation
        order per origin; a namespace view reads only its own origins.  A
        ``calls`` row reads back as the ``call`` spans it holds."""
        sql = (
            "SELECT origin, span_id, parent_id, kind, label, start_time, end_time, "
            "status, attributes FROM spans"
        )
        clauses: list[str] = []
        parameters: list[Any] = []
        if origin is not None:
            clauses.append("origin = ?")
            parameters.append(self._scoped(origin))
        elif self.prefix:
            clauses.append("substr(origin, 1, ?) = ?")
            parameters += [len(self.prefix) + 2, f"{self.prefix}::"]
        if kind == "call":
            clauses.append("kind IN ('call', 'calls')")
        elif kind is not None:
            clauses.append("kind = ?")
            parameters.append(kind)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        loaded: list[tuple[str, Span]] = []
        for row in self.db.execute(sql, parameters):
            if row[3] == "calls":
                loaded += [(row[0], _call_span(element)) for element in json.loads(row[8])]
                continue
            span = Span(
                span_id=int(row[1]),
                parent_id=None if row[2] is None else int(row[2]),
                kind=row[3],
                label=row[4],
                start=float(row[5]),
                end=None if row[6] is None else float(row[6]),
                status=row[7],
                attributes=json.loads(row[8]),
            )
            loaded.append((row[0], span))
        loaded.sort(key=lambda pair: (pair[0], pair[1].span_id))
        return [span for _, span in loaded]

    def span_count(self) -> int:
        return int(self.db.execute(f"SELECT {_SPANS} FROM spans")[0][0])

    def trace_records(self, *, origin: str | None = None) -> list[TraceRecord]:
        """Stored call records — the ``call`` spans, as their typed views
        (optionally one session's), oldest first."""
        return [
            TraceRecord.from_span(span) for span in self.load_spans(origin=origin, kind="call")
        ]

    def trace_count(self) -> int:
        sql = f"SELECT {_SPANS} FROM spans WHERE kind IN ('call', 'calls')"
        return int(self.db.execute(sql)[0][0])

    # -- jobs ---------------------------------------------------------------------

    _JOB_COLUMNS = (
        "job_id, tenant, status, pipeline, quote, report, error, resumable, "
        "submitted_seq, updated_seq"
    )

    def save_job(self, job: JobRecord) -> None:
        """Upsert one job row atomically (the service persists every
        transition: accepted, started, each streamed step, and the outcome).

        Job rows are not scoped by a namespace view's prefix: each row names
        its ``tenant`` in a column, which the service filters by.

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

    # -- lifecycle ----------------------------------------------------------------

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


def _call_row(span: Span) -> list[Any]:
    """A call span as a list row: id, parent id, model, start, end, status,
    then the values of :data:`~repro.obs.spans.CALL_ATTRIBUTES` — or, when its
    attributes are not exactly those in that order, the attributes dict."""
    row = [span.span_id, span.parent_id, span.label, span.start, span.end, span.status]
    attributes = span.attributes
    if tuple(attributes) == CALL_ATTRIBUTES:
        row += attributes.values()
    else:
        row.append(attributes)
    return row


def _call_span(row: list[Any]) -> Span:
    """The call span :func:`_call_row` wrote as ``row``."""
    span_id, parent_id, label, start, end, status, *values = row
    attributes = values[0] if len(values) == 1 else dict(zip(CALL_ATTRIBUTES, values))
    return Span(span_id, parent_id, "call", label, start, end, status, attributes)
