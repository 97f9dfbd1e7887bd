"""Benchmark-owned spans around the public entry points of each layer.

Nothing under ``src/`` is edited: :class:`Recorder` swaps the functions
named in :data:`TARGETS` for timing wrappers while a traced repetition
runs and puts the originals back afterwards.  A wrapper records one span
``(id, parent, unit, layer, name, start, end)`` into an in-memory list; the
parent comes from a ``ContextVar``, which the program's executors carry
into their worker threads (``copy_context().run``) and asyncio carries
into tasks, so spans of one unit share its id wherever they ran.

A layer's *self time* is its spans' durations minus the part of each that
its child spans cover (as a union, so children running in parallel are not
subtracted twice).  Wrappers cost about a microsecond each and that cost
lands in the parent's self time, which is why end-to-end numbers come from
the untraced repetitions and ``harness.trace_overhead_ratio`` reports the
difference.

A target that no longer exists (a later refactor removed it) is skipped
and listed in :attr:`Recorder.unwrapped`; the layer then simply reports
less, it does not break the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable, Iterator

from .metrics import LAYERS

#: ``(span id, unit id)`` of the innermost open span; ``None`` outside a
#: traced unit, where wrappers pass straight through.
_CURRENT: ContextVar[tuple[int, int] | None] = ContextVar("perf_span", default=None)

Span = tuple[int, int, int, str, str, float, float]


def _sql_kind(_self: Any, sql: str, *_args: Any, **_kwargs: Any) -> str:
    return "db.read" if sql.lstrip()[:6].upper() == "SELECT" else "db.write"


#: layer -> module -> class (``None`` for module-level functions) -> names.
#: ``cm:`` marks a function returning a context manager (enter and exit
#: are timed, the body is not); a ``(name, namer)`` pair derives the span
#: name from the call's arguments.
TARGETS: dict[str, dict[str, dict[str | None, tuple[Any, ...]]]] = {
    "llm": {
        "repro.llm.simulated": {
            "SimulatedLLM": ("complete", "complete_batch", "acomplete", "acomplete_batch")
        },
        "repro.llm.cache": {
            "CachedClient": ("complete", "complete_batch", "acomplete", "acomplete_batch"),
            "ResponseCache": ("get", "put"),
        },
        "repro.llm.tracker": {
            "TrackedClient": ("complete", "complete_batch", "acomplete", "acomplete_batch"),
            "UsageTracker": ("record", "record_batch"),
        },
        "repro.llm.retry": {
            "RetryingClient": ("complete", "complete_batch", "acomplete", "acomplete_batch")
        },
    },
    "tokenizer": {
        "repro.tokenizer.simple": {"SimpleTokenizer": ("count", "tokenize")},
        "repro.tokenizer.cost": {"CostModel": ("cost",)},
    },
    "core.session": {
        "repro.core.session": {
            "PromptSession": (
                "__init__", "complete", "complete_batch", "acomplete",
                "acomplete_batch", "save_profile",
            ),
            "SessionClient": ("complete", "complete_batch", "acomplete", "acomplete_batch"),
        },
        "repro.core.budget": {"Budget": ("charge",), "BudgetLease": ("charge",)},
    },
    "trace": {
        "repro.trace.tracer": {
            "Tracer": ("record", "annotate", "flush"),
            None: ("cm:trace_label",),
        },
    },
    "obs": {
        "repro.obs.spans": {"SpanTracker": ("cm:span", "record_span", "annotate", "flush")},
        "repro.obs.instruments": {
            "SessionInstruments": (
                "note_call", "note_call_error", "note_budget_spent", "note_admission",
                "note_release", "note_enqueued", "note_dequeued", "note_task_started",
                "note_task_done", "note_job", "note_job_started", "note_job_finished",
            )
        },
        "repro.obs.metrics": {"MetricsRegistry": ("render",)},
    },
    "core.executor": {
        "repro.core.executor": {
            "BatchExecutor": ("run", "map"),
            "AsyncBatchExecutor": ("run", "map"),
        },
    },
    "core.governor": {
        "repro.core.governor": {
            "ConcurrencyGovernor": (
                "cm:admit", "acm:admit_async", "record_success", "record_failure",
            )
        },
    },
    "core.workflow": {
        "repro.core.workflow": {
            "Workflow": ("execute", "execute_async", "from_pipeline"),
            "WorkflowReport": ("to_dict",),
        },
    },
    "core.engine": {
        "repro.core.engine": {
            "DeclarativeEngine": (
                "run_pipeline", "run_pipeline_async", "run_spec", "quote_pipeline",
            )
        },
    },
    "core.planner": {
        "repro.core.planner": {
            "CostPlanner": ("estimate_spec", "quote_pipeline", "known_cached_calls"),
            "PipelineQuote": ("to_dict",),
        },
    },
    "core.physical": {
        "repro.core.physical": {
            "PhysicalPlanner": ("resolve", "plan_pipeline", "record_run", "cost_planner"),
            "RuntimeStats": (
                "record_cache", "record_latency", "record_calls", "record_critical_path",
            ),
        },
    },
    "query": {
        "repro.query.dataset": {"Dataset": ("run", "quote", "compile")},
        "repro.query.optimizer": {None: ("optimize",)},
        "repro.query.compile": {None: ("compile_plan",)},
    },
    "operators": {
        "repro.operators.filter": {"FilterOperator": ("run",)},
        "repro.operators.sort": {"SortOperator": ("run",)},
        "repro.operators.resolve": {"ResolveOperator": ("resolve", "judge_pairs")},
        "repro.operators.top_k": {"TopKOperator": ("run",)},
        "repro.operators.categorize": {"CategorizeOperator": ("run",)},
        "repro.operators.cluster": {"ClusterOperator": ("run",)},
        "repro.operators.join": {"JoinOperator": ("run",)},
        "repro.operators.impute": {"ImputeOperator": ("run",)},
        "repro.operators.count": {"CountOperator": ("run",)},
    },
    "proxies": {
        "repro.proxies.blocking": {"EmbeddingBlocker": ("block", "neighbor_pairs_for")},
    },
    "consistency": {
        "repro.consistency.transitivity": {
            "MatchGraph": ("components", "transitive_matches", "conflicts"),
            None: ("connected_components", "transitive_closure_pairs"),
        },
        "repro.consistency.graph_repair": {None: ("repair_with_evidence",)},
        "repro.consistency.ranking_repair": {
            None: ("best_consistent_order", "minimum_feedback_edges"),
        },
    },
    "index": {
        "repro.llm.embeddings": {"HashingEmbedder": ("embed", "embed_batch")},
        "repro.index.cached": {"CachedEmbedder": ("embed", "embed_batch")},
        "repro.index.lsh": {
            "LSHIndex": ("add", "search", "knn_graph", "to_payload", "from_payload")
        },
        "repro.index.exact": {
            "ExactIndex": ("add", "search", "knn_graph", "to_payload", "from_payload")
        },
        "repro.index": {None: ("build_index", "corpus_index_name")},
    },
    "store": {
        "repro.store.db": {
            "StoreDB": (("execute", _sql_kind), "transaction", "next_seq", "__init__", "close"),
        },
        "repro.store.store": {
            "Store": (
                "save_profile", "load_profile", "apply_profile", "save_checkpoint",
                "load_checkpoint", "save_trace_records", "save_spans", "save_job",
                "load_job", "save_vector_index", "load_vector_index",
            )
        },
        "repro.store.response_cache": {
            "PersistentResponseCache": ("get", "put", "contains")
        },
        "repro.store.vectors": {"EmbeddingCache": ("get_many", "put_many")},
        "repro.store.fingerprint": {None: ("fingerprint_spec",)},
        "repro.store.checkpoint": {None: ("encode_result", "decode_result")},
    },
    "service": {
        "repro.service.app": {"ServiceApp": ("__call__",)},
        "repro.service.jobs": {"JobManager": ("submit", "get")},
        "repro.service.admission": {"AdmissionController": ("review",)},
        "repro.service.tenants": {"TenantRegistry": ("authenticate",)},
        "repro.core.spec_codec": {
            None: (
                "codec:pipeline_from_dict", "codec:pipeline_from_json",
                "codec:pipeline_to_json", "codec:pipeline_to_dict",
            )
        },
    },
}


class _TimedContext:
    """Times a context manager's enter and exit, not the body between."""

    def __init__(self, inner: Any, enter: Callable, leave: Callable) -> None:
        self._inner = inner
        self._enter = enter
        self._leave = leave

    def __enter__(self) -> Any:
        return self._enter(self._inner.__enter__)

    def __exit__(self, *exc_info: Any) -> Any:
        return self._leave(self._inner.__exit__, *exc_info)

    async def __aenter__(self) -> Any:
        return await self._enter(self._inner.__aenter__)

    async def __aexit__(self, *exc_info: Any) -> Any:
        return await self._leave(self._inner.__aexit__, *exc_info)


class Recorder:
    """Installs the wrappers, holds the spans, turns them into numbers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(spans recorded when a repetition ended, its reference scale)``.
        self.repetitions: list[tuple[int, float]] = []
        self.unwrapped: list[str] = []
        self._ids = itertools.count(1)
        self._undo: list[Callable[[], None]] = []

    # -- wrapping -----------------------------------------------------------------

    def _timed(self, fn: Callable, layer: str, name: str, namer: Callable | None) -> Callable:
        record = self.spans.append
        ids = self._ids
        current = _CURRENT

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                if parent is None:
                    return await fn(*args, **kwargs)
                span_id = next(ids)
                label = namer(*args, **kwargs) if namer else name
                token = current.set((span_id, parent[1]))
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    current.reset(token)
                    record((span_id, parent[0], parent[1], layer, label, start, end))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            if parent is None:
                return fn(*args, **kwargs)
            span_id = next(ids)
            label = namer(*args, **kwargs) if namer else name
            token = current.set((span_id, parent[1]))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                current.reset(token)
                record((span_id, parent[0], parent[1], layer, label, start, end))

        return wrapper

    def _timed_context(self, fn: Callable, layer: str, name: str, is_async: bool) -> Callable:
        runner = _acall if is_async else _call
        enter = self._timed(runner, layer, f"{name}.enter", None)
        leave = self._timed(runner, layer, f"{name}.exit", None)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _TimedContext(fn(*args, **kwargs), enter, leave)

        return wrapper

    def _wrap(self, fn: Callable, layer: str, spec: Any, owner: str) -> Callable:
        name, namer = spec if isinstance(spec, tuple) else (spec, None)
        flavour, _, bare = name.rpartition(":")
        label = f"{owner}.{bare}" if owner else bare
        if flavour in ("cm", "acm"):
            return self._timed_context(fn, layer, label, is_async=flavour == "acm")
        if flavour:
            label = f"{flavour}.{bare}"
        return self._timed(fn, layer, label, namer)

    def install(self) -> None:
        """Swap every target for its timing wrapper (see :data:`TARGETS`)."""
        for layer, modules in TARGETS.items():
            for module_name, owners in modules.items():
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.unwrapped.append(module_name)
                    continue
                for owner, specs in owners.items():
                    for spec in specs:
                        bare = (spec[0] if isinstance(spec, tuple) else spec).rpartition(":")[2]
                        if owner is None:
                            done = self._patch_function(module, bare, layer, spec)
                        else:
                            done = self._patch_method(module, owner, bare, layer, spec)
                        if not done:
                            self.unwrapped.append(f"{module_name}:{owner or ''}.{bare}")

    def _patch_method(self, module: Any, owner: str, name: str, layer: str, spec: Any) -> bool:
        cls = getattr(module, owner, None)
        raw = None if cls is None else cls.__dict__.get(name)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, layer, spec, owner))
        elif callable(raw):
            wrapped = self._wrap(raw, layer, spec, owner)
        else:
            return False
        setattr(cls, name, wrapped)
        self._undo.append(lambda: setattr(cls, name, raw))
        return True

    def _patch_function(self, module: Any, name: str, layer: str, spec: Any) -> bool:
        """Rebind a module-level function everywhere ``repro`` imported it by name."""
        original = getattr(module, name, None)
        if not callable(original):
            return False
        wrapped = self._wrap(original, layer, spec, "")
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attribute, wrapped)
                    self._undo.append(
                        lambda other=other, attribute=attribute: setattr(
                            other, attribute, original
                        )
                    )
        return True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- units --------------------------------------------------------------------

    @contextmanager
    def unit(self, unit_id: int) -> Iterator[None]:
        """The root span of one unit of user work; wrappers only record inside."""
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, unit_id))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, 0, unit_id, "harness", "unit", start, end))

    def close_repetition(self, scale: float) -> None:
        """The times of the spans recorded since the last call are reported
        multiplied by ``scale`` (reference-machine time over measured time)."""
        self.repetitions.append((len(self.spans), scale))

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _id, parent, _unit, _layer, _name, start, end in self.spans:
            children[parent].append((start, end))
        result: dict[int, float] = {}
        for span_id, _parent, _unit, _layer, _name, start, end in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = (end - start) - covered
        return result

    def layer_metrics(self, *, ops: int, units: int, steps: int) -> dict[str, float]:
        """The span-derived per-layer numbers (see README, per-layer table)."""
        self_time = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[float]] = defaultdict(list)
        root_total = root_self = 0.0
        scales: list[float] = []
        for recorded, scale in self.repetitions:
            scales += [scale] * (recorded - len(scales))
        # Outside a harness-driven repetition (or from a thread that outlived
        # one) a span is taken as read.
        scales += [1.0] * (len(self.spans) - len(scales))
        for scale, (span_id, _parent, _unit, layer, name, start, end) in zip(
            scales, self.spans
        ):
            if layer == "harness":
                root_total += end - start
                root_self += self_time[span_id]
                continue
            calls[layer] += 1
            busy[layer] += self_time[span_id] * scale
            by_name[name].append((end - start) * scale)

        def total(*names: str) -> float:
            return sum(sum(by_name.get(name, ())) for name in names)

        def count(*names: str) -> int:
            return sum(len(by_name.get(name, ())) for name in names)

        ops = max(ops, 1)
        units = max(units, 1)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
            metrics[f"{layer}.self_us_per_op"] = busy[layer] * 1e6 / ops
        probes = ("LSHIndex.search", "LSHIndex.knn_graph", "ExactIndex.search", "ExactIndex.knn_graph")
        codec = tuple(name for name in by_name if name.startswith("codec."))
        repair = (
            "MatchGraph.components", "MatchGraph.transitive_matches", "MatchGraph.conflicts",
            "connected_components", "transitive_closure_pairs", "repair_with_evidence",
            "best_consistent_order", "minimum_feedback_edges",
        )
        metrics.update(
            {
                "tokenizer.count_calls_per_op": count("SimpleTokenizer.count") / ops,
                "core.governor.admit_us_per_op": total(
                    "ConcurrencyGovernor.admit.enter", "ConcurrencyGovernor.admit_async.enter"
                ) * 1e6 / ops,
                "core.workflow.self_us_per_step": busy["core.workflow"] * 1e6 / max(steps, 1),
                "core.planner.quote_ms": total("CostPlanner.quote_pipeline") * 1e3 / units,
                "core.physical.resolve_ms": total("PhysicalPlanner.resolve") * 1e3 / units,
                "query.compile_ms": total("compile_plan") * 1e3 / units,
                "query.optimize_ms": total("optimize") * 1e3 / units,
                "proxies.block_ms": total("EmbeddingBlocker.block") * 1e3 / units,
                "consistency.repair_ms": total(*repair) * 1e3 / units,
                "index.embed_ms": total("HashingEmbedder.embed_batch") * 1e3 / units,
                "index.build_ms": total("build_index") * 1e3 / units,
                "index.probe_us": total(*probes) * 1e6 / max(count(*probes), 1),
                "store.write_calls_per_unit": count(
                    "db.write", "StoreDB.transaction", "StoreDB.next_seq"
                ) / units,
                "store.read_calls_per_unit": count("db.read") / units,
                "store.restore_ms": total("Store.load_checkpoint") * 1e3 / units,
                "service.codec_ms_per_job": total(*codec) * 1e3 / units,
                "harness.unattributed_share": root_self / root_total if root_total else 0.0,
            }
        )
        return metrics

    def dump(self) -> dict[str, Any]:
        """The raw spans, for ``trace_<workload>.json``."""
        return {
            "columns": ["id", "parent", "unit", "layer", "name", "start", "end"],
            "repetitions": self.repetitions,
            "unwrapped": self.unwrapped,
            "spans": self.spans,
        }


def _call(call: Callable, *args: Any) -> Any:
    return call(*args)


async def _acall(call: Callable, *args: Any) -> Any:
    return await call(*args)
