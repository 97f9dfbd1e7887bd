"""The seven workloads: what one repetition runs and how it is checked.

Closed loop throughout: a client issues its next unit only after the
previous one completed.  One client everywhere except ``service_jobs``
(two).  A *unit* is one piece of user work (one ``Dataset.run``, one job,
one quote); an *op* is the workload's work item (LLM call, job or unit).
Every repetition builds a fresh backend, session and engine, so the
session's in-memory response cache never serves a call.

A repetition times only program code given ready inputs; generating the
inputs, copying store files and verifying outputs happen outside the clock.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager

from repro.core.engine import DeclarativeEngine
from repro.core.session import PromptSession
from repro.core.workflow import WorkflowReport
from repro.llm.prompts import predicate_check_prompt
from repro.metrics import accuracy
from repro.query import Dataset
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry
from repro.store import Store

from . import corpus
from .tracing import Recorder


@dataclass
class Repetition:
    """What one repetition measured (timings in seconds, costs per unit)."""

    wall_s: float
    cpu_s: float
    ops: int
    unit_s: list[float]
    llm_calls: float
    dollars: float
    quality: float
    steps: int = 0
    #: Backend round-trips a unit cannot avoid (calls x latency / concurrency):
    #: waiting the workload injects, which a slow machine does not stretch.
    wait_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: Compared across repetitions: same inputs must give the same outputs.
    signature: Any = None
    #: Per-layer facts that are not times (ratios, counts, bytes) ...
    facts: dict[str, float] = field(default_factory=dict)
    #: ... and per-layer times in seconds, reported in reference milliseconds.
    timings: dict[str, float] = field(default_factory=dict)
    #: How slow the CPU and the disk were around this repetition (1.0 =
    #: reference); set by the harness from its calibrator.
    machine: float = 1.0
    disk: float = 1.0
    #: The same for work done by threads that have just slept; 0.0 unless
    #: the workload asks for the probe (``Workload.wake_probe``).
    wake: float = 0.0

    @property
    def failed(self) -> int:
        return min(len(self.unit_s), len(self.errors))

    def cpu_scale(self) -> float:
        """What to divide this repetition's CPU time by to get the CPU time
        the reference machine would have spent."""
        return self.wake or self.machine

    def reference_scale(self) -> float:
        """What to multiply this repetition's wall times by to get the time
        the reference machine would have taken.

        Time off the CPU beyond the injected backend wait is taken as
        waiting for the disk and scaled by ``disk``; the rest of the time
        beyond that wait is work and scaled by ``machine``; the wait itself
        no machine stretches.  (Worker threads compute while others sleep,
        so off-CPU time can be less than the wait: then none of it is disk.)
        """
        io = max(self.wall_s - self.cpu_s - self.wait_s, 0.0)
        busy = max(self.wall_s - self.wait_s - io, 0.0)
        return (self.wait_s + busy / self.machine + io / self.disk) / self.wall_s


def _scope(recorder: Recorder | None, unit_id: int) -> ContextManager[None]:
    return recorder.unit(unit_id) if recorder is not None else nullcontext()


def _rel_err(quoted: float, actual: float) -> float:
    return abs(quoted - actual) / actual if actual else 0.0


class Workload:
    """Base: inputs are generated in ``__init__``, which is part of set-up."""

    name = ""
    #: Fixed repetition counts (``full`` sizes) so that run length is the
    #: same on both sides of a comparison.
    repetitions = 1
    #: Discarded before timing starts, so lazy set-up and the program's own
    #: process-wide caches (tokenizer memo, sqlite page cache) are warm.
    warmup_repetitions = 3
    sizes: dict[str, dict[str, int]] = {}
    #: Per-layer name for the 90th percentile of unit times, where units
    #: are many and short enough for a tail to mean something.
    tail_metric = ""
    #: (threads, seconds slept) when the workload's CPU work is done by pool
    #: threads waking from injected backend waits: its CPU time is then set
    #: against the calibrator's wake probe, not its hot kernel.
    wake_probe: tuple[int, float] | None = None

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.params = self.sizes[size]
        self.workdir = workdir
        self._units = 0

    def next_unit(self) -> int:
        self._units += 1
        return self._units

    def repetition(self, recorder: Recorder | None = None) -> Repetition:
        raise NotImplementedError

    def extras(self) -> dict[str, float]:
        """Untraced diagnostics measured once after the timed repetitions."""
        return {}

    def close(self) -> None:
        pass


# -- calls_seq / calls_threads / calls_latency ----------------------------------------


class Calls(Workload):
    """A ``per_item`` filter through ``Dataset.run``; op = LLM call."""

    concurrency = 1
    latency_seconds = 0.0

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.corpus = corpus.filter_corpus(seed, self.params["items"])

    def _session(self, llm: corpus.CountingLLM) -> PromptSession:
        client: Any = llm
        if self.latency_seconds:
            client = corpus.LatencyClient(llm, self.latency_seconds)
        return PromptSession(client, max_concurrency=self.concurrency)

    def repetition(self, recorder: Recorder | None = None) -> Repetition:
        items = self.corpus.items
        with _scope(recorder, self.next_unit()):
            cpu = time.process_time()
            start = time.perf_counter()
            llm = corpus.CountingLLM(self.corpus.oracle, seed=self.seed)
            session = self._session(llm)
            engine = DeclarativeEngine.from_session(session, default_model=corpus.MODEL)
            result = (
                Dataset(items, name=self.name)
                .filter(corpus.FILTER_PREDICATE, strategy="per_item")
                .run(engine)
            )
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        decisions = result.step_result("filter").decisions
        errors = []
        if llm.reached != len(items):
            errors.append(f"{llm.reached} backend calls for {len(items)} distinct items")
        if result.items != [item for item in items if decisions.get(item)]:
            errors.append("kept items are not the accepted items in input order")
        facts = {
            "llm.cache_hit_ratio": session.stats.cache_hit_rate() or 0.0,
            "core.planner.quote_calls_rel_err": _rel_err(
                result.quote.total_calls, result.total_calls
            ),
            "core.planner.quote_dollars_rel_err": _rel_err(
                result.quote.total_dollars, result.total_cost
            ),
        }
        return Repetition(
            wall_s=wall,
            cpu_s=cpu,
            ops=len(items),
            unit_s=[wall],
            llm_calls=llm.reached,
            dollars=session.spent_dollars,
            quality=accuracy(decisions, self.corpus.truth),
            steps=len(result.report.step_reports),
            wait_s=len(items) * self.latency_seconds / self.concurrency,
            errors=errors,
            signature=result.items,
            facts=facts,
        )


class CallsSeq(Calls):
    name = "calls_seq"
    repetitions = 240
    sizes = {"full": {"items": 500}, "toy": {"items": 40}}


class CallsThreads(Calls):
    name = "calls_threads"
    repetitions = 120
    concurrency = 8  # repro.core.executor.DEFAULT_POOL_SIZE
    sizes = {"full": {"items": 600}, "toy": {"items": 40}}


class CallsLatency(Calls):
    name = "calls_latency"
    repetitions = 30
    concurrency = 8
    latency_seconds = 0.010
    wake_probe = (concurrency, latency_seconds)
    sizes = {"full": {"items": 240}, "toy": {"items": 32}}
    async_concurrency = 64

    def extras(self) -> dict[str, float]:
        """The same bag of waits through the async executor (diagnostic only)."""
        prompts = [
            predicate_check_prompt(item, corpus.FILTER_PREDICATE)
            for item in self.corpus.items
        ]
        samples = []
        for _ in range(3):
            session = self._session(corpus.CountingLLM(self.corpus.oracle, seed=self.seed))
            executor = session.async_batch_executor(max_concurrency=self.async_concurrency)
            start = time.perf_counter()
            responses = asyncio.run(executor.run(prompts))
            samples.append((time.perf_counter() - start) * 1e6 / len(responses))
        return {"core.executor.async_us_per_call": sorted(samples)[1]}


# -- store_cold / store_warm ----------------------------------------------------------


def _product_query(items: list[str], name: str) -> Dataset:
    return (
        Dataset(items, name=name)
        .filter(corpus.SHORT_BRAND, strategy="per_item")
        .resolve()
        .top_k(corpus.IMPORTANCE, k=3, strategy="pairwise_tournament")
    )


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


class StoreQuery(Workload):
    """filter -> resolve -> top_k over a product feed, against a ``Store``."""

    sizes = {"full": {"entities": 30}, "toy": {"entities": 8}}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.feed = corpus.product_feed(seed, self.params["entities"])
        self.true_top = corpus.true_top_k(self.feed, k=3)

    def _run(self, path: Path, recorder: Recorder | None) -> tuple[Repetition, Any]:
        with _scope(recorder, self.next_unit()):
            cpu = time.process_time()
            start = time.perf_counter()
            with Store(path) as store:
                llm = corpus.CountingLLM(
                    self.feed.oracle, seed=self.seed, behavior=corpus.EXACT_ANSWERS
                )
                session = PromptSession(llm, store=store)
                engine = DeclarativeEngine.from_session(session, default_model=corpus.MODEL)
                result = _product_query(self.feed.items, self.name).with_store(store).run(engine)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        size = sum(
            os.path.getsize(f"{path}{suffix}")
            for suffix in ("", "-wal", "-shm")
            if os.path.exists(f"{path}{suffix}")
        )
        screen = result.step_result("filter")
        kept = list(dict.fromkeys(screen.kept))
        quality = (
            accuracy(
                screen.decisions, {item: self.feed.short_brand(item) for item in self.feed.items}
            )
            + corpus.resolve_f1(result.step_result("resolve").judgments, kept, self.feed.entities)
            + corpus.precision_at_k(result.items, self.true_top, self.feed.entities)
        ) / 3.0
        repetition = Repetition(
            wall_s=wall,
            cpu_s=cpu,
            ops=1,
            unit_s=[wall],
            llm_calls=llm.reached,
            dollars=session.spent_dollars,
            quality=quality,
            steps=len(result.report.step_reports),
            signature=result.items,
            facts={
                "llm.cache_hit_ratio": session.stats.cache_hit_rate() or 0.0,
                "core.planner.quote_calls_rel_err": _rel_err(
                    result.quote.total_calls, result.total_calls
                ),
                "core.planner.quote_dollars_rel_err": _rel_err(
                    result.quote.total_dollars, result.total_cost
                ),
                "store.bytes_per_llm_call": size / llm.reached if llm.reached else 0.0,
            },
        )
        if len(result.items) != min(3, len(kept)) or not set(result.items) <= set(kept):
            repetition.errors.append("top-k is not 3 of the filter's survivors")
        return repetition, result


class StoreCold(StoreQuery):
    """A fresh store file per repetition: the write side; op = LLM call."""

    name = "store_cold"
    repetitions = 90

    def repetition(self, recorder: Recorder | None = None) -> Repetition:
        path = self.workdir / f"cold-{self._units}.db"
        try:
            repetition, result = self._run(path, recorder)
        finally:
            _remove_store(path)
        repetition.ops = int(repetition.llm_calls)
        if repetition.llm_calls != result.total_calls or result.report.restored_steps:
            repetition.errors.append("a cold run must pay for every call it reports")
        return repetition


class StoreWarm(StoreQuery):
    """The same query restored from a populated store; op = unit."""

    name = "store_warm"
    repetitions = 400

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.template = workdir / "warm-template.db"
        _remove_store(self.template)
        cold, result = self._run(self.template, None)
        self.cold_items = result.items
        self.cold_quality = cold.quality
        self.cold_steps = sorted(
            name for name, report in result.report.step_reports.items() if report.calls
        )

    def repetition(self, recorder: Recorder | None = None) -> Repetition:
        path = self.workdir / f"warm-{self._units}.db"
        # A copy per repetition: runs must not feed each other's store.  It
        # is forced to disk here, or the program's first fsync would pay for
        # the harness's copy inside the clock.
        shutil.copyfile(self.template, path)
        with open(path, "rb") as copied:
            os.fsync(copied.fileno())
        try:
            repetition, result = self._run(path, recorder)
        finally:
            _remove_store(path)
        if repetition.llm_calls != 0 or result.total_calls != 0:
            repetition.errors.append(f"warm run made {repetition.llm_calls} backend calls")
        if result.items != self.cold_items or repetition.quality != self.cold_quality:
            repetition.errors.append("restored result differs from the cold result")
        if sorted(result.report.restored_steps) != self.cold_steps:
            repetition.errors.append("not every paid step was restored from its checkpoint")
        return repetition

    def close(self) -> None:
        _remove_store(self.template)


# -- service_jobs ---------------------------------------------------------------------


class ServiceJobs(Workload):
    """Closed-loop clients submitting 2-step jobs over HTTP-shaped ASGI; op = job.

    Every repetition starts a fresh service over a fresh store file (outside
    the clock), as the other workloads start a fresh session: a job's cost
    grows with its tenant session's history (span ring, runtime statistics,
    job table), so on a long-lived service a job's time would depend on how
    many ran before it, and a run measured by the clock would not be
    comparable with a shorter or a longer one.
    """

    name = "service_jobs"
    repetitions = 50
    tail_metric = "service.job_latency_ms_p90"
    sizes = {"full": {"jobs": 10, "words": 8}, "toy": {"jobs": 4, "words": 4}}
    api_key = "bench-key"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.clients = min(2, os.cpu_count() or 1)
        self.path = workdir / "service.db"
        self.oracle = corpus.words_oracle()
        self.jobs = [
            corpus.job_words(seed, index, self.params["words"])
            for index in range(self.params["jobs"])
        ]
        self.loop = asyncio.new_event_loop()

    def repetition(self, recorder: Recorder | None = None) -> Repetition:
        _remove_store(self.path)
        llm = corpus.CountingLLM(self.oracle, seed=self.seed)
        with Store(self.path) as store:
            registry = TenantRegistry(
                llm,
                [
                    TenantConfig(
                        tenant_id="bench",
                        api_key=self.api_key,
                        budget_dollars=1e6,
                        default_model=corpus.MODEL,
                        # A governor with room to spare: admission runs, never waits.
                        max_in_flight=64,
                        max_queue_depth=64,
                    )
                ],
                store=store,
            )
            session = registry.get("bench").session
            client = ServiceClient(ServiceApp(registry), api_key=self.api_key)
            self.loop.run_until_complete(client.lifespan_startup())
            try:
                cpu = time.process_time()
                start = time.perf_counter()
                outcomes = self.loop.run_until_complete(self._clients(client, recorder))
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu
            finally:
                self.loop.run_until_complete(client.lifespan_shutdown())
            size = sum(
                os.path.getsize(f"{self.path}{suffix}")
                for suffix in ("", "-wal")
                if os.path.exists(f"{self.path}{suffix}")
            )
        _remove_store(self.path)
        jobs = len(self.jobs)
        words = self.params["words"]
        errors = [outcome["error"] for outcome in outcomes if outcome["error"]]
        if llm.reached != jobs * (words + words * (words - 1) // 2):
            errors.append("backend calls differ from one per check plus one per word pair")
        return Repetition(
            wall_s=wall,
            cpu_s=cpu,
            ops=jobs,
            unit_s=[outcome["unit_s"] for outcome in outcomes],
            llm_calls=llm.reached / jobs,
            dollars=session.spent_dollars / jobs,
            quality=sum(outcome["quality"] for outcome in outcomes) / jobs,
            steps=2 * jobs,
            errors=errors,
            signature=[outcome["order"] for outcome in outcomes],
            facts={
                "llm.cache_hit_ratio": session.stats.cache_hit_rate() or 0.0,
                "store.bytes_per_llm_call": size / max(llm.reached, 1),
            },
            timings={
                "service.submit_ms_p50": statistics.median(o["submit_s"] for o in outcomes)
            },
        )

    async def _clients(
        self, client: ServiceClient, recorder: Recorder | None
    ) -> list[dict[str, Any]]:
        """Each client takes every ``clients``-th job; outcomes in job order."""
        lanes = [range(lane, len(self.jobs), self.clients) for lane in range(self.clients)]
        results = await asyncio.gather(*(self._client(client, lane, recorder) for lane in lanes))
        return sorted((o for lane in results for o in lane), key=lambda o: o["index"])

    async def _client(
        self, client: ServiceClient, lane: range, recorder: Recorder | None
    ) -> list[dict[str, Any]]:
        outcomes = []
        for index in lane:
            words = self.jobs[index]
            payload = corpus.job_payload(words, f"job-s{self.seed}-{index}")
            outcome = {
                "index": index, "unit_s": 0.0, "submit_s": 0.0, "quality": 0.0,
                "order": [], "error": "",
            }
            job_id = None
            with _scope(recorder, self.next_unit()):
                start = time.perf_counter()
                accepted = await client.post("/v1/pipelines", json_body=payload)
                outcome["submit_s"] = time.perf_counter() - start
                if accepted.status == 202:
                    job_id = accepted.json()["job_id"]
                    # Wait on the event stream; busy-polling the status
                    # endpoint starves the worker threads of the GIL.
                    stream = await client.get(f"/v1/jobs/{job_id}/events")
                outcome["unit_s"] = time.perf_counter() - start
            if job_id is None:
                outcome["error"] = f"job {index}: POST answered {accepted.status}"
            else:
                fetched = await client.get(f"/v1/jobs/{job_id}")
                outcome["error"] = self._verify(index, words, stream, fetched, outcome)
            outcomes.append(outcome)
        return outcomes

    def _verify(self, index: int, words: list[str], stream: Any, fetched: Any, outcome: dict) -> str:
        events = stream.sse_events() if stream.status == 200 else []
        if not events or events[-1].get("event") != "done":
            return f"job {index}: event stream did not end with a terminal event"
        if events[-1].get("status") != "succeeded" or fetched.status != 200:
            return f"job {index}: ended {events[-1].get('status')!r}"
        report = WorkflowReport.from_dict(fetched.json()["report"])
        kept = set(report.results["screen"].kept)
        outcome["quality"] = accuracy(
            {word: word in kept for word in words},
            {word: corpus.early_letter(word) for word in words},
        )
        outcome["order"] = list(report.results["rank"].order)
        if sorted(outcome["order"]) != sorted(words):
            return f"job {index}: ranking is not a permutation of the submitted words"
        return ""

    def close(self) -> None:
        self.loop.close()


# -- plan_quote -----------------------------------------------------------------------


class PlanQuote(Workload):
    """``Dataset.quote`` plus a many-step pipeline quote, nothing executed; op = unit."""

    name = "plan_quote"
    repetitions = 600
    sizes = {
        "full": {"entities": 100, "steps": 20, "sample": 12},
        "toy": {"entities": 8, "steps": 8, "sample": 6},
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.feed = corpus.product_feed(seed, self.params["entities"])
        self.spec = corpus.many_step_spec(
            self.feed, seed, self.params["steps"], self.params["sample"]
        )
        # Ground truth for the quote: execute both plans once, here, each on
        # its own session so neither is served from the other's cache.
        query_llm, engine = self._engine()
        query = _product_query(self.feed.items, self.name).run(engine)
        pipeline_llm, engine = self._engine()
        pipeline = engine.run_pipeline(self.spec)
        self.executed_calls = query_llm.reached + pipeline_llm.reached
        self.executed_dollars = query.total_cost + pipeline.total_cost

    def _engine(self) -> tuple[corpus.CountingLLM, DeclarativeEngine]:
        llm = corpus.CountingLLM(
            self.feed.oracle, seed=self.seed, behavior=corpus.EXACT_ANSWERS
        )
        return llm, DeclarativeEngine.from_session(
            PromptSession(llm), default_model=corpus.MODEL
        )

    def repetition(self, recorder: Recorder | None = None) -> Repetition:
        with _scope(recorder, self.next_unit()):
            cpu = time.process_time()
            start = time.perf_counter()
            llm, engine = self._engine()
            query = _product_query(self.feed.items, self.name).quote(planner=engine.planner())
            pipeline = engine.quote_pipeline(self.spec)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        calls = query.total_calls + pipeline.total_calls
        dollars = query.total_dollars + pipeline.total_dollars
        errors = []
        if llm.reached:
            errors.append(f"quoting made {llm.reached} backend calls")
        if pipeline.unquoted or len(pipeline.steps) != len(self.spec.steps):
            errors.append("the pipeline quote left static steps unquoted")
        return Repetition(
            wall_s=wall,
            cpu_s=cpu,
            ops=1,
            unit_s=[wall],
            llm_calls=llm.reached,
            dollars=engine.spent_dollars,
            # Planner accuracy as one number in (0, 1]: 1 is a perfect quote.
            quality=min(calls, self.executed_calls) / max(calls, self.executed_calls, 1),
            steps=len(query.steps) + len(pipeline.steps),
            errors=errors,
            signature=[calls, round(dollars, 9)],
            facts={
                "core.planner.quote_calls_rel_err": _rel_err(calls, self.executed_calls),
                "core.planner.quote_dollars_rel_err": _rel_err(dollars, self.executed_dollars),
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (CallsSeq, CallsThreads, CallsLatency, StoreCold, StoreWarm, ServiceJobs, PlanQuote)
}
