"""Shared helpers for the service-layer suite.

Everything is deterministic (seeded simulator, temperature 0) and fully
in-process: the ASGI app is driven by
:class:`repro.service.testing.ServiceClient`, and async scenarios run under
plain ``asyncio.run`` (no pytest-asyncio dependency).
"""

from __future__ import annotations

from repro.core.spec import FilterSpec, PipelineSpec, PipelineStep, SortSpec
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from tests.doubles import CountingClient

MODEL = "sim-gpt-3.5-turbo"
WORDS = ["apple", "banana", "cherry", "damson", "elder", "fig"]
PREDICATE = "starts early in the alphabet"
CRITERION = "alphabetical order"


def corpus_oracle() -> Oracle:
    oracle = Oracle()
    oracle.register_key(CRITERION, key=lambda item: item)
    oracle.register_predicate(PREDICATE, lambda item: item[0] in "abc")
    return oracle


def make_client(seed: int = 11) -> CountingClient:
    return CountingClient(SimulatedLLM(corpus_oracle(), seed=seed))


def demo_pipeline(*, budget_dollars: float | None = None) -> PipelineSpec:
    """A two-wave, fully concrete pipeline (JSON-serialisable end to end)."""
    return PipelineSpec(
        name="demo",
        steps=[
            PipelineStep(
                name="filter",
                task=FilterSpec(items=WORDS, predicate=PREDICATE, strategy="per_item"),
            ),
            PipelineStep(
                name="sort",
                task=SortSpec(items=WORDS, criterion=CRITERION, strategy="pairwise"),
                depends_on=("filter",),
            ),
        ],
        budget_dollars=budget_dollars,
        description="filter then sort the word corpus",
    )
