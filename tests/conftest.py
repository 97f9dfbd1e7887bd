"""Shared fixtures for the test suite.

All fixtures are deterministic: the simulated LLM and every data generator are
seeded, so test outcomes are stable across runs.
"""

from __future__ import annotations

import gc

import pytest

import repro.clock
from repro.data.citations import CitationCorpus, generate_citation_corpus
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import ImputationDataset, generate_buy_dataset, generate_restaurant_dataset
from repro.data.words import random_words
from repro.llm.oracle import Oracle, prefix_margin
from repro.llm.registry import default_registry
from repro.llm.simulated import SimulatedLLM
from tests.doubles import ScriptedClock

ALPHABETICAL = "alphabetical order"


def pytest_collection_finish(session: pytest.Session) -> None:
    """Keep the collected suite out of every later full collection.

    The items, modules and module-level data live until the session ends, so
    a generation-2 pass gains nothing from walking them; frozen, such a pass
    takes under a millisecond instead of about 20.  The tests that time work
    in-process (the benchmark smoke tests, the vector-index scale test) would
    otherwise read a pass that lands inside a timed region as their own time.
    """
    gc.collect()
    gc.freeze()


@pytest.fixture()
def scripted_clock(monkeypatch: pytest.MonkeyPatch) -> ScriptedClock:
    """Script every timing read and wait of the package: :mod:`repro.clock`
    reads a :class:`~tests.doubles.ScriptedClock` from 0.0 for the test."""
    clock = ScriptedClock()
    monkeypatch.setattr(repro.clock, "now", clock.now)
    monkeypatch.setattr(repro.clock, "sleep", clock.sleep)
    return clock


@pytest.fixture()
def flavor_llm() -> SimulatedLLM:
    """Simulated LLM grounded in the chocolateyness scores."""
    return SimulatedLLM(flavor_oracle(), seed=7)


@pytest.fixture()
def flavors() -> list[str]:
    """The 20 flavors in ground-truth order (most chocolatey first)."""
    return list(FLAVORS)


@pytest.fixture()
def chocolatey_criterion() -> str:
    return CHOCOLATEY


@pytest.fixture()
def alphabetical_oracle() -> Oracle:
    """Oracle that orders words alphabetically (case-insensitive)."""
    oracle = Oracle()
    oracle.register_key(ALPHABETICAL, lambda word: word.lower(), margin=prefix_margin)
    return oracle


@pytest.fixture()
def alphabetical_llm(alphabetical_oracle: Oracle) -> SimulatedLLM:
    return SimulatedLLM(alphabetical_oracle, seed=11)


@pytest.fixture()
def word_sample() -> list[str]:
    """A reproducible 40-word sample (long enough to trigger drops)."""
    return random_words(40, seed=13)


@pytest.fixture(scope="session")
def citation_corpus() -> CitationCorpus:
    """A small synthetic citation corpus shared across ER tests."""
    return generate_citation_corpus(n_entities=25, n_pairs=60, seed=17)


@pytest.fixture()
def citation_llm(citation_corpus: CitationCorpus) -> SimulatedLLM:
    return SimulatedLLM(citation_corpus.oracle(), seed=19)


@pytest.fixture(scope="session")
def restaurant_data() -> ImputationDataset:
    return generate_restaurant_dataset(120, seed=23)


@pytest.fixture(scope="session")
def buy_data() -> ImputationDataset:
    return generate_buy_dataset(120, seed=29)


@pytest.fixture()
def restaurant_llm(restaurant_data: ImputationDataset) -> SimulatedLLM:
    return SimulatedLLM(restaurant_data.oracle(), seed=31)


@pytest.fixture()
def registry():
    return default_registry()
