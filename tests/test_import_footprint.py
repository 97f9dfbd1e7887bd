"""What a process loads: ``import repro`` leaves numpy, scipy and networkx out.

``scipy.stats`` is 0.8 s and about 70 MB of interpreter start-up; the library
calls it in three ranking metrics and nowhere else, so it is imported by the
first of those calls.  numpy (0.14 s, 12 MB) is the vector layer's: the first
embedding loads it, and a run that only asks the LLM never does.  networkx is
not used at all.  Counted in a fresh interpreter (this one has whatever the
rest of the suite imported).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_SCRIPT = """
import json, sys

def heavy():
    return sorted(
        name for name in ("numpy", "scipy", "scipy.stats", "networkx") if name in sys.modules
    )

import repro
after_import = heavy()

from repro import Dataset, DeclarativeEngine, Oracle, SimulatedLLM
records = [f"{brand} kettle, {litres} l" for brand in ("Acme", "ACME", "Bolt", "Cog") for litres in range(1, 9)]
oracle = Oracle()
oracle.register_predicate("is not a Cog product", lambda text: not text.startswith("Cog"))
oracle.register_entities({text: text.lower() for text in records})
oracle.register_key("capacity", lambda text: int(text.split(", ")[1].split()[0]), reverse=True)
engine = DeclarativeEngine(SimulatedLLM(oracle, seed=0), default_model="sim-gpt-3.5-turbo")
asked = (
    Dataset(records, name="kettles")
    .filter("is not a Cog product", strategy="per_item")
    .sort("capacity", strategy="pairwise")
    .run(engine)
)
after_llm_run = heavy()

result = (
    Dataset(records, name="kettles")
    .filter("is not a Cog product", strategy="per_item")
    .resolve()
    .top_k("capacity", k=2, strategy="pairwise_tournament")
    .run(engine)
)
after_run = heavy()

from repro.metrics import kendall_tau_b
tau = kendall_tau_b(["a", "b", "c"], ["a", "c", "b"])
print(json.dumps({
    "after_import": after_import,
    "llm_calls": asked.total_calls,
    "after_llm_run": after_llm_run,
    "calls": result.total_calls,
    "steps": sorted(result.report.step_reports),
    "after_run": after_run,
    "tau": tau,
    "after_metric": heavy(),
}))
"""


def test_numpy_waits_for_the_first_vector_scipy_for_the_first_ranking_metric():
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout.strip().splitlines()[-1])
    assert seen["after_import"] == []
    assert seen["llm_calls"] > 0  # a filter and a pairwise sort: prompts only
    assert seen["after_llm_run"] == []
    assert seen["calls"] > 0  # the query did run: filter, duplicate checks, a tournament
    assert "s2_block" in seen["steps"]  # resolve behind the embedding blocker
    assert seen["after_run"] == ["numpy"]
    assert abs(seen["tau"] - 1 / 3) < 1e-12
    assert seen["after_metric"] == ["numpy", "scipy", "scipy.stats"]
