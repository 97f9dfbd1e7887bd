"""One clock drives every reader: the governor's pacing, a backend's delay,
the session's call timings and the span ring all read :mod:`repro.clock`.

Under the ``scripted_clock`` fixture a paced, slow backend runs in virtual
time, and every timing the run records is exact.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
from repro.core.governor import ConcurrencyGovernor
from repro.core.session import PromptSession
from repro.llm.faulty import FaultyLLM
from tests.doubles import EchoClient


def test_governor_backend_session_and_spans_read_one_clock(scripted_clock):
    governor = ConcurrencyGovernor(rpm=60, burst=1)
    session = PromptSession(FaultyLLM(EchoClient(), delay=0.25), governor=governor)
    with session.spans.span("step") as step:
        for prompt in ("a", "b", "c"):
            session.complete(prompt)
    calls = [
        (span.start, span.end, span.attributes["duration_ms"])
        for span in session.spans.subtree(step.span_id)
        if span.kind == "call"
    ]
    # The first call rides the burst and waits only for the backend; each
    # later one owes the rest of its 1 s interval first.
    assert calls == [(0.0, 0.25, 250.0), (0.25, 1.25, 1000.0), (1.25, 2.25, 1000.0)]
    assert governor.stats.wait_seconds == 1.5
    assert scripted_clock.sleeps == [0.25, 0.75, 0.25, 0.75, 0.25]
    assert (step.start, step.end) == (0.0, 2.25)


# A read or wait of the real clock, or a name bound from the one clock: either
# escapes a test that scripts time through ``repro.clock``.
_OTHER_CLOCK = re.compile(
    r"perf_counter|monotonic\(|time\.sleep|^(import time|from time import)|from repro\.clock import"
)


def test_no_module_but_the_clock_reads_or_waits_on_time():
    package = Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "clock.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _OTHER_CLOCK.search(line)
    ]
    assert hits == []
