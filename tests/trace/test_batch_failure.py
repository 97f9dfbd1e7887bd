"""A batch's failure record names its prompt.

A batch that fails at its k-th call answered the k - 1 before it: those
settle like a success, and the failure is recorded against the prompt that
raised, with that call's share of the batch's duration — the same ``call``
span, ``repro.calls`` WARNING line and ``repro_llm_call_errors_total``
series the per-call path writes for the same failing call.
"""

from __future__ import annotations

import asyncio
import logging
import re

import pytest

from repro.core.session import PromptSession
from repro.obs import trace_label
from tests.doubles import FailingOn, rating_prompts

MODEL = "sim-gpt-3.5-turbo"
PROMPTS = rating_prompts(8)
FAILING = PROMPTS[5]


def failed(path: str, caplog) -> tuple[PromptSession, list[str]]:
    """A session after ``FAILING`` raised on ``path``, and its WARNING lines."""
    session = PromptSession(FailingOn(FAILING))
    with caplog.at_level(logging.WARNING, logger="repro.calls"):
        with trace_label(step="screen", operator="sort:rating"), pytest.raises(ConnectionError):
            if path == "per call":
                session.complete(FAILING, model=MODEL)
            elif path == "batch":
                session.complete_batch(PROMPTS, model=MODEL)
            else:
                asyncio.run(session.acomplete_batch(PROMPTS, model=MODEL))
    lines = [entry.getMessage() for entry in caplog.records if entry.name == "repro.calls"]
    caplog.clear()
    return session, lines


def without_id_and_duration(line: str) -> str:
    return re.sub(r"call_id=\d+ |duration_ms=[\d.]+ ", "", line)


@pytest.mark.parametrize("path", ["batch", "async batch"])
def test_a_batch_failure_is_recorded_as_the_per_call_path_records_it(path, caplog):
    reference, reference_lines = failed("per call", caplog)
    session, lines = failed(path, caplog)
    (expected,) = reference.spans.records()
    *answered, failure = session.spans.records()
    assert [record.prompt for record in answered] == PROMPTS[:5]
    assert all(record.error is None for record in answered)
    # Field by field the per-call record, bar its id and its duration ...
    for name in ("step", "operator", "model", "temperature", "prompt", "error", "cache_hit"):
        assert getattr(failure, name) == getattr(expected, name), name
    assert failure.prompt == FAILING and failure.error == "ConnectionError"
    # ... and the duration is this call's share: every call of the batch has the same.
    assert failure.duration_ms > 0.0
    assert [record.duration_ms for record in answered] == [
        pytest.approx(failure.duration_ms)
    ] * len(answered)
    assert [without_id_and_duration(line) for line in lines] == [
        without_id_and_duration(line) for line in reference_lines
    ]
    assert len(lines) == 1 and f"call_id={failure.call_id} " in lines[0]
    errors = session.metrics.snapshot()["repro_llm_call_errors_total"]
    assert errors == reference.metrics.snapshot()["repro_llm_call_errors_total"]
    assert errors == {'{tenant="",error="ConnectionError"}': 1}
    # The calls answered before it are on the books.
    assert session.tracker.usage.calls == 5
    assert session.budget.spent == pytest.approx(sum(record.cost for record in answered))
