"""The fault double answers from its inner client except where its plan says:
it raises, garbles (still paid for) or holds (outside its lock) the call a
plan keys by index or prompt, through both entry points, and counts exactly
under a fanned-out bag."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import BackendConnectionError
from repro.core.session import PromptSession
from repro.llm.faulty import FaultyLLM
from tests.doubles import ENTRY_POINTS, FAN_OUT, EchoClient, ask, call, executor_for
from tests.doubles import rating_prompts, simulated_client

PROMPTS = ["p0", "p1", "p2", "p3"]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
@pytest.mark.parametrize("instance", [False, True], ids=["class", "instance"])
@pytest.mark.parametrize("key", [2, "p2"])
def test_a_planned_exception_is_raised_and_the_call_is_not_answered(key, instance, entry_point):
    fault = BackendConnectionError("down") if instance else BackendConnectionError
    client = FaultyLLM(EchoClient(), {key: fault})
    with pytest.raises(ConnectionError) as raised:
        ask(client, entry_point, PROMPTS)
    if instance:
        assert raised.value is fault
    assert (client.calls, client.answered, client._inner.calls) == (3, PROMPTS[:2], 2)
    assert [r.text for r in ask(client, entry_point, PROMPTS[3:])] == ["echo:p3"]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_a_garbled_answer_keeps_its_usage_and_a_callable_runs_first(entry_point):
    inner = EchoClient(tokens=(10, 5))
    seen: list[int] = []
    plan = {1: "garbled ???", "p3": "also garbled", 2: lambda: seen.append(inner.calls)}
    responses = ask(FaultyLLM(inner, plan), entry_point, PROMPTS, temperature=0.4)
    assert [r.text for r in responses] == ["echo:p0", "garbled ???", "echo:p2", "also garbled"]
    assert {(r.usage.prompt_tokens, r.usage.completion_tokens, r.usage.calls)
            for r in responses} == {(10, 5, 1)}  # fmt: skip
    assert {r.metadata["temperature"] for r in responses} == {0.4}
    assert seen == [2]  # before its own call reached the inner client


def test_a_hold_runs_outside_the_lock():
    entered, released = threading.Event(), threading.Event()

    def hold() -> None:
        entered.set()
        released.wait(timeout=30)

    client = FaultyLLM(EchoClient(), {"held": hold})
    held = threading.Thread(target=client.complete, args=("held",))
    passing = threading.Thread(target=client.complete, args=("passes",))
    held.start()
    try:
        assert entered.wait(timeout=30)
        passing.start()
        passing.join(timeout=30)
        assert not passing.is_alive()  # it did not queue behind the held call
        assert client.answered == ["passes"]
    finally:
        released.set()
        held.join(timeout=30)
    assert not held.is_alive()
    assert (client.calls, client.answered) == (2, ["passes", "held"])


@pytest.mark.parametrize("driver", ["threads", "async"])
def test_calls_and_answered_are_exact_under_a_fanned_out_bag(driver):
    prompts = rating_prompts(24)
    client = FaultyLLM(simulated_client(), delay=0.002)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often: a lost update would show
    try:
        assert len(call(executor_for(driver, client, concurrency=FAN_OUT), "run", prompts)) == 24
    finally:
        sys.setswitchinterval(interval)
    assert client.calls == 24 and sorted(client.answered) == sorted(prompts)


@pytest.mark.parametrize("driver", ["threads", "async"])
def test_a_failed_call_of_a_fanned_out_bag_is_started_not_answered(driver):
    prompts = rating_prompts(24)
    client = FaultyLLM(simulated_client(), {5: BackendConnectionError}, delay=0.002)
    with pytest.raises(BackendConnectionError):
        call(executor_for(driver, client, concurrency=FAN_OUT), "run", prompts)
    assert 5 < client.calls <= 24 and len(client.answered) == client.calls - 1
    assert sorted(set(client.answered)) == sorted(client.answered)
    assert set(client.answered) <= set(prompts)


class Undeclared:
    """A backend that declares nothing about waiting: it is taken to wait."""


@pytest.mark.parametrize(
    "inner, plan, delay, waits",
    [
        (EchoClient(), None, 0.0, False),
        (Undeclared(), None, 0.0, True),
        (EchoClient(), None, 0.001, True),
        (EchoClient(), {3: threading.Event().wait}, 0.0, True),
        (EchoClient(), {3: BackendConnectionError, "p": "garbled"}, 0.0, False),
        (Undeclared(), {3: BackendConnectionError("down")}, 0.0, True),
    ],
    ids=["inner", "undeclared", "delay", "hold", "raise-or-garble", "undeclared-raise"],
)
def test_waits_is_the_inner_clients_unless_the_double_delays_or_holds(inner, plan, delay, waits):
    assert FaultyLLM(inner, plan, delay=delay).waits is waits


def test_a_failed_calls_span_names_the_taxonomy_error():
    prompt = rating_prompts(1)[0]
    session = PromptSession(FaultyLLM(simulated_client(), {prompt: BackendConnectionError}))
    with pytest.raises(BackendConnectionError):
        session.complete(prompt)
    (record,) = session.spans.records()
    assert (record.prompt, record.error, record.response_text) == (
        prompt, "BackendConnectionError", None
    )
    assert session.tracker.usage.calls == 0 and session.budget.spent == 0.0
