"""The one wire codec (``repro.wire``): every record round-trips through JSON.

One Hypothesis property covers every record type that crosses the wire: the
record rebuilt from its JSON equals the record, and a checkpoint payload
decoded and encoded again is the same bytes.  The strategies are drawn from
the records' own type hints, so a field added to a record is covered the day
it is added.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from collections.abc import Mapping, Sequence
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.declarations import DECLARATIONS
from repro.core.governor import GovernorStats
from repro.core.planner import CostEstimate, PipelineQuote
from repro.core.workflow import StepReport, WorkflowReport
from repro.llm.base import LLMResponse
from repro.obs.spans import Span, TraceRecord
from repro.store.checkpoint import decode_result, encode_checkpoint
from repro.store.jobs import JobRecord
from repro.wire import from_wire, to_wire

RESULT_TYPES = sorted(
    {result for declaration in DECLARATIONS.values() for result in declaration.results},
    key=lambda cls: cls.__name__,
)
RECORD_TYPES = [
    LLMResponse,
    CostEstimate,
    PipelineQuote,
    StepReport,
    Span,
    TraceRecord,
    GovernorStats,
    JobRecord,
    *RESULT_TYPES,
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_SCALARS = {
    str: st.text(max_size=8),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
    type(None): st.none(),
    Any: _JSON,
}


def values(hint: Any) -> st.SearchStrategy:
    """Values of type ``hint``, for the hints the library's records use."""
    if dataclasses.is_dataclass(hint):
        return records(hint)
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of([values(arg) for arg in args])
    if origin is tuple:
        if args[-1] is Ellipsis:
            return st.lists(values(args[0]), max_size=3).map(tuple)
        return st.tuples(*map(values, args))
    if origin in (list, Sequence):
        return st.lists(values(args[0]), max_size=3)
    if origin in (dict, Mapping):
        return st.dictionaries(values(args[0]), values(args[1]), max_size=3)
    raise AssertionError(f"no strategy for {hint}")


def records(cls: type) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    fields = [field.name for field in dataclasses.fields(cls) if field.compare]
    return st.builds(cls, **{name: values(hints[name]) for name in fields})


def through_json(data: Any) -> Any:
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_record_roundtrips_through_json(cls, data):
    record = data.draw(records(cls))
    assert from_wire(cls, through_json(to_wire(record))) == record


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_checkpoint_payload_reencodes_to_its_bytes(cls, data):
    payload, digest = encode_checkpoint(data.draw(records(cls)))
    assert encode_checkpoint(decode_result(payload)) == (payload, digest)


@settings(max_examples=25, deadline=None)
@given(records(PipelineQuote), st.lists(st.one_of(map(records, RESULT_TYPES)), max_size=3))
def test_a_report_roundtrips_with_its_results_and_its_quote_totals(quote, results):
    report = WorkflowReport(
        results={f"step{index}": result for index, result in enumerate(results)},
        step_order=[f"step{index}" for index in range(len(results))],
        quote=quote,
    )
    data = through_json(report.to_dict())
    assert data["quote"]["total_calls"] == quote.total_calls
    assert from_wire(PipelineQuote, data["quote"]) == quote
    assert WorkflowReport.from_dict(data) == report


class TestTheWalker:
    def test_a_runtime_only_field_has_no_wire_form(self):
        record = JobRecord(job_id="j", tenant="t", pipeline_json='{"steps": []}')
        assert "pipeline_json" not in to_wire(record)
        assert "known_cached" not in to_wire(CostEstimate("s", 1, LLMResponse("", "").usage, 0.0))

    def test_a_mapping_with_tuple_keys_crosses_as_pairs(self):
        @dataclasses.dataclass
        class Labels:
            labels: dict[tuple[str, str], bool]

        wire = to_wire(Labels({("a", "b"): True}))
        assert wire == {"labels": [[["a", "b"], True]]}
        assert from_wire(Labels, through_json(wire)) == Labels({("a", "b"): True})
        with pytest.raises(TypeError):
            from_wire(Labels, {"labels": [[["a"], True]]})

    def test_decoding_checks_scalars_and_converts_nothing_but_bools(self):
        with pytest.raises(TypeError):
            from_wire(StepReport, {"name": "s", "calls": "7"})
        with pytest.raises(TypeError):
            from_wire(StepReport, ["s"])
        report = from_wire(StepReport, {"name": "s", "calls": 7, "cost": 1, "restored": 1})
        assert (report.calls, report.cost, report.restored) == (7, 1, True)
        assert from_wire(StepReport, {"name": "s", "total_calls": 3}) == StepReport(name="s")
