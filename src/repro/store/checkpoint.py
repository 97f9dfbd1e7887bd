"""Serialisation of operator results for pipeline checkpoints.

A checkpointed step's result must round-trip through the store byte-exactly
enough that downstream steps (spec factories materialising their inputs
from upstream results) and the query layer's output extraction behave
identically whether the result was computed this run or restored from disk.
The codec walks a result's dataclass fields; the few that are not
JSON-shaped as they stand (pair judgments, match tuples) go through the
field codecs of the operator's :mod:`declaration <repro.core.declarations>`.
Only result types a declaration names encode or decode — an unknown
result type refuses to encode (the step simply is not checkpointed) rather
than pickling arbitrary objects into the store.

JSON is the wire format: human-inspectable with the ``sqlite3`` CLI, no
arbitrary-code-execution surface on load (a store file may be shared), and
every result field in the library is JSON-shaped already apart from tuples
(restored from lists) and :class:`~repro.tokenizer.cost.Usage`.  A row's
*result digest*, which its children's keys read, hashes the type and answer
fields: not ``usage``, ``cost``, ``metadata`` or ``strategy``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.core.declarations import result_codec
from repro.exceptions import StoreError
from repro.operators.base import OperatorResult
from repro.tokenizer.cost import Usage

#: Result payload version; bump on layout changes (old rows are re-run).
CHECKPOINT_VERSION = 1

#: The payload's one encoder (``json.dumps`` builds one per call).
_PAYLOAD = json.JSONEncoder(sort_keys=True, default=str)

#: Result fields a digest leaves out: what a step cost and how it ran, not its answers.
_NOT_CONTENT = ("cost", "metadata", "strategy", "usage")


def _encode_usage(usage: Usage) -> dict[str, int]:
    return {
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "calls": usage.calls,
    }


def _decode_usage(data: dict[str, Any]) -> Usage:
    return Usage(
        prompt_tokens=int(data.get("prompt_tokens", 0)),
        completion_tokens=int(data.get("completion_tokens", 0)),
        calls=int(data.get("calls", 0)),
    )


def encode_result(result: OperatorResult) -> str:
    """Serialise a result to the JSON payload stored in a checkpoint row.

    Raises :class:`StoreError` for result types without a codec — callers
    treat that as "do not checkpoint this step".
    """
    return encode_checkpoint(result)[0]


def encode_checkpoint(result: OperatorResult) -> tuple[str, str]:
    """``(payload, digest)``: the payload, spliced from one encoding of each
    field, and its result digest, over the type and content fields."""
    type_name = type(result).__name__
    codec = result_codec(type_name)
    if codec is None or codec[0] is not type(result):
        raise StoreError(f"no checkpoint codec for result type {type_name}")
    fields: dict[str, Any] = {}
    for result_field in dataclasses.fields(result):
        value = getattr(result, result_field.name)
        if result_field.name in codec[1]:
            value = codec[1][result_field.name].encode(value)
        fields[result_field.name] = value
    fields["usage"] = _encode_usage(result.usage)
    try:
        encoded = {name: f'"{name}": {_PAYLOAD.encode(fields[name])}' for name in sorted(fields)}
    except (TypeError, ValueError) as exc:
        raise StoreError(f"result of type {type_name} is not serialisable: {exc}") from exc
    content = ", ".join(value for name, value in encoded.items() if name not in _NOT_CONTENT)
    type_json = _PAYLOAD.encode(type_name)
    body = ", ".join(encoded.values())
    payload = f'{{"fields": {{{body}}}, "type": {type_json}, "version": {CHECKPOINT_VERSION}}}'
    return payload, hashlib.sha256(f"{type_json}{{{content}}}".encode("utf-8")).hexdigest()


def decode_result(payload: str) -> OperatorResult | None:
    """Rebuild a result from its checkpoint payload.

    Returns ``None`` for unknown types or newer payload versions — the
    caller treats either as a checkpoint miss and re-runs the step, which
    is always safe.
    """
    data = json.loads(payload)
    codec = result_codec(data.get("type"))
    if codec is None or int(data.get("version", 0)) > CHECKPOINT_VERSION:
        return None
    result_type, field_codecs = codec
    fields = dict(data["fields"])
    fields["usage"] = _decode_usage(fields.get("usage", {}))
    fields["metadata"] = dict(fields.get("metadata", {}))
    for name, field_codec in field_codecs.items():
        if name in fields:
            fields[name] = field_codec.decode(fields[name])
    return result_type(**fields)
