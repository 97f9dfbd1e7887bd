"""Serialisation of operator results for pipeline checkpoints.

A checkpointed step's result must round-trip through the store byte-exactly
enough that downstream steps (spec factories materialising their inputs
from upstream results) and the query layer's output extraction behave
identically whether the result was computed this run or restored from disk.
A result crosses as its :func:`~repro.wire.to_wire` form, walked by its type
hints.  Only result types a :mod:`declaration <repro.core.declarations>`
names encode or decode — an unknown result type refuses to encode (the step
simply is not checkpointed) rather than pickling arbitrary objects into the
store.

JSON is the wire format: human-inspectable with the ``sqlite3`` CLI, no
arbitrary-code-execution surface on load (a store file may be shared).  A
row's *result digest*, which its children's keys read, hashes the type and
answer fields: not ``usage``, ``cost``, ``metadata`` or ``strategy``.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.declarations import result_type
from repro.exceptions import StoreError
from repro.operators.base import OperatorResult
from repro.wire import from_wire, to_wire

#: Result payload version; bump on layout changes (old rows are re-run).
CHECKPOINT_VERSION = 1

#: The payload's one encoder (``json.dumps`` builds one per call).
_PAYLOAD = json.JSONEncoder(sort_keys=True, default=str)

#: Result fields a digest leaves out: what a step cost and how it ran, not its answers.
_NOT_CONTENT = ("cost", "metadata", "strategy", "usage")


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
    if result_type(type_name) is not type(result):
        raise StoreError(f"no checkpoint codec for result type {type_name}")
    fields = to_wire(result)
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
    declared = result_type(data.get("type"))
    if declared is None or int(data.get("version", 0)) > CHECKPOINT_VERSION:
        return None
    return from_wire(declared, data["fields"])
