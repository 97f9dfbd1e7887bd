"""JSON codecs for declarative task and pipeline specs.

The HTTP service layer (:mod:`repro.service`) accepts whole pipelines as
JSON bodies and persists submitted specs in the store's job table, so every
spec the engine can execute needs a faithful wire form.  The codec walks a
spec's dataclass fields with the library's one wire codec
(:mod:`repro.wire`): sequences cross as lists, mappings as objects (a
tuple-keyed one as ``[key, value]`` pairs), scalars as they are, and an
imputation dataset, whose records are not a dataclass, through the field
codec the spec's :mod:`declaration <repro.core.declarations>` names.  Only
declared spec types encode or decode — nothing is pickled — so a JSON
payload received over the network can never smuggle a callable or an
unserialisable value into the engine.

Two spec features therefore do **not** round-trip, by design:

* ``PipelineStep.run`` callables and :data:`~repro.core.spec.SpecFactory`
  step factories — code is not data; encoding such a step raises
  :class:`~repro.exceptions.SpecError`.  Service clients express dataflow
  with concrete specs; factories remain available to in-process callers.
* non-JSON values inside ``strategy_options`` — rejected with
  :class:`~repro.exceptions.SpecError` at encode *and* decode time.

Every malformed payload — a wrong container, a non-numeric version, a
short pair, a missing dataset attribute — is a
:class:`~repro.exceptions.SpecError`, which the service answers with 400
``invalid_pipeline``.  Decoded specs are re-validated by the caller (the
service layer calls ``spec.validate()`` on every submission), so the codec
restores structure and leaves semantic checks to the spec itself.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING
from functools import cache
from typing import Any, Mapping

from repro.core.declarations import (
    DECLARATIONS,
    OperatorDeclaration,
    json_safe,
    spec_declaration,
)
from repro.core.spec import PipelineSpec, PipelineStep, TaskSpec
from repro.exceptions import SpecError
from repro.wire import Convert, wire_fields

#: Bump when the wire layout changes; newer payloads are refused on decode.
SPEC_CODEC_VERSION = 1

@cache
def _spec_fields(declaration: OperatorDeclaration) -> dict[str, tuple[Any, Convert, Convert]]:
    """Field name -> ``(default, encode, decode)`` of the declared spec."""
    return {
        field.name: (
            field.default if field.default_factory is MISSING else field.default_factory(),
            encode,
            decode,
        )
        for field, encode, decode in wire_fields(declaration.spec_type, declaration.spec_fields)
    }


def _payload_version(data: Mapping[str, Any], what: str) -> None:
    """Refuse a ``version`` that is not a number or is newer than this library."""
    version = data.get("version", 0)
    if not isinstance(version, int):
        raise SpecError(f"{what} payload version must be an integer, got {version!r}")
    if version > SPEC_CODEC_VERSION:
        raise SpecError(
            f"{what} payload version {version} is newer than this library's "
            f"{SPEC_CODEC_VERSION}"
        )


def spec_to_dict(spec: TaskSpec) -> dict[str, Any]:
    """Encode a concrete task spec as a JSON-shaped dict.

    Raises :class:`SpecError` for spec types without a declaration or for
    specs carrying values that are not JSON data.
    """
    type_name = type(spec).__name__
    declaration = DECLARATIONS.get(type(spec))
    if declaration is None:
        raise SpecError(f"no JSON codec for spec type {type_name}")
    spec_fields: dict[str, Any] = {}
    for name, (default, encode, _) in _spec_fields(declaration).items():
        value = getattr(spec, name)
        # Omit fields still at their dataclass default: the wire form stays
        # compact, and — decisively — decoding restores the *default object*
        # (e.g. the empty tuple) rather than a listified copy of it, so a
        # round-tripped spec compares equal to the original.
        if value == default:
            continue
        spec_fields[name] = value if encode is None else encode(value)
    if "strategy_options" in spec_fields:
        json_safe(spec_fields["strategy_options"], context=f"{type_name}.strategy_options")
    return {"type": type_name, "version": SPEC_CODEC_VERSION, "fields": spec_fields}


def spec_from_dict(data: Mapping[str, Any]) -> TaskSpec:
    """Rebuild a task spec from its wire dict.

    Raises :class:`SpecError` for unknown types, newer payload versions,
    fields that do not exist on the spec (a typo in a hand-written payload
    must fail loudly, not be silently dropped), and fields of the wrong
    JSON shape.
    """
    if not isinstance(data, Mapping):
        raise SpecError(f"a spec payload must be an object, got {type(data).__name__}")
    type_name = data.get("type")
    declaration = spec_declaration(type_name)
    if declaration is None:
        raise SpecError(f"unknown spec type {type_name!r}")
    _payload_version(data, "spec")
    cls = declaration.spec_type
    spec_fields = data.get("fields", {})
    if not isinstance(spec_fields, Mapping):
        raise SpecError(f"{type_name} fields must be an object")
    known = _spec_fields(declaration)
    unknown = set(spec_fields) - set(known)
    if unknown:
        raise SpecError(
            f"{type_name} payload carries unknown fields: {sorted(unknown)}"
        )
    decoded: dict[str, Any] = {}
    for name, value in spec_fields.items():
        default, _, decode = known[name]
        if (value is not None or default is not None) and decode is not None:
            try:
                value = decode(value)
            except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                raise SpecError(f"malformed {type_name}.{name}: {exc!r}") from exc
        decoded[name] = value
    if "strategy_options" in decoded:
        decoded["strategy_options"] = json_safe(
            dict(decoded["strategy_options"]), context=f"{type_name}.strategy_options"
        )
    try:
        return cls(**decoded)
    except TypeError as exc:
        raise SpecError(f"malformed {type_name} payload: {exc}") from exc


def step_to_dict(step: PipelineStep) -> dict[str, Any]:
    """Encode one pipeline step; ``run=`` and factory steps refuse to encode."""
    if step.run is not None:
        raise SpecError(
            f"pipeline step {step.name!r} carries a run= callable; callables are "
            "code, not data, and cannot be serialised to JSON"
        )
    if not isinstance(step.task, TaskSpec):
        raise SpecError(
            f"pipeline step {step.name!r} carries a spec factory; only concrete "
            "TaskSpec steps can be serialised to JSON"
        )
    return {
        "name": step.name,
        "task": spec_to_dict(step.task),
        "depends_on": list(step.depends_on),
        "description": step.description,
    }


def step_from_dict(data: Mapping[str, Any]) -> PipelineStep:
    if not isinstance(data, Mapping):
        raise SpecError(f"a step payload must be an object, got {type(data).__name__}")
    if "task" not in data:
        raise SpecError(f"pipeline step payload {data.get('name')!r} has no task")
    return PipelineStep(
        name=str(data.get("name", "")),
        task=spec_from_dict(data["task"]),
        depends_on=tuple(str(dep) for dep in _list_of(data, "depends_on", "a step's")),
        description=str(data.get("description", "")),
    )


def _list_of(data: Mapping[str, Any], key: str, whose: str) -> list[Any]:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise SpecError(f"{whose} {key} must be a list, got {type(value).__name__}")
    return value


def pipeline_to_dict(pipeline: PipelineSpec) -> dict[str, Any]:
    """Encode a whole pipeline spec as a JSON-shaped dict."""
    return {
        "version": SPEC_CODEC_VERSION,
        "name": pipeline.name,
        "steps": [step_to_dict(step) for step in pipeline.steps],
        "budget_dollars": pipeline.budget_dollars,
        "description": pipeline.description,
    }


def pipeline_from_dict(data: Mapping[str, Any]) -> PipelineSpec:
    """Rebuild a pipeline spec from its wire dict (structure only —
    callers run :meth:`PipelineSpec.validate` for semantic checks)."""
    if not isinstance(data, Mapping):
        raise SpecError(
            f"a pipeline payload must be an object, got {type(data).__name__}"
        )
    _payload_version(data, "pipeline")
    budget = data.get("budget_dollars")
    if budget is not None and (not isinstance(budget, numbers.Real) or isinstance(budget, bool)):
        raise SpecError(f"a pipeline's budget_dollars must be a number, got {budget!r}")
    return PipelineSpec(
        name=str(data.get("name", "pipeline")),
        steps=[step_from_dict(step) for step in _list_of(data, "steps", "a pipeline's")],
        budget_dollars=None if budget is None else float(budget),
        description=str(data.get("description", "")),
    )


def pipeline_to_json(pipeline: PipelineSpec) -> str:
    """The JSON wire form of a pipeline (what the service's job table stores)."""
    return json.dumps(pipeline_to_dict(pipeline), sort_keys=True)


def pipeline_from_json(payload: str) -> PipelineSpec:
    """Parse a pipeline from its JSON wire form."""
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed pipeline JSON: {exc}") from exc
    return pipeline_from_dict(data)
