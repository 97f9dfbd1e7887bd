"""JSON codecs for declarative task and pipeline specs.

The HTTP service layer (:mod:`repro.service`) accepts whole pipelines as
JSON bodies and persists submitted specs in the store's job table, so every
spec the engine can execute needs a faithful wire form.  The codec walks a
spec's dataclass fields: sequences cross as lists, mappings as objects,
scalars as they are, and the few fields that are not JSON-shaped (pair
tuples, tuple-keyed labels, an imputation dataset) through the field codecs
the spec's :mod:`declaration <repro.core.declarations>` names.  Only
declared spec types encode or decode — nothing is pickled or reflected over
— so a JSON payload received over the network can never smuggle a callable
or an unserialisable value into the engine.

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
from dataclasses import fields as dataclass_fields
from typing import Any, Mapping

from repro.core.declarations import DECLARATIONS, json_safe, spec_declaration
from repro.core.spec import PipelineSpec, PipelineStep, TaskSpec
from repro.exceptions import SpecError

#: Bump when the wire layout changes; newer payloads are refused on decode.
SPEC_CODEC_VERSION = 1

#: The JSON shape a field must arrive in, by the type of its dataclass
#: default (fields with a declared codec are checked by their decoder).
_JSON_SHAPES: dict[type, Any] = {
    tuple: list,
    dict: Mapping,
    str: str,
    int: int,
    type(None): numbers.Real,
}


def _field_defaults(cls: type) -> dict[str, Any]:
    defaults: dict[str, Any] = {}
    for spec_field in dataclass_fields(cls):
        if spec_field.default is not MISSING:
            defaults[spec_field.name] = spec_field.default
        elif spec_field.default_factory is not MISSING:
            defaults[spec_field.name] = spec_field.default_factory()
    return defaults


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
    defaults = _field_defaults(type(spec))
    spec_fields: dict[str, Any] = {}
    for spec_field in dataclass_fields(spec):
        name = spec_field.name
        value = getattr(spec, name)
        # Omit fields still at their dataclass default: the wire form stays
        # compact, and — decisively — decoding restores the *default object*
        # (e.g. the empty tuple) rather than a listified copy of it, so a
        # round-tripped spec compares equal to the original.
        if name in defaults and value == defaults[name]:
            continue
        if name in declaration.spec_fields:
            value = declaration.spec_fields[name].encode(value)
        elif name == "strategy_options":
            value = json_safe(dict(value), context=f"{type_name}.strategy_options")
        elif isinstance(defaults.get(name), tuple):  # a sequence field
            value = list(value)
        elif isinstance(defaults.get(name), dict):  # a mapping field
            value = dict(value)
        spec_fields[name] = value
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
    defaults = _field_defaults(cls)
    unknown = set(spec_fields) - {f.name for f in dataclass_fields(cls)}
    if unknown:
        raise SpecError(
            f"{type_name} payload carries unknown fields: {sorted(unknown)}"
        )
    decoded: dict[str, Any] = {}
    for name, value in spec_fields.items():
        default = defaults.get(name)
        if value is None and default is None:
            pass  # an optional field left unset
        elif name in declaration.spec_fields:
            try:
                value = declaration.spec_fields[name].decode(value)
            except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                raise SpecError(f"malformed {type_name}.{name}: {exc!r}") from exc
        else:
            shape = _JSON_SHAPES.get(type(default))
            if shape is not None and (
                not isinstance(value, shape) or isinstance(value, bool)
            ):
                raise SpecError(
                    f"{type_name}.{name} has the wrong JSON type: {value!r:.80}"
                )
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
