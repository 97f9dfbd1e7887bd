"""Deterministic content fingerprints for declarative task specs.

A pipeline checkpoint is only reusable if "the same step" can be recognised
across processes, machines, and library restarts, so the fingerprint is a
SHA-256 over a *canonical JSON* rendering of the concrete spec the step is
about to execute:

* By the time a step is fingerprinted, any spec factory has already been
  applied, so the spec's item lists **are** the step's resolved inputs —
  content-addressing the concrete spec addresses the step's full input
  lineage without chaining upstream hashes.  Two steps (or two runs) whose
  concrete specs are byte-identical are interchangeable by construction,
  which is exactly what makes incremental re-execution work: change one
  branch of a query and only the steps whose resolved inputs changed get
  new fingerprints.
* ``budget_dollars`` is excluded: a budget shapes *whether and how cheaply*
  a step runs, never what the correct answer is, and a resumed run under a
  different remaining budget should reuse paid-for work rather than
  re-spend.  The strategy that actually executed is stored alongside the
  checkpoint for observability (see :mod:`repro.store.checkpoint`).
* Everything else — operator type, items, predicates, criteria, explicit
  strategy and options, accuracy targets, validation samples — is included,
  so changing any semantic knob invalidates the checkpoint.
* The model the step's calls go out with is no field of the spec (it is the
  engine's default), so the engine passes it as ``model=``: another model's
  answers are another step's.

Values that cannot be canonicalised (arbitrary objects in
``strategy_options``) raise :class:`FingerprintError`; the engine treats
such steps as uncacheable and simply re-runs them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.core.spec import TaskSpec
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import StoreError

#: Bump to invalidate every existing fingerprint (serialisation change).
FINGERPRINT_VERSION = 2

#: Spec fields that never change the *result* of a step, only its funding.
_EXCLUDED_FIELDS = frozenset({"budget_dollars"})

#: Canonical JSON's one encoder (``json.dumps`` builds one per call): sorted
#: keys, no spaces, ASCII only.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class FingerprintError(StoreError):
    """A spec contains a value with no canonical serialisation."""


def canonical(value: Any) -> Any:
    """Map ``value`` onto the JSON-stable subset used for hashing.

    Mappings become sorted ``[key, value]`` pair lists (dict key order and
    non-string keys both stop mattering), sequences become lists, sets are
    sorted, and the record/dataset types serialise field-by-field.  Anything
    unrecognised raises :class:`FingerprintError` rather than falling back
    to ``repr`` — a memory address in the hash would silently defeat
    cross-process stability.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips floats exactly and is stable across platforms.
        return {"float": repr(value)}
    if isinstance(value, dict):
        return {"map": sorted(([canonical(k), canonical(v)] for k, v in value.items()), key=json_key)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"set": sorted((canonical(item) for item in value), key=json_key)}
    if isinstance(value, Record):
        return {
            "record": value.record_id,
            "attributes": canonical(dict(value.attributes)),
        }
    if isinstance(value, Dataset):
        return {"dataset": value.name, "records": [canonical(r) for r in value.records]}
    if isinstance(value, ImputationDataset):
        return {
            "imputation": value.name,
            "target": value.target_attribute,
            "queries": canonical(value.queries),
            "reference": canonical(value.reference),
            "ground_truth": canonical(dict(value.ground_truth)),
        }
    if isinstance(value, TaskSpec):
        return spec_payload(value)
    raise FingerprintError(
        f"cannot fingerprint a value of type {type(value).__name__}: {value!r:.80}"
    )


def json_key(value: Any) -> str:
    """A total order over canonical values (sorting mixed-type collections)."""
    return _CANONICAL.encode(value)


def spec_payload(spec: TaskSpec) -> dict[str, Any]:
    """The canonical dict a spec hashes to."""
    if not dataclasses.is_dataclass(spec):
        raise FingerprintError(
            f"cannot fingerprint non-dataclass spec {type(spec).__name__}"
        )
    fields = {
        field.name: canonical(getattr(spec, field.name))
        for field in dataclasses.fields(spec)
        if field.name not in _EXCLUDED_FIELDS
    }
    return {"spec": type(spec).__name__, "version": FINGERPRINT_VERSION, "fields": fields}


def fingerprint_spec(spec: TaskSpec, *, model: str | None = None) -> str:
    """SHA-256 hex digest identifying a concrete spec's content, run on ``model``."""
    keyed = {"model": model, **spec_payload(spec)}
    payload = _CANONICAL.encode(keyed)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_embedding(
    text: str, *, model: str, dimensions: int, ngram_sizes: tuple[int, ...] = ()
) -> str:
    """Content fingerprint of one embedding: the text *and* the function.

    The embedder configuration is part of the key so a cached vector is
    only ever reused when the same text would embed to the same vector —
    change the model, the dimensionality, or the n-gram mix and every
    fingerprint changes with it.
    """
    payload = _CANONICAL.encode(
        {
            "embedding": FINGERPRINT_VERSION,
            "text": text,
            "model": model,
            "dimensions": dimensions,
            "ngram_sizes": list(ngram_sizes),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
