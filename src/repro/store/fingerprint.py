"""Deterministic content fingerprints: checkpoint keys by lineage.

A pipeline checkpoint is only reusable if "the same step" can be recognised
across processes, machines, and library restarts, so its key
(:func:`lineage_key`) is a SHA-256 over a *canonical JSON* rendering of the
step's identity, the model, and the result digests of the steps it reads:

* A static step is keyed by its concrete spec (:func:`fingerprint_spec`).
* A :class:`DeclaredFactory` (the query compiler's, for a store) is keyed
  by its identity (:func:`factory_identity`) and the result digests of the
  steps it reads, before its spec exists: a child still hits after a parent
  re-ran with the same answers, and misses after other ones.  Any other
  factory is keyed over the spec it builds.  :func:`step_key` is that rule.
  An identity does not cover the code that lowers it (a declaration's
  ``lower``): changing that must bump :data:`FINGERPRINT_VERSION`.
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
from typing import Any, Callable, Mapping, Sequence

from repro.core.spec import TaskSpec
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import StoreError

#: Bump to invalidate every checkpoint key (a serialisation or ``lower`` change).
FINGERPRINT_VERSION = 3

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


def keyed_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Operation params as a key reads them: without what only funds a step."""
    return {name: value for name, value in params.items() if name not in _EXCLUDED_FIELDS}


def factory_identity(operation: str, *declared: Any) -> dict[str, Any]:
    """A spec factory's identity: its operation and what else decides its spec."""
    hashed = hashlib.sha256(_CANONICAL.encode(canonical(declared)).encode("utf-8")).hexdigest()
    return {"factory": operation, "declared": hashed, "version": FINGERPRINT_VERSION}


@dataclasses.dataclass(frozen=True, eq=False)
class DeclaredFactory:
    """A spec factory keyed before its spec exists: by ``identity`` over the
    result digests of ``parents``, the steps whose results it reads."""

    build: Callable[[Mapping[str, Any]], TaskSpec]
    identity: dict[str, Any]
    parents: tuple[str, ...]

    def __call__(self, inputs: Mapping[str, Any]) -> TaskSpec:
        return self.build(inputs)


def lineage_key(model: str | None, identity: dict[str, Any], parents: Sequence[str] = ()) -> str:
    """SHA-256 hex digest of ``identity`` run on ``model`` over its parents'
    result digests; with no parents, a static spec's key is its content hash."""
    keyed = {"model": model, **identity}
    if parents:
        keyed["parents"] = list(parents)
    return hashlib.sha256(_CANONICAL.encode(keyed).encode("utf-8")).hexdigest()


def fingerprint_spec(spec: TaskSpec, *, model: str | None = None) -> str:
    """SHA-256 hex digest identifying a concrete spec's content, run on ``model``."""
    return lineage_key(model, spec_payload(spec))


def step_key(task: Any, model: str | None, digests: Mapping[str, str]) -> str | None:
    """The key of a step running ``task`` on ``model``, given the result digests
    of the steps keyed so far: a spec's :func:`fingerprint_spec`, a declared
    factory's lineage key (``None`` while a parent's is missing), else ``None``."""
    if isinstance(task, TaskSpec):
        return fingerprint_spec(task, model=model)
    if not isinstance(task, DeclaredFactory) or not digests.keys() >= set(task.parents):
        return None
    return lineage_key(model, task.identity, [digests[parent] for parent in task.parents])


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
            "embedding": 2,  # the layout's own version, apart from checkpoint keys
            "text": text,
            "model": model,
            "dimensions": dimensions,
            "ngram_sizes": list(ngram_sizes),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
