"""One wire codec: how every record crosses JSON.

Records — results, quotes, reports, spans, jobs, responses — are dataclasses
that ship as JSON, into the store and out of the service.  :func:`to_wire` and
:func:`from_wire` walk one by its type hints, with code generated once per
class: a nested dataclass is an object, a sequence an array, a mapping an
object (or ``[key, value]`` pairs when its keys are not strings).  A field
declared ``compare=False`` is runtime-only and has no wire form; a field that
is not JSON-shaped names its :class:`FieldCodec` in ``field(metadata=...)``.

JSON-shaped values are shared, not copied.  Decoding converts nothing but a
``bool``, so a decoded record re-encodes to the same bytes; a scalar field or
tuple position, or a container, of the wrong JSON type raises ``TypeError``.
Keys a record does not declare, such as a quote's derived totals, are ignored.
"""
from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Mapping, Sequence
from functools import cache
from typing import Any, Callable, NamedTuple, Optional, TypeVar

T = TypeVar("T")
#: A value converter; ``None`` where the value crosses as it is.
Convert = Optional[Callable[[Any], Any]]
Converters = tuple[Convert, Convert]  # (encode, decode)
#: The ``field(metadata=...)`` key a field names its :class:`FieldCodec` under.
CODEC = "wire"


def _same(value: Any) -> Any:
    return value


class FieldCodec(NamedTuple):
    """How one field crosses JSON when its type hint does not say."""

    encode: Callable[[Any], Any] = _same
    decode: Callable[[Any], Any] = _same


def to_wire(record: Any) -> dict[str, Any]:
    """The JSON-shaped dict of a dataclass record."""
    return _plan(type(record))[0](record)


def from_wire(cls: type[T], data: Any) -> T:
    """Rebuild a ``cls`` record from its wire dict."""
    return _plan(cls)[1](data)


def wire_fields(
    cls: type, codecs: Mapping[str, FieldCodec] = {}
) -> list[tuple[dataclasses.Field, Convert, Convert]]:
    """``(field, encode, decode)`` of each field of ``cls`` with a wire form;
    ``codecs`` names codecs by field name (a spec's declaration does)."""
    hints = typing.get_type_hints(cls)
    converters = []
    for field in (field for field in dataclasses.fields(cls) if field.compare):
        codec = codecs.get(field.name) or field.metadata.get(CODEC)
        encode, decode = codec or _converters(hints[field.name])
        check = None if codec else _checked(hints[field.name])
        converters.append((field, encode, check or decode))
    return converters


@cache
def _plan(cls: type) -> tuple[Callable[[Any], dict[str, Any]], Callable[[Any], Any]]:
    """``(encode, decode)`` of ``cls``, written out once the way :mod:`dataclasses`
    writes an ``__init__``, so a record crosses with no per-field dispatch."""
    namespace: dict[str, Any] = {"cls": cls, "_typed": _typed}
    encoded, decoded = [], ["def decode(data):", "    _typed(data, dict)", "    values = {}"]
    for index, (field, encode, decode) in enumerate(wire_fields(cls)):
        name, value = field.name, f"record.{field.name}"
        namespace.update({f"_e{index}": encode, f"_d{index}": decode})
        encoded.append(f"{name!r}: {value if encode is None else f'_e{index}({value})'}")
        decoded.append(f"    if {name!r} in data:\n        value = data[{name!r}]")
        if isinstance(decode, _Check):  # inlined; the call only raises
            namespace[f"_t{index}"] = decode.accepted
            decoded.append(f"        if type(value) not in _t{index}: _d{index}(value)")
        elif decode is not None:
            decoded.append(f"        value = _d{index}(value)")
        decoded.append(f"        values[{name!r}] = value")
    source = [f"def encode(record):\n    return {{{', '.join(encoded)}}}", *decoded]
    exec("\n".join([*source, "    return cls(**values)"]), namespace)
    return namespace["encode"], namespace["decode"]


# -- converters by type hint -------------------------------------------------------------

#: Scalar hint -> the JSON types its value may arrive as.
_SCALARS = {str: (str,), int: (int,), float: (float, int), type(None): (type(None),)}
_UNIONS = (typing.Union, types.UnionType)


class _Check(NamedTuple):
    """Passes a scalar whose JSON type fits ``hint``; raises ``TypeError`` otherwise."""

    hint: Any
    accepted: frozenset[type]

    def __call__(self, value: Any) -> Any:
        if type(value) not in self.accepted:
            raise TypeError(f"expected {self.hint}, got {type(value).__name__} {value!r:.40}")
        return value


def _checked(hint: Any) -> Convert:
    """The check of a scalar field or tuple position (``None`` for other hints)."""
    if hint is bool:
        return bool
    members = typing.get_args(hint) if typing.get_origin(hint) in _UNIONS else (hint,)
    if all(member in _SCALARS for member in members):
        return _Check(hint, frozenset(kind for member in members for kind in _SCALARS[member]))
    return None


def _converters(hint: Any) -> Converters:
    """``(encode, decode)`` of a value of type ``hint``; scalars cross as they are."""
    if dataclasses.is_dataclass(hint):
        return _plan(hint)
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin in _UNIONS:
        present = [member for member in args if member is not type(None)]
        return tuple(map(_optional, _converters(present[0]))) if len(present) == 1 else (None, None)
    if origin is tuple and args and args[-1] is not Ellipsis:
        return _fixed_tuple(args)
    if origin in (list, tuple, Sequence):
        return _sequence(origin, *(_converters(args[0]) if args else (None, None)))
    if origin in (dict, Mapping) and args and args[0] not in (str, Any):
        return _pairs(_converters(args[0]), _converters(args[1]))
    if origin in (dict, Mapping):
        return _mapping(origin, *(_converters(args[1]) if args else (None, None)))
    return None, None


def _optional(convert: Convert) -> Convert:
    return None if convert is None else lambda value: None if value is None else convert(value)


def _typed(value: Any, kind: type) -> Any:
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {type(value).__name__}")
    return value


def _sequence(origin: Any, encode_item: Convert, decode_item: Convert) -> Converters:
    """A list crosses as it is, another sequence as a list; a tuple comes back a tuple."""
    built = tuple if origin is tuple else _same
    encode = (None if origin is list else list) if encode_item is None else (
        lambda value: [encode_item(item) for item in value]
    )
    if decode_item is None:
        return encode, lambda value: built(_typed(value, list))
    return encode, lambda value: built([decode_item(item) for item in _typed(value, list)])


def _mapping(origin: Any, encode_item: Convert, decode_item: Convert) -> Converters:
    """A dict crosses as it is, another mapping as a dict."""
    encode = (None if origin is dict else dict) if encode_item is None else (
        lambda value: {key: encode_item(item) for key, item in value.items()}
    )
    if decode_item is None:
        return encode, lambda value: _typed(value, dict)
    return encode, lambda value: {k: decode_item(v) for k, v in _typed(value, dict).items()}


def _fixed_tuple(hints: tuple[Any, ...]) -> Converters:
    """A fixed-length tuple of scalars crosses as a list, each position checked on the way back."""
    checks = [_checked(hint) or _same for hint in hints]

    def decode(value: Any) -> tuple[Any, ...]:
        if len(_typed(value, list)) != len(checks):
            raise TypeError(f"expected {len(checks)} items, got {len(value)}")
        return tuple(check(item) for check, item in zip(checks, value))

    return list, decode


def _pairs(keys: Converters, items: Converters) -> Converters:
    """A mapping whose keys are not strings crosses as ``[key, value]`` pairs."""
    (encode_key, decode_key), (encode_item, decode_item) = (
        [convert or _same for convert in pair] for pair in (keys, items)
    )
    return (
        lambda value: [[encode_key(key), encode_item(item)] for key, item in value.items()],
        lambda value: {decode_key(key): decode_item(item) for key, item in _typed(value, list)},
    )
