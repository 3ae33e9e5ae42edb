"""One codec between config dataclasses and plain JSON values.

``encode`` turns a config tree into JSON-ready dicts; ``decode`` rebuilds it
from the field type hints, so config files, CLI flags, sweep axes and the
fingerprint in result rows all read and write one format.  ``override``
sets one field by dotted path (``"loader.sampler.seed"``).  Decoding rejects
unknown keys and values of the wrong type with a ``ValueError`` that names
the dotted path.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

_SCALARS = (int, float, str, bool)
_SEQUENCES = (list, tuple, set, frozenset)


def encode(obj):
    """A dataclass as plain JSON: sets become sorted lists, tuples lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted(encode(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def decode(cls, payload, base=None, _path: str = ""):
    """Build ``cls`` from ``payload``; keys absent from it keep ``base``'s
    values (or the field defaults when ``base`` is None)."""
    if not isinstance(payload, dict):
        raise ValueError(f"{_path or cls.__name__}: expected an object, "
                         f"got {payload!r}")
    types_ = _field_types(cls)
    values = {}
    for name, value in payload.items():
        path = f"{_path}.{name}" if _path else name
        if name not in types_:
            raise ValueError(f"unknown config key {path!r}")
        values[name] = _value(types_[name], value,
                              getattr(base, name, None), path)
    return dataclasses.replace(base, **values) if base is not None else cls(**values)


def _value(tp, value, base, path: str):
    if tp in _SCALARS:
        if tp is float and type(value) is int:
            return float(value)
        if not isinstance(value, tp) or (tp is not bool and isinstance(value, bool)):
            raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")
        return value
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None and type(None) in args:
            return None
        # a list goes to the container arm, anything else to the other one
        is_seq = isinstance(value, _SEQUENCES)
        arms = [a for a in args if a is not type(None)]
        arm = next((a for a in arms
                    if (typing.get_origin(a) in _SEQUENCES) == is_seq), arms[0])
        return _value(arm, value, base, path)
    if origin in _SEQUENCES:
        if not isinstance(value, _SEQUENCES):
            raise ValueError(f"{path}: expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return origin(_value(item, v, None, f"{path}[{i}]")
                      for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        if isinstance(value, str):
            value = {"kind": value}
        return decode(tp, value, base if isinstance(base, tp) else None, path)
    return value


def override(config, path: str, value):
    """``config`` with the field at dotted ``path`` set to ``value``; a dict
    value merges onto the current sub-config."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return decode(type(config), value, base=config)
