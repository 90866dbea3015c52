"""The one reader of JSON specs.

Config files and family, hazard and shift specs reach the package only
through :func:`read`, which checks each key by its kind: numbers finite and
not ``bool``, integers integral, lists of finite numbers, every required key
present and no unknown key given.  A violation raises
:class:`ParameterOutOfRange` naming the field.  Values pass on unchanged
(lists as tuples), so an echoed spec keeps its bytes.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import fields, is_dataclass

from .errors import ParameterOutOfRange


def _is_integral(x) -> bool:
    return isinstance(x, numbers.Integral) or isinstance(x, numbers.Real) and float(x).is_integer()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterOutOfRange(msg)


def _need(ok, name, want, value):
    _require(ok, f"{name} must be {want}, got {value!r}")
    return value


def _number(value, name):
    # a comparison, not math.isfinite, which overflows on a huge int
    return _need(not isinstance(value, bool) and isinstance(value, numbers.Real)
                 and abs(value) <= sys.float_info.max, name, "a finite number", value)


#: The check of each named kind: the dataclass field annotations, plus
#: ``str``, ``dict`` and ``array`` (a finite number or a list of arrays).
KINDS = {
    "float": _number,
    "int": lambda v, name: int(_need(_is_integral(_number(v, name)), name, "an integer", v)),
    "tuple": lambda v, name: _check(["float"], v, name),
    "Optional[float]": lambda v, name: None if v is None else _number(v, name),
    "str": lambda v, name: _need(isinstance(v, str), name, "a string", v),
    "dict": lambda v, name: _need(isinstance(v, dict), name, "a JSON object", v),
    "array": lambda v, name: (_check(["array"], v, name) if isinstance(v, (list, tuple))
                              else _number(v, name)),
}


def _check(kind, value, name):
    """``value`` checked by ``kind``: a name in :data:`KINDS`, ``[item kind]``
    for a list (read as a tuple), or a decoder taking the value alone."""
    if isinstance(kind, list):
        _need(isinstance(value, (list, tuple)), name, "a list", value)
        return tuple(_check(kind[0], v, f"{name}[{i}]") for i, v in enumerate(value))
    return KINDS[kind](value, name) if isinstance(kind, str) else kind(value)


def read(spec, what, kinds, optional=()) -> dict:
    """The entries of the JSON object ``spec`` (``what`` in messages), each
    checked by its kind in ``kinds``; every key of ``kinds`` but those in
    ``optional`` is required, and no other key may be given."""
    KINDS["dict"](spec, what)
    for key in spec:
        if key not in kinds:
            raise ParameterOutOfRange(
                f"{what} has unknown parameter {key!r}; expected one of {sorted(kinds)}")
    for key in kinds:
        if key not in spec and key not in optional:
            raise ParameterOutOfRange(f"{what} is missing parameter {key!r}")
    return {key: _check(kind, spec[key], f"{what} parameter {key!r}")
            for key, kind in kinds.items() if key in spec}


def load_tagged(spec, key, tags, unknown, flat=False, nested=None):
    """The dataclass in ``tags`` (class -> tag) whose tag is the ``key``
    entry of the JSON object ``spec``, built from its ``params`` object (from
    its other entries if ``flat``); each field is read by its annotation, or
    by ``nested`` if that names no kind.  ``unknown(tag)`` is the error
    raised for a tag that no class has."""
    if not isinstance(spec, dict) or key not in spec:
        raise ParameterOutOfRange(f"malformed {key} spec: {spec!r}")
    tag, what = spec[key], f"{key} {spec[key]!r}"
    cls = next((c for c, t in tags.items() if t == tag), None)
    if cls is None:
        raise unknown(tag)
    rest = {k: v for k, v in spec.items() if k != key}
    if not flat:
        rest = read(rest, what, {"params": "dict"}, ("params",)).get("params", {})
    return cls(**read(rest, what, {f.name: f.type if f.type in KINDS else nested
                                   for f in fields(cls)}))


def dump(obj, nested=None) -> dict:
    """The fields of the dataclass ``obj`` as JSON values, the inverse of
    :func:`load_tagged`: tuples as lists, nested dataclasses through ``nested``."""
    return {f.name: (list(v) if isinstance(v, tuple) else nested(v) if is_dataclass(v) else v)
            for f in fields(obj) for v in (getattr(obj, f.name),)}
