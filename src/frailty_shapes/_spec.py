"""The one reader of JSON specs, and the input rules the package shares.

Config files and family, hazard and shift specs reach the package only
through :func:`read`, which checks each key by its kind: numbers finite and
not ``bool``, integers integral, lists of finite numbers, every required key
present and no unknown key given.  A violation raises
:class:`ParameterOutOfRange` naming the field.  Values pass on unchanged
(lists as tuples), so an echoed spec keeps its bytes.

The rules that constructors and functions also apply to their arguments
live here once: :func:`integer`, :func:`seed`, :func:`positive`,
:func:`listed`, :func:`number_list` and :func:`target_pair`.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import fields, is_dataclass

from .errors import ParameterOutOfRange


def _is_real(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Real)


def _is_integral(x) -> bool:
    return _is_real(x) and (isinstance(x, numbers.Integral) or float(x).is_integer())


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterOutOfRange(msg)


def _need(ok, name, want, value):
    _require(ok, f"{name} must be {want}, got {value!r}")
    return value


def integer(value, name, positive=False) -> int:
    """``value`` as an ``int``; raises unless it is integral (a ``bool`` is
    not) and, if ``positive``, at least 1."""
    want = "a positive integer" if positive else "an integer"
    _require(_is_integral(value) and (not positive or value >= 1),
             f"{name} must be {want}, got {value}")
    return int(value)


def seed(value) -> int:
    """``value`` as an ``int``; raises unless it is an integer in ``[0, 2**64)``,
    the key range of the Philox stream, so that no two seeds draw alike."""
    value = integer(value, "seed")
    _require(0 <= value < 2**64, f"seed must be in [0, 2**64), got {value}")
    return value


def positive(value, name):
    """``value`` unchanged; raises unless it is a number (a ``bool`` is not),
    positive and finite."""
    # a comparison, not math.isfinite, which overflows on a huge int
    _require(_is_real(value) and 0.0 < value <= sys.float_info.max,
             f"{name} must be positive and finite, got {value!r}")
    return value


def target_pair(j, j_prime, n) -> tuple:
    """``(j, j_prime)`` as ints; raises unless they are two distinct target
    indices in ``[0, n)``."""
    _require(_is_integral(j) and _is_integral(j_prime) and j != j_prime
             and 0 <= j < n and 0 <= j_prime < n,
             f"need two distinct target indices in [0, {n}), got {j}, {j_prime}")
    return int(j), int(j_prime)


def _number(value, name):
    # a comparison, not math.isfinite, which overflows on a huge int
    return _need(_is_real(value) and abs(value) <= sys.float_info.max,
                 name, "a finite number", value)


def listed(value, name) -> tuple:
    """``value`` as a tuple; raises unless it is a list or a tuple."""
    return tuple(_need(isinstance(value, (list, tuple)), name, "a list", value))


def number_list(value, name) -> tuple:
    """``value`` as a tuple; raises unless it is a list of finite numbers."""
    return _check(["float"], value, name)


#: The check of each named kind: the dataclass field annotations, plus
#: ``str``, ``dict`` and ``array`` (a finite number or a list of arrays).
KINDS = {
    "float": _number,
    "int": lambda v, name: integer(_number(v, name), name),
    "tuple": number_list,
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
        return tuple(_check(kind[0], v, f"{name}[{i}]") for i, v in enumerate(listed(value, name)))
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
