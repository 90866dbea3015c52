"""Baseline hazard rates: exponential, Weibull, piecewise constant.

Hazards are value objects exposing the cumulative hazard ``cumulative(t)``,
its inverse ``inverse_cumulative(u)`` (each a Python float for a scalar and
an array for an array), and JSON (de)serialization.  The generic-time clock
used throughout the package is the sum of target-specific cumulative hazards,
:func:`generic_time`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import _kernels
from .errors import LengthMismatch, ParameterOutOfRange


def _as_float_array(x):
    return np.asarray(x, dtype=np.float64)


def _float_if_scalar(x):
    """``x`` as a Python float when 0-d, else the array unchanged."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class ExponentialRate:
    """Constant hazard ``rate``; cumulative hazard rate * t."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ParameterOutOfRange(
                f"exponential rate must be positive and finite, got {self.rate}")

    def cumulative(self, t):
        return _float_if_scalar(self.rate * _as_float_array(t))

    def inverse_cumulative(self, u):
        return _float_if_scalar(_as_float_array(u) / self.rate)


@dataclass(frozen=True)
class Weibull:
    """Weibull cumulative hazard (t / scale) ** shape."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ParameterOutOfRange(
                f"Weibull shape must be positive and finite, got {self.shape}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ParameterOutOfRange(
                f"Weibull scale must be positive and finite, got {self.scale}")

    def cumulative(self, t):
        return _float_if_scalar((_as_float_array(t) / self.scale) ** self.shape)

    def inverse_cumulative(self, u):
        return _float_if_scalar(self.scale * _as_float_array(u) ** (1.0 / self.shape))


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant hazard: ``rates[i]`` on [breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple
    rates: tuple

    def __post_init__(self):
        breakpoints = tuple(float(b) for b in self.breakpoints)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "rates", rates)
        if len(rates) != len(breakpoints) + 1:
            raise LengthMismatch(
                f"piecewise hazard needs len(rates) == len(breakpoints) + 1, "
                f"got {len(rates)} rates for {len(breakpoints)} breakpoints"
            )
        prev = 0.0
        for b in breakpoints:
            if not (b > prev and math.isfinite(b)):
                raise ParameterOutOfRange(
                    f"breakpoints must be positive, finite and strictly increasing, "
                    f"got {breakpoints}"
                )
            prev = b
        for r in rates:
            if not (r > 0.0 and math.isfinite(r)):
                raise ParameterOutOfRange(
                    f"piecewise rates must be positive and finite, got {r}")

    def _tables(self):
        edges = np.concatenate(([0.0], np.asarray(self.breakpoints)))
        rates = np.asarray(self.rates)
        widths = np.diff(edges)
        cums = np.concatenate(([0.0], np.cumsum(rates[:-1] * widths)))
        return edges, cums, rates

    def cumulative(self, t):
        edges, cums, rates = self._tables()
        return _float_if_scalar(
            _kernels.piecewise_cumulative(edges, cums, rates, _as_float_array(t)))

    def inverse_cumulative(self, u):
        edges, cums, rates = self._tables()
        u = _as_float_array(u)
        finite = np.isfinite(u)
        out = np.full(u.shape, np.inf)
        out[finite] = _kernels.piecewise_inverse(edges, cums, rates, u[finite])
        return _float_if_scalar(out)


BaselineHazard = Union[ExponentialRate, Weibull, PiecewiseConstant]


def generic_time(hazards, t) -> float:
    """Sum of per-target cumulative hazards at the time vector ``t``."""
    t = np.atleast_1d(_as_float_array(t))
    if len(hazards) != t.shape[0]:
        raise LengthMismatch(
            f"{len(hazards)} hazards but time vector of length {t.shape[0]}"
        )
    return float(sum(h.cumulative(ti) for h, ti in zip(hazards, t)))


#: The JSON tag of each hazard class; drives both directions of the codec.
_HAZARD_TAGS = {ExponentialRate: "exponential", Weibull: "weibull",
                PiecewiseConstant: "piecewise"}


def hazard_to_dict(hazard: BaselineHazard) -> dict:
    tag = _HAZARD_TAGS.get(type(hazard))
    if tag is None:
        raise ParameterOutOfRange(f"not a baseline hazard: {hazard!r}")
    params = {f.name: getattr(hazard, f.name) for f in fields(hazard)}
    return {"hazard": tag,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}}


def hazard_from_dict(spec: dict) -> BaselineHazard:
    """Inverse of :func:`hazard_to_dict`; params keys naming no field are ignored."""
    try:
        tag = spec["hazard"]
        params = dict(spec.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ParameterOutOfRange(f"malformed hazard spec: {spec!r}") from exc
    by_tag = {t: cls for cls, t in _HAZARD_TAGS.items()}
    if tag not in by_tag:
        raise ParameterOutOfRange(
            f"unknown hazard tag {tag!r}; expected one of {sorted(by_tag)}"
        )
    try:
        kwargs = {f.name: params[f.name] for f in fields(by_tag[tag])}
    except KeyError as exc:
        raise ParameterOutOfRange(f"hazard {tag!r} is missing parameter {exc}") from exc
    return by_tag[tag](**kwargs)
