"""Baseline hazard rates: exponential, Weibull, piecewise constant.

Hazards are value objects exposing the cumulative hazard ``cumulative(t)``,
its inverse ``inverse_cumulative(u)`` (each a Python float for a scalar and
an array for an array), and JSON (de)serialization.  The generic-time clock
used throughout the package is the sum of target-specific cumulative hazards,
:func:`generic_time`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels, _spec
from ._spec import _require
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
        _spec.positive(self.rate, "exponential rate")

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
        _spec.positive(self.shape, "Weibull shape")
        _spec.positive(self.scale, "Weibull scale")

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
        breakpoints = tuple(float(b) for b in
                            _spec.number_list(self.breakpoints, "piecewise breakpoints"))
        rates = tuple(float(r) for r in _spec.number_list(self.rates, "piecewise rates"))
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "rates", rates)
        if len(rates) != len(breakpoints) + 1:
            raise LengthMismatch(
                f"piecewise hazard needs len(rates) == len(breakpoints) + 1, "
                f"got {len(rates)} rates for {len(breakpoints)} breakpoints"
            )
        for prev, b in zip((0.0,) + breakpoints, breakpoints):
            _require(b > prev and math.isfinite(b), "breakpoints must be positive, finite "
                     f"and strictly increasing, got {breakpoints}")
        for r in rates:
            _spec.positive(r, "piecewise rates")

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


def _check_time_vector(hazards, t) -> np.ndarray:
    """``t`` as a float vector of one finite, nonnegative time per hazard."""
    t = np.atleast_1d(_as_float_array(t))
    if t.shape[0] != len(hazards):
        raise LengthMismatch(f"time vector of length {t.shape[0]} for {len(hazards)} hazards")
    _require(np.all(np.isfinite(t)) and float(t.min()) >= 0.0,
             "time vector must be finite and nonnegative")
    return t


def generic_time(hazards, t) -> float:
    """Sum of per-target cumulative hazards at the time vector ``t``."""
    t = _check_time_vector(hazards, t)
    return float(sum(h.cumulative(ti) for h, ti in zip(hazards, t)))


#: The JSON tag of each hazard class; drives both directions of the codec.
_HAZARD_TAGS = {ExponentialRate: "exponential", Weibull: "weibull",
                PiecewiseConstant: "piecewise"}


def _hazard_tag(hazard) -> str:
    tag = _HAZARD_TAGS.get(type(hazard))
    _require(tag is not None, f"not a baseline hazard: {hazard!r}")
    return tag


def _check_hazards(hazards) -> tuple:
    """``hazards`` as a tuple of at least one tagged baseline hazard."""
    hazards = _spec.listed(hazards, "hazards")
    if not hazards:
        raise LengthMismatch("at least one hazard is required")
    for hazard in hazards:
        _hazard_tag(hazard)
    return hazards


def hazard_to_dict(hazard: BaselineHazard) -> dict:
    return {"hazard": _hazard_tag(hazard), "params": _spec.dump(hazard)}


def hazard_from_dict(spec: dict) -> BaselineHazard:
    """Inverse of :func:`hazard_to_dict`; a missing or unknown key raises."""
    return _spec.load_tagged(spec, "hazard", _HAZARD_TAGS, lambda tag: ParameterOutOfRange(
        f"unknown hazard tag {tag!r}; expected one of {sorted(_HAZARD_TAGS.values())}"
    ))
