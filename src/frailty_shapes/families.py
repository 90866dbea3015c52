"""Discrete frailty families and their Laplace transforms.

Each family is an immutable value object validated at construction.  The
Laplace transform ``L(s) = E[exp(-s Z)]`` together with its first two
derivatives is available through :func:`laplace`; probability mass, moments,
and truncated support tables through :func:`pmf`, :func:`moments`, and
:func:`support_table`.

All transforms are closed-form except the Addams family, which is defined by
its variance trajectory rather than by a transform; its ``L`` is recovered by
integrating the second-order initial value problem

    L''(s) L(s) / L'(s)^2 = 1 + gamma * exp(alpha * s),  L(0) = 1, L'(0) = -1

with an adaptive high-order solver (local error 1e-12).  For ``alpha = 0``
this reduces to the gamma transform with unit mean and variance ``gamma``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple, Union

import numpy as np
from scipy import stats
from scipy.integrate import solve_ivp

from .errors import (
    DegenerateDistribution,
    LengthMismatch,
    NumericalOverflow,
    ParameterOutOfRange,
    UnsupportedFamily,
)

#: Infinite supports are truncated at the smallest K with tail mass below this.
TAIL_MASS = 1e-14

#: Tolerance for "probabilities sum to one" checks on k-point families.
PROB_SUM_TOL = 1e-12


class LaplaceTriple(NamedTuple):
    """(L(s), L'(s), L''(s)); scalars or arrays matching the ``s`` argument."""

    l0: Union[float, np.ndarray]
    l1: Union[float, np.ndarray]
    l2: Union[float, np.ndarray]


class SupportTable(NamedTuple):
    """Truncated support with probabilities and the neglected tail mass."""

    z: np.ndarray
    pmf: np.ndarray
    tail_mass: float


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterOutOfRange(msg)


def _is_integral(x) -> bool:
    return isinstance(x, numbers.Integral) or (
        isinstance(x, numbers.Real) and float(x).is_integer()
    )


@dataclass(frozen=True)
class NegBin:
    """Negative binomial: failures before the nu-th success, support {0, 1, ...}."""

    pi: float
    nu: float

    def __post_init__(self):
        _require(0.0 < self.pi < 1.0, f"NegBin pi must lie in (0, 1), got {self.pi}")
        _require(self.nu > 0.0 and math.isfinite(self.nu),
                 f"NegBin nu must be positive and finite, got {self.nu}")


@dataclass(frozen=True)
class NegBinPositive:
    """Negative binomial counting trials, support {nu, nu + 1, ...}; nu integer."""

    pi: float
    nu: int

    def __post_init__(self):
        _require(0.0 < self.pi < 1.0,
                 f"NegBinPositive pi must lie in (0, 1), got {self.pi}")
        _require(_is_integral(self.nu) and self.nu >= 1,
                 f"NegBinPositive nu must be a positive integer, got {self.nu}")
        object.__setattr__(self, "nu", int(self.nu))


@dataclass(frozen=True)
class Binomial:
    """Binomial(n, pi) frailty on {0, ..., n}."""

    pi: float
    n: int

    def __post_init__(self):
        _require(0.0 < self.pi < 1.0, f"Binomial pi must lie in (0, 1), got {self.pi}")
        _require(_is_integral(self.n) and self.n >= 1,
                 f"Binomial n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class Poisson:
    """Poisson(eta) frailty."""

    eta: float

    def __post_init__(self):
        _require(self.eta > 0.0 and math.isfinite(self.eta),
                 f"Poisson eta must be positive and finite, got {self.eta}")


@dataclass(frozen=True)
class Shifted:
    """A NegBin, Binomial, or Poisson frailty shifted up by a constant p >= 0."""

    inner: Union[NegBin, Binomial, Poisson]
    p: float

    def __post_init__(self):
        if not isinstance(self.inner, (NegBin, Binomial, Poisson)):
            raise ParameterOutOfRange(
                "Shifted inner family must be NegBin, Binomial, or Poisson, "
                f"got {type(self.inner).__name__}"
            )
        _require(self.p >= 0.0 and math.isfinite(self.p),
                 f"Shifted p must be nonnegative and finite, got {self.p}")


@dataclass(frozen=True)
class ZeroModifiedPoisson:
    """Poisson(eta) with its mass at zero rescaled by phi in [0, exp(eta)).

    ``phi = 0`` is the zero-truncated Poisson, ``phi < 1`` deflates the zero
    class, ``phi > 1`` inflates it.
    """

    eta: float
    phi: float

    def __post_init__(self):
        _require(self.eta > 0.0 and math.isfinite(self.eta),
                 f"ZeroModifiedPoisson eta must be positive and finite, got {self.eta}")
        # phi < exp(eta) keeps the zero-class probability below one; compare in
        # the downscaled form so large eta cannot overflow.
        _require(self.phi >= 0.0 and self.phi * math.exp(-self.eta) < 1.0,
                 f"ZeroModifiedPoisson phi must lie in [0, exp(eta)), got {self.phi}")


@dataclass(frozen=True)
class Addams:
    """Family whose conditional variance-to-squared-mean ratio is gamma*exp(alpha*t).

    Only the Laplace transform is exposed; the probability mass function is
    not available (``pmf``/``support_table`` raise ``UnsupportedFamily``).
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        _require(math.isfinite(self.alpha), f"Addams alpha must be finite, got {self.alpha}")
        _require(self.gamma > 0.0 and math.isfinite(self.gamma),
                 f"Addams gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class KPoint:
    """Finite discrete frailty on a strictly increasing nonnegative support."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        support = tuple(float(z) for z in self.support)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if len(support) != len(probs):
            raise LengthMismatch(
                f"KPoint support has {len(support)} points but {len(probs)} probabilities"
            )
        _require(len(support) >= 1, "KPoint needs at least one support point")
        _require(support[0] >= 0.0 and math.isfinite(support[-1]),
                 f"KPoint support must be nonnegative and finite, got {support}")
        for a, b in zip(support, support[1:]):
            _require(a < b, "KPoint support must be strictly increasing")
        for p in probs:
            _require(p > 0.0, f"KPoint probabilities must be positive, got {p}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ParameterOutOfRange(
                f"KPoint probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}"
            )
        if len(support) == 1:
            raise DegenerateDistribution(
                "KPoint with a single atom has zero variance"
            )


@dataclass(frozen=True)
class GammaFrailty:
    """Continuous gamma frailty parameterized by its mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        _require(self.mean > 0.0 and math.isfinite(self.mean),
                 f"GammaFrailty mean must be positive and finite, got {self.mean}")
        _require(self.variance > 0.0 and math.isfinite(self.variance),
                 f"GammaFrailty variance must be positive and finite, got {self.variance}")


FrailtyFamily = Union[
    NegBin, NegBinPositive, Binomial, Poisson, Shifted,
    ZeroModifiedPoisson, Addams, KPoint, GammaFrailty,
]

#: The JSON tag of each family class; drives validation and both directions
#: of the JSON codec.
_FAMILY_TAGS = {
    NegBin: "negbin",
    NegBinPositive: "negbin_positive",
    Binomial: "binomial",
    Poisson: "poisson",
    Shifted: "shifted",
    ZeroModifiedPoisson: "zero_modified_poisson",
    Addams: "addams",
    KPoint: "kpoint",
    GammaFrailty: "gamma",
}

_FAMILY_TYPES = tuple(_FAMILY_TAGS)


def validate(family: FrailtyFamily) -> None:
    """Re-run construction-time validation; raises if the family is invalid."""
    if not isinstance(family, _FAMILY_TYPES):
        raise UnsupportedFamily(f"not a frailty family: {family!r}")
    family.__post_init__()


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def moments(family: FrailtyFamily) -> tuple:
    """(mean, variance) of the unconditional frailty distribution."""
    if isinstance(family, NegBin):
        q = 1.0 - family.pi
        return family.nu * q / family.pi, family.nu * q / family.pi**2
    if isinstance(family, NegBinPositive):
        q = 1.0 - family.pi
        return family.nu / family.pi, family.nu * q / family.pi**2
    if isinstance(family, Binomial):
        return family.n * family.pi, family.n * family.pi * (1.0 - family.pi)
    if isinstance(family, Poisson):
        return family.eta, family.eta
    if isinstance(family, Shifted):
        m, v = moments(family.inner)
        return m + family.p, v
    if isinstance(family, ZeroModifiedPoisson):
        eta, phi = family.eta, family.phi
        scale = (1.0 - phi * math.exp(-eta)) / -math.expm1(-eta)
        mean = scale * eta
        second = scale * (eta + eta * eta)
        return mean, second - mean * mean
    if isinstance(family, Addams):
        # From the transform at 0: L(0) = 1, L'(0) = -1, L''(0) = 1 + gamma.
        return 1.0, family.gamma
    if isinstance(family, KPoint):
        z = np.asarray(family.support)
        p = np.asarray(family.probs)
        mean = float(z @ p)
        return mean, float((z * z) @ p) - mean * mean
    if isinstance(family, GammaFrailty):
        return family.mean, family.variance
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


# ---------------------------------------------------------------------------
# Probability mass
# ---------------------------------------------------------------------------

# Lattice families return 0.0 for off-lattice arguments instead of raising, so
# pmf behaves like a density evaluated anywhere on [0, inf).
_LATTICE_TOL = 1e-9


def _zmp_scale(family: ZeroModifiedPoisson) -> float:
    """Rescaling factor applied to the positive Poisson classes."""
    return (1.0 - family.phi * math.exp(-family.eta)) / -math.expm1(-family.eta)


def _as_shifted(family: NegBinPositive) -> Shifted:
    """NegBinPositive(pi, nu) is NegBin(pi, nu) moved up by nu."""
    return Shifted(inner=NegBin(pi=family.pi, nu=family.nu), p=float(family.nu))


def pmf(family: FrailtyFamily, z: float) -> float:
    """P(Z = z).  Raises ``UnsupportedFamily`` for Addams and GammaFrailty."""
    if isinstance(family, (Addams, GammaFrailty)):
        raise UnsupportedFamily(
            f"{type(family).__name__} has no probability mass function"
        )
    if z < 0.0:
        return 0.0
    if isinstance(family, NegBinPositive):
        family = _as_shifted(family)
    if isinstance(family, Shifted):
        return pmf(family.inner, z - family.p)
    if isinstance(family, KPoint):
        for zk, pk in zip(family.support, family.probs):
            if abs(z - zk) <= _LATTICE_TOL:
                return pk
        return 0.0
    k = round(z)
    if abs(z - k) > _LATTICE_TOL:
        return 0.0
    if isinstance(family, NegBin):
        return float(stats.nbinom.pmf(k, family.nu, family.pi))
    if isinstance(family, Binomial):
        return float(stats.binom.pmf(k, family.n, family.pi))
    if isinstance(family, Poisson):
        return float(stats.poisson.pmf(k, family.eta))
    if isinstance(family, ZeroModifiedPoisson):
        if k == 0:
            return family.phi * math.exp(-family.eta)
        return _zmp_scale(family) * float(stats.poisson.pmf(k, family.eta))
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def _truncation_point(dist, tail: float) -> int:
    """Smallest K with P(Z > K) < tail for a scipy discrete distribution."""
    k = int(dist.isf(tail))
    while dist.sf(k) >= tail:
        k += 1
    while k > 0 and dist.sf(k - 1) < tail:
        k -= 1
    return k


def support_table(family: FrailtyFamily, tail: float = TAIL_MASS) -> SupportTable:
    """Truncated support and probabilities with tail mass below ``tail``.

    Tables are memoised on ``(family, tail)`` and returned read-only, so a
    repeat call gives the same object and no caller can change it.
    """
    return _support_table(family, float(tail))


@functools.lru_cache(maxsize=128)
def _support_table(family: FrailtyFamily, tail: float) -> SupportTable:
    table = _build_support_table(family, tail)
    table.z.flags.writeable = False
    table.pmf.flags.writeable = False
    return table


def _build_support_table(family: FrailtyFamily, tail: float) -> SupportTable:
    if isinstance(family, (Addams, GammaFrailty)):
        raise UnsupportedFamily(
            f"{type(family).__name__} has no probability mass function"
        )
    if isinstance(family, NegBinPositive):
        family = _as_shifted(family)
    if isinstance(family, KPoint):
        return SupportTable(np.asarray(family.support), np.asarray(family.probs), 0.0)
    if isinstance(family, Shifted):
        inner = support_table(family.inner, tail)
        return SupportTable(inner.z + family.p, inner.pmf, inner.tail_mass)
    if isinstance(family, Binomial):
        z = np.arange(family.n + 1, dtype=np.float64)
        return SupportTable(z, stats.binom.pmf(np.arange(family.n + 1),
                                               family.n, family.pi), 0.0)
    if isinstance(family, (NegBin, Poisson)):
        dist = (stats.nbinom(family.nu, family.pi) if isinstance(family, NegBin)
                else stats.poisson(family.eta))
        k = _truncation_point(dist, tail)
        z = np.arange(k + 1, dtype=np.float64)
        return SupportTable(z, dist.pmf(np.arange(k + 1)), float(dist.sf(k)))
    if isinstance(family, ZeroModifiedPoisson):
        scale = _zmp_scale(family)
        dist = stats.poisson(family.eta)
        # The positive classes carry `scale` times the Poisson tail.
        k = max(1, _truncation_point(dist, tail / max(scale, 1.0)))
        while scale * dist.sf(k) >= tail:
            k += 1
        probs = scale * dist.pmf(np.arange(k + 1))
        probs[0] = family.phi * math.exp(-family.eta)
        z = np.arange(k + 1, dtype=np.float64)
        if family.phi == 0.0:
            z, probs = z[1:], probs[1:]
        return SupportTable(z, probs, float(scale * dist.sf(k)))
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def min_support(family: FrailtyFamily) -> float:
    """Smallest support point z_(1); raises for families without one (gamma)."""
    if isinstance(family, (NegBin, Binomial, Poisson)):
        return 0.0
    if isinstance(family, NegBinPositive):
        family = _as_shifted(family)
    if isinstance(family, Shifted):
        return family.p + min_support(family.inner)
    if isinstance(family, ZeroModifiedPoisson):
        return 0.0 if family.phi > 0.0 else 1.0
    if isinstance(family, KPoint):
        return family.support[0]
    raise UnsupportedFamily(
        f"{type(family).__name__} has no discrete minimum support point"
    )


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

_ADDAMS_CACHE: dict = {}
_ADDAMS_MIN_SPAN = 10.0


def _addams_solution(alpha: float, gamma: float, s_max: float):
    """Dense-output solution of the Addams transform IVP on [0, >= s_max]."""
    key = (alpha, gamma)
    cached = _ADDAMS_CACHE.get(key)
    if cached is not None and cached[0] >= s_max:
        return cached[1]
    span = max(float(s_max) * 1.25, _ADDAMS_MIN_SPAN)

    def rhs(s, y):
        l0, l1 = y
        return (l1, (1.0 + gamma * math.exp(alpha * s)) * l1 * l1 / l0)

    sol = solve_ivp(rhs, (0.0, span), (1.0, -1.0), method="DOP853",
                    rtol=1e-12, atol=1e-250, dense_output=True)
    if not sol.success:
        raise NumericalOverflow(
            f"Addams transform integration failed on [0, {span}]: {sol.message}"
        )
    _ADDAMS_CACHE[key] = (span, sol.sol)
    return sol.sol


def _laplace_addams(family: Addams, s: np.ndarray) -> LaplaceTriple:
    alpha, gamma = family.alpha, family.gamma
    if alpha == 0.0:
        return _laplace_arrays(GammaFrailty(mean=1.0, variance=gamma), s)
    dense = _addams_solution(alpha, gamma, float(np.max(s)))
    vals = dense(np.atleast_1d(s))
    l0 = vals[0].reshape(s.shape)
    l1 = vals[1].reshape(s.shape)
    # L'' follows from the defining relation, exactly consistent with (L, L').
    l2 = (1.0 + gamma * np.exp(alpha * s)) * l1 * l1 / l0
    return LaplaceTriple(l0, l1, l2)


def _laplace_arrays(family: FrailtyFamily, s: np.ndarray) -> LaplaceTriple:
    if isinstance(family, NegBin):
        q = 1.0 - family.pi
        e = np.exp(-s)
        ratio = q * e / (1.0 - q * e)
        l0 = np.exp(family.nu * (math.log(family.pi) - np.log1p(-q * e)))
        l1 = -family.nu * ratio * l0
        l2 = (family.nu * ratio + family.nu * (family.nu + 1.0) * ratio**2) * l0
        return LaplaceTriple(l0, l1, l2)
    if isinstance(family, NegBinPositive):
        q = 1.0 - family.pi
        qe = q * np.exp(-s)
        rho = 1.0 / (1.0 - qe)
        l0 = np.exp(family.nu * (math.log(family.pi) - s - np.log1p(-qe)))
        l1 = -family.nu * rho * l0
        l2 = family.nu * rho**2 * (qe + family.nu) * l0
        return LaplaceTriple(l0, l1, l2)
    if isinstance(family, Binomial):
        a = 1.0 - family.pi
        pe = family.pi * np.exp(-s)
        base = a + pe
        l0 = base ** family.n
        l1 = -family.n * pe * base ** (family.n - 1)
        l2 = family.n * pe * base ** (family.n - 1) \
            + family.n * (family.n - 1) * pe**2 * base ** (family.n - 2)
        return LaplaceTriple(l0, l1, l2)
    if isinstance(family, Poisson):
        x = family.eta * np.exp(-s)
        l0 = np.exp(x - family.eta)
        return LaplaceTriple(l0, -x * l0, (x * x + x) * l0)
    if isinstance(family, Shifted):
        t0, t1, t2 = _laplace_arrays(family.inner, s)
        p = family.p
        damp = np.exp(-p * s)
        return LaplaceTriple(
            t0 * damp,
            (t1 - p * t0) * damp,
            (t2 - 2.0 * p * t1 + p * p * t0) * damp,
        )
    if isinstance(family, ZeroModifiedPoisson):
        eta, phi = family.eta, family.phi
        em = math.exp(-eta)
        den = -math.expm1(-eta)  # 1 - exp(-eta)
        amp = (1.0 - phi * em) / den
        x = eta * np.exp(-s)
        ex = np.exp(x)
        # L = amp * L_Poisson + (phi - 1) exp(-eta) / den, rearranged so both
        # contributions are nonnegative and no cancellation occurs at large s.
        l0 = em / den * ((1.0 - phi * em) * np.expm1(x) + phi * den)
        l1 = -amp * x * ex * em
        l2 = amp * (x * x + x) * ex * em
        return LaplaceTriple(l0, l1, l2)
    if isinstance(family, Addams):
        return _laplace_addams(family, s)
    if isinstance(family, KPoint):
        z = np.asarray(family.support)
        pr = np.asarray(family.probs)
        w = pr[..., :] * np.exp(-np.multiply.outer(s, z))
        l0 = w.sum(axis=-1)
        l1 = -(w @ z)
        l2 = w @ (z * z)
        return LaplaceTriple(l0, l1, l2)
    if isinstance(family, GammaFrailty):
        m, v = family.mean, family.variance
        shape = m * m / v
        base = 1.0 + (v / m) * s
        l0 = base ** (-shape)
        l1 = -m * base ** (-shape - 1.0)
        l2 = (m * m + v) * base ** (-shape - 2.0)
        return LaplaceTriple(l0, l1, l2)
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def check_grid(lam) -> np.ndarray:
    """``lam`` as a float array; raises unless it is a non-empty grid of
    finite, nonnegative generic times (a scalar counts as one point)."""
    arr = np.asarray(lam, dtype=np.float64)
    if arr.size == 0:
        raise ParameterOutOfRange("generic-time grid must be nonempty")
    if not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
        raise ParameterOutOfRange("generic times must be finite and nonnegative")
    return arr


def _bad_points(arr: np.ndarray, bad: np.ndarray, name: str) -> str:
    """'k of n points, first name=x' for the flagged entries of the grid ``arr``."""
    return f"{np.sum(bad)} of {arr.size} points, first {name}={float(arr[bad].flat[0])!r}"


def _laplace_ratio(family: FrailtyFamily, arr: np.ndarray):
    """``(triple, outside, ratio)`` at the checked grid ``arr``, without raising:
    ``outside`` flags the triple outside the range :func:`laplace` admits,
    and ``ratio``, the RFV (L''/L')(L/L') - 1 (no squared transform to under-
    or overflow), is finite exactly where the RFV is representable."""
    l0, l1, l2 = (np.asarray(v) for v in _laplace_arrays(family, arr))
    outside = (~np.isfinite(l0) | ~np.isfinite(l1) | ~np.isfinite(l2)
               | (l0 <= 0.0) | (l0 > 1.0 + 1e-12) | (l1 > 0.0) | (l2 < 0.0))
    l0 = np.minimum(l0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(outside, np.nan, (l2 / l1) * (l0 / l1) - 1.0)
    return LaplaceTriple(l0, l1, l2), outside, ratio


def laplace(family: FrailtyFamily, s) -> LaplaceTriple:
    """Laplace transform triple (L, L', L'') at ``s`` (scalar or array, s >= 0).

    ``s`` must pass :func:`check_grid`.  Postconditions checked here: L in
    (0, 1], L' <= 0, L'' >= 0, all finite.  Violations (underflow of L to
    zero, overflow to inf/nan) raise :class:`NumericalOverflow` rather than
    returning non-finite values.  An L rounded up past 1 by at most 1e-12 is
    returned as 1.
    """
    arr = check_grid(s)
    triple, outside, _ = _laplace_ratio(family, arr)
    if outside.any():
        raise NumericalOverflow(
            f"Laplace transform of {family} left its admissible range at "
            f"{_bad_points(arr, outside, 's')}"
        )
    if np.ndim(s) == 0:
        return LaplaceTriple(*(float(v) for v in triple))
    return triple


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def _to_json(value):
    """A field value in JSON form: nested families as dicts, tuples as lists."""
    if type(value) in _FAMILY_TAGS:
        return family_to_dict(value)
    return list(value) if isinstance(value, tuple) else value


def _from_json(value):
    """Inverse of :func:`_to_json`; lists stay lists for the constructors."""
    return family_from_dict(value) if isinstance(value, dict) else value


def family_to_dict(family: FrailtyFamily) -> dict:
    """JSON-ready dict representation, inverse of :func:`family_from_dict`."""
    tag = _FAMILY_TAGS.get(type(family))
    if tag is None:
        raise UnsupportedFamily(f"not a frailty family: {family!r}")
    return {"family": tag,
            "params": {f.name: _to_json(getattr(family, f.name)) for f in fields(family)}}


def family_from_dict(spec: dict) -> FrailtyFamily:
    """Build a family from its dict form, validating all parameters.

    Keys of ``params`` that name no field of the family are ignored.
    """
    try:
        tag = spec["family"]
        params = dict(spec.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ParameterOutOfRange(f"malformed family spec: {spec!r}") from exc
    by_tag = {t: cls for cls, t in _FAMILY_TAGS.items()}
    if tag not in by_tag:
        raise UnsupportedFamily(
            f"unknown family tag {tag!r}; expected one of {sorted(by_tag)}"
        )
    cls = by_tag[tag]
    try:
        kwargs = {f.name: _from_json(params[f.name]) for f in fields(cls)}
    except KeyError as exc:
        raise ParameterOutOfRange(f"family {tag!r} is missing parameter {exc}") from exc
    return cls(**kwargs)
