"""Discrete frailty families and their Laplace transforms.

Each family is an immutable value object validated at construction.  The
Laplace transform ``L(s) = E[exp(-s Z)]`` together with its first two
derivatives is available through :func:`laplace`; probability mass, moments,
and truncated support tables through :func:`pmf`, :func:`moments`, and
:func:`support_table`; the lattice families share one log-pmf.

All transforms are closed-form.  The Addams family is defined by its variance
trajectory, L''(s) L(s) / L'(s)^2 = 1 + gamma exp(alpha s) with L(0) = 1 and
L'(0) = -1, whose survivor mean is -L'/L = 1 / (1 + c expm1(alpha s)) with
c = gamma / alpha (the gamma transform for alpha = 0); the ``addams_ode``
criterion of :mod:`frailty_shapes.verify` checks it against the integrated ODE.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import _kernels, _spec
from ._spec import _require
from .errors import (
    DegenerateDistribution,
    LengthMismatch,
    NumericalOverflow,
    ParameterOutOfRange,
    UnsupportedFamily,
)

#: Infinite supports are truncated at the smallest K with tail mass below this.
TAIL_MASS = 1e-14

#: Most entries a lattice support table may evaluate: 2^24 admits Poisson(1e7),
#: whose table stops doubling here.  A family that needs more raises before
#: anything is allocated, rather than running out of memory.
MAX_SUPPORT = 1 << 24

#: Tolerance for "probabilities sum to one" checks on k-point families.
PROB_SUM_TOL = 1e-12


class LaplaceTriple(NamedTuple):
    """(L(s), L'(s), L''(s)); scalars or arrays matching the ``s`` argument."""

    l0: Union[float, np.ndarray]
    l1: Union[float, np.ndarray]
    l2: Union[float, np.ndarray]


class SupportTable(NamedTuple):
    """Truncated support with probabilities, the neglected tail mass, and the
    log-probabilities ``pmf`` is the ``exp`` of: finite at every retained
    point, also where ``pmf`` is subnormal or 0."""

    z: np.ndarray
    pmf: np.ndarray
    tail_mass: float
    log_pmf: np.ndarray


@dataclass(frozen=True)
class NegBin:
    """Negative binomial: failures before the nu-th success, support {0, 1, ...}."""

    pi: float
    nu: float

    def __post_init__(self):
        _require(0.0 < _spec._number(self.pi, "NegBin pi") < 1.0,
                 f"NegBin pi must lie in (0, 1), got {self.pi}")
        _spec.positive(self.nu, "NegBin nu")


@dataclass(frozen=True)
class NegBinPositive:
    """Negative binomial counting trials, support {nu, nu + 1, ...}; nu integer."""

    pi: float
    nu: int

    def __post_init__(self):
        _require(0.0 < _spec._number(self.pi, "NegBinPositive pi") < 1.0,
                 f"NegBinPositive pi must lie in (0, 1), got {self.pi}")
        object.__setattr__(self, "nu", _spec.integer(self.nu, "NegBinPositive nu", positive=True))


@dataclass(frozen=True)
class Binomial:
    """Binomial(n, pi) frailty on {0, ..., n}."""

    pi: float
    n: int

    def __post_init__(self):
        _require(0.0 < _spec._number(self.pi, "Binomial pi") < 1.0,
                 f"Binomial pi must lie in (0, 1), got {self.pi}")
        object.__setattr__(self, "n", _spec.integer(self.n, "Binomial n", positive=True))


@dataclass(frozen=True)
class Poisson:
    """Poisson(eta) frailty."""

    eta: float

    def __post_init__(self):
        _spec.positive(self.eta, "Poisson eta")


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
        _require(_spec._number(self.p, "Shifted p") >= 0.0,
                 f"Shifted p must be nonnegative, got {self.p}")


@dataclass(frozen=True)
class ZeroModifiedPoisson:
    """Poisson(eta) with its mass at zero rescaled by phi in [0, exp(eta)).

    ``phi = 0`` is the zero-truncated Poisson, ``phi < 1`` deflates the zero
    class, ``phi > 1`` inflates it.
    """

    eta: float
    phi: float

    def __post_init__(self):
        _spec.positive(self.eta, "ZeroModifiedPoisson eta")
        # phi < exp(eta) keeps the zero-class probability below one; compare in
        # the downscaled form so large eta cannot overflow.
        _require(_spec._number(self.phi, "ZeroModifiedPoisson phi") >= 0.0
                 and self.phi * math.exp(-self.eta) < 1.0,
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
        _spec._number(self.alpha, "Addams alpha")
        _spec.positive(self.gamma, "Addams gamma")


@dataclass(frozen=True)
class KPoint:
    """Finite discrete frailty on a strictly increasing nonnegative support."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        support = tuple(float(z) for z in _spec.number_list(self.support, "KPoint support"))
        probs = tuple(float(p) for p in _spec.number_list(self.probs, "KPoint probs"))
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
        _spec.positive(self.mean, "GammaFrailty mean")
        _spec.positive(self.variance, "GammaFrailty variance")


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
    p, base = _unshift(family)
    if base is not family:
        m, v = moments(base)
        return m + p, v
    if isinstance(family, NegBin):
        q = 1.0 - family.pi
        return family.nu * q / family.pi, family.nu * q / family.pi**2
    if isinstance(family, Binomial):
        return family.n * family.pi, family.n * family.pi * (1.0 - family.pi)
    if isinstance(family, Poisson):
        return family.eta, family.eta
    if isinstance(family, ZeroModifiedPoisson):
        eta, scale = family.eta, _zmp_scale(family)
        mean = scale * eta
        return mean, scale * (eta + eta * eta) - mean * mean
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


def _unshift(family: FrailtyFamily) -> tuple:
    """``(p, base)`` with ``family`` the family ``base`` moved up by ``p``:
    NegBinPositive(pi, nu) is NegBin(pi, nu) moved up by nu, and Shifted is
    its inner family moved up by p.  Any other family is its own base."""
    if isinstance(family, NegBinPositive):
        return float(family.nu), NegBin(pi=family.pi, nu=family.nu)
    if isinstance(family, Shifted):
        return family.p, family.inner
    return 0.0, family


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def _log_pmf(family: FrailtyFamily, k: np.ndarray) -> np.ndarray:
    """log P(Z = k) at the nonnegative integers ``k`` of a lattice family;
    -inf off the support."""
    kf = np.asarray(k, dtype=np.float64)
    if isinstance(family, Poisson):
        return kf * math.log(family.eta) - _lgamma(kf + 1.0) - family.eta
    if isinstance(family, NegBin):
        return (_lgamma(kf + family.nu) - math.lgamma(family.nu) - _lgamma(kf + 1.0)
                + family.nu * math.log(family.pi) + kf * math.log1p(-family.pi))
    if isinstance(family, Binomial):
        n = family.n
        j = np.minimum(kf, n)
        inside = (math.lgamma(n + 1.0) - _lgamma(j + 1.0) - _lgamma(n - j + 1.0)
                  + j * math.log(family.pi) + (n - j) * math.log1p(-family.pi))
        return np.where(kf <= n, inside, -np.inf)
    if isinstance(family, ZeroModifiedPoisson):
        with np.errstate(divide="ignore"):
            zero = np.log(family.phi) - family.eta
        positive = math.log(_zmp_scale(family)) + _log_pmf(Poisson(family.eta), k)
        return np.where(kf == 0.0, zero, positive)
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def pmf(family: FrailtyFamily, z: float) -> float:
    """P(Z = z).  Raises ``UnsupportedFamily`` for Addams and GammaFrailty."""
    if isinstance(family, (Addams, GammaFrailty)):
        raise UnsupportedFamily(
            f"{type(family).__name__} has no probability mass function"
        )
    if z < 0.0:
        return 0.0
    p, base = _unshift(family)
    if base is not family:
        return pmf(base, z - p)
    if isinstance(family, KPoint):
        for zk, pk in zip(family.support, family.probs):
            if abs(z - zk) <= _LATTICE_TOL:
                return pk
        return 0.0
    k = round(z)
    if abs(z - k) > _LATTICE_TOL:
        return 0.0
    return float(np.exp(_log_pmf(family, k)))


def support_table(family: FrailtyFamily, tail: float = TAIL_MASS) -> SupportTable:
    """Truncated support and probabilities with tail mass below ``tail``.

    ``tail`` must lie in (0, 1).  Tables are memoised on ``(family, tail)``
    and returned read-only, so a repeat call gives the same object and no
    caller can change it.
    """
    tail = float(tail)
    _require(0.0 < tail < 1.0, f"support table tail must lie in (0, 1), got {tail}")
    return _support_table(family, tail)


@functools.lru_cache(maxsize=128)
def _support_table(family: FrailtyFamily, tail: float) -> SupportTable:
    table = _build_support_table(family, tail)
    for values in (table.z, table.pmf, table.log_pmf):
        values.flags.writeable = False
    return table


def _build_support_table(family: FrailtyFamily, tail: float) -> SupportTable:
    if isinstance(family, (Addams, GammaFrailty)):
        raise UnsupportedFamily(
            f"{type(family).__name__} has no probability mass function"
        )
    p, base = _unshift(family)
    if base is not family:
        inner = support_table(base, tail)
        return inner._replace(z=inner.z + p)
    if isinstance(family, KPoint):
        probs = np.asarray(family.probs)
        return SupportTable(np.asarray(family.support), probs, 0.0, np.log(probs))
    # Evaluate out past the mode to a point below e^-46 (~1e-20) times the
    # tail, beyond which nothing can move the truncation or the tail mass.
    # The range doubles as needed up to MAX_SUPPORT entries; a family that
    # needs more steps one past the bound and raises there.
    mean, var = moments(family)
    hi = int(mean + 10.0 * math.sqrt(var)) + 10
    while True:
        if hi + 1 > MAX_SUPPORT:
            raise ParameterOutOfRange(
                f"{type(family).__name__} needs a support table of more than "
                f"{MAX_SUPPORT} entries: {family!r}")
        log_p = _log_pmf(family, np.arange(hi + 1))
        if log_p[-1] < math.log(tail) - 46.0 and log_p[-1] <= log_p[-2]:
            break
        hi = min(2 * hi, max(MAX_SUPPORT - 1, hi + 1))
    p = np.exp(log_p)
    # after[k] = P(Z > k), summed from the smallest terms up: no 1 - cdf.
    after = np.append(np.cumsum(p[:0:-1])[::-1], 0.0)
    k = int(np.argmax(after < tail))
    keep = np.isfinite(log_p[:k + 1])  # a zero-truncated family starts at 1
    z = np.arange(k + 1, dtype=np.float64)
    return SupportTable(z[keep], p[:k + 1][keep], float(after[k]), log_p[:k + 1][keep])


def min_support(family: FrailtyFamily) -> float:
    """Smallest support point z_(1); raises for families without one (gamma)."""
    p, base = _unshift(family)
    if base is not family:
        return p + min_support(base)
    if isinstance(family, (NegBin, Binomial, Poisson)):
        return 0.0
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

def _gamma_p2(x: np.ndarray) -> np.ndarray:
    """The incomplete gamma P(2, x) = 1 - (1 + x) e^-x, x >= 0; below x = 1,
    where that cancels, x^2 e^-x times 18 Taylor terms of (e^x - 1 - x) / x^2."""
    series = np.zeros_like(x)
    for j in range(17, -1, -1):
        series = series * x + 1.0 / math.factorial(j + 2)
    return np.where(x < 1.0, x * (x * (np.exp(-x) * series)),
                    -np.expm1(-x) - x * np.exp(-x))


def _tilted(s: np.ndarray, c: float, near: np.ndarray) -> np.ndarray:
    """The survivors' scale ``near`` = c e^-s, or (c e^(-s/2)) e^(-s/2) past
    s = 708.4, where e^-s is subnormal but each factor is normal."""
    half = np.exp(-0.5 * s)
    return np.where(s > 708.4, c * half * half, near)


@np.errstate(all="ignore")
def _survivor_triple(family: FrailtyFamily, s: np.ndarray):
    """``(log L, mean, variance, slope)`` of the frailty among survivors at ``s``.

    ``mean = -L'/L`` and ``variance = L''/L - (L'/L)^2``; ``slope`` is
    mean RFV' = 2 g^2 - k3 / mean, with g = variance / mean and k3 =
    -(variance)' the third central moment, stated per family in a form that
    does not cancel: g (M - p k) / (M + p) for a lattice base of mean M moved
    up by p, alpha g for Addams, 0 for gamma.  No term scales with ``L``:
    they stay in range wherever the survivor moments do, however far ``L``
    itself has underflowed.  Entries the moments cannot represent come out
    inf or nan, without a warning.
    """
    if isinstance(family, ZeroModifiedPoisson):
        # Survivors put weight phi on 0 and amp x^k / k! on k >= 1, relative
        # to e^-eta.  Every sum is scaled by e^-x so none overflows, and
        # 1 - (1 + x) e^-x is the incomplete gamma P(2, x), without cancellation.
        amp, phi = _zmp_scale(family), family.phi
        x = _tilted(s, family.eta, family.eta * np.exp(-s))
        ex = np.exp(-x)
        den = phi * ex - amp * np.expm1(-x)
        mean = amp * x / den
        var = mean * ((phi * (1.0 + x) * ex + amp * _gamma_p2(x)) / den)
        # k3 / mean = 2 g^2 - g + x (mean - x), so slope = g - x (mean - x),
        # with mean - x written as x (1 - phi) / (1 - e^-eta) e^-x / den,
        # uncancelled.
        excess = x * ((1.0 - phi) / -math.expm1(-family.eta)) * ex / den
        slope = var / mean - x * excess
        # Below x = 1e-150 only the atoms 0, 1, 2 are left, weighted e^t =
        # phi / (amp x), 1 and x / 2, over max(e^t, 1).  t is summed in logs:
        # x may be subnormal where the odds are not.
        tiny = x < 1e-150
        t = np.log(phi) - math.log(amp) - math.log(family.eta) + s
        w0, w1 = np.exp(t - np.maximum(t, 0.0)), np.exp(-np.maximum(t, 0.0))
        total = w0 + w1 + w1 * (0.5 * x)
        p0, p1, p2 = w0 / total, w1 / total, w1 * (0.5 * x) / total
        mean = np.where(tiny, p1 + 2.0 * p2, mean)
        var = np.where(tiny, p0 * p1 + p1 * p2 + 4.0 * p0 * p2, var)
        k3 = p2 * (2.0 * p0 + p1) ** 3 + p1 * (p0 - p2) ** 3 - p0 * (p1 + 2.0 * p2) ** 3
        g = var / mean
        slope = np.where(tiny, 2.0 * g * g - k3 / mean, slope)
        return np.log(den) + x - family.eta, mean, var, slope
    if isinstance(family, Addams):
        alpha, gamma = family.alpha, family.gamma
        if alpha == 0.0:
            return _survivor_triple(GammaFrailty(mean=1.0, variance=gamma), s)
        # var = gamma e^t mean^2 and mean = -(log L)' give (1 / mean)' =
        # gamma e^t, so 1 / mean = 1 + c expm1(t), t = alpha s, c = gamma / alpha.
        c, t = gamma / alpha, alpha * s
        if alpha > 0.0:  # e^-t / mean, a sum of nonnegative terms
            d = np.exp(-t) - c * np.expm1(-t)
            mean, dispersion = np.exp(-t) / d, gamma / d  # var / mean
        else:
            mean = 1.0 / (1.0 + c * np.expm1(t))
            dispersion = gamma * np.exp(t) * mean
        # log L = log1p(y) / (a alpha), y = a expm1(-t), a = 1 - c, as
        # (e / alpha) log1p(y) / y: no cancellation as c -> 1.  Past the
        # overflow of y (alpha < 0), log1p(y) = log a - t + log1p(c e^t / a).
        a, e = 1.0 - c, np.expm1(-t)
        y = a * e
        log_l = (e / alpha) * np.where(y == 0.0, 1.0, np.log1p(y) / y)
        big = (np.log(a) - t + np.log1p(c * np.exp(t) / a)) / (a * alpha)
        # RFV' = alpha RFV, so the slope is alpha var / mean.
        return (np.where(np.isfinite(y), log_l, big), mean, dispersion * mean,
                alpha * dispersion)
    if isinstance(family, KPoint):
        z = np.asarray(family.support)
        norm, mean, var, k3 = _kernels.kpoint_central_moments(
            z, np.asarray(family.probs), np.ravel(s))
        mean, var = z[0] + mean.reshape(s.shape), var.reshape(s.shape)
        g = var / mean
        return (np.log(norm).reshape(s.shape) - z[0] * s, mean, var,
                2.0 * g * g - k3.reshape(s.shape) / mean)
    if isinstance(family, GammaFrailty):
        m, v = family.mean, family.variance
        base = 1.0 + (v / m) * s
        # the RFV v / m^2 is constant
        return -(m * m / v) * np.log(base), m / base, v / base**2, np.zeros_like(base)
    # A lattice base of mean M and k3 = k var, moved up by p: 2 var - k M = M,
    # so the slope 2 g^2 - k var / (M + p) is g (M - p k) / (M + p).
    p, base = _unshift(family)
    if isinstance(base, NegBin):
        qe = (1.0 - base.pi) * np.exp(-s)
        r = qe / (1.0 - qe)
        big_m = _tilted(s, base.nu * (1.0 - base.pi), base.nu * r)
        log_l = base.nu * (math.log(base.pi) - np.log1p(-qe))
        var, k = big_m * (1.0 + r), 1.0 + 2.0 * r
    elif isinstance(base, Binomial):
        pe = base.pi * np.exp(-s)
        den = (1.0 - base.pi) + pe
        t = pe / den  # success probability among survivors
        big_m = _tilted(s, base.n * base.pi / (1.0 - base.pi), base.n * t)
        log_l, var, k = base.n * np.log(den), big_m * ((1.0 - base.pi) / den), 1.0 - 2.0 * t
    elif isinstance(base, Poisson):
        big_m = var = _tilted(s, base.eta, base.eta * np.exp(-s))
        log_l, k = base.eta * np.expm1(-s), 1.0
    else:
        raise UnsupportedFamily(f"not a frailty family: {family!r}")
    mean = big_m + p
    return log_l - p * s, mean, var, var / mean * ((big_m - p * k) / mean)


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


def _finite_result(out: np.ndarray, arr: np.ndarray, what: str, name: str = "lam"):
    """``out``, evaluated on the grid ``arr``, as a Python float when 0-d and
    as the array otherwise; raises :class:`NumericalOverflow` naming the first
    point where ``what`` is not finite."""
    bad = ~np.isfinite(out)
    if bad.any():
        raise NumericalOverflow(f"{what} overflowed at {_bad_points(arr, bad, name)}")
    return float(out) if out.ndim == 0 else out


def laplace(family: FrailtyFamily, s) -> LaplaceTriple:
    """Laplace transform triple (L, L', L'') at ``s`` (scalar or array, s >= 0).

    ``s`` must pass :func:`check_grid`.  The triple is rebuilt from the
    survivors' ``(log L, mean, variance)`` as ``(L, -mean L, (variance +
    mean^2) L)`` with ``L = exp(min(log L, 0))``, so L lies in (0, 1], L' <= 0
    and L'' >= 0.  Where L underflows to zero or L'' leaves float64 range it
    raises :class:`NumericalOverflow` rather than returning non-finite values.
    """
    arr = check_grid(s)
    log_l, mean, var, _ = _survivor_triple(family, arr)
    with np.errstate(all="ignore"):
        l0 = np.exp(np.minimum(log_l, 0.0))
        triple = LaplaceTriple(l0, -mean * l0, (var + mean * mean) * l0)
    outside = ~(l0 > 0.0) | ~np.isfinite(triple.l2)
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

def family_to_dict(family: FrailtyFamily) -> dict:
    """JSON-ready dict representation, inverse of :func:`family_from_dict`."""
    tag = _FAMILY_TAGS.get(type(family))
    if tag is None:
        raise UnsupportedFamily(f"not a frailty family: {family!r}")
    return {"family": tag, "params": _spec.dump(family, family_to_dict)}


def family_from_dict(spec: dict) -> FrailtyFamily:
    """Build a family from its dict form, validating all parameters; a
    missing or unknown key raises ``ParameterOutOfRange``."""
    return _spec.load_tagged(spec, "family", _FAMILY_TAGS, lambda tag: UnsupportedFamily(
        f"unknown family tag {tag!r}; expected one of {sorted(_FAMILY_TAGS.values())}"
    ), nested=family_from_dict)
