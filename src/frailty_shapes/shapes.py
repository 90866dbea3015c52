"""Shapes of the relative frailty variance over generic time.

The relative frailty variance (RFV) at generic time ``lam`` is
``Var(Z | T > t) / E(Z | T > t)^2``; the cross-ratio function is
``CRF = 1 + RFV``.  Both are functions of the Laplace transform alone:

    RFV(lam) = L''(lam) L(lam) / L'(lam)^2 - 1.

This module evaluates that ratio (:func:`rfv_at`), the per-family closed
forms (:func:`rfv_closed_at`), the derivative in ``lam``
(:func:`rfv_derivative`), locates and classifies stationary points, and
classifies the tail behaviour structurally from the smallest support point:
mass at zero drives the RFV to infinity, a positive minimum drives it to
zero, and constant-RFV families stay flat.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _io, _kernels
from .errors import (
    NumericalOverflow,
    ParameterOutOfRange,
    RootSolverFailed,
    UnsupportedFamily,
)
from .families import (
    Addams,
    Binomial,
    FrailtyFamily,
    GammaFrailty,
    KPoint,
    NegBin,
    NegBinPositive,
    Poisson,
    Shifted,
    ZeroModifiedPoisson,
    family_to_dict,
    laplace,
)

#: Number of intervals in the stationary-point scan grid.
SCAN_INTERVALS = 4096

#: Bisection stops once the bracket is narrower than this.
BISECT_TOL = 1e-12

#: |RFV''| below this at a root classifies it as a saddle.
SADDLE_TOL = 1e-8


class TailClass(str, enum.Enum):
    INCREASING_TO_INFINITY = "IncreasingToInfinity"
    DECREASING_TO_ZERO = "DecreasingToZero"
    CONSTANT = "Constant"
    BOUNDED = "Bounded"


@dataclass(frozen=True)
class StationaryPoint:
    lam: float
    kind: str  # "min" | "max" | "saddle"


@dataclass(frozen=True)
class ShapeCurve:
    """RFV/CRF values over a grid, with stationary points and tail class.

    ``overflow[i]`` flags grid points where the formula left floating-point
    range; the corresponding rfv/crf entries saturate at infinity.
    """

    family: FrailtyFamily
    grid: np.ndarray
    rfv: np.ndarray
    crf: np.ndarray
    stationary_points: tuple
    tail: TailClass
    overflow: np.ndarray


def _check_grid(lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=np.float64)
    if arr.size == 0:
        raise ParameterOutOfRange("generic-time grid must be nonempty")
    if not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
        raise ParameterOutOfRange("generic times must be finite and nonnegative")
    return arr


def rfv_at(family: FrailtyFamily, lam):
    """RFV via the Laplace transform ratio; scalar in, scalar out (or array).

    The ratio is evaluated as (L''/L') * (L/L') - 1 so that the squared
    transform never under- or overflows on the way to a moderate result.
    """
    triple = laplace(family, lam)
    l0 = np.asarray(triple.l0, dtype=np.float64)
    l1 = np.asarray(triple.l1, dtype=np.float64)
    l2 = np.asarray(triple.l2, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # float64 division so an underflowed L' yields inf/nan rather than
        # a Python ZeroDivisionError on the scalar path
        out = (l2 / l1) * (l0 / l1) - 1.0
    if not np.all(np.isfinite(out)):
        raise NumericalOverflow(f"RFV of {family} overflowed at lam={lam}")
    return out[()]


def crf_at(family: FrailtyFamily, lam):
    """Cross-ratio function 1 + RFV (identical association measure)."""
    return rfv_at(family, lam) + 1.0


def zmp_derivative_terms(family: ZeroModifiedPoisson, lam):
    """(offset, ratio) with RFV'(lam) = RFV_Poisson(lam) * (1 + offset / ratio).

    ``offset`` is the zero-modification contrast (phi - 1) / (1 - phi e^-eta);
    ``ratio`` at lam equals exp(u) / (1 + u + u^2) with u = eta * exp(-lam).
    It runs from e^eta / (eta^2 + eta + 1) at lam = 0 toward 1, monotonically
    when eta <= 1, and through a global minimum of e/3 at lam = ln(eta)
    (where the Poisson RFV equals one) when eta > 1.  Stationary points of
    the RFV solve ratio = -offset.
    """
    em = math.exp(-family.eta)
    offset = (family.phi - 1.0) / (1.0 - family.phi * em)
    u = family.eta * np.exp(-np.asarray(lam, dtype=np.float64))
    ratio = np.exp(u) / (1.0 + u + u * u)
    if np.ndim(lam) == 0:
        ratio = float(ratio)
    return offset, ratio


def rfv_closed_at(family: FrailtyFamily, lam):
    """Per-family closed form of the RFV, independent of :func:`laplace`."""
    arr = _check_grid(lam)
    out = _rfv_closed(family, arr)
    if np.any(~np.isfinite(out)):
        raise NumericalOverflow(f"closed-form RFV of {family} overflowed at lam={lam}")
    return float(out) if np.ndim(lam) == 0 else out


def _rfv_closed(family: FrailtyFamily, lam: np.ndarray) -> np.ndarray:
    if isinstance(family, NegBin):
        return np.exp(lam) / ((1.0 - family.pi) * family.nu)
    if isinstance(family, NegBinPositive):
        return (1.0 - family.pi) * np.exp(-lam) / family.nu
    if isinstance(family, Binomial):
        return (1.0 - family.pi) * np.exp(lam) / (family.n * family.pi)
    if isinstance(family, Poisson):
        return np.exp(lam) / family.eta
    if isinstance(family, Shifted):
        p = family.p
        inner = family.inner
        if isinstance(inner, Poisson):
            c = inner.eta * np.exp(-lam) + p
            return inner.eta * np.exp(-lam) / c**2
        if isinstance(inner, NegBin):
            q = 1.0 - inner.pi
            c = inner.nu * q + p * (np.exp(lam) - q)
            return np.exp(lam) * inner.nu * q / c**2
        q = 1.0 - inner.pi  # Binomial
        c = inner.pi * np.exp(-lam) * (p + inner.n) + p * q
        return q * inner.pi * inner.n * np.exp(-lam) / c**2
    if isinstance(family, ZeroModifiedPoisson):
        eta, phi = family.eta, family.phi
        em = math.exp(-eta)
        offset = (phi - 1.0) / (1.0 - phi * em)
        rp = np.exp(lam) / eta                    # Poisson RFV
        u = 1.0 / rp                              # eta * exp(-lam)
        damp = np.exp(-u)                         # exp(-1/RFV_P)
        # RFV = rp * (1 + offset * damp) + offset * damp.  For phi < 1 the
        # first factor is assembled from nonnegative pieces,
        # (1 + offset) + offset * expm1(-u), to avoid cancellation at large
        # lam; for phi >= 1 both terms are already nonnegative as written.
        if offset >= 0.0:
            one_plus = 1.0 + offset * damp
        else:
            one_plus = (phi * -math.expm1(-eta)) / (1.0 - phi * em) \
                + offset * np.expm1(-u)
        return rp * one_plus + offset * damp
    if isinstance(family, Addams):
        return family.gamma * np.exp(family.alpha * lam)
    if isinstance(family, KPoint):
        return _kernels.kpoint_rfv_grid(np.asarray(family.support),
                                        np.asarray(family.probs),
                                        np.atleast_1d(lam)).reshape(lam.shape)
    if isinstance(family, GammaFrailty):
        return np.full_like(lam, family.variance / family.mean**2)
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def rfv_derivative(family: FrailtyFamily, lam):
    """d RFV / d lam; analytic where the closed form factors cleanly,
    otherwise a central finite difference of :func:`rfv_at`."""
    arr = _check_grid(lam)
    out = _rfv_derivative(family, arr)
    return float(out) if np.ndim(lam) == 0 else out


def _rfv_derivative(family: FrailtyFamily, lam: np.ndarray) -> np.ndarray:
    if isinstance(family, (NegBin, Binomial, Poisson)):
        return _rfv_closed(family, lam)
    if isinstance(family, NegBinPositive):
        return -_rfv_closed(family, lam)
    if isinstance(family, Shifted):
        p = family.p
        inner = family.inner
        if isinstance(inner, Poisson):
            x = inner.eta * np.exp(-lam)
            c = x + p
            return x * (x - p) / c**3
        if isinstance(inner, NegBin):
            q = 1.0 - inner.pi
            e = np.exp(lam)
            c = inner.nu * q + p * (e - q)
            return inner.nu * q * e * (q * (inner.nu - p) - p * e) / c**3
        q = 1.0 - inner.pi  # Binomial
        x = inner.pi * np.exp(-lam) * (p + inner.n)
        c = x + p * q
        return q * inner.pi * inner.n * np.exp(-lam) * (x - p * q) / c**3
    if isinstance(family, ZeroModifiedPoisson):
        offset, ratio = zmp_derivative_terms(family, lam)
        return (np.exp(lam) / family.eta) * (1.0 + offset / np.asarray(ratio))
    if isinstance(family, Addams):
        return family.alpha * family.gamma * np.exp(family.alpha * lam)
    if isinstance(family, GammaFrailty):
        return np.zeros_like(lam)
    if isinstance(family, KPoint):
        # d/dlam of M2 M0 / M1^2 with Mq the q-th conditional moment sum;
        # every term is weight-degree 3, so the recentring factor cancels.
        m0, m1, m2, m3 = _kernels.kpoint_moment_sums(
            np.asarray(family.support), np.asarray(family.probs), np.atleast_1d(lam))
        out = (2.0 * m2 * m2 * m0 - m3 * m0 * m1 - m2 * m1 * m1) / m1**3
        return out.reshape(lam.shape)
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def _second_derivative(family: FrailtyFamily, lam: float) -> float:
    h = 1e-5 * max(1.0, lam)
    lo = max(lam - h, 0.0)
    return float((rfv_derivative(family, lam + h) - rfv_derivative(family, lo))
                 / (lam + h - lo))


def _classify_root(family: FrailtyFamily, lam: float) -> StationaryPoint:
    d2 = _second_derivative(family, lam)
    if abs(d2) < SADDLE_TOL:
        kind = "saddle"
    else:
        kind = "min" if d2 > 0.0 else "max"
    return StationaryPoint(lam=lam, kind=kind)


def _bisect_root(family, lo, hi, flo, fhi) -> float:
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RootSolverFailed(
            f"lost the sign change while bisecting RFV' of {family} on [{lo}, {hi}]"
        )
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = rfv_derivative(family, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def stationary_points(family: FrailtyFamily, lambda_max: float) -> tuple:
    """All stationary points of the RFV on [0, lambda_max], sorted.

    Sign changes of RFV' on a uniform scan grid (``lambda_max / 4096`` steps)
    are refined by bisection; tangential roots, where RFV' touches zero
    without changing sign (the zero-modified-Poisson saddle), are picked up
    from near-zero local minima of |RFV'| and refined on the derivative of
    RFV'.  Each point is classified min/max/saddle by the second derivative.
    """
    lambda_max = float(lambda_max)
    if not (np.isfinite(lambda_max) and lambda_max > 0.0):
        raise ParameterOutOfRange(f"lambda_max must be positive, got {lambda_max}")
    if isinstance(family, GammaFrailty) or (isinstance(family, Addams) and family.alpha == 0.0):
        return ()  # constant RFV: no isolated stationary points
    grid = np.linspace(0.0, lambda_max, SCAN_INTERVALS + 1)
    with np.errstate(over="ignore"):
        d = np.asarray(rfv_derivative(family, grid))
        sign_change = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    points = []
    for i in sign_change:
        root = _bisect_root(family, grid[i], grid[i + 1], d[i], d[i + 1])
        points.append(_classify_root(family, root))
    # Tangential roots: |RFV'| dips to ~0 between neighbors of equal sign.
    scale = 1.0 + np.abs(np.asarray(rfv_at(family, grid)))
    for i in range(1, SCAN_INTERVALS):
        if i in sign_change or i - 1 in sign_change:
            continue
        if not (abs(d[i]) < abs(d[i - 1]) and abs(d[i]) <= abs(d[i + 1])):
            continue
        if d[i - 1] * d[i + 1] <= 0.0 or abs(d[i]) > 1e-6 * scale[i]:
            continue
        g_lo = _second_derivative(family, grid[i - 1])
        g_hi = _second_derivative(family, grid[i + 1])
        if g_lo * g_hi >= 0.0:
            continue
        lo, hi = grid[i - 1], grid[i + 1]
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            g_mid = _second_derivative(family, mid)
            if g_lo * g_mid <= 0.0:
                hi, g_hi = mid, g_mid
            else:
                lo, g_lo = mid, g_mid
        root = 0.5 * (lo + hi)
        if abs(rfv_derivative(family, root)) < SADDLE_TOL * (1.0 + abs(rfv_at(family, root))):
            points.append(StationaryPoint(lam=root, kind="saddle"))
    points.sort(key=lambda sp: sp.lam)
    return tuple(points)


def classify_tail(family: FrailtyFamily) -> TailClass:
    """Limit behaviour of the RFV, decided structurally, never numerically.

    Mass at zero (smallest support point 0) sends the RFV to infinity; a
    positive smallest support point sends it to zero; gamma and exponent-zero
    Addams families are flat.
    """
    if isinstance(family, (NegBin, Binomial, Poisson)):
        return TailClass.INCREASING_TO_INFINITY
    if isinstance(family, NegBinPositive):
        return TailClass.DECREASING_TO_ZERO
    if isinstance(family, Shifted):
        return classify_tail(family.inner) if family.p == 0.0 else TailClass.DECREASING_TO_ZERO
    if isinstance(family, ZeroModifiedPoisson):
        return (TailClass.INCREASING_TO_INFINITY if family.phi > 0.0
                else TailClass.DECREASING_TO_ZERO)
    if isinstance(family, Addams):
        if family.alpha > 0.0:
            return TailClass.INCREASING_TO_INFINITY
        if family.alpha < 0.0:
            return TailClass.DECREASING_TO_ZERO
        return TailClass.CONSTANT
    if isinstance(family, KPoint):
        return (TailClass.INCREASING_TO_INFINITY if family.support[0] == 0.0
                else TailClass.DECREASING_TO_ZERO)
    if isinstance(family, GammaFrailty):
        return TailClass.CONSTANT
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def curve(family: FrailtyFamily, grid) -> ShapeCurve:
    """Evaluate the RFV/CRF over ``grid`` and assemble the full curve."""
    arr = _check_grid(grid)
    if not np.all(np.diff(arr) > 0.0):
        raise ParameterOutOfRange("curve grid must be strictly increasing")
    rfv = np.empty(arr.shape)
    overflow = np.zeros(arr.shape, dtype=bool)
    try:
        rfv[:] = np.asarray(rfv_at(family, arr))
    except NumericalOverflow:
        for i, lam in enumerate(arr):
            try:
                rfv[i] = rfv_at(family, float(lam))
            except NumericalOverflow:
                rfv[i] = np.inf
                overflow[i] = True
    # scan for stationary points only over the part of the grid where the
    # RFV is still representable
    finite = ~overflow
    scan_top = float(arr[finite][-1]) if finite.any() else 0.0
    points = stationary_points(family, scan_top) if scan_top > 0.0 else ()
    return ShapeCurve(family=family, grid=arr, rfv=rfv, crf=rfv + 1.0,
                      stationary_points=points, tail=classify_tail(family),
                      overflow=overflow)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def curve_to_csv(shape: ShapeCurve, path) -> None:
    """Write ``lambda,rfv,crf`` rows (17 significant digits, LF endings)."""
    _io.write_csv(path, ("lambda", "rfv", "crf"), (shape.grid, shape.rfv, shape.crf))


def curve_sidecar(shape: ShapeCurve) -> dict:
    """JSON-ready summary: stationary points, tail class, overflow points."""
    return {
        "family": family_to_dict(shape.family),
        "tail": shape.tail.value,
        "stationary_points": [
            {"lambda": sp.lam, "kind": sp.kind} for sp in shape.stationary_points
        ],
        "overflow_indices": np.nonzero(shape.overflow)[0].tolist(),
    }


def write_curve(shape: ShapeCurve, csv_path, sidecar_path: Optional[str] = None) -> None:
    """Write the CSV and its JSON sidecar (default: same stem, .json)."""
    curve_to_csv(shape, csv_path)
    _io.write_json(sidecar_path or _io.sidecar_path(csv_path), curve_sidecar(shape))


#: Built-in eight-point example supports and weights for the k-point family.
KPOINT_EXAMPLES = {
    "set1": KPoint(support=(0.99, 2.02, 2.22, 2.41, 2.51, 2.52, 3.96, 10.44),
                   probs=(0.03, 0.22, 0.01, 0.03, 0.18, 0.03, 0.16, 0.34)),
    "set2": KPoint(support=(0.0, 0.505, 0.555, 0.6025, 0.6275, 0.63, 0.99, 2.61),
                   probs=(0.03, 0.22, 0.01, 0.03, 0.18, 0.03, 0.16, 0.34)),
    "set3": KPoint(support=(0.35, 0.41, 0.49, 0.60, 1.09, 1.39, 3.75, 5.63),
                   probs=(0.04, 0.14, 0.25, 0.21, 0.17, 0.08, 0.07, 0.04)),
    "set4": KPoint(support=(0.0, 0.41, 0.49, 0.60, 1.09, 1.39, 3.75, 5.63),
                   probs=(0.04, 0.14, 0.25, 0.21, 0.17, 0.08, 0.07, 0.04)),
}
