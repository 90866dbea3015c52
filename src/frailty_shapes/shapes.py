"""Shapes of the relative frailty variance over generic time.

The relative frailty variance (RFV) at generic time ``lam`` is
``Var(Z | T > t) / E(Z | T > t)^2``; the cross-ratio function is
``CRF = 1 + RFV``.  Both are functions of the Laplace transform alone:

    RFV(lam) = L''(lam) L(lam) / L'(lam)^2 - 1,

the survivors' variance L''/L - (L'/L)^2 over their squared mean (L'/L)^2.
This module evaluates that ratio from each family's survivor mean and
variance (:func:`rfv_at`), the per-family closed forms
(:func:`rfv_closed_at`), the derivative in ``lam`` (:func:`rfv_derivative`),
locates and classifies stationary points, and classifies the tail behaviour
structurally from the smallest support point: mass at zero drives the RFV to
infinity, a positive minimum drives it to zero, and constant-RFV families
stay flat.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
import numpy as np

from . import _io, _kernels, _spec
from .errors import ParameterOutOfRange, UnsupportedFamily
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
    _finite_result,
    _survivor_triple,
    check_grid,
    family_to_dict,
    min_support,
)

#: Number of intervals in the stationary-point scan grid.
SCAN_INTERVALS = 4096

#: Bisection stops once the bracket is narrower than this.
BISECT_TOL = 1e-12

#: A root where |RFV''| lambda^2 falls below this fraction of the RFV is a
#: saddle.  The test is relative in both directions: an RFV of any size, and
#: a time axis in any unit (RFV'' lambda^2 keeps the RFV's unit), classify
#: alike.
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


@np.errstate(all="ignore")
def _triple_rfv(family: FrailtyFamily, arr: np.ndarray) -> np.ndarray:
    """The RFV (variance / mean) / mean of the survivor triple at the checked
    grid ``arr``; finite exactly where the RFV is representable."""
    _, mean, var = _survivor_triple(family, arr)
    return (var / mean) / mean


def rfv_at(family: FrailtyFamily, lam):
    """RFV via the Laplace route, the survivors' variance over their squared
    mean; a float for a scalar ``lam``, else an array.  Raises
    :class:`NumericalOverflow` unless it is finite at every point."""
    arr = check_grid(lam)
    return _finite_result(_triple_rfv(family, arr), arr, f"RFV of {family}")


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
    return offset, np.exp(u) / (1.0 + u + u * u)


def rfv_closed_at(family: FrailtyFamily, lam):
    """Per-family closed form of the RFV, independent of :func:`laplace`."""
    arr = check_grid(lam)
    with np.errstate(all="ignore"):
        return _finite_result(_rfv_closed(family, arr), arr, f"closed-form RFV of {family}")


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
            return inner.eta * np.exp(-lam) / c / c
        if isinstance(inner, NegBin):
            q = 1.0 - inner.pi
            c = inner.nu * q + p * (np.exp(lam) - q)
            return np.exp(lam) * inner.nu * q / c / c
        q = 1.0 - inner.pi  # Binomial
        c = inner.pi * np.exp(-lam) * (p + inner.n) + p * q
        return q * inner.pi * inner.n * np.exp(-lam) / c / c
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
    otherwise from the survivors' central moments.  Raises
    :class:`NumericalOverflow` unless it is finite at every point."""
    arr = check_grid(lam)
    with np.errstate(all="ignore"):
        return _finite_result(_rfv_derivative(family, arr), arr, f"RFV derivative of {family}")


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
            return x * (x - p) / c / c / c
        if isinstance(inner, NegBin):
            q = 1.0 - inner.pi
            e = np.exp(lam)
            c = inner.nu * q + p * (e - q)
            return inner.nu * q * e * (q * (inner.nu - p) - p * e) / c / c / c
        q = 1.0 - inner.pi  # Binomial
        x = inner.pi * np.exp(-lam) * (p + inner.n)
        c = x + p * q
        return q * inner.pi * inner.n * np.exp(-lam) * (x - p * q) / c / c / c
    if isinstance(family, ZeroModifiedPoisson):
        offset, ratio = zmp_derivative_terms(family, lam)
        return (np.exp(lam) / family.eta) * (1.0 + offset / np.asarray(ratio))
    if isinstance(family, Addams):
        return family.alpha * family.gamma * np.exp(family.alpha * lam)
    if isinstance(family, GammaFrailty):
        return np.zeros_like(lam)
    if isinstance(family, KPoint):
        # d/dlam of Var / mean^2 with dmean/dlam = -Var and dVar/dlam = -k3,
        # from the survivors' central moments; the mean is z_1 plus its offset.
        z = np.asarray(family.support)
        _, offset, var, k3 = _kernels.kpoint_central_moments(
            z, np.asarray(family.probs), np.atleast_1d(lam))
        mean = z[0] + offset
        with np.errstate(all="ignore"):
            out = 2.0 * (var / mean) ** 2 / mean - (k3 / mean) / mean
        return out.reshape(lam.shape)
    raise UnsupportedFamily(f"not a frailty family: {family!r}")


def _second_derivative(family: FrailtyFamily, lam: np.ndarray, floor: float) -> np.ndarray:
    """RFV'' by a difference of RFV' with step 1e-5 lambda, but never below
    1e-5 ``floor``, the scan spacing, so that the step follows the time unit."""
    h = 1e-5 * np.maximum(lam, floor)
    lo = np.maximum(lam - h, 0.0)
    return (_rfv_derivative(family, lam + h) - _rfv_derivative(family, lo)) / (lam + h - lo)


def _bisect(f, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray) -> np.ndarray:
    """Roots of ``f`` in the brackets ``[lo, hi]``, across which ``f`` changes
    sign from ``f_lo``; all brackets are halved together, and each stops once
    it is narrower than ``BISECT_TOL`` or holds no float between its ends."""
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    live = np.arange(lo.shape[0])
    while True:
        live = live[(hi[live] - lo[live] > BISECT_TOL)
                    & (np.nextafter(lo[live], hi[live]) < hi[live])]
        if not live.size:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = f(mid)
        left = np.sign(f_mid) != np.sign(f_lo[live])
        hi[live[left]] = mid[left]
        lo[live[~left]], f_lo[live[~left]] = mid[~left], f_mid[~left]


def stationary_points(family: FrailtyFamily, lambda_max: float) -> tuple:
    """All stationary points of the RFV on [0, lambda_max], sorted.

    Sign changes of RFV' on a uniform scan grid (``lambda_max / 4096`` steps)
    are refined by bisection and classified min/max/saddle by the second
    derivative; tangential roots, where RFV' touches zero without changing
    sign (the zero-modified-Poisson saddle), are picked up from near-zero
    local minima of |RFV'| and refined on the derivative of RFV'.  Each
    stage refines all of its brackets together.
    """
    lambda_max = _spec.positive(float(lambda_max), "lambda_max")
    if classify_tail(family) is TailClass.CONSTANT:
        return ()  # constant RFV: no isolated stationary points
    grid = np.linspace(0.0, lambda_max, SCAN_INTERVALS + 1)
    spacing = grid[1]
    with np.errstate(over="ignore"):
        d = _rfv_derivative(family, grid)
        sign_change = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
        roots = _bisect(lambda x: _rfv_derivative(family, x),
                        grid[sign_change], grid[sign_change + 1], d[sign_change])
        d2 = _second_derivative(family, roots, spacing)
        flat = np.abs(d2) * roots * roots < SADDLE_TOL * np.abs(_triple_rfv(family, roots))
        kinds = np.where(flat, "saddle", np.where(d2 > 0.0, "min", "max"))
        # Tangential roots: |RFV'| dips to ~0 between neighbors of equal sign.
        a, i = np.abs(d), np.arange(1, SCAN_INTERVALS)
        scale = 1.0 + np.abs(rfv_at(family, grid))
        dips = i[(a[i] < a[i - 1]) & (a[i] <= a[i + 1]) & (d[i - 1] * d[i + 1] > 0.0)
                 & (a[i] <= 1e-6 * scale[i]) & ~np.isin(i, sign_change)
                 & ~np.isin(i - 1, sign_change)]
        g_lo = _second_derivative(family, grid[dips - 1], spacing)
        g_hi = _second_derivative(family, grid[dips + 1], spacing)
        folds = g_lo * g_hi < 0.0
        saddles = _bisect(lambda x: _second_derivative(family, x, spacing),
                          grid[dips - 1][folds], grid[dips + 1][folds], g_lo[folds])
        saddles = saddles[np.abs(_rfv_derivative(family, saddles))
                          < SADDLE_TOL * (1.0 + np.abs(_triple_rfv(family, saddles)))]
    points = [StationaryPoint(lam, kind) for lam, kind in zip(roots.tolist(), kinds.tolist())]
    points += [StationaryPoint(lam, "saddle") for lam in saddles.tolist()]
    return tuple(sorted(points, key=lambda p: p.lam))


def classify_tail(family: FrailtyFamily) -> TailClass:
    """Limit behaviour of the RFV, decided structurally, never numerically.

    Mass at zero (smallest support point 0) sends the RFV to infinity; a
    positive smallest support point sends it to zero.  Addams families follow
    the sign of their exponent; gamma and exponent-zero Addams families are
    flat.
    """
    if isinstance(family, Addams) and family.alpha != 0.0:
        return (TailClass.INCREASING_TO_INFINITY if family.alpha > 0.0
                else TailClass.DECREASING_TO_ZERO)
    if isinstance(family, (Addams, GammaFrailty)):
        return TailClass.CONSTANT
    return (TailClass.INCREASING_TO_INFINITY if min_support(family) == 0.0
            else TailClass.DECREASING_TO_ZERO)


def curve(family: FrailtyFamily, grid) -> ShapeCurve:
    """Evaluate the RFV/CRF over ``grid`` and assemble the full curve."""
    arr = check_grid(grid)
    if not np.all(np.diff(arr) > 0.0):
        raise ParameterOutOfRange("curve grid must be strictly increasing")
    rfv = _triple_rfv(family, arr)
    finite = np.isfinite(rfv)
    rfv = np.where(finite, rfv, np.inf)
    # scan for stationary points only where the RFV is still representable
    scan_top = float(arr[finite][-1]) if finite.any() else 0.0
    points = stationary_points(family, scan_top) if scan_top > 0.0 else ()
    return ShapeCurve(family=family, grid=arr, rfv=rfv, crf=rfv + 1.0,
                      stationary_points=points, tail=classify_tail(family),
                      overflow=~finite)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def curve_to_csv(shape: ShapeCurve, path) -> None:
    """Write ``lambda,rfv,crf`` rows (17 significant digits, LF endings)."""
    _io.write_csv(path, ("lambda", "rfv", "crf"),
                  _io.row_blocks((shape.grid, shape.rfv, shape.crf)))


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


def write_curve(shape: ShapeCurve, csv_path) -> None:
    """Write the CSV and its JSON sidecar (same stem, .json)."""
    _io.write_table(csv_path, ("lambda", "rfv", "crf"), (shape.grid, shape.rfv, shape.crf),
                    curve_sidecar(shape))


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
