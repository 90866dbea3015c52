"""Shapes of the relative frailty variance over generic time.

The relative frailty variance (RFV) at generic time ``lam`` is
``Var(Z | T > t) / E(Z | T > t)^2``; the cross-ratio function is
``CRF = 1 + RFV``.  Both are functions of the Laplace transform alone:

    RFV(lam) = L''(lam) L(lam) / L'(lam)^2 - 1,

the survivors' variance L''/L - (L'/L)^2 over their squared mean (L'/L)^2.
This module evaluates that ratio from each family's survivor mean and
variance (:func:`rfv_at`) and from the per-family closed forms
(:func:`rfv_closed_at`).  The derivative (:func:`rfv_derivative`) is the
survivor triple's slope, mean RFV' = 2 (Var / mean)^2 - k3 / mean with k3 the
survivors' third central moment, over the mean; each family states that
slope in a form that does not cancel.  Its roots, found by one scan and one
fold rule, are the stationary points: a max or a min by the sign of RFV'
below the root, a saddle where a fold of RFV' only touches zero.  The tail
behaviour follows structurally from the smallest support point: mass at zero
sends the RFV to infinity, a positive minimum to zero; constant RFVs stay flat.
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
    Poisson,
    ZeroModifiedPoisson,
    _finite_result,
    _gamma_p2,
    _survivor_triple,
    _unshift,
    _zmp_scale,
    check_grid,
    family_to_dict,
    min_support,
)

#: Number of intervals in the stationary-point scan grid.
SCAN_INTERVALS = 4096

#: Bisection stops once a bracket is narrower than this times its upper end.
BISECT_TOL = 1e-12

#: A fold of RFV', refined to the extremum m of RFV', is one saddle where
#: |RFV'(m)| m falls below this fraction of the RFV.  The test is relative in
#: both directions: an RFV of any size, and a time axis in any unit (RFV'
#: lambda keeps the RFV's unit), classify alike.
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
    _, mean, var, _ = _survivor_triple(family, arr)
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

    The paper's factorisation of the zero-modified-Poisson derivative, checked
    by :mod:`frailty_shapes.verify`; :func:`rfv_derivative` does not use it,
    since 1 + offset / ratio cancels as phi -> 0.

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
    """Per-family closed form of the RFV, independent of :func:`laplace`.

    A lattice base moved up by p (p = 0 unshifted) has one form in the
    survivors' scale, divided twice rather than squared: Poisson
    x / (x + p)^2 with x = eta e^-lam; NegBin X / (X + p (1 - X / nu))^2 with
    X = nu (1 - pi) e^-lam; Binomial X / (X + p (1 + X / n))^2 with
    X = n pi e^-lam / (1 - pi).  ZeroModifiedPoisson is
    (1 + offset (1 + x) e^-x) / x, offset = (phi - 1) / (1 - phi e^-eta),
    summed as (phi / amp) / x - offset P(2, x) / x when offset < 0, so that
    no term is negative.  KPoint is the pair sum of
    :func:`_kernels.kpoint_rfv_grid`.  Each scale c e^-lam is formed as
    (c e^(-lam/2)) e^(-lam/2), two factors that stay normal up to
    lam ~ 1416: no form computes e^lam.
    """
    arr = check_grid(lam)
    with np.errstate(all="ignore"):
        return _finite_result(_rfv_closed(family, arr), arr, f"closed-form RFV of {family}")


def _rfv_closed(family: FrailtyFamily, lam: np.ndarray) -> np.ndarray:
    p, base = _unshift(family)
    half = np.exp(-0.5 * lam)  # c e^-lam is (c half) half
    if isinstance(base, Poisson):
        x = base.eta * half * half
        return x / (x + p) / (x + p)
    if isinstance(base, NegBin):
        big_x = base.nu * (1.0 - base.pi) * half * half
        c = big_x + p * (1.0 - big_x / base.nu)
        return big_x / c / c
    if isinstance(base, Binomial):
        big_x = base.n * base.pi / (1.0 - base.pi) * half * half
        c = big_x + p * (1.0 + big_x / base.n)
        return big_x / c / c
    if isinstance(family, ZeroModifiedPoisson):
        offset = (family.phi - 1.0) / (1.0 - family.phi * math.exp(-family.eta))
        x = family.eta * half * half
        if offset >= 0.0:
            return (1.0 + offset * ((1.0 + x) * np.exp(-x))) / x
        # (phi / amp) / x, the survivors' odds of 0 against 1, in logs: x
        # underflows before those odds overflow.  P(2, x) / x is x / 2 to
        # double precision below x = 1e-150, where x^2 underflows.
        odds = np.exp(np.log(family.phi) - math.log(_zmp_scale(family) * family.eta) + lam)
        return odds - offset * np.where(x < 1e-150, 0.5 * x, _gamma_p2(x) / x)
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
    """d RFV / d lam, the survivors' slope (mean RFV') over their mean.
    Raises :class:`NumericalOverflow` unless it is finite at every point."""
    arr = check_grid(lam)
    return _finite_result(_rfv_derivative(family, arr), arr, f"RFV derivative of {family}")


@np.errstate(all="ignore")
def _rfv_derivative(family: FrailtyFamily, lam: np.ndarray) -> np.ndarray:
    """d/dlam of Var / mean^2: the survivor triple's slope over the mean."""
    _, mean, _, slope = _survivor_triple(family, lam)
    return slope / mean


def _second_derivative(family: FrailtyFamily, lam: np.ndarray, floor: float) -> np.ndarray:
    """RFV'' by a difference of RFV' with step 1e-5 lambda, but never below
    1e-5 ``floor``, the scan spacing, so that the step follows the time unit;
    one survivor triple call takes both ends."""
    h = 1e-5 * np.maximum(lam, floor)
    lo = np.maximum(lam - h, 0.0)
    return np.subtract(*np.split(_rfv_derivative(family, np.r_[lam + h, lo]), 2)) / (lam + h - lo)


def _bisect(f, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray) -> np.ndarray:
    """Roots of ``f`` in the brackets ``[lo, hi]``, across which ``f`` changes
    sign from ``f_lo``; all brackets are halved together, and each stops once
    narrower than ``BISECT_TOL * hi`` or holding no float between its ends."""
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    live = np.arange(lo.shape[0])
    while True:
        live = live[(hi[live] - lo[live] > BISECT_TOL * hi[live])
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

    RFV' is scanned on a uniform grid (``lambda_max / 4096`` steps).  Its
    turns are the scan points where the scan's differences of RFV' change
    sign; the neighbours of a turn are the turns beside it, or the scan's
    ends.  Each turn where RFV'' changes sign across its scan neighbours is a
    fold, refined on RFV'' to the extremum m of RFV'.  A fold whose
    |RFV'(m)| lambda is below ``SADDLE_TOL`` times the RFV, and |RFV'(m)|
    below half that of its neighbouring turns (a dip, not rounding noise), is
    one saddle, in place of every scan sign change between those turns, where
    RFV' is monotone; else, if RFV'(m) has the other sign and the turn and
    its scan neighbours have not, it brackets two roots, one on each side of
    m.  One bisection of RFV' refines these and the scan's sign changes; a
    root is a min where RFV' is negative below it, else a max.  Grid points
    where the RFV has left float64 range take part in no test.  So the kinds
    of the points away from the scan's end do not depend on ``lambda_max``.
    """
    lambda_max = float(_spec.positive(lambda_max, "lambda_max"))
    grid = np.linspace(0.0, lambda_max, SCAN_INTERVALS + 1)
    spacing = grid[1]
    with np.errstate(all="ignore"):  # inf and nan past the float64 range
        _, mean, var, slope = _survivor_triple(family, grid)
        d = np.where(np.isfinite((var / mean) / mean), slope / mean, np.nan)
        t, a = np.diff(d), np.abs(d)
        turn = np.r_[0, 1 + np.nonzero(t[:-1] * t[1:] < 0.0)[0], SCAN_INTERVALS]
        g_lo, g_hi = (_second_derivative(family, grid[turn[1:-1] + s], spacing) for s in (-1, 1))
        k = 1 + np.nonzero(g_lo * g_hi < 0.0)[0]
        i, g_lo = turn[k], g_lo[k - 1]
        m = _bisect(lambda x: _second_derivative(family, x, spacing),
                    grid[i - 1], grid[i + 1], g_lo)
        dm = _rfv_derivative(family, m)
        tangent = ((np.abs(dm) * m < SADDLE_TOL * _triple_rfv(family, m))
                   & (np.abs(dm) < 0.5 * np.fmin(a[turn[k - 1]], a[turn[k + 1]])))
        split = (~tangent & (d[i - 1] * d[i] > 0.0) & (d[i] * d[i + 1] > 0.0)
                 & (dm * d[i] < 0.0))
        sign_change = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
        # one between turns k - 1 and k searches to k: the saddle at either absorbs it
        sign_change = sign_change[~np.isin(np.searchsorted(turn, sign_change, "right"),
                                           np.r_[k[tangent], k[tangent] + 1])]
        below = np.r_[d[sign_change], d[i[split] - 1], dm[split]]
        roots = _bisect(lambda x: _rfv_derivative(family, x),
                        np.r_[grid[sign_change], grid[i[split] - 1], m[split]],
                        np.r_[grid[sign_change + 1], m[split], grid[i[split] + 1]], below)
        kinds = np.where(below < 0.0, "min", "max")
    points = [StationaryPoint(lam, kind) for lam, kind in zip(roots.tolist(), kinds.tolist())]
    points += [StationaryPoint(lam, "saddle") for lam in m[tangent].tolist()]
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
                  _io.formatted((shape.grid, shape.rfv, shape.crf)))


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
