"""End-to-end verification suite.

Ten numbered criteria pin the package's analytic formulas, the brute-force
oracle, the Monte Carlo estimators, and the model extensions against each
other at fixed tolerances.  Each criterion returns a
:class:`CriterionResult` holding its individual checks; :func:`run_all`
executes any subset by name.  All Monte Carlo work uses fixed seeds so the
suite is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import EmptyWindow, NumericalOverflow, ParameterOutOfRange, TooFewAtRisk
from .families import (
    Addams,
    Binomial,
    GammaFrailty,
    KPoint,
    NegBin,
    NegBinPositive,
    Poisson,
    Shifted,
    ZeroModifiedPoisson,
    _survivor_triple,
    laplace,
    min_support,
)
from .hazards import ExponentialRate
from . import oracle
from .shapes import (
    KPOINT_EXAMPLES,
    TailClass,
    classify_tail,
    rfv_at,
    rfv_closed_at,
    stationary_points,
    zmp_derivative_terms,
)
from .simulate import SimConfig, _chunks, _crf_estimate, _rfv_estimate, _tally
from .extensions import (
    ConstantFloor,
    CorrelatedPoissonModel,
    ExpFull,
    ExpHalf,
    ExpHalfSine,
    TimeVaryingShift,
    timevarying_shift_rfv,
)


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    checks: tuple


def _close(label: str, value: float, target: float, tol: float) -> Check:
    err = abs(value - target)
    return Check(label, bool(err <= tol),
                 f"value={value:.12g} target={target:.12g} |diff|={err:.3g} tol={tol:.3g}")


def _below(label: str, value: float, bound: float) -> Check:
    return Check(label, bool(value < bound), f"value={value:.6g} bound={bound:.6g}")


def _above(label: str, value: float, bound: float) -> Check:
    return Check(label, bool(value > bound), f"value={value:.6g} bound={bound:.6g}")


def _is(label: str, cond: bool, detail: str) -> Check:
    return Check(label, bool(cond), detail)


# ---------------------------------------------------------------------------
# Fixed instances: one of each family, parameters chosen so every regime
# (zero atom / positive minimum / inflated / deflated / flat) is exercised.
# ---------------------------------------------------------------------------

def _all_families() -> tuple:
    return (
        NegBin(pi=0.5, nu=2),
        NegBinPositive(pi=0.4, nu=2),
        Binomial(pi=0.3, n=5),
        Poisson(eta=2.0),
        Shifted(inner=Poisson(eta=2.0), p=1.0),
        Shifted(inner=NegBin(pi=0.5, nu=2), p=0.4),
        Shifted(inner=Binomial(pi=0.5, n=4), p=1.0),
        ZeroModifiedPoisson(eta=3.0, phi=0.05),
        ZeroModifiedPoisson(eta=0.8, phi=0.0),
        ZeroModifiedPoisson(eta=2.0, phi=2.0),
        Addams(alpha=0.3, gamma=0.5),
        Addams(alpha=-0.3, gamma=0.5),
        Addams(alpha=0.0, gamma=0.5),
        KPOINT_EXAMPLES["set2"],
        GammaFrailty(mean=1.0, variance=0.5),
    )


def _pmf_families() -> tuple:
    return tuple(f for f in _all_families()
                 if not isinstance(f, (Addams, GammaFrailty)))


_GRID = np.arange(0.0, 10.0 + 0.125, 0.25)


def _crit_closed_form_vs_laplace() -> list:
    """Closed-form RFV against the Laplace-ratio route, all families."""
    checks = []
    for fam in _all_families():
        ratio = rfv_at(fam, _GRID)
        closed = rfv_closed_at(fam, _GRID)
        rel = float(np.max(np.abs(ratio - closed) / np.abs(closed)))
        checks.append(_below(f"rel err {fam!r}", rel, 1e-9))
    return checks


def _crit_oracle_equivalence() -> list:
    """Laplace-ratio RFV against the brute-force survivor oracle."""
    checks = []
    for fam in _pmf_families():
        ratio = rfv_at(fam, _GRID)
        brute = oracle.rfv(fam, _GRID)
        rel = float(np.max(np.abs(ratio - brute) / np.abs(brute)))
        checks.append(_below(f"rel err {fam!r}", rel, 1e-8))
    return checks


def _crit_tail_limits() -> list:
    """Smallest support point dictates the limit: mass at zero sends the RFV
    to infinity, a positive minimum sends it to zero and pins the survivor
    mean."""
    checks = []
    zero_atom = (
        Poisson(eta=2.0),
        NegBin(pi=0.5, nu=2),
        Binomial(pi=0.3, n=5),
        ZeroModifiedPoisson(eta=3.0, phi=0.05),
        KPOINT_EXAMPLES["set2"],
        Shifted(inner=Poisson(eta=2.0), p=0.0),
        Addams(alpha=0.5, gamma=0.5),
    )
    positive_min = (
        NegBinPositive(pi=0.4, nu=2),
        Shifted(inner=Poisson(eta=2.0), p=1.0),
        Shifted(inner=NegBin(pi=0.5, nu=2), p=0.4),
        Shifted(inner=Binomial(pi=0.5, n=4), p=1.0),
        ZeroModifiedPoisson(eta=0.8, phi=0.0),
        KPOINT_EXAMPLES["set1"],
        Addams(alpha=-0.5, gamma=0.5),
    )
    for fam in zero_atom:
        growth = rfv_at(fam, 25.0) / rfv_at(fam, 0.0)
        checks.append(_above(f"rfv(25)/rfv(0) {fam!r}", growth, 1e4))
        if not isinstance(fam, Addams):
            g0 = float(oracle.smallest_point_prob_grid(fam, np.array([50.0]))[0])
            checks.append(_above(f"g(0 | 50) {fam!r}", g0, 1.0 - 1e-10))
    for fam in positive_min:
        checks.append(_below(f"rfv(40) {fam!r}", rfv_at(fam, 40.0), 1e-8))
        if not isinstance(fam, Addams):
            mean = oracle.survivor_moment(fam, 60.0, 1)
            checks.append(_close(f"survivor mean(60) {fam!r}",
                                 mean, min_support(fam), 1e-6))
    return checks


def _scan_flips(fam, stop: float) -> np.ndarray:
    """The points of the grid ``arange(0, stop, 1e-3)`` where the closed-form
    RFV turns: a dense value scan, independent of :func:`stationary_points`."""
    grid = np.arange(0.0, stop, 1e-3)
    sign = np.sign(np.diff(rfv_closed_at(fam, grid)))
    return grid[np.nonzero(sign[:-1] * sign[1:] < 0.0)[0] + 1]


def _crit_stationary_points() -> list:
    """Interior extremum locations match their closed-form expressions."""
    checks = []
    targets = (
        (Shifted(inner=Poisson(eta=2.0), p=1.0), math.log(2.0)),
        (Shifted(inner=NegBin(pi=0.5, nu=2), p=0.4), math.log(2.0)),
        (Shifted(inner=Binomial(pi=0.5, n=4), p=1.0), math.log(5.0)),
    )
    for fam, where in targets:
        pts = stationary_points(fam, 8.0)
        ok = len(pts) == 1 and pts[0].kind == "max"
        checks.append(_is(f"single max {fam!r}", ok,
                          f"points={[(p.lam, p.kind) for p in pts]}"))
        if pts:
            checks.append(_close(f"location {fam!r}",
                                 pts[0].lam, where, 1e-10))

    zmp = ZeroModifiedPoisson(eta=3.0, phi=0.05)
    pts = stationary_points(zmp, 10.0)
    ok = (len(pts) == 2 and pts[0].kind == "max" and pts[1].kind == "min"
          and pts[0].lam < pts[1].lam)
    checks.append(_is("zero-deflated Poisson: max then min", ok,
                      f"points={[(p.lam, p.kind) for p in pts]}"))
    # Independent confirmation by a dense value scan of the closed form.
    flips = _scan_flips(zmp, 10.0)
    checks.append(_is("dense scan sees the same two extrema", flips.size == 2,
                      f"flip count={flips.size} at {flips.tolist()}"))
    if flips.size == 2 and len(pts) == 2:
        for flip, pt in zip(flips, pts):
            checks.append(_close("scan vs refined location", float(flip),
                                 pt.lam, 2e-3))

    # The derivative's damping ratio: value at 0 and its interior minimum.
    eta = 3.0
    _, r0 = zmp_derivative_terms(zmp, 0.0)
    checks.append(_close("damping ratio at 0", r0,
                         math.exp(eta) / (eta * eta + eta + 1.0), 1e-10))
    _, rmin = zmp_derivative_terms(zmp, math.log(eta))
    checks.append(_close("damping ratio minimum", rmin, math.e / 3.0, 1e-10))
    _, rgrid = zmp_derivative_terms(zmp, np.arange(0.0, 12.0, 1e-3))
    checks.append(_is("interior minimum is global on the grid",
                      bool(np.min(rgrid) >= math.e / 3.0 - 1e-10
                           and np.min(rgrid) - math.e / 3.0 < 1e-6),
                      f"grid min={float(np.min(rgrid)):.12g}"))
    checks.append(_close("grid argmin", float(np.arange(0.0, 12.0, 1e-3)[np.argmin(rgrid)]),
                         math.log(eta), 1e-3))
    return checks


def _crit_mc_selection() -> list:
    """Simulated selection reproduces the analytic RFV and survival curves."""
    checks = []
    hazards = (ExponentialRate(rate=1.0),)
    cases = (
        (Poisson(eta=2.0), 730001),
        (KPOINT_EXAMPLES["set2"], 730002),
        (NegBinPositive(pi=0.4, nu=2), 730003),
    )
    times = (0.0, 0.5, 1.0, 1.5, 2.0)
    n = 10**6
    for fam, seed in cases:
        config = SimConfig(family=fam, hazards=hazards, n_clusters=n, seed=seed)
        _, values, _ = _tally(config, _chunks(config), alive_times=[[t] for t in times])
        for t, counts in zip(times, values):
            est = _rfv_estimate(config, counts, [t])
            target = rfv_at(fam, t)
            checks.append(_close(f"rfv {fam!r} t={t}", est.estimate,
                                 target, 3.0 * est.std_error))
            l0 = laplace(fam, t).l0
            se = math.sqrt(l0 * (1.0 - l0) / n)
            checks.append(_close(f"survival {fam!r} t={t}",
                                 int(counts.sum()) / n, l0, 3.0 * se))
    return checks


def _crit_crf_identity() -> list:
    """The windowed cross-ratio estimator recovers 1 + RFV in a two-target
    shared-frailty simulation, symmetrically in the target pair."""
    checks = []
    fam = KPoint(support=(0.0, 1.0), probs=(0.5, 0.5))
    hazards = (ExponentialRate(rate=1.0), ExponentialRate(rate=1.0))
    config = SimConfig(family=fam, hazards=hazards, n_clusters=10**6, seed=730006)
    t = (math.log(2.0) / 2.0, math.log(2.0) / 2.0)
    lam = math.log(2.0)
    target = 1.0 + rfv_at(fam, lam)

    # Shrink the window until halving it moves the estimate by < 0.5 SE; the
    # (0, 1) tables of all five windows come from one pass over the draws.
    windows = [0.05 / 2.0**i for i in range(5)]
    _, _, tables = _tally(config, _chunks(config), crf_queries=[(t, 0, 1, w) for w in windows])
    window, cells, est = windows[0], tables[0], _crf_estimate(config, tables[0], t, windows[0])
    for finer_window, finer_cells in zip(windows[1:], tables[1:]):
        try:
            finer = _crf_estimate(config, finer_cells, t, finer_window)
        except (TooFewAtRisk, EmptyWindow):
            break
        moved = abs(finer.estimate - est.estimate)
        est, window, cells = finer, finer_window, finer_cells
        if moved < 0.5 * finer.std_error:
            break
    # First-order window bias: the cross-ratio drifts by at most its
    # derivative over the window, on both time axes.
    slope = max(abs(rfv_at(fam, lam)), abs(rfv_at(fam, lam + 2.0 * window)))
    bias_bound = 2.0 * window * slope
    tol = 3.0 * est.std_error + bias_bound
    checks.append(_close(f"crf at generic time ln2 (window={window:g})",
                         est.estimate, target, tol))

    # the (1, 0) table is the (0, 1) table transposed
    swapped = _crf_estimate(config, cells.reshape(3, 3).T.ravel(), t, window)
    checks.append(_close("symmetry under swapping the target pair",
                         swapped.estimate, est.estimate,
                         3.0 * (swapped.std_error + est.std_error)))
    return checks


def _crit_kpoint_examples() -> list:
    """The four built-in eight-point examples show the documented tail classes
    with at most three interior stationary points each."""
    checks = []
    wanted = (
        ("set1", TailClass.DECREASING_TO_ZERO),
        ("set2", TailClass.INCREASING_TO_INFINITY),
        ("set3", TailClass.DECREASING_TO_ZERO),
        ("set4", TailClass.INCREASING_TO_INFINITY),
    )
    for name, tail in wanted:
        fam = KPOINT_EXAMPLES[name]
        got = classify_tail(fam)
        checks.append(_is(f"{name} tail", got == tail, f"got={got.value}"))
        pts = stationary_points(fam, 12.0)
        checks.append(_is(f"{name} at most three stationary points",
                          len(pts) <= 3,
                          f"points={[(round(p.lam, 6), p.kind) for p in pts]}"))
        # Cross-check the refined points against a dense value scan.
        flips = _scan_flips(fam, 12.0)
        extrema = [p for p in pts if p.kind != "saddle"]
        agree = len(flips) == len(extrema) and all(
            abs(f - p.lam) < 2e-3 for f, p in zip(flips, extrema)
        )
        checks.append(_is(f"{name} scan agreement", agree,
                          f"scan={np.round(flips, 4).tolist()} "
                          f"refined={[round(p.lam, 4) for p in extrema]}"))
    return checks


def _crit_correlated_model() -> list:
    """Correlated Poisson mixture: constant gamma-mixer cross-ratio, the
    large-time limit, and the closed-form frailty correlation against MC."""
    checks = []
    hazards = (ExponentialRate(rate=1.0), ExponentialRate(rate=1.0))
    model = CorrelatedPoissonModel(etas=(1.0, 2.0),
                                   w_dist=GammaFrailty(mean=1.0, variance=0.5),
                                   hazards=hazards)
    dgrid = np.linspace(0.0, 3.0, 61)
    crfs = model.crf_of_d(dgrid)
    checks.append(_below("gamma mixer: max |crf - 1.5| over d",
                         float(np.max(np.abs(crfs - 1.5))), 1e-12))
    limit = model.crf_of_d(sum(model.etas))
    checks.append(_close("gamma mixer: crf(t=25) vs crf(sum etas)",
                         model.crf_of_d(model.d_of_t((25.0, 25.0))), limit, 1e-6))
    discrete = CorrelatedPoissonModel(etas=(1.0, 2.0),
                                      w_dist=KPoint(support=(0.5, 1.5),
                                                    probs=(0.5, 0.5)),
                                      hazards=hazards)
    checks.append(_close("two-point mixer: crf(t=25) vs crf(sum etas)",
                         discrete.crf_of_d(discrete.d_of_t((25.0, 25.0))),
                         discrete.crf_of_d(sum(discrete.etas)), 1e-6))

    rho = model.frailty_correlation(0, 1)
    n = 10**6
    sums = [0] * 5  # sum x, y, x^2, y^2, xy as exact integers
    for z in model._draw_chunks(n, seed=730008):
        x, y = z[:, 0], z[:, 1]
        sums = [s + int(v.sum()) for s, v in zip(sums, (x, y, x * x, y * y, x * y))]
    sx, sy, sxx, syy, sxy = sums
    sample_rho = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    se = (1.0 - rho * rho) / math.sqrt(n)
    checks.append(_close("frailty correlation vs MC", sample_rho, rho, 3.0 * se))
    return checks


def _crit_timevarying_shift() -> list:
    """The three worked shift paths show their three distinct limits."""
    checks = []
    eta = 4.0
    inner = Poisson(eta=eta)

    half = TimeVaryingShift(inner=inner, shift_fn=ExpHalf(eta=eta))
    checks.append(_close("half-rate decay: rfv(30) vs 1/eta",
                         timevarying_shift_rfv(half, 30.0), 1.0 / eta, 1e-6))
    checks.append(_close("half-rate decay at 0",
                         timevarying_shift_rfv(half, 0.0), 1.0 / (4.0 * eta), 1e-12))

    sine = TimeVaryingShift(inner=inner, shift_fn=ExpHalfSine(eta=eta))
    grid = np.arange(5.0, 40.0 + 1e-9, 0.01)
    vals = timevarying_shift_rfv(sine, grid)
    spread = float(np.max(vals) - np.min(vals))
    checks.append(_above("oscillating shift: spread on [5, 40]", spread, 0.05 / eta))
    checks.append(_is("oscillating shift stays inside (0, 1/eta)",
                      bool(np.min(vals) > 0.0 and np.max(vals) < 1.0 / eta),
                      f"range=({float(np.min(vals)):.6g}, {float(np.max(vals)):.6g})"))
    algebraic = (1.0 / eta) * (np.exp(-grid / 2.0) + np.sin(grid) + 2.0) ** -2.0
    checks.append(_below("oscillating shift matches its algebraic reduction",
                         float(np.max(np.abs(vals - algebraic))), 1e-9))

    full = TimeVaryingShift(inner=inner, shift_fn=ExpFull(eta=eta))
    at40 = timevarying_shift_rfv(full, 40.0)
    checks.append(_above("full-rate decay diverges: rfv(40)", at40, 1e6))
    checks.append(_above("full-rate decay keeps growing",
                         at40 / timevarying_shift_rfv(full, 20.0), 100.0))

    floor = TimeVaryingShift(inner=inner, shift_fn=ConstantFloor(p0=0.5))
    checks.append(_below("constant floor: rfv(40)",
                         timevarying_shift_rfv(floor, 40.0), 1e-8))
    return checks


def _addams_ode(alpha: float, gamma: float, step: float, n: int):
    """(L, L') of the Addams transform's defining initial value problem
    L'' = (1 + gamma e^(alpha s)) L'^2 / L, L(0) = 1, L'(0) = -1, at the
    nodes s = k step for k = 0..n, by classical fourth-order Runge-Kutta."""
    def l2(s, l0, l1):
        return (1.0 + gamma * math.exp(alpha * s)) * l1 * l1 / l0

    l0, l1 = 1.0, -1.0
    out = [(l0, l1)]
    try:
        for k in range(n):
            s = k * step
            a1 = l2(s, l0, l1)
            b0, b1 = l0 + 0.5 * step * l1, l1 + 0.5 * step * a1
            a2 = l2(s + 0.5 * step, b0, b1)
            c0, c1 = l0 + 0.5 * step * b1, l1 + 0.5 * step * a2
            a3 = l2(s + 0.5 * step, c0, c1)
            d0, d1 = l0 + step * c1, l1 + step * a3
            a4 = l2(s + step, d0, d1)
            l0 += step / 6.0 * (l1 + 2.0 * b1 + 2.0 * c1 + d1)
            l1 += step / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            out.append((l0, l1))
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalOverflow(
            f"Addams transform integration failed at s = {s}: {exc}") from exc
    l0, l1 = np.array(out).T
    bad = ~(np.isfinite(l0) & np.isfinite(l1) & (l0 > 0.0))
    if bad.any():
        raise NumericalOverflow(
            f"Addams transform integration gave L <= 0 or a non-finite value "
            f"at s = {np.argmax(bad) * step}")
    return l0, l1


def _stencil_l2(l1: np.ndarray, idx: np.ndarray, k: int, h: float) -> np.ndarray:
    """Second derivative of L at the nodes ``idx`` from a five-point stencil
    of L' with spacing h = k nodes: central where two spacings fit below the
    node, forward otherwise."""
    out = np.empty(idx.shape)
    central = idx >= 2 * k
    c, f = idx[central], idx[~central]
    out[central] = (l1[c - 2 * k] - 8.0 * l1[c - k] + 8.0 * l1[c + k]
                    - l1[c + 2 * k]) / (12.0 * h)
    out[~central] = (-25.0 * l1[f] + 48.0 * l1[f + k] - 36.0 * l1[f + 2 * k]
                     + 16.0 * l1[f + 3 * k] - 3.0 * l1[f + 4 * k]) / (12.0 * h)
    return out


def _crit_addams_ode() -> list:
    """The integrated transform satisfies its defining relation, the
    exponent-zero member reproduces the closed-form gamma transform, and the
    library's closed form matches the integrated log L and survivor mean.

    RK4 runs with step h/4 up to 5 + 2h, so every point read (the 0.04
    grid, its stencil nodes s +- kh and the 0.05 grid) is a node, read by
    index."""
    checks = []
    h, per_h = 0.004, 4
    step = h / per_h
    grid = np.linspace(0.0, 5.0, 126)
    idx = 40 * np.arange(126)
    for alpha in (-0.3, 0.0, 0.3):
        gamma = 0.5
        l0, l1 = _addams_ode(alpha, gamma, step, 5000 + 2 * per_h)
        l2 = _stencil_l2(l1, idx, per_h, h)
        resid = np.abs(l2 * l0[idx] / (l1[idx] * l1[idx]) - 1.0
                       - gamma * np.exp(alpha * grid))
        checks.append(_below(f"defining-relation residual (alpha={alpha})",
                             float(np.max(resid)), 1e-8))
        log_l, mean, _, _ = _survivor_triple(Addams(alpha=alpha, gamma=gamma), grid)
        gap = max(float(np.max(np.abs(log_l - np.log(l0[idx])))),
                  float(np.max(np.abs(mean + l1[idx] / l0[idx]))))
        checks.append(_below(f"closed form vs ODE log L and mean (alpha={alpha})",
                             gap, 1e-8))
        if alpha == 0.0:
            zero = 50 * np.arange(101)
            got = (l0[zero], l1[zero])
    base = 1.0 + 0.5 * np.linspace(0.0, 5.0, 101)
    checks.append(_below("alpha=0 transform vs closed gamma form",
                         float(np.max(np.abs(got[0] - base ** -2.0))), 1e-8))
    checks.append(_below("alpha=0 derivative vs closed gamma form",
                         float(np.max(np.abs(got[1] + base ** -3.0))), 1e-8))
    return checks


CRITERIA = {
    "closed_form_vs_laplace": _crit_closed_form_vs_laplace,
    "oracle_equivalence": _crit_oracle_equivalence,
    "tail_limits": _crit_tail_limits,
    "stationary_points": _crit_stationary_points,
    "mc_selection": _crit_mc_selection,
    "crf_identity": _crit_crf_identity,
    "kpoint_examples": _crit_kpoint_examples,
    "correlated_model": _crit_correlated_model,
    "timevarying_shift": _crit_timevarying_shift,
    "addams_ode": _crit_addams_ode,
}


def _criterion(name: str):
    """The criterion called ``name``; raises unless :data:`CRITERIA` has it."""
    if name not in CRITERIA:
        raise ParameterOutOfRange(
            f"unknown criterion {name!r}; expected one of {sorted(CRITERIA)}"
        )
    return CRITERIA[name]


def run_criterion(name: str) -> CriterionResult:
    criterion = _criterion(name)
    start = time.perf_counter()
    checks = tuple(criterion())
    seconds = time.perf_counter() - start
    return CriterionResult(name=name, passed=all(c.passed for c in checks),
                           seconds=round(seconds, 3), checks=checks)


def run_all(only: Optional[list] = None) -> list:
    """Run all criteria, or those named in the list ``only`` in its order;
    every name is checked before any criterion runs."""
    names = list(CRITERIA) if only is None else list(only)
    for name in names:
        _criterion(name)
    return [run_criterion(name) for name in names]


def report(results: list) -> dict:
    return {"passed": all(r.passed for r in results),
            "criteria": [asdict(r) for r in results]}
