import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frailty_shapes as fs
from frailty_shapes import oracle
from frailty_shapes.families import _survivor_triple
from frailty_shapes.shapes import (
    KPOINT_EXAMPLES,
    SADDLE_TOL,
    TailClass,
    classify_tail,
    crf_at,
    curve,
    curve_sidecar,
    curve_to_csv,
    rfv_at,
    rfv_closed_at,
    rfv_derivative,
    stationary_points,
    zmp_derivative_terms,
)
from frailty_shapes.shapes import _rfv_derivative, _triple_rfv

LN2 = np.log(2.0)

ALL_FAMILIES = [
    fs.NegBin(pi=0.5, nu=2.0),
    fs.NegBinPositive(pi=0.4, nu=2.0),
    fs.Binomial(pi=0.3, n=5),
    fs.Poisson(eta=2.0),
    fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0),
    fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2.0), p=0.4),
    fs.ZeroModifiedPoisson(eta=3.0, phi=0.05),
    fs.Addams(alpha=-0.3, gamma=0.5),
    fs.KPoint(support=(0.0, 0.5, 1.7), probs=(0.2, 0.5, 0.3)),
    fs.GammaFrailty(mean=1.0, variance=0.5),
]


class TestClosedForms:
    def test_poisson(self):
        # conditional frailty stays Poisson(eta e^-lam), rfv is its inverse mean
        assert_allclose(rfv_at(fs.Poisson(eta=2.0), 1.0), np.e / 2.0, rtol=1e-14)

    def test_negbin(self):
        assert_allclose(rfv_at(fs.NegBin(pi=0.5, nu=2.0), LN2), 2.0, rtol=1e-14)

    def test_addams_is_pure_exponential(self):
        lam = np.linspace(0.0, 4.0, 9)
        got = rfv_at(fs.Addams(alpha=0.3, gamma=0.5), lam)
        assert_allclose(got, 0.5 * np.exp(0.3 * lam), rtol=1e-13)

    def test_gamma_never_moves(self):
        lam = np.array([0.0, 1.0, 10.0, 100.0])
        assert_allclose(rfv_at(fs.GammaFrailty(mean=1.0, variance=0.5), lam),
                        0.5, rtol=1e-14)

    def test_crf_is_one_plus_rfv(self):
        fam = fs.NegBin(pi=0.5, nu=2.0)
        lam = np.linspace(0.0, 3.0, 7)
        assert_allclose(crf_at(fam, lam), np.asarray(rfv_at(fam, lam)) + 1.0,
                        rtol=1e-15)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: type(f).__name__)
    def test_closed_route_equals_transform_route(self, fam):
        lam = np.linspace(0.0, 6.0, 25)
        ratio = np.asarray(rfv_at(fam, lam))
        closed = np.asarray(rfv_closed_at(fam, lam))
        assert_allclose(closed, ratio, rtol=1e-9, atol=1e-12)

    def test_rfv_at_zero_is_squared_coefficient_of_variation(self):
        for fam in ALL_FAMILIES:
            mean, var = fs.moments(fam)
            assert_allclose(float(rfv_at(fam, 0.0)), var / mean ** 2,
                            rtol=1e-10, atol=1e-13)

    def test_scalar_in_scalar_out(self):
        out = rfv_at(fs.Poisson(eta=2.0), 1.0)
        assert np.ndim(out) == 0


def _pair_sum_rfv(z, p, lam):
    """k-point RFV as the pair double sum, recentred by 2 z_1."""
    num = den = 0.0
    for za, pa in zip(z, p):
        for zb, pb in zip(z, p):
            e = math.exp(-(za + zb - 2.0 * z[0]) * lam) * pa * pb
            num += za * za * e
            den += za * zb * e
    return num / den - 1.0


class TestKPointClosedForm:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("with_zero", [False, True])
    def test_matches_pair_double_sum(self, seed, with_zero):
        # Supports on [0, 2] keep the exponents below 160, where rounding of
        # the exponent itself stays well inside the bound for both forms.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 10))
        z = np.sort(rng.uniform(0.0, 2.0, k))
        if with_zero:
            z[0] = 0.0
        probs = rng.dirichlet(np.ones(k))
        fam = fs.KPoint(support=tuple(z), probs=tuple(probs / probs.sum()))
        lam = np.concatenate(([0.0, 40.0], rng.uniform(0.0, 40.0, 30)))
        got = rfv_closed_at(fam, lam)
        ref = np.array([_pair_sum_rfv(fam.support, fam.probs, x) for x in lam])
        assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("name", sorted(KPOINT_EXAMPLES))
    def test_examples_match_high_precision(self, name):
        fam = KPOINT_EXAMPLES[name]
        lam = np.linspace(0.0, 12.0, 97)
        ref = np.array([float(_mp_survivor_moments(fam, x)[3]) for x in lam])
        got = rfv_closed_at(fam, lam)
        assert np.all(np.abs(got - ref) <= 2e-15 * (1.0 + np.abs(ref)))

    def test_set2_far_tail_matches_high_precision(self):
        # 0 is in set2's support, so the first moment sum falls below 1e-154
        # and its square underflows long before the RFV leaves float64 range
        # (it is 3.887e174 at lam = 800)
        fam = KPOINT_EXAMPLES["set2"]
        lam = np.array([300.0, 700.0, 800.0, 1200.0, 1400.0])
        ref = np.array([float(_mp_survivor_moments(fam, x)[3]) for x in lam])
        got = rfv_closed_at(fam, lam)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def _mp_survivor_moments(fam, lam):
    """Survivor mean, variance, third central moment and RFV of a k-point
    family at 50 digits, each moment summed about the mean.  The mean is
    z_1 plus its offset from z_1, so an offset far below 1e-50 of z_1 still
    carries all its digits into the central moments."""
    mpmath.mp.dps = 50
    z = [mpmath.mpf(v) for v in fam.support]
    dz = [zk - z[0] for zk in z]
    w = [mpmath.mpf(p) * mpmath.exp(-d * mpmath.mpf(float(lam)))
         for d, p in zip(dz, fam.probs)]
    norm = mpmath.fsum(w)
    offset = mpmath.fsum(d * wk for d, wk in zip(dz, w)) / norm
    var = mpmath.fsum((d - offset) ** 2 * wk for d, wk in zip(dz, w)) / norm
    k3 = mpmath.fsum((d - offset) ** 3 * wk for d, wk in zip(dz, w)) / norm
    mean = z[0] + offset
    return mean, var, k3, var / mean**2


def _mp_survivor_cumulants(fam, lam):
    """Survivor mean, variance and third central moment of any family at
    generic time ``lam``, with digits to spare for a variance of order
    e^-lam beside a mean of order 1.  Lattice families go through their
    survivors' factorial moments, the Addams family through the derivatives
    of its survivor mean, which are -Var and k3."""
    if isinstance(fam, fs.KPoint):
        return _mp_survivor_moments(fam, lam)[:3]
    mpmath.mp.dps = 60 + int(lam / 2.0)
    s = mpmath.mpf(float(lam))
    if isinstance(fam, (fs.Shifted, fs.NegBinPositive)):
        inner, p = ((fam.inner, fam.p) if isinstance(fam, fs.Shifted)
                    else (fs.NegBin(pi=fam.pi, nu=fam.nu), fam.nu))
        mean, var, k3 = _mp_survivor_cumulants(inner, lam)
        return mean + p, var, k3
    if isinstance(fam, fs.GammaFrailty):
        m, v = mpmath.mpf(fam.mean), mpmath.mpf(fam.variance)
        shape, scale = m * m / v, (v / m) / (1 + (v / m) * s)
        return shape * scale, shape * scale**2, 2 * shape * scale**3
    if isinstance(fam, fs.Addams):
        if fam.alpha == 0.0:
            return _mp_survivor_cumulants(fs.GammaFrailty(mean=1.0, variance=fam.gamma), lam)
        mpmath.mp.dps += int(abs(fam.alpha) * lam)  # var ~ e^(alpha lam) beside 1
        c, a = mpmath.mpf(fam.gamma) / fam.alpha, mpmath.mpf(fam.alpha)
        mean = lambda t: 1 / (1 + c * mpmath.expm1(a * t))  # noqa: E731
        return mean(s), -mpmath.diff(mean, s), mpmath.diff(mean, s, 2)
    if isinstance(fam, fs.Poisson):
        x = fam.eta * mpmath.exp(-s)
        f = [x, x**2, x**3]
    elif isinstance(fam, fs.NegBin):
        qe = (1 - mpmath.mpf(fam.pi)) * mpmath.exp(-s)
        r, nu = qe / (1 - qe), mpmath.mpf(fam.nu)
        f = [nu * r, nu * (nu + 1) * r**2, nu * (nu + 1) * (nu + 2) * r**3]
    elif isinstance(fam, fs.Binomial):
        pe = fam.pi * mpmath.exp(-s)
        t, n = pe / (1 - mpmath.mpf(fam.pi) + pe), fam.n
        f = [n * t, n * (n - 1) * t**2, n * (n - 1) * (n - 2) * t**3]
    else:  # ZeroModifiedPoisson: weight phi on 0, amp x^k / k! on k >= 1
        eta, phi = mpmath.mpf(fam.eta), mpmath.mpf(fam.phi)
        amp = (1 - phi * mpmath.exp(-eta)) / -mpmath.expm1(-eta)
        x = eta * mpmath.exp(-s)
        c = amp * mpmath.exp(x) / (phi + amp * mpmath.expm1(x))
        f = [c * x, c * x**2, c * x**3]
    m1, m2, m3 = f[0], f[1] + f[0], f[2] + 3 * f[1] + f[0]
    return m1, m2 - m1**2, m3 - 3 * m1 * m2 + 2 * m1**3


#: The four built-in k-point sets and one family of every other kind.
DERIVATIVE_CASES = {
    **KPOINT_EXAMPLES,
    "poisson": fs.Poisson(eta=2.0),
    "negbin": fs.NegBin(pi=0.5, nu=2.0),
    "binomial": fs.Binomial(pi=0.3, n=5),
    "negbin-positive": fs.NegBinPositive(pi=0.4, nu=2),
    "shifted-poisson": fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0),
    "shifted-negbin": fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2.0), p=0.4),
    "shifted-binomial": fs.Shifted(inner=fs.Binomial(pi=0.5, n=4), p=1.0),
    "zero-truncated": fs.ZeroModifiedPoisson(eta=0.5275, phi=0.0),
    "zero-deflated": fs.ZeroModifiedPoisson(eta=3.0, phi=0.05),
    "zero-inflated": fs.ZeroModifiedPoisson(eta=2.0, phi=2.0),
    # RFV' = alpha RFV: the sign of a slow exponent survives the cancellation
    "addams-rising": fs.Addams(alpha=1e-3, gamma=0.5),
    "addams-falling": fs.Addams(alpha=-1e-3, gamma=0.5),
    "gamma": fs.GammaFrailty(mean=1.0, variance=0.5),
}

#: Families whose RFV' has no root: each states its slope without a
#: difference, so the derivative is held to its own size.
NO_ROOT_CASES = {"poisson", "negbin", "binomial", "negbin-positive",
                 "addams-rising", "addams-falling"}


class TestDerivative:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: type(f).__name__)
    def test_matches_central_difference(self, fam):
        h = 1e-6
        for lam in (0.3, 1.1, 2.7):
            fd = (float(rfv_at(fam, lam + h)) - float(rfv_at(fam, lam - h))) / (2 * h)
            assert_allclose(float(rfv_derivative(fam, lam)), fd,
                            rtol=5e-5, atol=1e-8)

    def test_two_point_family_exactly_exponential(self):
        # P(Z=0)=P(Z=1)=1/2 gives rfv = e^lam, so the derivative is e^lam too
        kp = fs.KPoint(support=(0.0, 1.0), probs=(0.5, 0.5))
        lam = np.linspace(0.0, 5.0, 11)
        assert_allclose(rfv_derivative(kp, lam), np.exp(lam), rtol=1e-12)

    def test_poisson_always_rising(self):
        lam = np.linspace(0.0, 10.0, 21)
        assert np.all(np.asarray(rfv_derivative(fs.Poisson(eta=2.0), lam)) > 0.0)

    def test_positive_negbin_always_falling(self):
        lam = np.linspace(0.0, 10.0, 21)
        d = np.asarray(rfv_derivative(fs.NegBinPositive(pi=0.4, nu=2.0), lam))
        assert np.all(d < 0.0)

    def test_slow_addams_exponent_keeps_its_sign(self):
        # RFV' = alpha RFV > 0; as (2 g^2 - k3 / mean) / mean it cancelled to
        # rounding noise, negative at 79 of these points
        lam = np.linspace(0.0, 0.1, 4097)
        assert np.all(rfv_derivative(fs.Addams(alpha=1e-14, gamma=100.0), lam) > 0.0)

    def test_gamma_derivative_is_exactly_zero(self):
        lam = np.linspace(0.0, 100.0, 401)
        assert np.all(rfv_derivative(fs.GammaFrailty(mean=1.0, variance=0.5), lam) == 0.0)

    @pytest.mark.parametrize("name", sorted(DERIVATIVE_CASES))
    @given(lams=st.lists(st.floats(0.0, 700.0), min_size=1, max_size=8))
    @example(lams=np.linspace(0.0, 60.0, 121).tolist() + [37.578, 38.533, 300.0])
    # the zero-truncated Poisson's RFV' once cancelled to exactly 0.0 from
    # lam = 17.42 on, and overflowed through e^lam past lam ~ 709
    @example(lams=[17.5, 20.0, 300.0, 700.0])
    def test_derivative_matches_high_precision(self, name, lams):
        # RFV' = (2 Var^2 - k3 mean) / mean^3.  Where it has no root, each
        # family's slope is free of that difference, and the error is
        # relative to RFV' itself; the gamma RFV is constant, its RFV'
        # exactly 0.  Near a root the two terms cancel, so there the error
        # is measured against their size.
        fam = DERIVATIVE_CASES[name]
        got = np.atleast_1d(rfv_derivative(fam, lams))
        if name == "gamma":
            assert np.all(got == 0.0)
            return
        for x, g in zip(lams, got):
            mean, var, k3 = _mp_survivor_cumulants(fam, x)
            ref = (2 * var**2 - k3 * mean) / mean**3
            size = float(abs(2 * var**2 / mean**3) + abs(k3 / mean**2))
            if size < sys.float_info.min:
                continue  # the terms themselves are subnormal
            if name in NO_ROOT_CASES:
                assert abs(g - float(ref)) <= 1e-14 * abs(float(ref)), (x, g, ref)
            else:
                assert abs(g - float(ref)) <= 1e-13 * size, (x, g, ref)
            if isinstance(fam, fs.Addams):
                assert np.sign(g) == np.sign(fam.alpha)
            if isinstance(fam, fs.ZeroModifiedPoisson) and fam.phi == 0.0:
                assert g < 0.0  # the zero-truncated RFV decreases strictly


def _mp_shifted_rfv(fam, lam):
    """The shifted family's closed-form RFV at 50 digits."""
    p, inner = mpmath.mpf(fam.p), fam.inner
    if isinstance(inner, fs.Poisson):
        x = inner.eta * mpmath.exp(-lam)
        return x / (x + p) ** 2
    q = 1 - mpmath.mpf(inner.pi)
    if isinstance(inner, fs.NegBin):
        c = inner.nu * q + p * (mpmath.exp(lam) - q)
        return mpmath.exp(lam) * inner.nu * q / c**2
    c = inner.pi * mpmath.exp(-lam) * (p + inner.n) + p * q
    return q * inner.pi * inner.n * mpmath.exp(-lam) / c**2


@pytest.mark.parametrize("fam", [
    fs.Shifted(inner=fs.Poisson(eta=2.0), p=0.0),
    fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2.0), p=0.4),
    fs.Shifted(inner=fs.Binomial(pi=0.5, n=4), p=0.0),
], ids=["poisson", "negbin", "binomial"])
def test_shifted_derivative_where_the_cube_of_c_leaves_range(fam):
    # at lam = 300, c^3 underflows (p = 0) or overflows (negbin); the
    # derivative divides by c three times instead, without a warning
    mpmath.mp.dps = 50
    lam = 300.0
    want = float(mpmath.diff(lambda x: _mp_shifted_rfv(fam, x), mpmath.mpf(lam)))
    got = rfv_derivative(fam, lam)
    assert math.isfinite(got) and got != 0.0
    assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("fam", [fs.Poisson(eta=2.0), fs.NegBin(pi=0.5, nu=2.0)],
                         ids=["poisson", "negbin"])
def test_derivative_raises_where_it_leaves_range(fam):
    # RFV' = RFV = e^lam / c here, and e^800 is not representable
    with pytest.raises(fs.NumericalOverflow,
                       match=r"overflowed at 2 of 3 points, first lam=800\.0$"):
        rfv_derivative(fam, [1.0, 800.0, 900.0])


def test_derivative_where_its_first_term_alone_overflows():
    # RFV' = e^lam / 2 for Poisson(2), and the term 2 (Var / mean)^2 / mean is
    # twice that: squaring before dividing by the mean overflowed for lam in
    # (709.78, 710.47]
    mpmath.mp.dps = 50
    want = float(mpmath.exp(710) / 2)
    assert_allclose(rfv_derivative(fs.Poisson(eta=2.0), 710.0), want, rtol=1e-14)


class TestStationaryPoints:
    def test_bisection_stops_where_floats_are_coarser_than_the_tolerance(self):
        # the survivors' odds 0.99 : 0.01 even out near lam = ln(99) / 1e-5,
        # where adjacent floats lie 5.8e-11 apart, wider than an absolute 1e-12;
        # the stop at BISECT_TOL times the bracket's upper end comes first
        pts = stationary_points(fs.KPoint(support=(1.0, 1.00001), probs=(0.01, 0.99)), 1e6)
        assert len(pts) == 1
        assert abs(pts[0].lam - math.log(99.0) / 1e-5) < 1e3

    def test_extremum_of_a_tiny_rfv_is_not_a_saddle(self):
        # RFV ~ 2.5e-11 and RFV'' ~ -1.2e-21 at the root: an absolute
        # tolerance on RFV'' called this maximum a saddle
        pts = stationary_points(fs.KPoint(support=(1.0, 1.00001), probs=(0.01, 0.99)), 1e6)
        assert [p.kind for p in pts] == ["max"]

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e-2, 1.0, 1e3, 1e6])
    def test_kinds_do_not_depend_on_the_time_unit(self, scale):
        # support z -> z / scale turns RFV(lam) into RFV(lam / scale).  The
        # RFV'' step is relative to lam, floored at the scan spacing: an
        # absolute 1e-5 below lam = 1 spanned the minimum near 1e-6 at scale
        # 1e-6 and called it a max.  The bisection stop is relative too, so
        # locations agree to the same relative tolerance at every scale.
        set1 = KPOINT_EXAMPLES["set1"]
        scaled = fs.KPoint(support=tuple(z / scale for z in set1.support), probs=set1.probs)
        pts = stationary_points(scaled, 12.0 * scale)
        assert [p.kind for p in pts] == ["max", "min", "max"]
        assert_allclose([p.lam / scale for p in pts],
                        [0.120937618633, 1.013104519685, 2.771454791425],
                        rtol=1e-11, atol=0.0)

    def test_set1_long_curve_has_three_points(self):
        # the flat tail of set1 has no stationary point: RFV' < 0 there
        shape = curve(KPOINT_EXAMPLES["set1"], np.linspace(0.0, 1500.0, 3001))
        assert [p.kind for p in shape.stationary_points] == ["max", "min", "max"]
        assert_allclose([p.lam for p in shape.stationary_points],
                        [0.120937618633, 1.013104519685, 2.771454791425], atol=1e-11)

    @pytest.mark.parametrize("name,want", [
        ("set1", [(0.1209376186329, "max"), (1.0131045196846, "min"),
                  (2.7714547914251, "max")]),
        ("set2", [(0.5587797023874, "max"), (2.2855619603441, "min")]),
        ("set3", []),
        ("set4", [(1.7158892233707, "min")]),
    ])
    def test_fig2_stationary_points(self, name, want):
        pts = stationary_points(KPOINT_EXAMPLES[name], 12.0)
        assert [p.kind for p in pts] == [kind for _, kind in want]
        assert_allclose([p.lam for p in pts], [lam for lam, _ in want], atol=1e-10)

    @pytest.mark.parametrize("fam,where", [
        (fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0), np.log(2.0)),
        (fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2.0), p=0.4), np.log(2.0)),
        (fs.Shifted(inner=fs.Binomial(pi=0.5, n=4), p=1.0), np.log(5.0)),
    ])
    def test_shifted_peak_location(self, fam, where):
        pts = stationary_points(fam, 8.0)
        assert [p.kind for p in pts] == ["max"]
        assert_allclose(pts[0].lam, where, atol=1e-10)

    def test_monotone_families_have_none(self):
        for fam in (fs.Poisson(eta=2.0), fs.NegBin(pi=0.5, nu=2.0),
                    fs.NegBinPositive(pi=0.4, nu=2.0),
                    fs.GammaFrailty(mean=1.0, variance=0.5)):
            assert stationary_points(fam, 10.0) == ()

    def test_zero_deflated_poisson_max_then_min(self):
        pts = stationary_points(fs.ZeroModifiedPoisson(eta=3.0, phi=0.05), 8.0)
        assert [p.kind for p in pts] == ["max", "min"]
        assert pts[0].lam < pts[1].lam

    def test_extrema_appear_and_vanish_at_the_fold(self):
        # The pair of extrema exists exactly while (1-phi)/(1-phi e^-eta)
        # stays above the dip of e^u/(1+u+u^2); the boundary value of phi
        # solves that ratio against e/3.
        eta = 3.0
        phi_star = (3.0 - np.e) / (3.0 - np.exp(1.0 - eta))
        below = stationary_points(fs.ZeroModifiedPoisson(eta=eta, phi=phi_star - 0.01), 8.0)
        above = stationary_points(fs.ZeroModifiedPoisson(eta=eta, phi=phi_star + 0.01), 8.0)
        assert [p.kind for p in below] == ["max", "min"]
        assert above == ()

    @pytest.mark.parametrize("nudge", [-1e-9, 0.0, 1e-9])
    def test_fold_saddle_is_one_tangential_root_at_log_eta(self, nudge):
        # At the fold the two extrema merge into a saddle at lam = ln(eta),
        # where RFV' touches zero without a sign change: only a dip of |RFV'|
        # refined on RFV'' can find it.  Below the fold (-1e-9) the max and min
        # lie flatter than SADDLE_TOL and count as that one saddle.
        eta = 3.0
        phi_star = (3.0 - np.e) / (3.0 - np.exp(1.0 - eta))
        pts = stationary_points(fs.ZeroModifiedPoisson(eta=eta, phi=phi_star + nudge), 8.0)
        assert [p.kind for p in pts] == ["saddle"]
        assert abs(pts[0].lam - math.log(eta)) < 1e-8
        assert type(pts[0].lam) is float

    @pytest.mark.parametrize("fam,lambda_max", [
        (fs.KPoint(support=(0.0, 6.524877402977379e-98, 3.960018826338938e-44,
                            4.937028728607302e-34, 1.1783236275368174e-12),
                   probs=(0.3133292697171217, 0.16548569593917992, 0.3045482763794256,
                          0.032248873320222846, 0.18438788464404998)), 2.4946854833681447),
        (fs.KPoint(support=(0.0, 2.3309993303735185e-42, 5.109053916703532e-41,
                            4.076568192355092e-39, 2.6166600160294305e-14),
                   probs=(0.2560540393138903, 0.17416663198362192, 0.15337459114869414,
                          0.3781336346490771, 0.03827110290471654)), 137.66642743872168),
    ])
    def test_rounding_noise_in_the_derivative_is_no_fold(self, fam, lambda_max):
        # RFV' is 5.2e-12 and 6.6e-13 throughout (mpmath), so the RFV is
        # monotone and flat to SADDLE_TOL; its rounding makes 850 and 560 turns
        # of RFV' on the scan, 12 and 8 of them folds flat enough to pass for
        # saddles unless a fold must dip below half the |RFV'| of the turns
        # beside it
        assert stationary_points(fam, lambda_max) == ()

    @pytest.mark.parametrize("fam", [
        fs.Poisson(eta=2.0),
        fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2.0), p=0.4),
        fs.ZeroModifiedPoisson(eta=3.0, phi=0.05),
        fs.ZeroModifiedPoisson(eta=0.5275, phi=0.0),
        fs.ZeroModifiedPoisson(eta=3.0, phi=(3.0 - np.e) / (3.0 - np.exp(-2.0)) - 1e-9),
    ], ids=["poisson", "shifted-negbin", "zero-deflated", "zero-truncated", "fold-saddle"])
    def test_scan_runs_past_the_float64_range(self, fam):
        # Well before lam = 1000 the RFV overflows or its survivor moments
        # underflow to 0; the scan neither raises nor warns there, and finds
        # the same points as on [0, 10].  The fold saddle's last turn has the
        # scan's end beside it, where RFV' is nan: its depth guard reads the
        # turn on its other side.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = stationary_points(fam, 1000.0)
        assert [p.kind for p in far] == [p.kind for p in stationary_points(fam, 10.0)]


_FIG2_GRID = np.linspace(0.0, 12.0, 5000)

#: The stationary points written to the fixed-config outputs, by their bits:
#: the ``fig2`` and ``curve`` sidecars (scanned to the curve grid's end) and
#: the ``verify`` stationary_points criterion (at its lambda_max).
OUTPUT_POINTS = {
    "fig2_set1": (KPOINT_EXAMPLES["set1"], _FIG2_GRID, [
        ("0x1.ef5c48ce20c00p-4", "max"), ("0x1.035ad15b79a00p+0", "min"),
        ("0x1.62bf07d5c2400p+1", "max")]),
    "fig2_set2": (KPOINT_EXAMPLES["set2"], _FIG2_GRID, [
        ("0x1.1e185f86d7e00p-1", "max"), ("0x1.248d4b5854a00p+1", "min")]),
    "fig2_set3": (KPOINT_EXAMPLES["set3"], _FIG2_GRID, []),
    "fig2_set4": (KPOINT_EXAMPLES["set4"], _FIG2_GRID, [("0x1.b7448421ef400p+0", "min")]),
    "curve_set1": (KPOINT_EXAMPLES["set1"], np.linspace(0.0, 1500.0, 3001), [
        ("0x1.ef5c48ce20af8p-4", "max"), ("0x1.035ad15b7a054p+0", "min"),
        ("0x1.62bf07d5c1ea8p+1", "max")]),
    "verify-shifted-poisson": (fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0), 8.0, [
        ("0x1.62e42fefa3800p-1", "max")]),
    "verify-shifted-negbin": (fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2), p=0.4), 8.0, [
        ("0x1.62e42fefa3800p-1", "max")]),
    "verify-shifted-binomial": (fs.Shifted(inner=fs.Binomial(pi=0.5, n=4), p=1.0), 8.0, [
        ("0x1.9c041f7ed8800p+0", "max")]),
    "verify-zero-deflated": (fs.ZeroModifiedPoisson(eta=3.0, phi=0.05), 10.0, [
        ("0x1.5005e809a6200p-1", "max"), ("0x1.f3288d0847600p+0", "min")]),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_POINTS))
def test_output_stationary_points_keep_their_bits(name):
    # a moved last digit fails here, not only in a byte comparison of the
    # output files
    fam, scan, want = OUTPUT_POINTS[name]
    if np.ndim(scan):
        side = curve_sidecar(curve(fam, scan))
        got = [(p["lambda"], p["kind"]) for p in side["stationary_points"]]
    else:
        got = [(p.lam, p.kind) for p in stationary_points(fam, scan)]
    assert [(lam.hex(), kind) for lam, kind in got] == want


ZERO_TRUNCATED = fs.ZeroModifiedPoisson(eta=0.5275, phi=0.0)


class TestZeroTruncatedTail:
    # The zero-truncated Poisson's RFV falls strictly, like x / 2 with
    # x = eta e^-lam, toward the limit 0 of survivors that all sit at 1.
    def test_no_stationary_point_and_no_overflow(self):
        assert stationary_points(ZERO_TRUNCATED, 100.0) == ()
        shape = curve(ZERO_TRUNCATED, np.linspace(0.0, 900.0, 51))
        assert shape.stationary_points == ()
        assert not shape.overflow.any()
        # x underflows to 0 from lam = 756 (index 42) on
        assert np.all(shape.rfv[42:] == 0.0)
        assert np.all(np.diff(shape.rfv[:42]) < 0.0)
        assert rfv_at(ZERO_TRUNCATED, 750.0) == 0.0

    @pytest.mark.parametrize("lam", [300.0, 400.0, 700.0])
    def test_rfv_where_x_squared_underflows(self, lam):
        # past lam ~ 354, x^2 underflows, and the variance x / 2 must not
        mean, var, _ = _mp_survivor_cumulants(ZERO_TRUNCATED, lam)
        assert_allclose(rfv_at(ZERO_TRUNCATED, lam), float(var / mean**2), rtol=1e-14)


class TestZmpDerivativeTerms:
    def test_ratio_at_zero(self):
        eta = 3.0
        _, ratio = zmp_derivative_terms(fs.ZeroModifiedPoisson(eta=eta, phi=0.05), 0.0)
        assert_allclose(ratio, np.exp(eta) / (eta * eta + eta + 1.0), rtol=1e-14)

    def test_ratio_dips_to_e_thirds_at_log_eta(self):
        fam = fs.ZeroModifiedPoisson(eta=3.0, phi=0.05)
        _, at_min = zmp_derivative_terms(fam, np.log(3.0))
        assert_allclose(at_min, np.e / 3.0, rtol=1e-14)
        lam = np.linspace(0.0, 8.0, 161)
        _, r = zmp_derivative_terms(fam, lam)
        assert np.min(r) >= np.e / 3.0 - 1e-12

    def test_offset_vanishes_for_plain_poisson(self):
        offset, _ = zmp_derivative_terms(fs.ZeroModifiedPoisson(eta=2.0, phi=1.0), 1.0)
        assert offset == 0.0


class TestTailClassification:
    @pytest.mark.parametrize("fam,want", [
        (fs.Poisson(eta=2.0), TailClass.INCREASING_TO_INFINITY),
        (fs.NegBin(pi=0.5, nu=2.0), TailClass.INCREASING_TO_INFINITY),
        (fs.Binomial(pi=0.3, n=5), TailClass.INCREASING_TO_INFINITY),
        (fs.NegBinPositive(pi=0.4, nu=2.0), TailClass.DECREASING_TO_ZERO),
        (fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0), TailClass.DECREASING_TO_ZERO),
        (fs.Shifted(inner=fs.Poisson(eta=2.0), p=0.0), TailClass.INCREASING_TO_INFINITY),
        (fs.ZeroModifiedPoisson(eta=3.0, phi=0.05), TailClass.INCREASING_TO_INFINITY),
        (fs.ZeroModifiedPoisson(eta=0.8, phi=0.0), TailClass.DECREASING_TO_ZERO),
        (fs.Addams(alpha=0.3, gamma=0.5), TailClass.INCREASING_TO_INFINITY),
        (fs.Addams(alpha=-0.3, gamma=0.5), TailClass.DECREASING_TO_ZERO),
        (fs.Addams(alpha=0.0, gamma=0.5), TailClass.CONSTANT),
        (fs.GammaFrailty(mean=1.0, variance=0.5), TailClass.CONSTANT),
        (KPOINT_EXAMPLES["set1"], TailClass.DECREASING_TO_ZERO),
        (KPOINT_EXAMPLES["set2"], TailClass.INCREASING_TO_INFINITY),
        (KPOINT_EXAMPLES["set3"], TailClass.DECREASING_TO_ZERO),
        (KPOINT_EXAMPLES["set4"], TailClass.INCREASING_TO_INFINITY),
        (fs.Shifted(inner=fs.NegBin(pi=0.5, nu=2.0), p=0.0),
         TailClass.INCREASING_TO_INFINITY),
        (fs.Shifted(inner=fs.Binomial(pi=0.3, n=5), p=0.4), TailClass.DECREASING_TO_ZERO),
        (fs.ZeroModifiedPoisson(eta=2.0, phi=2.0), TailClass.INCREASING_TO_INFINITY),
        (fs.NegBinPositive(pi=0.4, nu=1), TailClass.DECREASING_TO_ZERO),
    ])
    def test_family_map(self, fam, want):
        assert classify_tail(fam) is want

    def test_tail_limits_actually_hold(self):
        # spot-check the classification against far-out evaluations
        up = np.asarray(rfv_at(fs.Poisson(eta=2.0), np.array([10.0, 20.0])))
        assert up[1] > 100.0 * up[0]
        down = np.asarray(rfv_at(fs.NegBinPositive(pi=0.4, nu=2.0),
                                 np.array([10.0, 20.0])))
        assert down[1] < down[0] / 100.0


class TestCurve:
    def test_contains_everything(self):
        fam = fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0)
        grid = np.linspace(0.0, 4.0, 17)
        shape = curve(fam, grid)
        assert shape.family is fam
        assert_allclose(shape.crf, shape.rfv + 1.0, rtol=1e-15)
        assert [p.kind for p in shape.stationary_points] == ["max"]
        assert shape.tail is TailClass.DECREASING_TO_ZERO
        assert not shape.overflow.any()

    def test_rejects_unsorted_grid(self):
        with pytest.raises(fs.ParameterOutOfRange):
            curve(fs.Poisson(eta=2.0), [0.0, 2.0, 1.0])

    def test_overflow_is_flagged_not_raised(self):
        # e^lam passes the float ceiling around lam ~ 709
        shape = curve(fs.Poisson(eta=2.0), [0.0, 1.0, 750.0])
        assert shape.overflow.tolist() == [False, False, True]
        assert np.isposinf(shape.rfv[-1])
        # the flags are exactly the points where the scalar ratio raises
        long_grid = np.linspace(0.0, 1500.0, 3001)
        for fam, grid in ((fs.Poisson(eta=2.0), [0.0, 1.0, 750.0]),
                          (KPOINT_EXAMPLES["set1"], long_grid),
                          (KPOINT_EXAMPLES["set2"], long_grid)):
            shape = curve(fam, grid)
            raises = []
            for lam in shape.grid:
                try:
                    rfv_at(fam, lam)
                    raises.append(False)
                except fs.NumericalOverflow:
                    raises.append(True)
            assert shape.overflow.tolist() == raises
            assert np.all(np.isposinf(shape.rfv[shape.overflow]))

    def test_overflow_messages_name_the_first_point(self):
        grid = np.linspace(0.0, 1500.0, 3001)
        # set1's RFV tends to 0: finite everywhere, though L itself underflows
        ref = rfv_closed_at(KPOINT_EXAMPLES["set1"], grid)
        got = rfv_at(KPOINT_EXAMPLES["set1"], grid)
        assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref) + 1e-12)
        with pytest.raises(fs.NumericalOverflow,
                           match=r"admissible range at 1502 of 3001 points, first s=749\.5$"):
            fs.laplace(KPOINT_EXAMPLES["set1"], grid)
        # set2's RFV first passes the float64 ceiling at lam = 1409.5 (1.84e308)
        with pytest.raises(fs.NumericalOverflow,
                           match=r"overflowed at 182 of 3001 points, first lam=1409\.5$"):
            rfv_at(KPOINT_EXAMPLES["set2"], grid)
        with pytest.raises(fs.NumericalOverflow,
                           match=r"overflowed at 1 of 1 points, first lam=750\.0$"):
            rfv_at(fs.Poisson(eta=2.0), 750.0)

    def test_csv_round_trip(self, tmp_path):
        fam = fs.NegBin(pi=0.5, nu=2.0)
        shape = curve(fam, np.linspace(0.0, 2.0, 5))
        path = tmp_path / "curve.csv"
        curve_to_csv(shape, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "lambda,rfv,crf"
        back = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert_allclose(back[:, 0], shape.grid, rtol=1e-16)
        assert_allclose(back[:, 1], shape.rfv, rtol=1e-16)

    def test_sidecar_payload(self):
        shape = curve(fs.Shifted(inner=fs.Poisson(eta=2.0), p=1.0),
                      np.linspace(0.0, 4.0, 9))
        side = curve_sidecar(shape)
        assert side["tail"] == "DecreasingToZero"
        assert len(side["stationary_points"]) == 1
        assert side["stationary_points"][0]["kind"] == "max"
        assert side["family"]["family"] == "shifted"


def _kpoint(support, weights, with_zero):
    z = sorted(support)
    if with_zero:
        z[0] = 0.0
    return fs.KPoint(support=tuple(z), probs=tuple(np.asarray(weights) / math.fsum(weights)))


def _zero_modified(eta, zero_mass):
    return fs.ZeroModifiedPoisson(eta=eta, phi=zero_mass * math.exp(eta))


def _families(kpoint_low):
    """Every family over wide parameter ranges, k-point support points from
    ``kpoint_low``."""
    return st.one_of(
        st.builds(fs.Poisson, eta=st.floats(1e-3, 1e4)),
        st.builds(fs.NegBin, pi=st.floats(0.01, 0.99), nu=st.floats(0.1, 1e3)),
        st.builds(fs.Binomial, pi=st.floats(0.01, 0.99), n=st.integers(1, 1000)),
        st.builds(fs.Shifted, inner=st.builds(fs.Poisson, eta=st.floats(1e-3, 1e4)),
                  p=st.floats(0.0, 50.0)),
        st.builds(fs.Shifted, inner=st.builds(fs.NegBin, pi=st.floats(0.01, 0.99),
                                              nu=st.floats(0.1, 1e3)),
                  p=st.floats(0.0, 50.0)),
        st.builds(fs.Shifted, inner=st.builds(fs.Binomial, pi=st.floats(0.01, 0.99),
                                              n=st.integers(1, 1000)),
                  p=st.floats(0.0, 50.0)),
        st.builds(fs.NegBinPositive, pi=st.floats(0.01, 0.99), nu=st.integers(1, 100)),
        st.builds(_zero_modified, eta=st.floats(1e-3, 700.0), zero_mass=st.floats(0.0, 0.99)),
        st.builds(_kpoint,
                  support=st.lists(st.floats(kpoint_low, 5.0), min_size=5, max_size=5,
                                   unique=True),
                  weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
                  with_zero=st.booleans()),
    )


#: k-point support points start at 0, so gaps run far below 1e-154, where
#: the survivors' variance underflows.
wide_families = _families(0.0)

#: The three-point k-point family of the closed-form accuracy table.
THREE_POINT = fs.KPoint(support=(0.0418, 0.3867, 7.5078), probs=(0.4277, 0.3891, 0.1832))

#: A gap of 2.2e-204 beside the 0 atom: the survivors' variance underflows
#: from lam ~ 710 on.  The RFV is 5.6e16 at lam = 900, almost all of it from
#: the atoms 1, 2 and 3, and 1 at lam = 1000, where their weights are below
#: e^-1000.
TINY_GAP = fs.KPoint(support=(0.0, 2.2e-204, 1.0, 2.0, 3.0), probs=(0.2,) * 5)


@settings(max_examples=200)
@given(wide_families, st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=20))
# points where the oracle's weights, formed from the linear-space pmf, raised,
# returned 0.0 or lost digits
@example(fs.Poisson(eta=5000.0), [1.0])
@example(fs.Binomial(pi=0.2222, n=2946), [4.3495])
@example(fs.Poisson(eta=1e5), [1e-3])
@example(fs.Poisson(eta=1e6), [1e-3])
@example(fs.Shifted(inner=fs.Poisson(eta=104.6), p=5.0), [675.7])
# the survivors sit at 1 with no mass at 0, so m2 - m1^2 cancels in the oracle
@example(fs.ZeroModifiedPoisson(eta=1.0, phi=1.5e-323), [17.0])
# x = eta e^-lam is subnormal where the survivors' mean and variance are not
@example(fs.ZeroModifiedPoisson(eta=1.0, phi=7.67248349316376e-273), [728.0])
@example(fs.ZeroModifiedPoisson(eta=0.001, phi=5e-324), [339.0, 745.0])
# points where the closed form formed e^lam and raised, cancelled, or
# squared a gap below 1e-154 (the rows with a mean of 1e9 and more are in
# test_closed_form_matches_high_precision: the oracle's support table would
# run to ~1e10 entries)
@example(fs.ZeroModifiedPoisson(eta=600.0, phi=0.0), [720.0])
@example(fs.ZeroModifiedPoisson(eta=0.5275, phi=0.0), [18.0])
@example(TINY_GAP, [900.0, 1000.0])
@example(THREE_POINT, [100.0, 200.0])
# the survivors' variance is subnormal where their mean and the RFV are not
# (in the last two while e^-lam is still normal)
@example(fs.Shifted(inner=fs.Poisson(eta=1.0), p=1e-160), [713.0, 740.0])
@example(fs.Shifted(inner=fs.NegBin(pi=0.99, nu=50.0), p=1e-160), [708.0])
@example(fs.Shifted(inner=fs.Binomial(pi=0.01, n=50), p=1e-160), [708.0])
def test_laplace_route_matches_closed_form_wherever_it_is_finite(fam, lams):
    # Two-way: the closed form raises exactly where rfv_at does, but for one
    # case: where the survivors' variance underflows, rfv_at returns 0.0
    # also when far atoms, whose weights underflow too, carry the RFV past
    # the float64 range (checked against mpmath).  Where both are finite and
    # the RFV is a normal number:
    # - Survivors' mean and variance normal: they agree to 1e-9.
    # - A k-point gap below ~1e-154 beside the mean makes the survivors'
    #   variance underflow: rfv_at returns 0.0 or a variance short of bits,
    #   and the closed form, which divides each gap by the mean before
    #   squaring it, is checked against mpmath.
    # - Otherwise a subnormal mean or variance (a shift p < 1 lifts x / p^2
    #   to a normal RFV from a subnormal x) keeps its bits only down to
    #   2^-1074, in both routes: they agree to 1e-9 plus four of those steps
    #   relative to the smaller of the two, wherever that sum is below 1.
    # A subnormal RFV has lost bits in every route, so only its sign is
    # checked.  The oracle is the third leg wherever the RFV and the
    # survivors' mean and variance are normal numbers.
    tiny, step = sys.float_info.min, 2.0**-1074
    for lam in [0.0, 1000.0] + lams:
        try:
            ref = rfv_closed_at(fam, lam)
        except fs.NumericalOverflow:
            ref = None
        try:
            got = rfv_at(fam, lam)
        except fs.NumericalOverflow:
            got = None
        _, mean, var, _ = _survivor_triple(fam, np.array(lam))
        if ref is None and got == 0.0 and var < tiny:
            mp_mean, mp_var, _ = _mp_survivor_cumulants(fam, lam)
            assert mp_var / mp_mean**2 > sys.float_info.max, (lam, got, ref)
            continue
        assert (got is None) == (ref is None), (lam, got, ref)
        if got is None:
            continue
        assert min(got, ref) >= 0.0, (lam, got, ref)
        if ref < tiny:
            pass
        elif min(mean, var) >= tiny:
            assert abs(got - ref) <= 1e-9 * ref, (lam, got, ref)
        elif isinstance(fam, fs.KPoint):
            want = float(_mp_survivor_moments(fam, lam)[3])
            rtol = 1e-12 + 4.0 * step / mean  # the closed form sums the mean linearly
            assert rtol >= 1.0 or abs(ref - want) <= rtol * want, (lam, ref, want)
        elif min(mean, var) > 0.0:
            rtol = 1e-9 + 4.0 * step / min(mean, var)
            assert rtol >= 1.0 or abs(got - ref) <= rtol * ref, (lam, got, ref)
        if min(got, mean, var) >= tiny:
            brute = oracle.rfv(fam, lam)
            assert abs(brute - got) <= 1e-8 * got, (lam, brute, got)
            assert oracle.survivor_pmf(fam, lam).tail_mass_bound < oracle.TAIL_BOUND


@pytest.mark.parametrize("fam, lam, rtol", [
    (fs.Poisson(eta=1e10), 720.0, 1e-12),
    (fs.NegBin(pi=0.3, nu=1e9), 720.0, 1e-12),
    (fs.ZeroModifiedPoisson(eta=600.0, phi=0.0), 720.0, 1e-9),  # a subnormal RFV
    # log d - log mean at |log d| ~ 469 rounds to ~1e-14 of the RFV of 1
    (TINY_GAP, 1000.0, 1e-14),
    # the atoms 1, 2, 3 carry most of the variance, with weights below 1e-390
    (TINY_GAP, 900.0, 1e-12),
    (THREE_POINT, 100.0, 1e-13),
    (THREE_POINT, 200.0, 1e-13),
    (fs.ZeroModifiedPoisson(eta=0.5275, phi=0.0), 18.0, 1e-14),
], ids=["poisson", "negbin", "zero-truncated-720", "tiny-gap", "tiny-gap-900",
        "three-point-100", "three-point-200", "zero-truncated-18"])
def test_closed_form_matches_high_precision(fam, lam, rtol):
    # The points where the closed form raised past lam ~ 709.8, cancelled, or
    # squared a gap below 1e-154; references at 50 to 420 digits.  rfv_at
    # agrees, except at the tiny gap, where the survivors' variance
    # underflows and it returns 0.0.
    mean, var, _ = _mp_survivor_cumulants(fam, lam)
    want = float(var / mean**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rfv_closed_at(fam, lam)
    assert abs(got - want) <= rtol * want, (got, want)
    if fam is TINY_GAP:
        assert rfv_at(fam, lam) == 0.0
    else:
        assert abs(rfv_at(fam, lam) - want) <= max(rtol, 1e-14) * want


@pytest.mark.parametrize("fam, lam", [
    (fs.Poisson(eta=1e12), 736.0),
    (fs.Poisson(eta=1e8), 725.0),
    (fs.NegBin(pi=0.5, nu=1e8), 725.0),
    (fs.Binomial(pi=0.3, n=3000), 715.0),
], ids=["poisson-736", "poisson-725", "negbin", "binomial"])
def test_rfv_where_e_to_the_minus_lam_is_subnormal(fam, lam):
    # e^-lam is subnormal past lam ~ 708.4, so c e^-lam kept only its leading
    # bits (2.4e-5 relative off for the first row); the RFV itself is normal
    mean, var, _ = _mp_survivor_cumulants(fam, lam)
    assert_allclose(rfv_at(fam, lam), float(var / mean**2), rtol=1e-14)


def test_kpoint_closed_form_holds_no_pair_array():
    # the benchmark's checks call rfv_closed_at in the harness process, whose
    # own peak RSS is a floor under every job's reading; an (n, K, K) pair
    # sum peaks at ~7.7 MB here, the loop over the pairs at ~0.7 MB
    fam = KPOINT_EXAMPLES["set1"]
    grid = np.linspace(0.0, 12.0, 5000)
    rfv_closed_at(fam, grid)
    tracemalloc.start()
    try:
        rfv_closed_at(fam, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.size * len(fam.support) * 8


@settings(max_examples=100)
# k-point gaps from 1e-150: below that an extremum can be flatter than the
# rounding of rfv_at, which this check cannot resolve (a min of
# KPoint((0, 2.2e-313, 1e-12, 0.25, 1), ...) at lam = 313.8 rises by 2.5e-16
# relative over the step)
@given(st.one_of(_families(1e-150),
                 st.builds(fs.ZeroModifiedPoisson, eta=st.floats(1e-3, 700.0), phi=st.just(0.0))),
       st.floats(0.1, 1e3))
@example(ZERO_TRUNCATED, 100.0)
@example(ZERO_TRUNCATED, 900.0)
# RFV' is finite near the maximum at lam = 719.9, where the RFV is 1.1e312
@example(fs.Shifted(inner=fs.Poisson(eta=1.0), p=2.2250738585e-313), 720.0)
def test_reported_extrema_are_extrema_of_the_rfv(fam, lambda_max):
    for point in stationary_points(fam, lambda_max):
        if point.kind == "saddle":
            continue
        h = max(1e-4 * point.lam, 1e-6)
        left, mid, right = rfv_at(fam, [max(point.lam - h, 0.0), point.lam, point.lam + h])
        if point.kind == "max":
            assert mid >= max(left, right), (point, left, mid, right)
        else:
            assert mid <= min(left, right), (point, left, mid, right)


def _ratio(u):
    """zmp_derivative_terms' ratio e^u / (1 + u + u^2) at u = eta e^-lam."""
    return math.exp(u) / (1.0 + u + u * u)


def _ratio_root(c, lo, hi):
    """The u in [lo, hi] where the monotone ratio crosses c, by bisection."""
    rising = _ratio(hi) > _ratio(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (_ratio(mid) < c) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _near_fold(eta, side, exponent):
    """phi = phi*(eta) + side 10^exponent, phi* = (1 - e/3) / (1 - (e/3) e^-eta)
    where the two roots of ratio = c meet at ln eta."""
    return (1.0 - math.e / 3.0) / (1.0 - math.e / 3.0 * math.exp(-eta)) + side * 10.0**exponent


def _fold_measure(eta, phi):
    """|RFV'| lam / RFV at ln eta, where u = 1: RFV' = 1 - 3c/e and the RFV is
    1 - 2c/e."""
    c = (1.0 - phi) / (1.0 - phi * math.exp(-eta))
    return abs(1.0 - 3.0 * c / math.e) * math.log(eta) / (1.0 - 2.0 * c / math.e)


def _zmp_roots(eta, phi, lambda_max):
    """(lam, kind) of every root of RFV' on [0, lambda_max] from the ratio
    analysis.  RFV' = (1 / u)(1 - c / ratio) with c = -offset and
    u = eta e^-lam, and ratio falls to e/3 at u = 1 (lam = ln eta) and rises on
    either side of it: a crossing on the branch u > 1 is a max, one on the
    branch u < 1 a min."""
    c = (1.0 - phi) / (1.0 - phi * math.exp(-eta))
    u_end = eta * math.exp(-lambda_max)
    branches = []
    if eta > 1.0 and _ratio(max(u_end, 1.0)) < c < _ratio(eta):
        branches.append((max(u_end, 1.0), eta, "max"))
    if u_end < 1.0 and _ratio(min(eta, 1.0)) < c < _ratio(u_end):
        branches.append((u_end, min(eta, 1.0), "min"))
    roots = []
    for lo, hi, kind in branches:
        roots.append((math.log(eta / _ratio_root(c, lo, hi)), kind))
    return roots


@settings(max_examples=200)
@given(st.floats(0.0, 20.0, exclude_min=True), st.sampled_from([-1.0, 1.0]),
       st.floats(-12.0, -1.0), st.floats(0.1, 60.0))
# one eta = 3 family per row of a lambda_max sweep over linspace(5, 40, 701):
# a pair 1e-6 to 1e-8 below the fold was reported as nothing, and one 1e-9
# below it as (max, min) or nothing, by the scan range
@example(3.0, -1.0, -6.0, 21.900000000000002)
@example(3.0, -1.0, -7.0, 6.95)
@example(3.0, -1.0, -8.0, 5.1)
@example(3.0, -1.0, -9.0, 5.0)
@example(3.0, -1.0, -9.0, 12.55)
# a min at lam = 6.8e-4, flat on the scale lam, was called a saddle when
# kinds came from |RFV''| lam^2
@example(1.0, -1.0, -7.0, 1.0)
# a saddle whose max and min lay one or more scan spacings apart was reported
# as (max, min) or as nothing, by the scan range
@example(1.25, -1.0, -8.25, 1.0)
@example(1.125, -1.0, -8.0, 1.0)
@example(1.125, 1.0, -8.0, 1.0)
def test_zmp_kinds_at_the_fold_match_the_ratio_analysis(eta, side, exponent, lambda_max):
    # Each root keeps its kind from the ratio analysis; the one saddle is the
    # fold at ln eta, max and min together, when |RFV'| lam there is below
    # SADDLE_TOL times the RFV.
    phi = _near_fold(eta, side, exponent)
    assume(0.0 <= phi < math.exp(eta))
    spacing = lambda_max / 4096
    fold = _fold_measure(eta, phi)
    if 1.0 < eta < math.exp(lambda_max) and fold < 2.0 * SADDLE_TOL:
        assume(fold < 0.5 * SADDLE_TOL)
        want = [(math.log(eta), "saddle")]
    else:
        want = _zmp_roots(eta, phi, lambda_max)
    for lam, _ in want:
        assume(2.0 * spacing < lam < lambda_max - 2.0 * spacing)
    got = stationary_points(fs.ZeroModifiedPoisson(eta=eta, phi=phi), lambda_max)
    assert [p.kind for p in got] == [kind for _, kind in want], (phi, got)


def test_near_fold_saddle_at_every_scan_range():
    # 10^-8.25 below the fold the max and min lie 3.4e-4 apart and flatter
    # than SADDLE_TOL: one saddle, whether the scan spacing is 14 times that
    # gap or a third of it
    fam = fs.ZeroModifiedPoisson(eta=1.25, phi=_near_fold(1.25, -1.0, -8.25))
    for lambda_max in np.linspace(0.5, 20.0, 40):
        assert [p.kind for p in stationary_points(fam, lambda_max)] == ["saddle"], lambda_max


def _near_fold_zmp(eta, side, exponent):
    return fs.ZeroModifiedPoisson(eta=eta, phi=_near_fold(eta, side, exponent))


@settings(max_examples=50)
@given(st.one_of(
           st.builds(_near_fold_zmp, st.floats(1.0, 6.0, exclude_min=True),
                     st.sampled_from([-1.0, 1.0]), st.floats(-10.0, -6.0)),
           st.builds(_kpoint,
                     support=st.lists(st.floats(1e-150, 5.0), min_size=5, max_size=5, unique=True),
                     weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
                     with_zero=st.booleans())),
       st.floats(0.5, 10.0), st.floats(1.0, 4.0))
# a saddle below and above the fold was reported as (max, min) or as nothing
# on the shorter scan
@example(_near_fold_zmp(1.12, -1.0, -8.2), 1.4, 2.5)
@example(_near_fold_zmp(1.06, 1.0, -7.7), 0.9, 2.8)
def test_kinds_do_not_depend_on_the_scan_range(fam, lambda_1, stretch):
    # the points both scans see, clear of the shorter one's end by three of
    # the longer one's spacings, have the same kinds.  A fold within a factor
    # 2 of SADDLE_TOL may be measured on either side of it, as in the fold
    # test above, so those families are left out.
    if isinstance(fam, fs.ZeroModifiedPoisson):
        assume(not 0.5 * SADDLE_TOL <= _fold_measure(fam.eta, fam.phi) <= 2.0 * SADDLE_TOL)
    lambda_2 = stretch * lambda_1
    h = lambda_2 / 4096

    def kinds(lambda_max):
        return [p.kind for p in stationary_points(fam, lambda_max)
                if 3.0 * h <= p.lam <= lambda_1 - 3.0 * h]

    assert kinds(lambda_1) == kinds(lambda_2)


@settings(max_examples=100)
@given(st.floats(-14.0, 1.0), st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 1e3),
       st.floats(0.1, 1e3))
@example(-10.0, 1.0, 0.5, 12.0)
def test_addams_reports_no_stationary_point(exponent, sign, gamma, lambda_max):
    # the RFV gamma e^(alpha lam) is strictly monotone.  RFV' = alpha RFV
    # has the sign of alpha at every scan point, so the numeric scan finds
    # no sign change; its rounding still makes local minima of |RFV'| flat
    # to SADDLE_TOL at tiny alpha, which the depth guard of a fold rejects.
    # When RFV' was a difference of cumulants, it changed sign from
    # gamma ~ 100 at |alpha| = 1e-14.
    assert stationary_points(fs.Addams(alpha=sign * 10.0**exponent, gamma=gamma),
                             lambda_max) == ()


@settings(max_examples=20)
@given(st.builds(_kpoint,
                 support=st.lists(st.floats(1e-150, 5.0), min_size=5, max_size=5, unique=True),
                 weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
                 with_zero=st.booleans()),
       st.floats(0.1, 1e3))
@example(KPOINT_EXAMPLES["set1"], 12.0)
@example(KPOINT_EXAMPLES["set2"], 12.0)
@example(KPOINT_EXAMPLES["set4"], 12.0)
def test_kpoint_scan_misses_no_sign_change_of_a_dense_scan(fam, lambda_max):
    # A reference scan of RFV' on 2^20 intervals: every sign change it finds
    # lies within one scan spacing of a reported point (a pair merged into a
    # saddle counts at the saddle).  Laguerre's rule of signs bounds the roots
    # too loosely to replace it: 23 for set1, which has 3.
    reported = np.array([p.lam for p in stationary_points(fam, lambda_max)])
    grid = np.linspace(0.0, lambda_max, 2**20 + 1)
    with np.errstate(all="ignore"):
        d = np.concatenate([
            np.where(np.isfinite(_triple_rfv(fam, block)), _rfv_derivative(fam, block), np.nan)
            for block in np.array_split(grid, 16)])
    for lam in grid[np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)[0]]:
        assert reported.size and np.min(np.abs(reported - lam)) <= lambda_max / 4096, (
            lam, reported)


def test_builtin_example_sets_are_distributions():
    assert set(KPOINT_EXAMPLES) == {"set1", "set2", "set3", "set4"}
    for fam in KPOINT_EXAMPLES.values():
        assert len(fam.support) == 8
        assert_allclose(np.sum(fam.probs), 1.0, atol=1e-12)
        assert np.all(np.diff(fam.support) > 0.0)


_POISSON2 = fs.Poisson(eta=2.0)
_CORRELATED = fs.CorrelatedPoissonModel(
    etas=(1.0, 2.0), w_dist=fs.GammaFrailty(mean=1.0, variance=0.5),
    hazards=(fs.ExponentialRate(rate=1.0), fs.ExponentialRate(rate=1.0)))
_DRIFTING = fs.TimeVaryingShift(inner=_POISSON2, shift_fn=fs.ExpHalf(eta=2.0))

#: Every public evaluator of generic time, with its family or model bound.
GENERIC_TIME_EVALUATORS = {
    "laplace": lambda lam: fs.laplace(_POISSON2, lam),
    "rfv_at": lambda lam: fs.rfv_at(_POISSON2, lam),
    "crf_at": lambda lam: fs.crf_at(_POISSON2, lam),
    "rfv_closed_at": lambda lam: fs.rfv_closed_at(_POISSON2, lam),
    "rfv_derivative": lambda lam: fs.rfv_derivative(_POISSON2, lam),
    "curve": lambda lam: fs.curve(_POISSON2, lam),
    "oracle_rfv": lambda lam: fs.oracle_rfv(_POISSON2, lam),
    "survivor_pmf": lambda lam: fs.survivor_pmf(_POISSON2, lam),
    "survivor_moment": lambda lam: fs.survivor_moment(_POISSON2, lam, 1),
    "smallest_point_prob_grid": lambda lam: fs.smallest_point_prob_grid(_POISSON2, lam),
    "crf_of_d": lambda lam: _CORRELATED.crf_of_d(lam),
    "timevarying_shift_rfv": lambda lam: fs.timevarying_shift_rfv(_DRIFTING, lam),
}


def _piecewise_set2(coupling):
    fam = KPOINT_EXAMPLES["set2"]
    model = fs.PiecewiseFrailtyModel(cutpoints=(0.5,), segment_families=(fam, fam),
                                     hazards=(fs.ExponentialRate(rate=1.0),),
                                     joint_coupling=coupling)
    return lambda t: fs.piecewise_rfv(model, (t,))


#: Every evaluator that maps one point to one number.
SCALAR_EVALUATORS = {
    **{name: GENERIC_TIME_EVALUATORS[name] for name in (
        "rfv_at", "crf_at", "rfv_closed_at", "rfv_derivative", "oracle_rfv",
        "survivor_moment", "crf_of_d", "timevarying_shift_rfv")},
    "piecewise_rfv-identical": _piecewise_set2("identical"),
    "piecewise_rfv-table": _piecewise_set2(fs.CouplingTable(conditional=np.eye(8))),
}


@pytest.mark.parametrize("name", sorted(SCALAR_EVALUATORS))
def test_scalar_in_gives_a_python_float(name):
    assert type(SCALAR_EVALUATORS[name](1.5)) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, []],
                         ids=["nan", "inf", "negative", "empty"])
@pytest.mark.parametrize("name", sorted(GENERIC_TIME_EVALUATORS))
def test_generic_time_must_be_finite_nonnegative_nonempty(name, bad):
    with pytest.raises(fs.ParameterOutOfRange):
        GENERIC_TIME_EVALUATORS[name](bad)
