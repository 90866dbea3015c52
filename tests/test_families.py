"""Laplace transforms, pmfs, and moments of the frailty families.

Expected numbers were derived by hand from the transform definitions (the
short derivations are kept next to each constant) or cross-checked against
scipy.stats pmfs.
"""

import math
import time

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from frailty_shapes import (
    Addams,
    Binomial,
    DegenerateDistribution,
    ExponentialRate,
    GammaFrailty,
    KPoint,
    NegBin,
    NegBinPositive,
    NumericalOverflow,
    ParameterOutOfRange,
    PiecewiseConstant,
    Poisson,
    Shifted,
    UnsupportedFamily,
    Weibull,
    ZeroModifiedPoisson,
    family_from_dict,
    family_to_dict,
    laplace,
    min_support,
    moments,
    pmf,
    rfv_at,
    support_table,
)
from frailty_shapes.families import _gamma_p2, _lgamma, _survivor_triple

LN2 = np.log(2.0)


class TestLaplaceValues:
    """Frozen (l0, l1, l2) triples at hand-checkable points."""

    def test_poisson_at_zero(self):
        # L(s) = exp(eta (e^-s - 1)); at s=0 the derivatives are the raw
        # moments with sign: L'(0) = -E[Z] = -2, L''(0) = E[Z^2] = eta^2+eta = 6.
        assert laplace(Poisson(eta=2.0), 0.0) == (1.0, -2.0, 6.0)

    def test_binomial_at_ln2(self):
        # x = e^-s = 1/2: L = (0.5 + 0.5 x)^2 = 0.5625,
        # L' = -2 * 0.5 x * 0.75 = -0.375, L'' = 0.25*2*0.75 + 0.0625*2 = 0.5
        tr = laplace(Binomial(pi=0.5, n=2), LN2)
        assert_allclose(tr, (0.5625, -0.375, 0.5), rtol=1e-14)

    def test_negbin_at_ln2(self):
        # pi x = 1/4: L = (0.5/0.75)^2 = 4/9, L' = -(2/3)L = -8/27,
        # L'' = L * (8/9 + 4/9) = 16/27
        tr = laplace(NegBin(pi=0.5, nu=2.0), LN2)
        assert_allclose(tr, (4.0 / 9.0, -8.0 / 27.0, 16.0 / 27.0), rtol=1e-14)

    def test_shifted_multiplies_by_exponential(self):
        inner = Poisson(eta=1.5)
        s = 0.7
        l0, l1, l2 = laplace(inner, s)
        f = np.exp(-2.0 * s)
        got = laplace(Shifted(inner=inner, p=2.0), s)
        assert_allclose(got, (f * l0, f * (l1 - 2.0 * l0),
                              f * (l2 - 4.0 * l1 + 4.0 * l0)), rtol=1e-13)

    def test_gamma_closed_form(self):
        # mean 1, variance 0.5 -> shape 2, rate 2: L(s) = (1 + s/2)^-2
        fam = GammaFrailty(mean=1.0, variance=0.5)
        l0, l1, l2 = laplace(fam, 1.0)
        assert_allclose(l0, 1.5 ** -2, rtol=1e-14)
        assert_allclose(l1, -(1.5 ** -3), rtol=1e-14)
        assert_allclose(l2, 1.5 * 1.5 ** -4, rtol=1e-14)

    def test_addams_alpha_zero_is_gamma_in_disguise(self):
        # alpha -> 0 collapses the family to a gamma with unit mean and
        # variance gamma: L(s) = (1 + gamma s)^(-1/gamma).
        fam = Addams(alpha=0.0, gamma=0.5)
        s = np.linspace(0.0, 4.0, 9)
        l0 = np.array([laplace(fam, si).l0 for si in s])
        assert_allclose(l0, (1.0 + 0.5 * s) ** -2.0, rtol=1e-12)
        # and the whole triple is that of GammaFrailty(1, gamma), bit for bit
        s = np.linspace(0.0, 20.0, 2001)
        for gamma in (0.1, 0.5, 1.0, 3.7):
            got = laplace(Addams(alpha=0.0, gamma=gamma), s)
            want = laplace(GammaFrailty(mean=1.0, variance=gamma), s)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestPmf:
    @pytest.mark.parametrize("fam,dist", [
        (Poisson(eta=2.0), scipy.stats.poisson(2.0)),
        (Binomial(pi=0.3, n=5), scipy.stats.binom(5, 0.3)),
        (NegBin(pi=0.5, nu=2.0), scipy.stats.nbinom(2.0, 0.5)),
        # the two oracle benchmark families, over their whole support tables
        (Poisson(eta=200.0), scipy.stats.poisson(200.0)),
        (NegBin(pi=0.3, nu=4.0), scipy.stats.nbinom(4.0, 0.3)),
    ])
    def test_matches_scipy(self, fam, dist):
        table = support_table(fam)
        z = np.union1d(np.arange(8), table.z)
        ours = np.array([pmf(fam, float(k)) for k in z])
        assert_allclose(ours, dist.pmf(z), rtol=1e-12)
        assert_allclose(table.pmf, dist.pmf(table.z), rtol=1e-12)

    def test_positive_negbin_sits_on_shifted_support(self):
        # Z - nu is negative binomial with success probability pi, so the
        # smallest value nu carries mass pi^nu and the family never hits 0.
        fam = NegBinPositive(pi=0.4, nu=2.0)
        base = scipy.stats.nbinom(2.0, 0.4)
        for k in (0, 1, 5):
            assert_allclose(pmf(fam, float(2 + k)), base.pmf(k), rtol=1e-12)
        assert pmf(fam, 1.0) == 0.0  # support starts at nu
        # its support table is NegBin's moved up by nu, and pmf, the support
        # table, min_support and the survivor triple all give the bits of
        # Shifted(NegBin(pi, nu), nu)
        def bits(values):
            return [np.asarray(v, dtype=np.float64).tobytes() for v in values]

        s = np.linspace(0.0, 40.0, 81)
        for pi, nu in ((0.4, 2), (0.3, 4), (0.75, 1)):
            positive = NegBinPositive(pi=pi, nu=nu)
            shifted = Shifted(inner=NegBin(pi=pi, nu=nu), p=nu)
            moved = support_table(positive)
            base_table = support_table(NegBin(pi=pi, nu=nu))
            assert np.array_equal(moved.z, base_table.z + nu)
            assert np.array_equal(moved.pmf, base_table.pmf)
            assert moved.tail_mass == base_table.tail_mass
            assert bits(support_table(shifted)) == bits(moved)
            zs = (0.0, nu - 1.0, float(nu), nu + 0.5, nu + 1.0, nu + 7.0)
            assert bits(pmf(shifted, z) for z in zs) == bits(pmf(positive, z) for z in zs)
            assert bits([min_support(shifted)]) == bits([min_support(positive)]) == bits([nu])
            assert bits(_survivor_triple(shifted, s)) == bits(_survivor_triple(positive, s))

    def test_zero_modified_moves_mass_at_zero(self):
        eta, phi = 3.0, 0.05
        fam = ZeroModifiedPoisson(eta=eta, phi=phi)
        base = scipy.stats.poisson(eta)
        assert_allclose(pmf(fam, 0.0), phi * base.pmf(0), rtol=1e-14)
        scale = (1.0 - phi * base.pmf(0)) / (1.0 - base.pmf(0))
        assert_allclose(pmf(fam, 2.0), scale * base.pmf(2), rtol=1e-13)

    def test_kpoint(self):
        fam = KPoint(support=(0.0, 1.0, 2.5), probs=(0.2, 0.5, 0.3))
        assert pmf(fam, 1.0) == 0.5
        assert pmf(fam, 0.7) == 0.0


_LATTICE_SCIPY = [
    (Poisson(eta=2.0), scipy.stats.poisson(2.0)),
    (Poisson(eta=200.0), scipy.stats.poisson(200.0)),
    (NegBin(pi=0.3, nu=4.0), scipy.stats.nbinom(4.0, 0.3)),
    (NegBin(pi=0.5, nu=0.3), scipy.stats.nbinom(0.3, 0.5)),
    (Binomial(pi=0.3, n=5), scipy.stats.binom(5, 0.3)),
    (Binomial(pi=0.01, n=1000), scipy.stats.binom(1000, 0.01)),
]


class TestSupportTable:
    @pytest.mark.parametrize("tail", [1e-14, 1e-18, 1e-22])
    @pytest.mark.parametrize("fam,dist", _LATTICE_SCIPY)
    def test_truncation_point_is_minimal(self, fam, dist, tail):
        # K is the smallest point with P(Z > K) < tail: dropping the last
        # retained point would put the tail at or above the bound.
        t = support_table(fam, tail)
        k = t.z[-1]
        sf = dist.sf(k)
        assert_allclose(t.tail_mass, sf, rtol=1e-10, atol=1e-300)
        assert t.tail_mass < tail <= t.tail_mass + t.pmf[-1]
        assert np.array_equal(t.z, np.arange(k + 1))

    @pytest.mark.parametrize("tail", [1e-14, 1e-18, 1e-22])
    @pytest.mark.parametrize("fam", [
        ZeroModifiedPoisson(eta=3.0, phi=0.05),
        ZeroModifiedPoisson(eta=0.8, phi=0.0),
        ZeroModifiedPoisson(eta=2.0, phi=2.0),
        NegBinPositive(pi=0.4, nu=2),
        Shifted(inner=Poisson(eta=200.0), p=1.5),
    ])
    def test_every_lattice_family_reaches_fine_tails(self, fam, tail):
        t = support_table(fam, tail)
        assert t.tail_mass < tail <= t.tail_mass + t.pmf[-1]
        assert t.z[0] == min_support(fam)
        # Poisson(200)'s log-pmf cancels terms near 1e3, so its pmf carries
        # ~1e-13 relative error (scipy's sums to 1 - 1.1e-13 there)
        assert_allclose(math.fsum(t.pmf) + t.tail_mass, 1.0, rtol=5e-13)

    def test_zero_modified_tail_is_scaled_poisson_tail(self):
        fam = ZeroModifiedPoisson(eta=3.0, phi=0.05)
        base = scipy.stats.poisson(3.0)
        scale = (1.0 - 0.05 * base.pmf(0)) / (1.0 - base.pmf(0))
        for tail in (1e-14, 1e-18, 1e-22):
            t = support_table(fam, tail)
            assert_allclose(t.tail_mass, scale * base.sf(t.z[-1]), rtol=1e-10)
            assert_allclose(t.pmf[1:], scale * base.pmf(t.z[1:]), rtol=1e-12)

    @pytest.mark.parametrize("tail", [0.0, -1e-14, 1.0, 2.0, math.inf, math.nan])
    def test_tail_outside_unit_interval_rejected(self, tail):
        for fam in (Poisson(eta=2.0), KPoint(support=(0.0, 1.0), probs=(0.5, 0.5))):
            with pytest.raises(ParameterOutOfRange, match="tail must lie in"):
                support_table(fam, tail)


@pytest.mark.parametrize("x", [np.float64(0.5), np.array(7.25), np.linspace(0.5, 1e7, 1001),
                               np.arange(1.0, 13.0).reshape(3, 4) ** 3])
def test_lgamma_is_math_lgamma_bitwise(x):
    got = _lgamma(x)
    assert got.dtype == np.float64 and got.shape == np.shape(x)
    want = [math.lgamma(v) for v in np.ravel(x)]
    assert [float.hex(float(v)) for v in got.ravel()] == [float.hex(v) for v in want]


def test_gamma_p2_matches_high_precision_reference():
    # scipy's gammainc(2, x) is itself off by up to 5.7e-14 relative below
    # x = 0.3 (it forms x^2 as exp(2 log x)), so the reference is mpmath; the
    # closed branch (x >= 1) is also checked against scipy directly.
    mpmath.mp.dps = 50
    x = np.logspace(-300, 3, 2001)
    want = np.array([float(mpmath.gammainc(2, 0, mpmath.mpf(v), regularized=True))
                     for v in x])
    got = _gamma_p2(x)
    tiny = np.finfo(np.float64).tiny
    normal = want >= tiny
    assert_allclose(got[normal], want[normal], rtol=4e-16, atol=0.0)
    # subnormal results: within one unit of the last place
    assert np.max(np.abs(got[~normal] - want[~normal])) <= np.finfo(np.float64).smallest_subnormal
    big = x >= 1.0
    assert_allclose(got[big], scipy.special.gammainc(2.0, x[big]), rtol=4e-16, atol=0.0)


class TestAddamsClosedForm:
    """The Addams survivor triple in closed form: 1 / mean = 1 + c expm1(alpha s)
    with c = gamma / alpha, and log L its integral."""

    def test_far_times_are_fast_and_keep_their_limits(self):
        start = time.perf_counter()
        for alpha in (0.3, -0.3):
            fam = Addams(alpha=alpha, gamma=0.5)
            c = 0.5 / alpha
            for s in (800.0, 1e4):
                log_l, mean, var, slope = _survivor_triple(fam, np.asarray(s))
                assert np.isfinite(log_l) and np.isfinite(mean) and np.isfinite(var)
                assert np.isfinite(slope)
                if alpha < 0.0:
                    assert_allclose(mean, 1.0 / (1.0 - c), rtol=1e-15)
                else:
                    assert mean < 1e-100
                want = 0.5 * math.exp(alpha * s) if alpha * s < 700.0 else math.inf
                if math.isfinite(want):
                    assert_allclose(rfv_at(fam, s), want, rtol=1e-15, atol=0.0)
                else:  # the RFV itself leaves float64 range
                    with pytest.raises(NumericalOverflow):
                        rfv_at(fam, s)
                if math.exp(log_l) > 0.0:
                    l0, l1, l2 = laplace(fam, s)
                    assert l0 == math.exp(log_l) and l1 <= 0.0 <= l2
                else:  # laplace raises exactly where L underflows
                    with pytest.raises(NumericalOverflow):
                        laplace(fam, s)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_continuous_across_c_equal_one(self, alpha):
        # c = gamma / alpha = 1 +- 1e-8, against a 50-digit evaluation of
        # -(s - log1p(c expm1(alpha s)) / alpha) / (1 - c), whose division by
        # 1 - c loses eight digits in float64
        mpmath.mp.dps = 50
        s = np.array([0.0, 1e-6, 0.5, 3.0, 20.0, 100.0])
        log_one, mean_one, _, _ = _survivor_triple(Addams(alpha=alpha, gamma=alpha), s)
        assert_allclose(log_one, np.expm1(-alpha * s) / alpha, rtol=1e-15, atol=0.0)
        for gamma in (alpha * (1.0 - 1e-8), alpha * (1.0 + 1e-8)):
            log_l, mean, _, _ = _survivor_triple(Addams(alpha=alpha, gamma=gamma), s)
            c = mpmath.mpf(gamma) / mpmath.mpf(alpha)
            ref_log, ref_mean = [], []
            for si in s:
                em = mpmath.expm1(mpmath.mpf(alpha) * mpmath.mpf(si))
                ref_mean.append(float(1 / (1 + c * em)))
                ref_log.append(float(-(mpmath.mpf(si) - mpmath.log1p(c * em) / alpha)
                                     / (1 - c)))
            assert_allclose(log_l, ref_log, rtol=1e-12, atol=0.0)
            assert_allclose(mean, ref_mean, rtol=1e-12, atol=0.0)
            # and next to the c = 1 member by no more than the true gap: a
            # relative change of 1e-8 in c moves log L by at most half that
            # and the mean by at most that (mean ~ e^-(alpha s) / c late on)
            assert_allclose(log_l, log_one, rtol=5.1e-9, atol=0.0)
            assert_allclose(mean, mean_one, rtol=1.01e-8, atol=0.0)

    def test_matches_the_integrated_transform(self):
        from scipy.integrate import solve_ivp

        s = np.linspace(0.0, 8.0, 161)
        for alpha, gamma in ((0.3, 0.5), (-0.3, 0.5), (0.5, 0.5), (1.0, 0.2),
                             (-1.0, 2.0), (0.05, 3.0), (-0.05, 0.1)):
            def rhs(t, y, alpha=alpha, gamma=gamma):
                return (y[1], (1.0 + gamma * math.exp(alpha * t)) * y[1] * y[1] / y[0])

            sol = solve_ivp(rhs, (0.0, 8.0), (1.0, -1.0), method="DOP853",
                            rtol=1e-12, atol=1e-250, t_eval=s, max_step=0.1)
            log_l, mean, _, _ = _survivor_triple(Addams(alpha=alpha, gamma=gamma), s)
            assert_allclose(log_l, np.log(sol.y[0]), rtol=1e-10, atol=0.0)
            assert_allclose(mean, -sol.y[1] / sol.y[0], rtol=1e-10, atol=0.0)


class TestMoments:
    @pytest.mark.parametrize("fam,mean,var", [
        (Poisson(eta=2.0), 2.0, 2.0),
        (Binomial(pi=0.3, n=5), 1.5, 1.05),
        (NegBin(pi=0.5, nu=2.0), 2.0, 4.0),
        (GammaFrailty(mean=1.0, variance=0.5), 1.0, 0.5),
        (KPoint(support=(0.0, 1.0), probs=(0.5, 0.5)), 0.5, 0.25),
        (Shifted(inner=Poisson(eta=2.0), p=1.0), 3.0, 2.0),
    ])
    def test_closed_forms(self, fam, mean, var):
        assert_allclose(moments(fam), (mean, var), rtol=1e-12)

    def test_support_table_reproduces_moments(self):
        for fam in (Poisson(eta=2.0), NegBinPositive(pi=0.4, nu=2.0),
                    ZeroModifiedPoisson(eta=3.0, phi=0.05)):
            t = support_table(fam)
            mean = t.pmf @ t.z
            var = t.pmf @ (t.z - mean) ** 2
            assert_allclose((mean, var), moments(fam), rtol=1e-9)

    def test_min_support(self):
        assert min_support(Poisson(eta=2.0)) == 0.0
        assert min_support(NegBinPositive(pi=0.4, nu=3.0)) == 3.0
        assert min_support(Shifted(inner=Poisson(eta=2.0), p=0.7)) == 0.7
        assert min_support(KPoint(support=(0.2, 1.0), probs=(0.5, 0.5))) == 0.2


# -- transform identities, property-based ----------------------------------


def _zero_modified(eta, zero_mass):
    # phi = P(Z = 0) e^eta, so phi stays inside [0, e^eta) for zero_mass < 1
    return ZeroModifiedPoisson(eta=eta, phi=zero_mass * math.exp(eta))


families_st = st.one_of(
    st.builds(Poisson, eta=st.floats(0.05, 8.0)),
    st.builds(NegBin, pi=st.floats(0.05, 0.9), nu=st.floats(0.3, 6.0)),
    st.builds(Binomial, pi=st.floats(0.05, 0.95), n=st.integers(1, 12)),
    st.builds(NegBinPositive, pi=st.floats(0.05, 0.9), nu=st.integers(1, 5)),
    st.builds(_zero_modified, eta=st.floats(0.1, 6.0),
              zero_mass=st.floats(0.0, 0.99)),
    st.builds(Shifted, inner=st.builds(Poisson, eta=st.floats(0.1, 5.0)),
              p=st.floats(0.0, 3.0)),
    st.builds(KPoint,
              support=st.just((0.0, 0.4, 1.3)),
              probs=st.just((0.25, 0.35, 0.4))),
)


@given(families_st, st.floats(0.0, 12.0))
def test_laplace_is_completely_monotone_pointwise(fam, s):
    l0, l1, l2 = laplace(fam, s)
    assert 0.0 < l0 <= 1.0
    assert l1 <= 0.0
    assert l2 >= 0.0


@given(families_st, st.floats(0.0, 12.0))
def test_cauchy_schwarz_across_transform(fam, s):
    # E[Z^2 e]E[e] >= E[Z e]^2 for e = e^{-sZ}: the transform inequality
    # that keeps the relative frailty variance nonnegative.
    l0, l1, l2 = laplace(fam, s)
    assert l2 * l0 >= l1 * l1 * (1.0 - 1e-13)


@given(families_st)
def test_support_table_sums_to_laplace(fam):
    t = support_table(fam)
    # tail-truncated pmf pushed through e^{-sz} must reproduce L(s)
    for s in (0.0, 0.8, 2.5):
        direct = float(t.pmf @ np.exp(-s * t.z))
        assert_allclose(direct, laplace(fam, s).l0, rtol=1e-9, atol=1e-12)


@given(families_st, st.floats(0.0, 6.0), st.floats(0.01, 4.0))
@example(_zero_modified(4.0, 0.9375), 6.0, 0.015625)
def test_laplace_second_derivative_consistent(fam, s, h_scale):
    # symmetric-difference check that l1 really is dL/ds.  h spans
    # [5e-7, 2e-4]: rounding in L(s +- h) adds ~eps L / h <= 2.2e-10, under
    # atol, and the h^2 L''' / 6 truncation of the widest family drawn
    # (NegBin pi = 0.05, nu = 6, mean 114) stays under 10% of the tolerance.
    h = 5e-5 * h_scale
    lo = laplace(fam, max(s - h, 0.0))
    hi = laplace(fam, s + h)
    if s - h < 0.0:
        return
    fd = (hi.l0 - lo.l0) / (2.0 * h)
    assert_allclose(fd, laplace(fam, s).l1, rtol=5e-4, atol=1e-9)


# -- validation --------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    lambda: Poisson(eta=0.0),
    lambda: Poisson(eta=-1.0),
    lambda: NegBin(pi=1.0, nu=2.0),
    lambda: NegBin(pi=0.5, nu=0.0),
    lambda: Binomial(pi=0.5, n=0),
    lambda: GammaFrailty(mean=1.0, variance=0.0),
    lambda: Shifted(inner=Poisson(eta=1.0), p=-0.5),
    lambda: KPoint(support=(1.0, 0.5), probs=(0.5, 0.5)),
    lambda: KPoint(support=(0.0, 1.0), probs=(0.7, 0.7)),
    lambda: Addams(alpha=0.1, gamma=0.0),
])
def test_invalid_parameters_raise(bad):
    with pytest.raises((ParameterOutOfRange, DegenerateDistribution)):
        fam = bad()
        laplace(fam, 1.0)


INF = math.inf


@pytest.mark.parametrize("build", [
    lambda: NegBin(pi=0.5, nu=INF),
    lambda: Poisson(eta=INF),
    lambda: GammaFrailty(mean=INF, variance=1.0),
    lambda: GammaFrailty(mean=1.0, variance=INF),
    lambda: Shifted(inner=Poisson(eta=1.0), p=INF),
    lambda: ZeroModifiedPoisson(eta=INF, phi=0.5),
    lambda: Addams(alpha=0.1, gamma=INF),
    lambda: KPoint(support=(0.0, INF), probs=(0.5, 0.5)),
    lambda: ExponentialRate(rate=INF),
    lambda: Weibull(shape=INF, scale=1.0),
    lambda: Weibull(shape=1.0, scale=INF),
    lambda: PiecewiseConstant(breakpoints=(INF,), rates=(1.0, 2.0)),
    lambda: PiecewiseConstant(breakpoints=(1.0,), rates=(1.0, INF)),
], ids=["negbin_nu", "poisson_eta", "gamma_mean", "gamma_variance",
        "shifted_p", "zmp_eta", "addams_gamma", "kpoint_support",
        "exponential_rate", "weibull_shape", "weibull_scale",
        "piecewise_breakpoint", "piecewise_rate"])
def test_infinite_parameters_rejected(build):
    with pytest.raises(ParameterOutOfRange):
        build()


def test_zero_modified_needs_subunit_atom():
    # phi e^-eta must stay below 1 for the pmf to remain a probability
    with pytest.raises((ParameterOutOfRange, DegenerateDistribution)):
        fam = ZeroModifiedPoisson(eta=0.1, phi=1.2 * np.exp(0.1))
        laplace(fam, 1.0)


def test_dict_round_trip():
    fams = [
        Poisson(eta=2.0),
        NegBin(pi=0.5, nu=2.0),
        NegBinPositive(pi=0.4, nu=2.0),
        Binomial(pi=0.3, n=5),
        Shifted(inner=NegBin(pi=0.5, nu=2.0), p=0.4),
        ZeroModifiedPoisson(eta=3.0, phi=0.05),
        Addams(alpha=-0.3, gamma=0.5),
        KPoint(support=(0.0, 1.0), probs=(0.5, 0.5)),
        GammaFrailty(mean=1.0, variance=0.5),
    ]
    for fam in fams:
        again = family_from_dict(family_to_dict(fam))
        assert repr(again) == repr(fam)
        spec = family_to_dict(fam)
        extra = {**spec, "params": {**spec["params"], "extra": 1.0}}
        with pytest.raises(ParameterOutOfRange,
                           match=f"^family '{spec['family']}' has unknown parameter 'extra'"):
            family_from_dict(extra)
        missing = next(iter(spec["params"]))
        del spec["params"][missing]
        with pytest.raises(ParameterOutOfRange,
                           match=f"^family '{spec['family']}' is missing parameter '{missing}'$"):
            family_from_dict(spec)
    # a nested family names its own missing parameter
    with pytest.raises(ParameterOutOfRange,
                       match="^family 'poisson' is missing parameter 'eta'$"):
        family_from_dict({"family": "shifted",
                          "params": {"inner": {"family": "poisson"}, "p": 1.0}})


def test_unknown_tag_rejected():
    with pytest.raises(UnsupportedFamily, match="^unknown family tag 'zeta'; expected one of "
                       r"\['addams', 'binomial', 'gamma', "):
        family_from_dict({"family": "zeta", "params": {}})


def test_support_table_is_memoised_and_read_only():
    fam = NegBin(pi=0.3, nu=4.0)
    table = support_table(fam)
    assert support_table(fam) is table
    with pytest.raises(ValueError):
        table.z[0] = 1.0
    with pytest.raises(ValueError):
        table.pmf[0] = 0.0



def _table_bits(table):
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in table]


@pytest.mark.parametrize("fam", [Poisson(eta=1e9), NegBin(pi=1e-9, nu=1.0),
                                 Shifted(inner=Poisson(eta=1e9), p=0.5)])
def test_support_bound_raises_before_allocating(monkeypatch, fam):
    # Poisson(1e9) once asked np.arange for 7.45 GiB and ended in MemoryError
    from frailty_shapes import families

    arange = np.arange

    def bounded_arange(n, *args, **kwargs):
        assert n <= families.MAX_SUPPORT
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", bounded_arange)
    name = type(fam.inner if isinstance(fam, Shifted) else fam).__name__
    with pytest.raises(ParameterOutOfRange, match=f"{name} needs a support table of more than"):
        support_table(fam)


@pytest.mark.parametrize("bound,builds", [(53, True), (40, True), (30, False)])
def test_support_table_stops_doubling_at_the_bound(monkeypatch, bound, builds):
    # Poisson(2)'s first range is 0..26 and its doubled one 0..52, as
    # Poisson(1e7)'s are ~1.0e7 and ~2.0e7 entries against 2^24: where the
    # doubling would pass the bound it stops there, and the table is the
    # same wherever the range at the bound reaches far enough into the tail
    from frailty_shapes import families

    fam, tail = Poisson(eta=2.0), families.TAIL_MASS
    whole = families._build_support_table(fam, tail)
    monkeypatch.setattr(families, "MAX_SUPPORT", bound)
    if builds:
        assert _table_bits(families._build_support_table(fam, tail)) == _table_bits(whole)
    else:
        with pytest.raises(ParameterOutOfRange, match="more than 30 entries"):
            families._build_support_table(fam, tail)
