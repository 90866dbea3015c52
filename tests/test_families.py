"""Laplace transforms, pmfs, and moments of the frailty families.

Expected numbers were derived by hand from the transform definitions (the
short derivations are kept next to each constant) or cross-checked against
scipy.stats pmfs.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
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
    support_table,
)

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


class TestPmf:
    @pytest.mark.parametrize("fam,dist", [
        (Poisson(eta=2.0), scipy.stats.poisson(2.0)),
        (Binomial(pi=0.3, n=5), scipy.stats.binom(5, 0.3)),
        (NegBin(pi=0.5, nu=2.0), scipy.stats.nbinom(2.0, 0.5)),
    ])
    def test_matches_scipy(self, fam, dist):
        z = np.arange(8)
        ours = np.array([pmf(fam, float(k)) for k in z])
        assert_allclose(ours, dist.pmf(z), rtol=1e-12)

    def test_positive_negbin_sits_on_shifted_support(self):
        # Z - nu is negative binomial with success probability pi, so the
        # smallest value nu carries mass pi^nu and the family never hits 0.
        fam = NegBinPositive(pi=0.4, nu=2.0)
        base = scipy.stats.nbinom(2.0, 0.4)
        for k in (0, 1, 5):
            assert_allclose(pmf(fam, float(2 + k)), base.pmf(k), rtol=1e-12)
        assert pmf(fam, 1.0) == 0.0  # support starts at nu

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
def test_laplace_second_derivative_consistent(fam, s, h_scale):
    # symmetric-difference check that l1 really is dL/ds
    h = 1e-6 * h_scale
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


def test_unknown_tag_rejected():
    with pytest.raises(UnsupportedFamily):
        family_from_dict({"family": "zeta", "params": {}})
