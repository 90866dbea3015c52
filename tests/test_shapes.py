import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frailty_shapes as fs
from frailty_shapes.shapes import (
    KPOINT_EXAMPLES,
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
    family at 50 digits, each moment summed about the mean."""
    mpmath.mp.dps = 50
    z = [mpmath.mpf(v) for v in fam.support]
    w = [mpmath.mpf(p) * mpmath.exp(-zk * mpmath.mpf(float(lam)))
         for zk, p in zip(z, fam.probs)]
    norm = mpmath.fsum(w)
    mean = mpmath.fsum(zk * wk for zk, wk in zip(z, w)) / norm
    var = mpmath.fsum((zk - mean) ** 2 * wk for zk, wk in zip(z, w)) / norm
    k3 = mpmath.fsum((zk - mean) ** 3 * wk for zk, wk in zip(z, w)) / norm
    return mean, var, k3, var / mean**2


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

    @pytest.mark.parametrize("name", sorted(KPOINT_EXAMPLES))
    def test_kpoint_derivative_matches_high_precision(self, name):
        # RFV' = (2 Var^2 - k3 mean) / mean^3; near a root the two terms
        # cancel, so the error is measured against their size
        fam = KPOINT_EXAMPLES[name]
        lam = np.concatenate((np.linspace(0.0, 60.0, 121), [37.578, 38.533, 300.0]))
        got = rfv_derivative(fam, lam)
        for x, g in zip(lam, got):
            mean, var, k3, _ = _mp_survivor_moments(fam, x)
            ref = (2 * var**2 - k3 * mean) / mean**3
            size = abs(2 * var**2 / mean**3) + abs(k3 / mean**2)
            assert abs(g - float(ref)) <= 1e-13 * float(size)


class TestStationaryPoints:
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


wide_families = st.one_of(
    st.builds(fs.Poisson, eta=st.floats(1e-3, 1e4)),
    st.builds(fs.NegBin, pi=st.floats(0.01, 0.99), nu=st.floats(0.1, 1e3)),
    st.builds(fs.Binomial, pi=st.floats(0.01, 0.99), n=st.integers(1, 1000)),
    st.builds(fs.Shifted, inner=st.builds(fs.Poisson, eta=st.floats(1e-3, 1e4)),
              p=st.floats(0.0, 50.0)),
    st.builds(fs.NegBinPositive, pi=st.floats(0.01, 0.99), nu=st.integers(1, 100)),
    st.builds(_zero_modified, eta=st.floats(1e-3, 700.0), zero_mass=st.floats(0.0, 0.99)),
    st.builds(_kpoint,
              # gaps below ~1e-154 make the survivor variance underflow, which
              # breaks every route alike (rfv_at 0, the closed form -1 for an
              # RFV of 1), so support points start at 1e-150
              support=st.lists(st.floats(1e-150, 5.0), min_size=5, max_size=5, unique=True),
              weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
              with_zero=st.booleans()),
)


@settings(max_examples=200)
@given(wide_families, st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=20))
def test_laplace_route_matches_closed_form_wherever_it_is_finite(fam, lams):
    # One-directional on purpose: the closed forms that start from e^lam
    # overflow past lam ~ 709.8 even where the RFV itself fits in float64.
    for lam in [0.0, 1000.0] + lams:
        try:
            ref = rfv_closed_at(fam, lam)
        except fs.NumericalOverflow:
            ref = None
        try:
            got = rfv_at(fam, lam)
        except fs.NumericalOverflow:
            assert ref is None, f"rfv_at raised at lam={lam} where the closed form is {ref}"
            continue
        if ref is not None:
            assert abs(got - ref) <= 1e-9 * abs(ref) + 1e-12, (lam, got, ref)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, []],
                         ids=["nan", "inf", "negative", "empty"])
@pytest.mark.parametrize("name", sorted(GENERIC_TIME_EVALUATORS))
def test_generic_time_must_be_finite_nonnegative_nonempty(name, bad):
    with pytest.raises(fs.ParameterOutOfRange):
        GENERIC_TIME_EVALUATORS[name](bad)
