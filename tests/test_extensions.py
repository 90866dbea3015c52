import numpy as np
import pytest
from numpy.testing import assert_allclose

import frailty_shapes as fs
from frailty_shapes.extensions import (
    ConstantFloor,
    CorrelatedPoissonModel,
    CouplingTable,
    ExpFull,
    ExpHalf,
    ExpHalfSine,
    PiecewiseFrailtyModel,
    TimeVaryingShift,
    piecewise_rfv,
    piecewise_survivor_pmf,
    piecewise_tail,
    shift_from_dict,
    shift_to_dict,
    timevarying_shift_rfv,
)
from frailty_shapes.families import support_table
from frailty_shapes.oracle import rfv as oracle_rfv

EXP1 = fs.ExponentialRate(rate=1.0)
LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# correlated Poisson mixture
# ---------------------------------------------------------------------------


def gamma_model(etas=(1.0, 2.0)):
    return CorrelatedPoissonModel(etas=etas,
                                  w_dist=fs.GammaFrailty(mean=1.0, variance=0.5),
                                  hazards=tuple(EXP1 for _ in etas))


class TestCorrelatedModel:
    def test_d_runs_from_zero_to_eta_total(self):
        m = gamma_model()
        assert m.d_of_t((0.0, 0.0)) == 0.0
        # exponential clock at t=ln2 leaves half the conditional intensity
        assert_allclose(m.d_of_t((LN2, LN2)), 0.5 + 1.0, rtol=1e-14)
        assert_allclose(m.d_of_t((40.0, 40.0)), 3.0, rtol=1e-10)

    def test_gamma_mixture_has_flat_cross_ratio(self):
        m = gamma_model()
        d = np.linspace(0.0, 3.0, 31)
        assert_allclose(m.crf_of_d(d), 1.5, rtol=1e-13)
        assert_allclose(m.correlated_crf((0.7, 1.3)), 1.5, rtol=1e-13)

    def test_discrete_mixture_follows_its_own_rfv(self):
        w = fs.Poisson(eta=2.0)
        m = CorrelatedPoissonModel(etas=(1.0, 2.0), w_dist=w,
                                   hazards=(EXP1, EXP1))
        # the d clock plays the role of generic time for the mixing variable
        assert_allclose(m.crf_of_d(1.0), 1.0 + np.e / 2.0, rtol=1e-12)

    def test_correlation_value_and_symmetry(self):
        m = gamma_model()
        want = 0.5 * np.sqrt(2.0) / np.sqrt(1.5 * 2.0)  # = 1/sqrt(6)
        assert_allclose(m.frailty_correlation(0, 1), want, rtol=1e-14)
        assert m.frailty_correlation(0, 1) == m.frailty_correlation(1, 0)

    def test_correlation_bounds_and_errors(self):
        m = gamma_model((1.0, 2.0, 4.0))
        for j, k in ((0, 1), (0, 2), (1, 2)):
            assert 0.0 < m.frailty_correlation(j, k) < 1.0
        with pytest.raises(fs.ParameterOutOfRange):
            m.frailty_correlation(0, 0)
        with pytest.raises((fs.ParameterOutOfRange, IndexError)):
            m.frailty_correlation(0, 9)

    def test_sample_moments(self):
        m = gamma_model()
        z = m.sample(200_000, seed=424242)
        assert z.shape == (200_000, 2)
        # E[Z_j] = eta_j, Var(Z_j) = eta_j + eta_j^2 Var(W)
        assert_allclose(z.mean(axis=0), (1.0, 2.0), atol=0.02)
        assert_allclose(z.var(axis=0), (1.5, 4.0), rtol=0.03)
        got = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(got - 1.0 / np.sqrt(6.0)) < 4 * (1 - 1.0 / 6.0) / np.sqrt(200_000)

    def test_sample_reproducible(self):
        m = gamma_model()
        assert np.array_equal(m.sample(100, seed=5), m.sample(100, seed=5))

    def test_joint_survival_decreases(self):
        m = gamma_model()
        values = [m.joint_survival((t, t)) for t in (0.0, 0.5, 1.0, 2.0)]
        assert values[0] == 1.0
        assert np.all(np.diff(values) < 0.0)

    def test_validation(self):
        with pytest.raises(fs.LengthMismatch):
            CorrelatedPoissonModel(etas=(1.0,), w_dist=fs.Poisson(eta=1.0),
                                   hazards=(EXP1,))
        with pytest.raises(fs.LengthMismatch):
            CorrelatedPoissonModel(etas=(1.0, 2.0), w_dist=fs.Poisson(eta=1.0),
                                   hazards=(EXP1,))
        with pytest.raises(fs.ParameterOutOfRange):
            CorrelatedPoissonModel(etas=(1.0, -2.0), w_dist=fs.Poisson(eta=1.0),
                                   hazards=(EXP1, EXP1))


# ---------------------------------------------------------------------------
# piecewise-in-time frailty
# ---------------------------------------------------------------------------


POISSON2 = fs.Poisson(eta=2.0)
NEGBIN = fs.NegBin(pi=0.5, nu=2.0)


class TestPiecewiseModel:
    def test_single_segment_is_the_plain_model(self):
        model = PiecewiseFrailtyModel(cutpoints=(), segment_families=(POISSON2,),
                                      hazards=(EXP1,))
        for t in (0.0, 0.8, 2.1):
            lam = float(EXP1.cumulative(t))
            assert_allclose(piecewise_rfv(model, (t,)),
                            float(oracle_rfv(POISSON2, lam)), rtol=1e-11)

    def test_independent_coupling_forgets_the_past(self):
        model = PiecewiseFrailtyModel(cutpoints=(0.5,),
                                      segment_families=(NEGBIN, POISSON2),
                                      hazards=(EXP1,))
        t = 1.7
        lam_final = float(EXP1.cumulative(t) - EXP1.cumulative(0.5))
        assert_allclose(piecewise_rfv(model, (t,)),
                        float(oracle_rfv(POISSON2, lam_final)), rtol=1e-11)

    def test_identical_coupling_accrues_the_full_load(self):
        model = PiecewiseFrailtyModel(cutpoints=(0.5,),
                                      segment_families=(POISSON2, POISSON2),
                                      hazards=(EXP1,), joint_coupling="identical")
        t = 1.7
        lam = float(EXP1.cumulative(t))
        assert_allclose(piecewise_rfv(model, (t,)),
                        float(oracle_rfv(POISSON2, lam)), rtol=1e-11)

    def test_identical_coupling_requires_matching_families(self):
        with pytest.raises(fs.DegenerateDistribution):
            PiecewiseFrailtyModel(cutpoints=(0.5,),
                                  segment_families=(NEGBIN, POISSON2),
                                  hazards=(EXP1,), joint_coupling="identical")

    def test_multiple_targets_pool_their_loads(self):
        model = PiecewiseFrailtyModel(cutpoints=(0.5,),
                                      segment_families=(NEGBIN, POISSON2),
                                      hazards=(EXP1, fs.ExponentialRate(rate=2.0)))
        t = (1.7, 0.9)
        lam_final = float(EXP1.cumulative(1.7) - EXP1.cumulative(0.5)) \
            + float(2.0 * (0.9 - 0.5))
        assert_allclose(piecewise_rfv(model, t),
                        float(oracle_rfv(POISSON2, lam_final)), rtol=1e-11)

    def test_time_before_final_segment(self):
        model = PiecewiseFrailtyModel(cutpoints=(0.5,),
                                      segment_families=(NEGBIN, POISSON2),
                                      hazards=(EXP1,))
        with pytest.raises(fs.TimeBeforeFinalSegment):
            piecewise_rfv(model, (0.3,))

    def test_survivor_pmf_is_a_distribution(self):
        model = PiecewiseFrailtyModel(cutpoints=(0.5,),
                                      segment_families=(NEGBIN, POISSON2),
                                      hazards=(EXP1,))
        g = piecewise_survivor_pmf(model, (1.2,))
        assert_allclose(g.probs.sum(), 1.0, rtol=1e-13)
        assert np.all(g.probs > 0.0)

    def test_tail_follows_final_segment(self):
        up = PiecewiseFrailtyModel(cutpoints=(0.5,),
                                   segment_families=(NEGBIN, POISSON2),
                                   hazards=(EXP1,))
        down = PiecewiseFrailtyModel(
            cutpoints=(0.5,),
            segment_families=(POISSON2, fs.NegBinPositive(pi=0.4, nu=2.0)),
            hazards=(EXP1,))
        assert piecewise_tail(up) is fs.TailClass.INCREASING_TO_INFINITY
        assert piecewise_tail(down) is fs.TailClass.DECREASING_TO_ZERO


class TestCouplingTable:
    @staticmethod
    def _independent_table(first, final):
        ta, tb = support_table(first), support_table(final)
        # every column of the conditional equals the first segment's marginal
        return CouplingTable(conditional=np.tile(ta.pmf[:, None],
                                                 (1, tb.z.shape[0])))

    def test_independent_table_matches_string_coupling(self):
        first = fs.KPoint(support=(0.0, 1.0, 2.0), probs=(0.25, 0.5, 0.25))
        final = fs.KPoint(support=(0.5, 1.5), probs=(0.4, 0.6))
        hz = (EXP1,)
        by_table = PiecewiseFrailtyModel(
            cutpoints=(0.5,), segment_families=(first, final), hazards=hz,
            joint_coupling=self._independent_table(first, final))
        by_name = PiecewiseFrailtyModel(
            cutpoints=(0.5,), segment_families=(first, final), hazards=hz)
        for t in (0.5, 1.0, 2.5):
            assert_allclose(piecewise_rfv(by_table, (t,)),
                            piecewise_rfv(by_name, (t,)), rtol=1e-12)

    def test_identity_table_matches_identical_coupling(self):
        fam = fs.KPoint(support=(0.5, 1.5, 2.5), probs=(0.3, 0.4, 0.3))
        hz = (EXP1,)
        by_table = PiecewiseFrailtyModel(
            cutpoints=(0.5,), segment_families=(fam, fam), hazards=hz,
            joint_coupling=CouplingTable(conditional=np.eye(3)))
        by_name = PiecewiseFrailtyModel(
            cutpoints=(0.5,), segment_families=(fam, fam), hazards=hz,
            joint_coupling="identical")
        for t in (0.5, 1.2, 3.0):
            assert_allclose(piecewise_rfv(by_table, (t,)),
                            piecewise_rfv(by_name, (t,)), rtol=1e-12)
        # three segments, each carrying the one draw: every load counts
        diagonal = np.zeros((3, 3, 3))
        diagonal[range(3), range(3), range(3)] = 1.0
        by_table = PiecewiseFrailtyModel(
            cutpoints=(0.5, 1.2), segment_families=(fam, fam, fam), hazards=hz,
            joint_coupling=CouplingTable(conditional=diagonal))
        by_name = PiecewiseFrailtyModel(
            cutpoints=(0.5, 1.2), segment_families=(fam, fam, fam), hazards=hz,
            joint_coupling="identical")
        times = np.array([[1.2], [2.0], [4.0]])
        assert_allclose(piecewise_rfv(by_table, times), piecewise_rfv(by_name, times),
                        rtol=1e-12)

    def test_coupling_changes_the_answer(self):
        # anti-diagonal pairing couples a small early frailty to a large
        # late one: survivors of a harsh first segment then look frailer
        fam = fs.KPoint(support=(0.5, 1.5), probs=(0.5, 0.5))
        hz = (EXP1,)
        flipped = PiecewiseFrailtyModel(
            cutpoints=(1.0,), segment_families=(fam, fam), hazards=hz,
            joint_coupling=CouplingTable(conditional=np.array([[0.0, 1.0],
                                                               [1.0, 0.0]])))
        independent = PiecewiseFrailtyModel(
            cutpoints=(1.0,), segment_families=(fam, fam), hazards=hz)
        t = (2.0,)
        assert abs(piecewise_rfv(flipped, t) - piecewise_rfv(independent, t)) > 1e-3

    def test_column_sums_validated(self):
        with pytest.raises(fs.DegenerateDistribution):
            CouplingTable(conditional=np.array([[0.5, 0.2], [0.4, 0.8]]))
        with pytest.raises(fs.ParameterOutOfRange):
            CouplingTable(conditional=np.array([[-0.2, 0.0], [1.2, 1.0]]))

    def test_shape_validated_against_supports(self):
        fam = fs.KPoint(support=(0.5, 1.5), probs=(0.5, 0.5))
        with pytest.raises(fs.LengthMismatch):
            PiecewiseFrailtyModel(
                cutpoints=(0.5,), segment_families=(fam, fam), hazards=(EXP1,),
                joint_coupling=CouplingTable(conditional=np.eye(3)))

    def test_degenerate_conditional_raises(self):
        # every final value pairs only with an early value whose survival
        # weight underflows to zero: no conditional mass is left
        fam = fs.KPoint(support=(0.0, 40.0), probs=(0.5, 0.5))
        final = fs.KPoint(support=(0.0, 1.0), probs=(0.5, 0.5))
        table = CouplingTable(conditional=np.array([[0.0, 0.0], [1.0, 1.0]]))
        model = PiecewiseFrailtyModel(cutpoints=(30.0,),
                                      segment_families=(fam, final),
                                      hazards=(EXP1,), joint_coupling=table)
        with pytest.raises(fs.DegenerateConditional):
            piecewise_rfv(model, (31.0,))


# ---------------------------------------------------------------------------
# time-varying shift
# ---------------------------------------------------------------------------


class TestTimeVaryingShift:
    def test_half_rate_decay_closed_form(self):
        eta = 4.0
        model = TimeVaryingShift(inner=fs.Poisson(eta=eta),
                                 shift_fn=ExpHalf(eta=eta))
        lam = np.linspace(0.0, 30.0, 61)
        want = 1.0 / (eta * (1.0 + np.exp(-lam / 2.0)) ** 2)
        assert_allclose(timevarying_shift_rfv(model, lam), want, rtol=1e-12)
        # quarter of the plateau at the start, full plateau in the limit
        assert_allclose(timevarying_shift_rfv(model, 0.0), 1.0 / (4.0 * eta),
                        rtol=1e-14)

    def test_oscillating_shift_never_settles(self):
        eta = 4.0
        model = TimeVaryingShift(inner=fs.Poisson(eta=eta),
                                 shift_fn=ExpHalfSine(eta=eta))
        lam = np.arange(5.0, 40.0, 0.01)
        got = np.asarray(timevarying_shift_rfv(model, lam))
        want = 1.0 / (eta * (np.exp(-lam / 2.0) + 2.0 + np.sin(lam)) ** 2)
        assert_allclose(got, want, rtol=1e-11)
        assert got.max() - got.min() > 0.05 / eta
        assert got.max() < 1.0 / eta

    def test_full_rate_decay_blows_up(self):
        model = TimeVaryingShift(inner=fs.Poisson(eta=4.0),
                                 shift_fn=ExpFull(eta=4.0))
        lam = np.array([0.0, 10.0, 20.0, 40.0])
        got = np.asarray(timevarying_shift_rfv(model, lam))
        assert_allclose(got, np.exp(lam) / 16.0, rtol=1e-10)

    def test_constant_floor_kills_the_variance(self):
        model = TimeVaryingShift(inner=fs.Poisson(eta=4.0),
                                 shift_fn=ConstantFloor(p0=0.5))
        assert timevarying_shift_rfv(model, 40.0) < 1e-8

    def test_constant_floor_is_the_static_shift(self):
        model = TimeVaryingShift(inner=fs.Poisson(eta=2.0),
                                 shift_fn=ConstantFloor(p0=0.7))
        static = fs.Shifted(inner=fs.Poisson(eta=2.0), p=0.7)
        lam = np.linspace(0.0, 5.0, 11)
        assert_allclose(timevarying_shift_rfv(model, lam),
                        np.asarray(fs.rfv_at(static, lam)), rtol=1e-11)

    def test_floor_must_be_positive(self):
        with pytest.raises(fs.ParameterOutOfRange):
            ConstantFloor(p0=0.0)

    def test_matches_static_shift_where_they_cross(self):
        # freezing the path at its value p(L) must reproduce the static
        # shifted family evaluated at the same generic time
        eta, lam = 3.0, 1.3
        p = ExpHalf(eta=eta).value(lam)
        moving = TimeVaryingShift(inner=fs.Poisson(eta=eta),
                                  shift_fn=ExpHalf(eta=eta))
        frozen = fs.Shifted(inner=fs.Poisson(eta=eta), p=p)
        assert_allclose(timevarying_shift_rfv(moving, lam),
                        float(fs.rfv_at(frozen, lam)), rtol=1e-12)

    def test_vanishing_mean_and_overflow_name_the_first_point(self):
        full = TimeVaryingShift(inner=fs.Poisson(eta=4.0), shift_fn=ExpFull(eta=4.0))
        with pytest.raises(fs.DivisionNearZero,
                           match=r"vanishes at 2 of 4 points, first lambda=800\.0$"):
            timevarying_shift_rfv(full, [0.0, 10.0, 800.0, 900.0])
        # the floor holds the shifted mean at 0.5 while the variance vanishes
        floor = TimeVaryingShift(inner=fs.Poisson(eta=4.0),
                                 shift_fn=ConstantFloor(p0=0.5))
        assert timevarying_shift_rfv(floor, 800.0) == 0.0
        # variance 1e100 over a shifted mean of 1e-200 leaves float64 range
        wide = TimeVaryingShift(inner=fs.GammaFrailty(mean=1e-200, variance=1e100),
                                shift_fn=ConstantFloor(p0=1e-250))
        with pytest.raises(fs.NumericalOverflow,
                           match=r"at 2 of 3 points, first lambda=0\.0$"):
            timevarying_shift_rfv(wide, [0.0, 1e-300, 1.0])

    def test_shift_dict_round_trip(self):
        for fn in (ExpHalf(eta=4.0), ExpHalfSine(eta=4.0), ExpFull(eta=4.0),
                   ConstantFloor(p0=0.5)):
            again = shift_from_dict(shift_to_dict(fn))
            assert repr(again) == repr(fn)
            spec = {**shift_to_dict(fn), "period": 3.0}  # ignored
            assert shift_from_dict(spec) == fn
            (field,) = set(spec) - {"shift", "period"}
            del spec[field]
            with pytest.raises(fs.ParameterOutOfRange,
                               match=f"^shift '{spec['shift']}' is missing "
                                     f"parameter '{field}'$"):
                shift_from_dict(spec)
        with pytest.raises(fs.ParameterOutOfRange,
                           match="^malformed shift spec: 'exp_half'$"):
            shift_from_dict("exp_half")

    def test_unknown_shift_tag(self):
        with pytest.raises(fs.UnsupportedFamily, match="^unknown shift tag 'linear'$"):
            shift_from_dict({"shift": "linear", "slope": 1.0})


# ---------------------------------------------------------------------------
# grid and scalar forms of the extension evaluators
# ---------------------------------------------------------------------------


def _mixed(w_dist):
    return CorrelatedPoissonModel(etas=(1.0, 2.0), w_dist=w_dist, hazards=(EXP1, EXP1))


def _piecewise(coupling):
    first = fs.KPoint(support=(0.0, 1.0, 2.0), probs=(0.25, 0.5, 0.25))
    final = fs.KPoint(support=(0.5, 1.5), probs=(0.4, 0.6))
    if coupling == "identical":
        first = final
    elif coupling == "table":
        coupling = CouplingTable(conditional=np.array([[0.1, 0.5], [0.6, 0.2],
                                                       [0.3, 0.3]]))
    return PiecewiseFrailtyModel(cutpoints=(0.5,), segment_families=(first, final),
                                 hazards=(fs.PiecewiseConstant(breakpoints=(1.0,),
                                                               rates=(0.5, 1.5)),
                                          fs.Weibull(shape=1.5, scale=1.0)),
                                 joint_coupling=coupling)


_D_GRID = np.linspace(0.0, 3.0, 41)
_LAMBDA_GRID = np.linspace(0.0, 30.0, 61)
#: (n, J) times past the cutpoint, targets apart
_TIMES = np.column_stack((np.linspace(0.5, 6.0, 23), np.linspace(0.7, 3.0, 23)))

#: name -> (grid or matrix of times, evaluator of one model)
GRID_EVALUATORS = {
    "crf_of_d-kpoint": (_D_GRID, _mixed(fs.KPoint(support=(0.5, 1.5),
                                                  probs=(0.5, 0.5))).crf_of_d),
    "crf_of_d-gamma": (_D_GRID, _mixed(fs.GammaFrailty(mean=1.0, variance=0.5)).crf_of_d),
    "crf_of_d-addams": (_D_GRID, _mixed(fs.Addams(alpha=-0.3, gamma=0.5)).crf_of_d),
    **{f"timevarying-{type(fn).__name__}": (
        _LAMBDA_GRID,
        lambda lam, fn=fn: timevarying_shift_rfv(
            TimeVaryingShift(inner=fs.Poisson(eta=4.0), shift_fn=fn), lam))
       for fn in (ExpHalf(eta=4.0), ExpHalfSine(eta=4.0), ExpFull(eta=4.0),
                  ConstantFloor(p0=0.5))},
    **{f"piecewise-{coupling}": (
        _TIMES, lambda t, model=_piecewise(coupling): piecewise_rfv(model, t))
       for coupling in ("independent", "identical", "table")},
}


@pytest.mark.parametrize("name", sorted(GRID_EVALUATORS))
def test_grid_matches_pointwise(name):
    grid, evaluate = GRID_EVALUATORS[name]
    got = evaluate(grid)
    assert got.shape == (len(grid),)
    want = np.array([evaluate(point) for point in grid])
    assert np.all(np.abs(got - want) <= 2e-15 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("name", sorted(GRID_EVALUATORS))
def test_scalar_in_scalar_out(name):
    grid, evaluate = GRID_EVALUATORS[name]
    assert np.ndim(evaluate(grid[1])) == 0


def test_shift_paths_take_arrays():
    lam = np.linspace(0.0, 5.0, 7)
    for fn in (ExpHalf(eta=4.0), ExpHalfSine(eta=4.0), ExpFull(eta=4.0),
               ConstantFloor(p0=0.5)):
        values = fn.value(lam)
        assert values.shape == lam.shape
        assert_allclose(values, [fn.value(float(x)) for x in lam], rtol=1e-15)
