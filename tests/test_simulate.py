"""Monte Carlo machinery: sampling, selection estimates, serialization.

Stochastic assertions use fixed seeds with 4-sigma tolerances computed from
the relevant binomial or bootstrap standard errors, so they are deterministic
in practice and loose enough to survive implementation-neutral reseeding.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frailty_shapes as fs
from frailty_shapes.simulate import (
    SimConfig,
    empirical_crf,
    empirical_rfv,
    population_survival,
    samples_to_csv,
    simulate,
    simulation_summary,
)

POISSON2 = fs.Poisson(eta=2.0)
EXP1 = fs.ExponentialRate(rate=1.0)


@pytest.fixture(scope="module")
def poisson_samples():
    return simulate(SimConfig(family=POISSON2, hazards=(EXP1,),
                              n_clusters=100_000, seed=202603))


def _cfg(**kw):
    base = dict(family=POISSON2, hazards=(EXP1,), n_clusters=1000, seed=11)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(fs.LengthMismatch):
            _cfg(hazards=())
        with pytest.raises(fs.ParameterOutOfRange):
            _cfg(n_clusters=0)
        with pytest.raises(fs.ParameterOutOfRange):
            _cfg(censor_time=0.0)

    def test_continuous_mixing_rejected(self):
        with pytest.raises(fs.UnsupportedFamily):
            simulate(_cfg(family=fs.GammaFrailty(mean=1.0, variance=0.5)))


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = simulate(_cfg(seed=123))
        b = simulate(_cfg(seed=123))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.codes, b.codes)

    def test_different_seed_different_draws(self):
        a = simulate(_cfg(seed=123))
        b = simulate(_cfg(seed=124))
        assert not np.array_equal(a.times, b.times)


class TestSampleSet:
    def test_sequence_protocol(self):
        s = simulate(_cfg(n_clusters=50))
        assert len(s) == 50
        first = s[0]
        assert first.z == s.z[0]
        assert first.times == tuple(s.times[0])
        with pytest.raises(TypeError):
            s[0:3]

    def test_cured_clusters_never_fire(self):
        s = simulate(_cfg(n_clusters=5000, seed=5))
        cured = s.z == 0.0
        assert cured.any()
        assert np.all(np.isposinf(s.times[cured]))
        assert np.all(np.isfinite(s.times[~cured]))

    def test_n_at_risk_matches_manual_count(self):
        s = simulate(_cfg(n_clusters=2000, seed=9, hazards=(EXP1, EXP1)))
        t = np.array([0.4, 0.9])
        manual = int(((s.times[:, 0] > 0.4) & (s.times[:, 1] > 0.9)).sum())
        assert s.n_at_risk(t) == manual


class TestAgainstTheory:
    def test_cure_fraction(self, poisson_samples):
        p = np.exp(-2.0)
        se = np.sqrt(p * (1 - p) / len(poisson_samples))
        assert abs(poisson_samples.cure_fraction() - p) < 4 * se

    def test_population_survival_is_the_transform(self, poisson_samples):
        for t in (0.5, 1.0, 2.0):
            lam = float(EXP1.cumulative(t))
            want = fs.laplace(POISSON2, lam).l0
            got = population_survival(poisson_samples, (t,))
            assert abs(got.estimate - want) < 4 * got.std_error

    def test_empirical_rfv_tracks_closed_form(self, poisson_samples):
        for t in (0.0, 0.7, 1.4):
            lam = float(EXP1.cumulative(t))
            want = float(fs.rfv_at(POISSON2, lam))
            got = empirical_rfv(poisson_samples, (t,))
            assert abs(got.estimate - want) < 4 * got.std_error
            assert got.n_at_risk > 1000

    def test_weibull_clock_changes_nothing_in_generic_time(self):
        # the same generic time reached through a Weibull clock must give
        # the same selection effect
        wb = fs.Weibull(shape=2.0, scale=1.0)
        s = simulate(SimConfig(family=POISSON2, hazards=(wb,),
                               n_clusters=100_000, seed=31))
        t = 1.1
        lam = float(wb.cumulative(t))
        got = empirical_rfv(s, (t,))
        assert abs(got.estimate - float(fs.rfv_at(POISSON2, lam))) < 4 * got.std_error

    def test_empirical_crf_near_three_for_two_point_family(self):
        kp = fs.KPoint(support=(0.0, 1.0), probs=(0.5, 0.5))
        cfg = SimConfig(family=kp, hazards=(EXP1, EXP1), n_clusters=150_000,
                        seed=77)
        s = simulate(cfg)
        t = (np.log(2.0) / 2.0, np.log(2.0) / 2.0)
        got = empirical_crf(s, t, 0, 1, window=0.05)
        assert abs(got.estimate - 3.0) < 4 * got.std_error

    def test_near_degenerate_frailty_has_unit_cross_ratio(self):
        # an (almost) deterministic Z induces no association between targets
        kp = fs.KPoint(support=(1.0, 1.0 + 1e-9), probs=(0.5, 0.5))
        cfg = SimConfig(family=kp, hazards=(EXP1, EXP1), n_clusters=80_000,
                        seed=13)
        s = simulate(cfg)
        got = empirical_crf(s, (0.3, 0.3), 0, 1, window=0.05)
        assert abs(got.estimate - 1.0) < 4 * got.std_error
        rfv = empirical_rfv(s, (0.3, 0.3))
        assert rfv.estimate < 1e-12


class TestEstimatorGuards:
    def test_too_few_at_risk(self):
        # min support 2 => no cured mass, so a late risk set genuinely empties
        nb = fs.NegBinPositive(pi=0.4, nu=2.0)
        s = simulate(_cfg(family=nb, n_clusters=500, seed=3))
        with pytest.raises(fs.TooFewAtRisk):
            empirical_rfv(s, (50.0,))

    def test_all_cured_risk_set_is_degenerate(self):
        # with Poisson mixing the late risk set is all cured clusters (z = 0),
        # where Var/mean^2 stops making sense
        s = simulate(_cfg(n_clusters=2000, seed=3))
        with pytest.raises(fs.DegenerateConditional):
            empirical_rfv(s, (50.0,))

    def test_empty_window(self):
        s = simulate(_cfg(n_clusters=5000, seed=3, hazards=(EXP1, EXP1)))
        with pytest.raises(fs.EmptyWindow):
            empirical_crf(s, (0.5, 0.5), 0, 1, window=1e-12)

    def test_bad_target_indices(self):
        s = simulate(_cfg(n_clusters=100, hazards=(EXP1, EXP1)))
        with pytest.raises((fs.ParameterOutOfRange, fs.LengthMismatch, IndexError)):
            empirical_crf(s, (0.5, 0.5), 0, 5, window=0.05)


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        s = simulate(_cfg(n_clusters=40, seed=21, hazards=(EXP1, EXP1)))
        path = tmp_path / "samples.csv"
        samples_to_csv(s, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "cluster_id,z,t_1,t_2,censored"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[-1] in {"0", "1"}

    def test_censoring_clips_times(self, tmp_path):
        s = simulate(_cfg(n_clusters=500, seed=21, censor_time=0.8))
        path = tmp_path / "samples.csv"
        samples_to_csv(s, path)
        body = path.read_text().strip().split("\n")[1:]
        cols = np.array([row.split(",") for row in body])
        times = cols[:, 2].astype(float)
        flags = cols[:, 3].astype(int)
        assert times.max() <= 0.8
        # a censored row is exactly one whose latent time crossed the cutoff
        assert np.array_equal(flags == 1, times == 0.8)
        assert flags.sum() == int((s.times[:, 0] > 0.8).sum())

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        samples_to_csv(simulate(_cfg(seed=8)), a)
        samples_to_csv(simulate(_cfg(seed=8)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_payload(self):
        s = simulate(_cfg(n_clusters=300, seed=2))
        out = simulation_summary(s, [[0.5], [1.0]])
        assert out["n_clusters"] == 300
        assert out["family"]["family"] == "poisson"
        assert [row["t"] for row in out["at_risk"]] == [[0.5], [1.0]]
        assert all(0 <= row["n"] <= 300 for row in out["at_risk"])
