"""Monte Carlo machinery: sampling, selection estimates, serialization.

Stochastic assertions use fixed seeds with 4-sigma tolerances computed from
the relevant binomial or bootstrap standard errors, so they are deterministic
in practice and loose enough to survive implementation-neutral reseeding.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frailty_shapes as fs
from frailty_shapes import _io, _kernels
from frailty_shapes.cli import main
from frailty_shapes.families import support_table
from frailty_shapes.simulate import (
    SimConfig,
    _chunks,
    _crf_estimate,
    _draw,
    _philox,
    _rfv_estimate,
    _tally,
    _write_simulation,
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


B = _io._BLOCK_ROWS
PIECEWISE = fs.PiecewiseConstant(breakpoints=(0.5, 2.0), rates=(0.5, 1.5, 0.8))


def _one_shot(cfg):
    """The draw as one (n, J + 1) uniform matrix, the reference for the chunks."""
    table = support_table(cfg.family)
    u = _philox(cfg.seed, 0).random((cfg.n_clusters, len(cfg.hazards) + 1))
    codes = np.searchsorted(np.cumsum(table.pmf), u[:, 0], side="right")
    codes = np.minimum(codes, table.z.shape[0] - 1)
    z = table.z[codes]
    cured = z == 0.0
    times = np.empty((cfg.n_clusters, len(cfg.hazards)))
    with np.errstate(divide="ignore"):
        for q, hazard in enumerate(cfg.hazards):
            target = np.where(cured, np.inf,
                              -np.log1p(-u[:, q + 1]) / np.where(cured, 1.0, z))
            times[:, q] = hazard.inverse_cumulative(target)
    return codes, times


class TestChunkedDraws:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("hazards", [(EXP1,), (EXP1, PIECEWISE)], ids=["J1", "J2"])
    @pytest.mark.parametrize("family", [POISSON2, fs.KPoint(support=(0.5, 1.5), probs=(0.3, 0.7))],
                             ids=["cured", "no_cured"])
    def test_chunks_reproduce_the_one_shot_matrix(self, n, hazards, family):
        cfg = SimConfig(family=family, hazards=hazards, n_clusters=n, seed=17)
        s = simulate(cfg)
        codes, times = _one_shot(cfg)
        assert np.array_equal(s.codes, codes)
        assert np.array_equal(s.times, times)
        assert s.codes.dtype == np.int64 and s.times.shape == (n, len(hazards))
        # the sample cut at the chunk rows is the draw's chunks, bit for bit,
        # each chunk drawn alone, last first
        table = support_table(family)
        for start, *got in reversed(list(s._chunks())):
            want_start, *want = _draw(cfg, table, start)
            assert start == want_start
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("censor", [None, 0.8])
    def test_cli_stream_matches_the_library_writers(self, tmp_path, censor):
        sim = {"family": {"family": "poisson", "params": {"eta": 2.0}},
               "hazards": [fs.hazard_to_dict(EXP1), fs.hazard_to_dict(PIECEWISE)],
               "n_clusters": 2 * B + 7, "seed": 5, "censor_time": censor}
        summary_times = [[0.5, 0.5], [1.0, 2.5]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sim": sim, "summary_times": summary_times,
                                        "out": str(tmp_path / "cli.csv")}))
        assert main(["simulate", "--config", str(cfg_path)]) == 0

        samples = simulate(SimConfig(family=POISSON2, hazards=(EXP1, PIECEWISE),
                                     n_clusters=2 * B + 7, seed=5, censor_time=censor))
        samples_to_csv(samples, tmp_path / "lib.csv")
        _io.write_json(tmp_path / "lib.json", simulation_summary(samples, summary_times))
        for suffix in ("csv", "json"):
            assert ((tmp_path / f"cli.{suffix}").read_bytes()
                    == (tmp_path / f"lib.{suffix}").read_bytes())
        summary = json.loads((tmp_path / "cli.json").read_text())
        assert summary["cure_fraction"] == samples.cure_fraction()

    @pytest.mark.parametrize("n", [1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_cli_bytes_do_not_depend_on_the_core_count(self, tmp_path, monkeypatch, n, j):
        cfg = SimConfig(family=POISSON2, hazards=(EXP1, PIECEWISE, EXP1)[:j], n_clusters=n,
                        seed=29, censor_time=1.5)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            _write_simulation(cfg, tmp_path / f"s{len(cores)}.csv", [[0.5] * j, [2.0] * j])
        for suffix in ("csv", "json"):
            assert ((tmp_path / f"s1.{suffix}").read_bytes()
                    == (tmp_path / f"s2.{suffix}").read_bytes())
        assert len(forks) == (n > 2 * B)

    def test_cli_memory_is_flat_in_n_clusters(self, tmp_path):
        # numpy reports its array allocations to tracemalloc; the one-shot
        # draw held ~53 bytes per cluster at J = 1, 40 MB more at 1e6 than
        # at 2e5
        def peak(n):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({
                "sim": {"family": {"family": "poisson", "params": {"eta": 2.0}},
                        "hazards": [fs.hazard_to_dict(EXP1)],
                        "n_clusters": n, "seed": 1, "censor_time": 3.0},
                "summary_times": [[0.5]], "out": str(tmp_path / "s.csv")}))
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(cfg)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(B)  # build the support table outside the trace
        assert abs(peak(1_000_000) - peak(200_000)) < 2**20

    def test_written_stream_stays_small_beside_its_helper(self, tmp_path):
        # the map's helper draws and formats the chunks it takes; this
        # process holds at most one chunk of its own beyond the one being
        # written and one of the helper's, so memory stays flat
        cfg = SimConfig(family=POISSON2, hazards=[EXP1, fs.ExponentialRate(rate=0.5)],
                        n_clusters=400_000, seed=1, censor_time=3.0)
        support_table(POISSON2)  # build the table outside the trace
        tracemalloc.start()
        try:
            _write_simulation(cfg, tmp_path / "s.csv", [[0.5, 0.5]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"


def _outcome(estimate, *args):
    """An estimate, or the type and message of the error it raised."""
    try:
        return estimate(*args)
    except fs.FrailtyModelError as exc:
        return type(exc), str(exc)


class TestStreamedCounts:
    """The count step taken chunk by chunk gives the counts, estimates and
    errors of the in-memory sample bit for bit."""

    TIMES = (0.0, 0.4, 1.3, 6.0)
    # (t, j, j_prime, window) queries; the third target, when present,
    # must survive its time for a cluster to enter the table
    QUERIES = (((0.3, 0.5, 0.2), 0, 1, 0.05), ((0.3, 0.5, 0.2), 1, 0, 0.05),
               ((0.6, 0.1, 0.4), 0, 1, 0.2), ((0.3, 0.5, 0.2), 0, 1, 1e-12))

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_counts_and_estimates_match_the_sample(self, n, j):
        cfg = _cfg(hazards=(EXP1, PIECEWISE, EXP1)[:j], n_clusters=n, seed=23)
        s = simulate(cfg)
        alive = [np.full(j, t) for t in self.TIMES]
        queries = [(np.asarray(t[:j]), a, b, w) for t, a, b, w in self.QUERIES if j > 1]
        cured, values, cells = _tally(cfg, _chunks(cfg), alive, queries)

        assert cured == np.count_nonzero(s.z == 0.0) and cured / n == s.cure_fraction()
        for t, counts in zip(alive, values):
            mask = (s.times > t[None, :]).all(axis=1)
            assert np.array_equal(counts, np.bincount(s.codes[mask], minlength=s.support.size))
            assert int(counts.sum()) == population_survival(s, t).n_at_risk
            assert int(counts.sum()) / n == population_survival(s, t).estimate
            assert _outcome(_rfv_estimate, cfg, counts, t) == _outcome(empirical_rfv, s, t)
        for (t, a, b, w), table in zip(queries, cells):
            others = [q for q in range(j) if q not in (a, b)]
            keep = (s.times[:, others] > t[others][None, :]).all(axis=1)
            want = _kernels.crf_cell_counts(s.times[keep, a], s.times[keep, b], t[a], t[b], w)
            assert np.array_equal(table, want)
            assert (_outcome(_crf_estimate, cfg, table, t, w)
                    == _outcome(empirical_crf, s, t, a, b, w))
        if j > 1:
            # the swapped pair's table is the transpose
            assert np.array_equal(cells[1], cells[0].reshape(3, 3).T.ravel())

    def test_small_samples_raise_the_same_errors(self):
        cfg = _cfg(hazards=(EXP1, EXP1), n_clusters=B + 1, seed=3)
        s = simulate(cfg)
        _, values, cells = _tally(cfg, _chunks(cfg), [(50.0, 50.0)], [((0.5, 0.5), 0, 1, 1e-12)])
        t = np.array([50.0, 50.0])
        for got, want in ((_outcome(_rfv_estimate, cfg, values[0], t),
                           _outcome(empirical_rfv, s, t)),
                          (_outcome(_crf_estimate, cfg, cells[0], np.array([0.5, 0.5]), 1e-12),
                           _outcome(empirical_crf, s, (0.5, 0.5), 0, 1, 1e-12))):
            assert got == want and got[0] in (fs.TooFewAtRisk, fs.EmptyWindow,
                                              fs.DegenerateConditional)
        one = _cfg(n_clusters=1, seed=3)
        _, values, _ = _tally(one, _chunks(one), [(0.0,)])
        assert _outcome(_rfv_estimate, one, values[0], np.array([0.0]))[0] is fs.TooFewAtRisk

    def test_queries_are_checked_before_any_chunk_is_read(self):
        def chunks():
            raise AssertionError("a chunk was read")
            yield

        with pytest.raises(fs.ParameterOutOfRange):
            _tally(_cfg(hazards=(EXP1, EXP1)), chunks(), crf_queries=[((0.5, 0.5), 0, 0, 0.05)])
        with pytest.raises(fs.LengthMismatch):
            _tally(_cfg(), chunks(), alive_times=[(0.5, 0.5)])
