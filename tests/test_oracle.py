"""Brute-force survivor-distribution oracle.

The oracle reweights the (truncated) frailty pmf by e^{-z*lam} and reads the
relative frailty variance straight off the conditional moments, independent
of any Laplace-transform algebra.  These tests freeze hand-computed values
and the structural properties the rest of the suite leans on.
"""

import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frailty_shapes as fs
from frailty_shapes import _kernels
from frailty_shapes.families import support_table
from frailty_shapes.oracle import (
    rfv,
    smallest_point_prob_grid,
    survivor_moment,
    survivor_pmf,
)

LN2 = np.log(2.0)
TWO_POINT = fs.KPoint(support=(0.0, 1.0), probs=(0.5, 0.5))


def test_two_point_survivors_by_hand():
    # survivors at lam=ln2 weight the atoms 1/2 and 1/2 * 1/2, so the
    # conditional pmf is (2/3, 1/3): mean 1/3, var 2/9, rfv = 2.
    g = survivor_pmf(TWO_POINT, LN2)
    assert_allclose(g.probs, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
    assert_allclose(rfv(TWO_POINT, LN2), 2.0, rtol=1e-13)


def test_poisson_rfv_value():
    # conditional distribution stays Poisson with eta e^-lam, so
    # rfv = 1 / (eta e^-lam) = e / 2 at lam = 1
    assert_allclose(rfv(fs.Poisson(eta=2.0), 1.0), np.e / 2.0, rtol=1e-10)


def test_survivor_pmf_is_a_distribution():
    for fam in (fs.Poisson(eta=2.0), fs.NegBinPositive(pi=0.4, nu=2.0),
                fs.ZeroModifiedPoisson(eta=3.0, phi=0.05)):
        g = survivor_pmf(fam, 2.0)
        assert np.all(g.probs > 0.0)
        assert_allclose(g.probs.sum(), 1.0, rtol=1e-14)
        assert np.all(np.diff(g.support) > 0.0)
        assert g.tail_mass_bound <= 1e-9


def test_selection_shrinks_the_mean():
    fam = fs.Poisson(eta=2.0)
    lams = np.linspace(0.0, 6.0, 13)
    means = np.array([survivor_moment(fam, la, 1) for la in lams])
    assert_allclose(means[0], 2.0, rtol=1e-12)
    assert np.all(np.diff(means) < 0.0)


def test_survivor_moment_second_matches_var_plus_mean_sq():
    fam = fs.NegBin(pi=0.5, nu=2.0)
    g = survivor_pmf(fam, 1.3)
    m1 = g.probs @ g.support
    m2 = g.probs @ g.support ** 2
    assert_allclose(survivor_moment(fam, 1.3, 1), m1, rtol=1e-13)
    assert_allclose(survivor_moment(fam, 1.3, 2), m2, rtol=1e-13)


def test_smallest_point_probability_grows_to_one():
    fam = fs.Poisson(eta=2.0)
    lams = np.array([0.0, 1.0, 5.0, 20.0, 50.0])
    p0 = smallest_point_prob_grid(fam, lams)
    assert_allclose(p0[0], np.exp(-2.0), rtol=1e-10)
    assert np.all(np.diff(p0) > 0.0)
    assert p0[-1] > 1.0 - 1e-10


def test_rfv_grid_matches_scalar_calls():
    fam = fs.ZeroModifiedPoisson(eta=3.0, phi=0.05)
    lams = np.linspace(0.0, 4.0, 9)
    grid = rfv(fam, lams)
    scalars = [rfv(fam, float(la)) for la in lams]
    assert_allclose(grid, scalars, rtol=1e-13)


def test_oracle_rejects_continuous_family():
    with pytest.raises(fs.UnsupportedFamily):
        survivor_pmf(fs.GammaFrailty(mean=1.0, variance=0.5), 1.0)


def test_deep_tail_retry_keeps_accuracy():
    # lam = 50 pushes nearly all survivor mass onto the smallest atom; the
    # oracle must keep a sane distribution rather than underflow to garbage.
    fam = fs.NegBinPositive(pi=0.4, nu=2.0)
    g = survivor_pmf(fam, 50.0)
    assert g.support[0] == 2.0
    assert_allclose(g.probs.sum(), 1.0, rtol=1e-12)
    assert g.probs[0] > 1.0 - 1e-12


@pytest.mark.parametrize("lam", [800.0, 1000.0])
def test_set2_far_tail_where_the_squared_mean_underflows(lam):
    # the survivor mean is ~1e-175 at lam = 800, so its square is not
    # representable; the RFV itself is 3.9e174
    fam = fs.KPOINT_EXAMPLES["set2"]
    got = rfv(fam, lam)
    assert_allclose(got, fs.rfv_closed_at(fam, lam), rtol=1e-12)
    assert_allclose(got, fs.rfv_at(fam, lam), rtol=1e-12)


def test_survivor_pmf_drops_atoms_of_conditional_probability_zero():
    # the weights of the atoms 0.99 and 2.61 underflow at lam = 800
    g = survivor_pmf(fs.KPOINT_EXAMPLES["set2"], 800.0)
    assert g.support.tolist() == [0.0, 0.505, 0.555, 0.6025, 0.6275, 0.63]
    assert np.all(g.probs > 0.0)


#: Points where the linear-space pmf near the survivors' mean is subnormal or
#: 0, so weights formed from it went wrong: the oracle raised, returned 0.0
#: or lost digits there.
UNDERFLOWED_PMF = [
    pytest.param(fs.Poisson(eta=5000.0), 1.0, id="poisson5000"),
    pytest.param(fs.Binomial(pi=0.2222, n=2946), 4.3495, id="binomial2946"),
    pytest.param(fs.Poisson(eta=1e6), 1e-3, id="poisson1e6"),
    pytest.param(fs.Shifted(inner=fs.Poisson(eta=104.6), p=5.0), 675.7, id="shifted_poisson"),
]


@pytest.mark.parametrize("fam,lam", UNDERFLOWED_PMF)
def test_oracle_agrees_where_the_linear_pmf_underflows(fam, lam):
    # the weights are formed from the log-pmf, each row shifted by its max;
    # the suite turns any RuntimeWarning into an error
    assert_allclose(rfv(fam, lam), fs.rfv_at(fam, lam), rtol=1e-8)


def test_weights_past_float64_range_vanish_without_warnings():
    # lam (z - z_min) overflows to inf at lam = 1e308: a weight of 0
    two_point = fs.KPoint(support=(1.0, 2.0), probs=(0.5, 0.5))
    assert rfv(two_point, 1e308) == 0.0
    assert survivor_pmf(two_point, 1e308).support.tolist() == [1.0]


def _one_shot_sums(z, log_g, lam):
    """The survivor sums from the whole (n, K) log-weight matrix at once."""
    dz = z - z[0]
    a = log_g - np.outer(lam, dz)
    top = a.max(axis=1)
    w = np.exp(a - top[:, None])
    norm = w.sum(axis=1)
    mean = w @ dz / norm
    var = np.einsum("ij,ij->i", w, (dz - mean[:, None]) ** 2) / norm
    return top + np.log(norm), mean, var, w[:, 0] / norm


BLOCK_FAMILIES = [fs.Poisson(eta=200.0), fs.NegBin(pi=0.3, nu=4.0)]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 99_999, 100_000])
@pytest.mark.parametrize("fam", BLOCK_FAMILIES, ids=str)
def test_blocked_sums_equal_one_shot_sums_bitwise(fam, n):
    table = support_table(fam)
    lam = np.linspace(0.0, 5.0, n)
    got = _kernels.survivor_moment_grid(table.z, lambda blk: table.log_pmf, lam)
    for blocked, whole in zip(got, _one_shot_sums(table.z, table.log_pmf, lam)):
        assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("fam", BLOCK_FAMILIES, ids=str)
def test_blocked_sums_with_one_prior_row_per_lam(fam):
    # the coupled piecewise model weighs the final table by the survival of
    # the earlier segments, one prior row per grid point, built per block
    table = support_table(fam)
    lam = np.linspace(0.0, 5.0, 4097)
    log_prior = table.log_pmf - np.multiply.outer(lam[::-1] / 7.0, table.z)
    got = _kernels.survivor_moment_grid(table.z, lambda blk: log_prior[blk], lam)
    for blocked, whole in zip(got, _one_shot_sums(table.z, log_prior, lam)):
        assert np.array_equal(blocked, whole)


def test_oracle_bits_do_not_depend_on_the_core_count(monkeypatch):
    # 53 blocks of 192 rows: on two cores the forked helper computes some
    lams = np.linspace(0.0, 5.0, 10_000)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    got = {}
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        got[len(cores)] = rfv(fs.Poisson(eta=200.0), lams)
    assert got[1].tobytes() == got[2].tobytes()
    assert len(forks) == 1


def test_oracle_working_memory_is_bounded():
    # numpy reports its array allocations to tracemalloc; the whole weight
    # matrix of this grid would be 254 MB
    lams = np.linspace(0.0, 5.0, 100_000)
    rfv(fs.Poisson(eta=200.0), 0.5)  # build the support table outside the trace
    tracemalloc.start()
    try:
        rfv(fs.Poisson(eta=200.0), lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["one_core", "two_cores"])
def test_kernel_peak_is_its_output_plus_a_few_blocks(monkeypatch, cores):
    # each block is copied into the (4, n) output as it arrives, on one core
    # or two; holding all the blocks until the end would double the peak
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    table = support_table(fs.Poisson(eta=200.0))
    lams = np.linspace(0.0, 5.0, 100_000)
    tracemalloc.start()
    try:
        _kernels.survivor_moment_grid(table.z, lambda blk: table.log_pmf, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = 4 * lams.size * lams.itemsize
    assert peak < output + 4 * _kernels._BLOCK_BYTES, f"peaked at {peak / 2**20:.1f} MiB"
