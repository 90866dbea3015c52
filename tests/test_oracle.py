"""Brute-force survivor-distribution oracle.

The oracle reweights the (truncated) frailty pmf by e^{-z*lam} and reads the
relative frailty variance straight off the conditional moments, independent
of any Laplace-transform algebra.  These tests freeze hand-computed values
and the structural properties the rest of the suite leans on.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frailty_shapes as fs
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
