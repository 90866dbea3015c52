"""The input rules shared across the package: integers, seeds, positive and
finite parameters, lists of numbers, hazard lists and target pairs, each
checked in one place.

Every call below was accepted by an earlier version of the package, which
then either ran on a silently converted value (a ``1.5`` or ``True`` seed drew
the seed-1 sample, and seed ``-1`` the seed ``2**64 - 1`` one) or failed
outside :class:`FrailtyModelError`.
"""

import math

import numpy as np
import pytest

import frailty_shapes as fs
from frailty_shapes.extensions import CorrelatedPoissonModel, PiecewiseFrailtyModel
from frailty_shapes.simulate import SimConfig, empirical_crf, simulate

EXP1 = fs.ExponentialRate(rate=1.0)
POISSON2 = fs.Poisson(eta=2.0)


def _config(**kw):
    return SimConfig(**{"family": POISSON2, "hazards": (EXP1, EXP1), "n_clusters": 200,
                        "seed": 1, **kw})


def _correlated(**kw):
    return CorrelatedPoissonModel(**{"etas": (1.0, 2.0), "hazards": (EXP1, EXP1),
                                     "w_dist": fs.GammaFrailty(mean=1.0, variance=0.5), **kw})


REJECTED = {
    "seed 1.5": (lambda: _config(seed=1.5), "^seed must be an integer, got 1.5$"),
    "seed True": (lambda: _config(seed=True), "^seed must be an integer, got True$"),
    "n_clusters True": (lambda: _config(n_clusters=True),
                        "^n_clusters must be a positive integer, got True$"),
    "Binomial n True": (lambda: fs.Binomial(pi=0.3, n=True),
                        "^Binomial n must be a positive integer, got True$"),
    "NegBinPositive nu True": (lambda: fs.NegBinPositive(pi=0.3, nu=True),
                               "^NegBinPositive nu must be a positive integer, got True$"),
    "SimConfig hazard 'x'": (lambda: _config(hazards=("x",)),
                             "^not a baseline hazard: 'x'$"),
    "PiecewiseFrailtyModel hazard 'x'": (
        lambda: PiecewiseFrailtyModel(cutpoints=(), segment_families=(POISSON2,),
                                      hazards=("x",)),
        "^not a baseline hazard: 'x'$"),
    "CorrelatedPoissonModel hazard 'x'": (lambda: _correlated(hazards=(EXP1, "x")),
                                          "^not a baseline hazard: 'x'$"),
    "censor_time inf": (lambda: _config(censor_time=math.inf),
                        "^censor_time must be positive and finite, got inf$"),
    "window inf": (lambda: empirical_crf(simulate(_config()), (0.5, 0.5), 0, 1,
                                         window=math.inf),
                   "^window must be positive and finite, got inf$"),
    "sample n True": (lambda: _correlated().sample(True, 1),
                      "^n must be a positive integer, got True$"),
    "sample seed 1.5": (lambda: _correlated().sample(5, 1.5),
                        "^seed must be an integer, got 1.5$"),
    "sample seed True": (lambda: _correlated().sample(5, True),
                         "^seed must be an integer, got True$"),
    # Philox keys are 64-bit, so seeds outside [0, 2**64) would alias others
    "seed -1": (lambda: _config(seed=-1), r"^seed must be in \[0, 2\*\*64\), got -1$"),
    "seed 2**64": (lambda: _config(seed=2**64),
                   r"^seed must be in \[0, 2\*\*64\), got 18446744073709551616$"),
    "sample seed -1": (lambda: _correlated().sample(5, -1),
                       r"^seed must be in \[0, 2\*\*64\), got -1$"),
    "sample seed 2**64": (lambda: _correlated().sample(5, 2**64),
                          r"^seed must be in \[0, 2\*\*64\), got 18446744073709551616$"),
    # arguments that raised bare TypeError or ValueError
    "SimConfig hazard not in a list": (
        lambda: _config(hazards=EXP1),
        r"^hazards must be a list, got ExponentialRate\(rate=1.0\)$"),
    "KPoint support 'a'": (lambda: fs.KPoint(support=("a", 1.0), probs=(0.5, 0.5)),
                           r"^KPoint support\[0\] must be a finite number, got 'a'$"),
    "KPoint probs 'a'": (lambda: fs.KPoint(support=(0.0, 1.0), probs=(0.5, "a")),
                         r"^KPoint probs\[1\] must be a finite number, got 'a'$"),
    "PiecewiseConstant breakpoints 'a'": (
        lambda: fs.PiecewiseConstant(breakpoints=("a",), rates=(1.0, 2.0)),
        r"^piecewise breakpoints\[0\] must be a finite number, got 'a'$"),
    "PiecewiseConstant rates 'a'": (
        lambda: fs.PiecewiseConstant(breakpoints=(1.0,), rates=(1.0, "a")),
        r"^piecewise rates\[1\] must be a finite number, got 'a'$"),
    "CorrelatedPoissonModel etas 'a'": (lambda: _correlated(etas=(1.0, "a")),
                                        r"^etas\[1\] must be a finite number, got 'a'$"),
    "CorrelatedPoissonModel etas not a list": (lambda: _correlated(etas=2.0),
                                               "^etas must be a list, got 2.0$"),
    "PiecewiseFrailtyModel cutpoints 'a'": (
        lambda: PiecewiseFrailtyModel(cutpoints=("a",), segment_families=(POISSON2, POISSON2),
                                      hazards=(EXP1,)),
        r"^cutpoints\[0\] must be a finite number, got 'a'$"),
    "CorrelatedPoissonModel hazard not in a list": (
        lambda: _correlated(hazards=EXP1),
        r"^hazards must be a list, got ExponentialRate\(rate=1.0\)$"),
    "PiecewiseFrailtyModel segment_families not in a list": (
        lambda: PiecewiseFrailtyModel(cutpoints=(), segment_families=POISSON2, hazards=(EXP1,)),
        r"^segment_families must be a list, got Poisson\(eta=2.0\)$"),
    "Poisson eta '2'": (lambda: fs.Poisson(eta="2"),
                        "^Poisson eta must be positive and finite, got '2'$"),
    "Poisson eta None": (lambda: fs.Poisson(eta=None),
                         "^Poisson eta must be positive and finite, got None$"),
    "NegBin pi 'a'": (lambda: fs.NegBin(pi="a", nu=2.0),
                      "^NegBin pi must be a finite number, got 'a'$"),
    "NegBinPositive pi None": (lambda: fs.NegBinPositive(pi=None, nu=2),
                               "^NegBinPositive pi must be a finite number, got None$"),
    # real parameters that took True as 1.0, so the spec they wrote was unreadable
    "Poisson eta True": (lambda: fs.Poisson(eta=True),
                         "^Poisson eta must be positive and finite, got True$"),
    "NegBin nu True": (lambda: fs.NegBin(pi=0.3, nu=True),
                       "^NegBin nu must be positive and finite, got True$"),
    "Binomial pi True": (lambda: fs.Binomial(pi=True, n=3),
                         "^Binomial pi must be a finite number, got True$"),
    "GammaFrailty mean True": (lambda: fs.GammaFrailty(mean=True, variance=0.5),
                               "^GammaFrailty mean must be positive and finite, got True$"),
    "Shifted p True": (lambda: fs.Shifted(inner=POISSON2, p=True),
                       "^Shifted p must be a finite number, got True$"),
    "ZeroModifiedPoisson phi True": (lambda: fs.ZeroModifiedPoisson(eta=2.0, phi=True),
                                     "^ZeroModifiedPoisson phi must be a finite number, got True$"),
    "Addams alpha True": (lambda: fs.Addams(alpha=True, gamma=0.5),
                          "^Addams alpha must be a finite number, got True$"),
    "ExponentialRate rate True": (lambda: fs.ExponentialRate(rate=True),
                                  "^exponential rate must be positive and finite, got True$"),
}


@pytest.mark.parametrize("call,message", REJECTED.values(), ids=list(REJECTED))
def test_rejected_with_the_rule_message(call, message):
    with pytest.raises(fs.ParameterOutOfRange, match=message):
        call()


@pytest.mark.parametrize("n", [5.0, np.int64(5)], ids=["5.0", "np.int64(5)"])
def test_integral_cluster_counts_are_stored_as_int(n):
    config = _config(n_clusters=n, seed=np.int64(3))
    assert type(config.n_clusters) is int and config.n_clusters == 5
    assert type(config.seed) is int and config.seed == 3
    assert np.array_equal(simulate(config).times, simulate(_config(n_clusters=5, seed=3)).times)


@pytest.mark.parametrize("j,j_prime", [(0, 0), (1, 1), (0, 2), (-1, 1), (0.5, 1)])
def test_target_pair_message_is_shared(j, j_prime):
    with pytest.raises(fs.ParameterOutOfRange) as correlation:
        _correlated().frailty_correlation(j, j_prime)
    with pytest.raises(fs.ParameterOutOfRange) as cross_ratio:
        empirical_crf(simulate(_config()), (0.5, 0.5), j, j_prime)
    assert (str(correlation.value) == str(cross_ratio.value)
            == f"need two distinct target indices in [0, 2), got {j}, {j_prime}")


def test_largest_seed_still_draws():
    top = 2**64 - 1
    assert _config(seed=top).seed == top
    assert simulate(_config(seed=top)).times.shape == (200, 2)
    assert _correlated().sample(5, top).shape == (5, 2)
