"""Brute-force conditional (survivor) frailty distribution.

Among clusters still event-free at generic time ``lam``, the frailty of the
survivors is distributed as

    P(Z = z | T > t)  proportional to  exp(-z * lam) * P(Z = z).

This module computes that distribution by direct summation over the default
support table, in log space: each grid point's log-weights
``log P(Z = z) - lam (z - z_min)`` are shifted by their largest before
``exp``, so the weights stay in range at any ``lam``, however far ``P(Z = z)``
underflows.  It serves as an independent cross-check of the closed-form shape
formulas: the two routes share no code beyond the probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, _spec
from .errors import DegenerateConditional, NumericalOverflow, ParameterOutOfRange
from .families import (
    FrailtyFamily,
    _bad_points,
    _finite_result,
    check_grid,
    support_table,
)

#: The post-conditioning tail bound enforced on every survivor distribution.
TAIL_BOUND = 1e-12


@dataclass(frozen=True)
class SurvivorPmf:
    """Conditional frailty distribution among survivors at generic time ``lam``."""

    lam: float
    support: np.ndarray
    probs: np.ndarray
    tail_mass_bound: float


@np.errstate(over="ignore")  # lam (z - z_min) past float64 is a weight of 0
def _survivor_sums(family: FrailtyFamily, lams: np.ndarray):
    """(table, m1, var, first, bound) at each point of the 1-d grid ``lams``:
    the survivor sums of :func:`_kernels.survivor_moment_grid` over the
    default support table, and a bound on the survivors' mass beyond it."""
    table = support_table(family)
    z = table.z
    log_total, m1, var, first = _kernels.survivor_moment_grid(z, lambda blk: table.log_pmf, lams)
    # Conditioning downweights the points past z_K against the others, so
    # their mass among survivors is at most e^-(z_K - z_1) lam tail / total;
    # by Jensen, total >= (1 - tail) e^-(z_K - z_1) lam: at most tail / (1 - tail).
    bound = table.tail_mass * np.exp(-(z[-1] - z[0]) * lams - log_total)
    if not np.all(bound < TAIL_BOUND):
        raise NumericalOverflow(f"survivor tail bound of {family} is not below {TAIL_BOUND}")
    return table, m1, var, first, bound


def _normalised(lam: float, z: np.ndarray, log_w: np.ndarray, bound: float) -> SurvivorPmf:
    """The survivor pmf at ``lam`` from the log-weights ``log_w`` on the
    support ``z``, without the atoms whose conditional probability is 0."""
    top = log_w.max()
    if not top > -np.inf:
        raise DegenerateConditional(f"survivors have probability zero at lam={lam}")
    w = np.exp(log_w - top)
    probs = w / w.sum()
    keep = probs > 0.0
    return SurvivorPmf(lam=lam, support=z[keep], probs=probs[keep], tail_mass_bound=bound)


def _rfv_from_sums(what: str, lams: np.ndarray, z0: float, m1, var):
    """The RFV at ``lams`` from the survivors' mean ``m1`` recentred at ``z0``
    and their variance, as var / mean / mean with mean = z0 + m1: dividing
    twice keeps a mean below 1e-154 from underflowing when squared."""
    m1, var = m1.reshape(lams.shape), var.reshape(lams.shape)
    mean = z0 + m1
    vanished = ~(mean > 0.0)  # also nan, where no survivor weight is left
    if vanished.any():
        raise DegenerateConditional(f"survivor mean of {what} vanished at "
                                    f"{_bad_points(lams, vanished, 'lam')}")
    with np.errstate(over="ignore"):
        return _finite_result(var / mean / mean, lams, f"survivor RFV of {what}")


@np.errstate(over="ignore")
def survivor_pmf(family: FrailtyFamily, lam: float) -> SurvivorPmf:
    """Conditional pmf of Z among survivors at generic time ``lam``."""
    lam = float(check_grid(lam))
    table, _, _, _, bound = _survivor_sums(family, np.array([lam]))
    z = table.z
    return _normalised(lam, z, table.log_pmf - (z - z[0]) * lam, float(bound[0]))


def survivor_moment(family: FrailtyFamily, lam: float, q: int) -> float:
    """q-th raw moment of the survivor frailty distribution."""
    if _spec.integer(q, "q") not in (1, 2):
        raise ParameterOutOfRange(f"only moments q=1,2 are supported, got {q}")
    pmf = survivor_pmf(family, lam)
    return float(pmf.probs @ pmf.support ** q)


def rfv(family: FrailtyFamily, lam):
    """Relative frailty variance Var(Z | T > t) / E(Z | T > t)^2 at ``lam``;
    a float for a scalar ``lam``, else an array.

    The mean is recentred at the smallest support point, which keeps it
    accurate when the survivors concentrate there, and the variance is summed
    about the mean, which keeps it accurate when they do not.
    """
    arr = check_grid(lam)
    table, m1, var, _, _ = _survivor_sums(family, np.atleast_1d(arr))
    return _rfv_from_sums(str(family), arr, table.z[0], m1, var)


def smallest_point_prob_grid(family: FrailtyFamily, lams) -> np.ndarray:
    """Conditional probability of the smallest support point over a grid."""
    return _survivor_sums(family, np.atleast_1d(check_grid(lams)))[3]


#: The former name of :func:`rfv` on a grid, kept only because
#: ``perfbench/traced_cli.py`` looks it up; new code calls :func:`rfv`.
rfv_grid = rfv
