"""Brute-force conditional (survivor) frailty distribution.

Among clusters still event-free at generic time ``lam``, the frailty of the
survivors is distributed as

    P(Z = z | T > t)  proportional to  exp(-z * lam) * P(Z = z).

This module computes that distribution by direct summation over the truncated
support, recentred at the smallest support point so the weights stay in
floating-point range at any ``lam``.  It serves as an independent cross-check
of the closed-form shape formulas: the two routes share no code beyond the
probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateConditional, NumericalOverflow, ParameterOutOfRange
from .families import (
    FrailtyFamily,
    TAIL_MASS,
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


def _survivor_sums(family: FrailtyFamily, lams: np.ndarray):
    """(table, m1, m2, first, bound) at each point of the 1-d grid ``lams``.

    ``m1``, ``m2`` and ``first`` are the survivor sums of
    :func:`_kernels.survivor_moment_grid` over the first of three ever finer
    support tables whose post-conditioning tail bound ``bound`` is below
    ``TAIL_BOUND`` at every grid point.
    """
    for attempt in range(3):
        table = support_table(family, TAIL_MASS * 10.0 ** (-4 * attempt))
        z = table.z
        total, m1, m2, first = _kernels.survivor_moment_grid(z, table.pmf, lams)
        degenerate = ~((total > 0.0) & np.isfinite(total))
        if degenerate.any():
            raise NumericalOverflow(f"survivor weights of {family} degenerate at "
                                    f"{_bad_points(lams, degenerate, 'lam')}")
        # Mass beyond the truncation point, after conditioning, is at most
        # exp(-(z_K - z_1) lam) * tail / total -- conditioning only downweights
        # support points beyond z_K relative to the retained ones.
        bound = np.exp(-(z[-1] - z[0]) * lams) * table.tail_mass / total
        if np.all(bound < TAIL_BOUND):
            return table, m1, m2, first, bound
    raise NumericalOverflow(
        f"could not push the survivor tail bound below {TAIL_BOUND} for {family}"
    )


def _normalised(lam: float, z: np.ndarray, w: np.ndarray, bound: float) -> SurvivorPmf:
    """The survivor pmf at ``lam`` from the weights ``w`` on the support ``z``,
    without the atoms whose conditional probability is 0."""
    total = w.sum()
    if not total > 0.0:
        raise DegenerateConditional(f"survivors have probability zero at lam={lam}")
    probs = w / total
    keep = probs > 0.0
    return SurvivorPmf(lam=lam, support=z[keep], probs=probs[keep], tail_mass_bound=bound)


def _rfv_from_sums(what: str, lams: np.ndarray, z0: float, m1, m2):
    """The RFV at ``lams`` from the survivor sums recentred at ``z0``, as
    (m2 - m1^2) / mean / mean with mean = z0 + m1: dividing twice keeps a
    mean below 1e-154 from underflowing when squared."""
    m1, m2 = m1.reshape(lams.shape), m2.reshape(lams.shape)
    mean = z0 + m1
    vanished = ~(mean > 0.0)  # also nan, where no survivor weight is left
    if vanished.any():
        raise DegenerateConditional(f"survivor mean of {what} vanished at "
                                    f"{_bad_points(lams, vanished, 'lam')}")
    with np.errstate(over="ignore"):
        return _finite_result((m2 - m1**2) / mean / mean, lams, f"survivor RFV of {what}")


def survivor_pmf(family: FrailtyFamily, lam: float) -> SurvivorPmf:
    """Conditional pmf of Z among survivors at generic time ``lam``."""
    lam = float(check_grid(lam))
    table, _, _, _, bound = _survivor_sums(family, np.array([lam]))
    z = table.z
    return _normalised(lam, z, table.pmf * np.exp(-(z - z[0]) * lam), float(bound[0]))


def survivor_moment(family: FrailtyFamily, lam: float, q: int) -> float:
    """q-th raw moment of the survivor frailty distribution."""
    if q not in (1, 2):
        raise ParameterOutOfRange(f"only moments q=1,2 are supported, got {q}")
    pmf = survivor_pmf(family, lam)
    return float(pmf.probs @ pmf.support ** q)


def rfv(family: FrailtyFamily, lam):
    """Relative frailty variance Var(Z | T > t) / E(Z | T > t)^2 at ``lam``;
    a float for a scalar ``lam``, else an array.

    Variance is formed from moments recentred at the smallest support point,
    which keeps it accurate when the survivors concentrate there.
    """
    arr = check_grid(lam)
    table, m1, m2, _, _ = _survivor_sums(family, np.atleast_1d(arr))
    return _rfv_from_sums(str(family), arr, table.z[0], m1, m2)


def smallest_point_prob_grid(family: FrailtyFamily, lams) -> np.ndarray:
    """Conditional probability of the smallest support point over a grid."""
    return _survivor_sums(family, np.atleast_1d(check_grid(lams)))[3]


#: The former name of :func:`rfv` on a grid, kept only because
#: ``perfbench/traced_cli.py`` looks it up; new code calls :func:`rfv`.
rfv_grid = rfv
