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
from .families import FrailtyFamily, TAIL_MASS, check_grid, support_table

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
        if not np.all((total > 0.0) & np.isfinite(total)):
            raise NumericalOverflow(
                f"survivor weights of {family} degenerate at lam={lams}"
            )
        # Mass beyond the truncation point, after conditioning, is at most
        # exp(-(z_K - z_1) lam) * tail / total -- conditioning only downweights
        # support points beyond z_K relative to the retained ones.
        bound = np.exp(-(z[-1] - z[0]) * lams) * table.tail_mass / total
        if np.all(bound < TAIL_BOUND):
            return table, m1, m2, first, bound
    raise NumericalOverflow(
        f"could not push the survivor tail bound below {TAIL_BOUND} for {family}"
    )


def survivor_pmf(family: FrailtyFamily, lam: float) -> SurvivorPmf:
    """Conditional pmf of Z among survivors at generic time ``lam``."""
    lam = float(check_grid(lam))
    table, _, _, _, bound = _survivor_sums(family, np.array([lam]))
    z = table.z
    w = table.pmf * np.exp(-(z - z[0]) * lam)
    return SurvivorPmf(lam=lam, support=z, probs=w / w.sum(),
                       tail_mass_bound=float(bound[0]))


def survivor_moment(family: FrailtyFamily, lam: float, q: int) -> float:
    """q-th raw moment of the survivor frailty distribution."""
    if q not in (1, 2):
        raise ParameterOutOfRange(f"only moments q=1,2 are supported, got {q}")
    pmf = survivor_pmf(family, lam)
    return float(pmf.probs @ pmf.support ** q)


def rfv(family: FrailtyFamily, lam):
    """Relative frailty variance Var(Z | T > t) / E(Z | T > t)^2 at ``lam``;
    scalar in, scalar out, or over a grid.

    Variance is formed from moments recentred at the smallest support point,
    which keeps it accurate when the survivors concentrate there.
    """
    arr = check_grid(lam)
    table, m1, m2, _, _ = _survivor_sums(family, np.atleast_1d(arr))
    mean = table.z[0] + m1
    if np.any(mean <= 0.0):
        raise DegenerateConditional(f"survivor mean of {family} vanished at lam={lam}")
    out = (m2 - m1**2) / mean**2
    return float(out[0]) if arr.ndim == 0 else out


def smallest_point_prob_grid(family: FrailtyFamily, lams) -> np.ndarray:
    """Conditional probability of the smallest support point over a grid."""
    return _survivor_sums(family, np.atleast_1d(check_grid(lams)))[3]


#: The former name of :func:`rfv` on a grid, kept only because
#: ``perfbench/traced_cli.py`` looks it up; new code calls :func:`rfv`.
rfv_grid = rfv
