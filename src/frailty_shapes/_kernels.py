"""Hot numeric kernels, vectorised in numpy.

Kernels are deterministic pure functions; all random number generation stays
in numpy Generators outside this module.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation in use; always ``"numpy"``."""
    return "numpy"


def survivor_moment_grid(z, g, lam):
    """Conditional weights and first two moments of Z - z_min given survival.

    Parameters
    ----------
    z, g : arrays
        Support (ascending) and probabilities, or one row of weights per lam.
    lam : 1-d array
        Generic-time points.

    Returns
    -------
    norm, m1, m2, first : 1-d arrays
        Total conditional weight, recentred first and second moments, and the
        conditional probability of the smallest support point.
    """
    dz = z - z[0]
    w = g * np.exp(-np.outer(lam, dz))
    norm = w.sum(axis=1)
    m1 = w @ dz / norm
    m2 = w @ (dz * dz) / norm
    first = g[..., 0] / norm
    return norm, m1, m2, first


def kpoint_moment_sums(z, pr, lam):
    """Sums M_q = sum_k z_k^q w_k, q = 0..3, one entry per point of ``lam``.

    The weights w_k = p_k exp(-(z_k - z_1) lam) are recentred at the smallest
    support point z_1 so they stay in range at any lam; the common factor
    exp(-z_1 lam) cancels from every ratio of equal weight degree.
    """
    w = pr[None, :] * np.exp(-(z - z[0])[None, :] * lam[:, None])
    return w.sum(axis=1), w @ z, w @ (z * z), w @ (z * z * z)


def kpoint_rfv_grid(z, pr, lam):
    """Relative frailty variance of a k-point family, M2 M0 / M1^2 - 1.

    This is the pair double sum sum_ab z_a^2 w_a w_b / sum_ab z_a z_b w_a w_b,
    factorised into products of single sums.
    """
    m0, m1, m2, _ = kpoint_moment_sums(z, pr, lam)
    return m2 * m0 / m1**2 - 1.0


def piecewise_cumulative(edges, cums, rates, t):
    """Cumulative hazard of a piecewise-constant rate at each time in ``t``."""
    idx = np.searchsorted(edges, t, side="right") - 1
    idx = np.clip(idx, 0, rates.shape[0] - 1)
    return cums[idx] + rates[idx] * (t - edges[idx])


def piecewise_inverse(edges, cums, rates, u):
    """Inverse cumulative hazard of a piecewise-constant rate at each ``u``."""
    idx = np.searchsorted(cums, u, side="right") - 1
    idx = np.clip(idx, 0, rates.shape[0] - 1)
    return edges[idx] + (u - cums[idx]) / rates[idx]


def riskset_value_counts(codes, times, tvec, n_values):
    """Histogram of frailty codes over clusters with all event times past ``tvec``."""
    mask = (times > tvec[None, :]).all(axis=1)
    return np.bincount(codes[mask], minlength=n_values).astype(np.int64)


def crf_cell_counts(ta, tb, t_a, t_b, w):
    """3x3 joint counts of (before, in-window, after) status for two targets.

    Cell ``[a, b]`` (flattened row-major) counts clusters whose target-A time
    falls before ``t_a``, inside ``[t_a, t_a + w)``, or at/after ``t_a + w``
    (a = 0, 1, 2), jointly with the same trichotomy for target B.
    """
    ca = np.where(ta <= t_a, 0, np.where(ta < t_a + w, 1, 2))
    cb = np.where(tb <= t_b, 0, np.where(tb < t_b + w, 1, 2))
    return np.bincount(3 * ca + cb, minlength=9).astype(np.int64)
