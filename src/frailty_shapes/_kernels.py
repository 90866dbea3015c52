"""Hot numeric kernels, vectorised in numpy.

Kernels are deterministic pure functions; all random number generation stays
in numpy Generators outside this module.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation in use; always ``"numpy"``."""
    return "numpy"


#: Bytes of survivor weights formed at once (about 0.5 MB, so a block stays
#: in L2); the oracle's working memory is this block, whatever the grid length.
_BLOCK_BYTES = 1 << 19


def survivor_moment_grid(z, g, lam):
    """Conditional weights and first two moments of Z - z_min given survival.

    Parameters
    ----------
    z : 1-d array
        Support, ascending.
    g : array or callable
        Probabilities, or one row of weights per lam, or a function that
        takes a slice of rows and returns the weight rows of that slice.
    lam : 1-d array
        Generic-time points.

    Returns
    -------
    norm, m1, m2, first : 1-d arrays
        Total conditional weight, recentred first and second moments, and the
        conditional probability of the smallest support point; ``nan`` where
        ``norm`` is 0, which the caller rejects.

    The weights ``g * exp(-lam (z - z_min))`` are formed one block of rows at
    a time, and a callable ``g`` builds its rows one block at a time too.
    Blocks hold a multiple of 64 rows: BLAS ``gemv`` sums a leftover group of
    rows in another order, so only such blocks give every row the same bits
    as one product over the whole grid.
    """
    dz = z - z[0]
    dz2 = dz * dz
    n = lam.shape[0]
    rows = max(64, _BLOCK_BYTES // (8 * dz.size) // 64 * 64)
    norm, s1, s2, g0 = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for start in range(0, n, rows):
        blk = slice(start, start + rows)
        g_blk = g(blk) if callable(g) else g[blk] if g.ndim == 2 else g
        w = g_blk * np.exp(np.multiply.outer(-lam[blk], dz))
        norm[blk] = w.sum(axis=1)
        s1[blk] = w @ dz
        s2[blk] = w @ dz2
        g0[blk] = g_blk[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return norm, s1 / norm, s2 / norm, g0 / norm


def kpoint_rfv_grid(z, pr, lam):
    """Relative frailty variance of a k-point family, (M2 / M1)(M0 / M1) - 1.

    M_q = sum_k z_k^q w_k are single sums over the weights
    w_k = p_k exp(-(z_k - z_1) lam), recentred at the smallest support point
    z_1 so they stay in range at any lam (the common factor exp(-z_1 lam)
    cancels).  This is the pair double sum
    sum_ab z_a^2 w_a w_b / sum_ab z_a z_b w_a w_b, factorised; dividing before
    multiplying keeps M1^2 from underflowing when 0 is in the support.
    """
    w = pr[None, :] * np.exp(-(z - z[0])[None, :] * lam[:, None])
    m1 = w @ z
    return ((w @ (z * z)) / m1) * (w.sum(axis=1) / m1) - 1.0


def kpoint_central_moments(z, pr, lam):
    """Survivor weight, mean, variance and third central moment of a k-point
    family, one entry per point of ``lam``.

    The weight sum_k p_k exp(-(z_k - z_1) lam) and the mean are recentred at
    the smallest support point z_1 (so L = weight * exp(-z_1 lam) and the
    survivor mean is z_1 + mean); the variance and third moment are summed
    about the mean in a second pass, so no two large terms cancel.
    """
    dz = z - z[0]
    w = pr[None, :] * np.exp(-dz[None, :] * lam[:, None])
    norm = w.sum(axis=1)
    w /= norm[:, None]
    mean = w @ dz
    c = dz[None, :] - mean[:, None]
    return norm, mean, np.sum(w * c * c, axis=1), np.sum(w * c * c * c, axis=1)


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
