"""Hot numeric kernels, vectorised in numpy.

Kernels are deterministic pure functions; all random number generation stays
in numpy Generators outside this module.
"""

from __future__ import annotations

import itertools

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation in use; always ``"numpy"``."""
    return "numpy"


#: Bytes of survivor weights formed at once (about 0.5 MB, so a block stays
#: in L2); the oracle's working memory is this block, whatever the grid length.
_BLOCK_BYTES = 1 << 19


def survivor_moment_grid(z, log_g, lam):
    """Log of the total weight, mean and variance of Z - z_min, and the
    probability of z_min, among survivors at each point of the 1-d grid
    ``lam``, on the ascending support ``z``; ``nan`` where a row of ``log_g``
    is all ``-inf``, which the caller rejects.

    ``log_g`` holds log-probabilities, or is a function that takes a slice of
    rows and returns one row of log-weights per lam of that slice.  Each
    row's ``log_g - lam (z - z_min)`` is shifted by its largest before
    ``exp``, so the sums stay in range however far ``g`` underflows, and the
    variance is summed about the mean.  Rows are formed one block at a time.
    Blocks hold a multiple of 64 rows: BLAS ``gemv`` sums a leftover group of
    rows in another order, so only such blocks give every row the same bits
    as one product over the whole grid.
    """
    dz = z - z[0]
    n = lam.shape[0]
    rows = max(64, _BLOCK_BYTES // (8 * dz.size) // 64 * 64)
    log_norm, mean, var, g0 = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    # lam (z - z_min) past float64 is a weight of 0; an all -inf row gives nan
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            w = np.multiply.outer(lam[blk], dz)
            np.subtract(log_g(blk) if callable(log_g) else log_g, w, out=w)
            top = w.max(axis=1)
            w -= top[:, None]
            np.exp(w, out=w)
            norm = w.sum(axis=1)
            log_norm[blk] = top + np.log(norm)
            mean[blk] = w @ dz / norm
            c = dz - mean[blk, None]
            c *= c
            var[blk] = np.einsum("ij,ij->i", w, c) / norm
            g0[blk] = w[:, 0] / norm
    return log_norm, mean, var, g0


def kpoint_rfv_grid(z, pr, lam):
    """Relative frailty variance of a k-point family as the pair sum
    sum_{a<b} (w_a d_ab / mean) (w_b d_ab / mean), d_ab = z_b - z_a, with w the
    survivors' probabilities and mean = sum_k w_k z_k.  Each term is
    exp(log w_a + log w_b + 2 (log d_ab - log mean)), so none is negative and
    gaps far below 1e-154, or weights below the float64 range, keep their
    digits.  The loop over the pairs holds one value per point of ``lam``.
    """
    log_w = np.multiply.outer(z[0] - z, lam)  # one row per support point
    log_w += np.log(pr)[:, None]  # <= 0, and log p_1 in the first row: no sum underflows
    log_w -= np.log(np.exp(log_w).sum(axis=0))
    log_mean = np.log(z @ np.exp(log_w))
    rfv = np.zeros(lam.shape)
    for a, b in itertools.combinations(range(z.size), 2):
        rfv += np.exp(log_w[a] + log_w[b] + 2.0 * (np.log(z[b] - z[a]) - log_mean))
    return rfv


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
