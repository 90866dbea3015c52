"""Cluster simulation under shared discrete frailty, plus empirical checks.

Each cluster draws one frailty ``Z`` and ``J`` conditionally independent
event times with cumulative hazard ``Z * H_j``; a zero frailty yields
infinite ("cured") times.  :func:`empirical_rfv` and :func:`empirical_crf`
recover the relative frailty variance and the cross-ratio from the simulated
sample so the analytic curves can be verified against selection in action.

Determinism: all draws come from a counter-based Philox stream keyed by
``(seed, stream-id)``; cluster ``i`` consumes row ``i`` of a single uniform
matrix of shape ``(n_clusters, J + 1)`` (column 0 selects the frailty atom,
column ``j + 1`` drives target ``j``), so output depends only on the config,
never on scheduling.  Bootstrap standard errors use separate stream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, NamedTuple

import numpy as np

from . import _io, _kernels
from .errors import (
    DegenerateConditional,
    EmptyWindow,
    LengthMismatch,
    ParameterOutOfRange,
    TooFewAtRisk,
)
from .families import FrailtyFamily, family_to_dict, support_table
from .hazards import hazard_to_dict

#: Estimators refuse to run on fewer at-risk clusters than this.
MIN_AT_RISK = 30

#: Bootstrap resamples behind every reported standard error.
BOOTSTRAP_RESAMPLES = 200

_STREAM_MAIN = 0
_STREAM_RFV_BOOT = 1
_STREAM_CRF_BOOT = 2


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed % 2**64), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; identical configs give bit-identical samples."""

    family: FrailtyFamily
    hazards: tuple
    n_clusters: int
    seed: int
    censor_time: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "hazards", tuple(self.hazards))
        if len(self.hazards) < 1:
            raise LengthMismatch("at least one hazard is required")
        if not isinstance(self.n_clusters, (int, np.integer)) or self.n_clusters < 1:
            raise ParameterOutOfRange(
                f"n_clusters must be a positive integer, got {self.n_clusters}"
            )
        if self.censor_time is not None and not self.censor_time > 0.0:
            raise ParameterOutOfRange(
                f"censor_time must be positive, got {self.censor_time}"
            )


@dataclass(frozen=True)
class ClusterSample:
    """One cluster: its frailty, J event times (inf when cured), censoring time."""

    z: float
    times: tuple
    censored_at: Optional[float] = None


class EmpiricalEstimate(NamedTuple):
    estimate: float
    std_error: float
    n_at_risk: int


class SampleSet(Sequence):
    """Columnar container of simulated clusters.

    Behaves as a sequence of :class:`ClusterSample` while storing the frailty
    values, support codes, and the ``(n, J)`` time matrix as arrays.  The
    in-memory times are the latent event times; administrative censoring only
    affects serialization (clipped times plus a ``censored`` flag).
    """

    def __init__(self, config: SimConfig, support: np.ndarray, codes: np.ndarray,
                 times: np.ndarray):
        self.config = config
        self.support = support
        self.codes = codes
        self.z = support[codes]
        self.times = times

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, i) -> ClusterSample:
        if isinstance(i, slice):
            raise TypeError("SampleSet does not support slicing; index clusters directly")
        return ClusterSample(z=float(self.z[i]), times=tuple(self.times[i]),
                             censored_at=self.config.censor_time)

    def cure_fraction(self) -> float:
        return float(np.mean(self.z == 0.0))

    def n_at_risk(self, t) -> int:
        t = _check_time_vector(self.config.hazards, t)
        return int((self.times > t[None, :]).all(axis=1).sum())


def _check_time_vector(hazards, t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.shape[0] != len(hazards):
        raise LengthMismatch(
            f"time vector of length {t.shape[0]} for {len(hazards)} hazards"
        )
    if not np.all(np.isfinite(t)) or float(t.min()) < 0.0:
        raise ParameterOutOfRange("time vector must be finite and nonnegative")
    return t


def simulate(config: SimConfig) -> SampleSet:
    """Draw ``n_clusters`` clusters under the shared-frailty model."""
    table = support_table(config.family)
    cdf = np.cumsum(table.pmf)
    rng = _philox(config.seed, _STREAM_MAIN)
    j = len(config.hazards)
    u = rng.random((config.n_clusters, j + 1))
    codes = np.searchsorted(cdf, u[:, 0], side="right")
    codes = np.minimum(codes, table.z.shape[0] - 1).astype(np.int64)
    z = table.z[codes]
    times = np.empty((config.n_clusters, j))
    cured = z == 0.0
    with np.errstate(divide="ignore"):
        for q, hazard in enumerate(config.hazards):
            exp_draw = -np.log1p(-u[:, q + 1])
            target = np.where(cured, np.inf, exp_draw / np.where(cured, 1.0, z))
            times[:, q] = hazard.inverse_cumulative(target)
    return SampleSet(config=config, support=table.z, codes=codes, times=times)


def population_survival(samples: SampleSet, t) -> EmpiricalEstimate:
    """Empirical P(all targets event-free at t) with its binomial-proportion SE."""
    t = _check_time_vector(samples.config.hazards, t)
    n = len(samples)
    alive = int((samples.times > t[None, :]).all(axis=1).sum())
    p = alive / n
    return EmpiricalEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), alive)


def _rfv_from_counts(support, counts):
    m = counts.sum(axis=-1)
    mean = counts @ support / m
    second = counts @ (support * support) / m
    var = (second - mean**2) * (m / (m - 1.0))
    # callers reject mean <= 0; keep the zero-mean rows quiet until then
    with np.errstate(divide="ignore", invalid="ignore"):
        return var / mean**2, mean


def empirical_rfv(samples: SampleSet, t) -> EmpiricalEstimate:
    """Sample Var/mean^2 of Z among clusters with all event times past ``t``.

    The standard error is a nonparametric bootstrap over clusters
    (multinomial resampling of the at-risk frailty-value counts, 200
    resamples, stream derived from the simulation seed).
    """
    t = _check_time_vector(samples.config.hazards, t)
    counts = _kernels.riskset_value_counts(samples.codes, samples.times, t,
                                           samples.support.shape[0])
    m = int(counts.sum())
    if m < MIN_AT_RISK:
        raise TooFewAtRisk(f"only {m} clusters at risk at t={t}, need {MIN_AT_RISK}")
    est, mean = _rfv_from_counts(samples.support, counts.astype(np.float64))
    if mean <= 0.0:
        raise DegenerateConditional("all at-risk clusters have zero frailty")
    rng = _philox(samples.config.seed, _STREAM_RFV_BOOT)
    resampled = rng.multinomial(m, counts / m, size=BOOTSTRAP_RESAMPLES)
    boot, boot_mean = _rfv_from_counts(samples.support, resampled.astype(np.float64))
    ok = boot_mean > 0.0
    se = float(np.std(boot[ok], ddof=1))
    return EmpiricalEstimate(float(est), se, m)


def empirical_crf(samples: SampleSet, t, j: int, j_prime: int,
                  window: float = 0.05) -> EmpiricalEstimate:
    """Windowed hazard-ratio estimate of the cross-ratio at time vector ``t``.

    The numerator hazard of target ``j`` conditions on target ``j_prime``
    failing inside ``[t_jp, t_jp + window)`` and all other targets surviving;
    the denominator conditions on every other target surviving.  Both hazards
    use the same window on target ``j``, so the window length cancels and the
    ratio estimates the cross-ratio up to O(window) bias.  The standard error
    bootstraps the 3x3 joint window/survival table (200 multinomial
    resamples).
    """
    jn = len(samples.config.hazards)
    if jn < 2:
        raise LengthMismatch("the cross-ratio needs at least two targets")
    if j == j_prime or not (0 <= j < jn and 0 <= j_prime < jn):
        raise ParameterOutOfRange(
            f"need two distinct target indices in [0, {jn}), got {j}, {j_prime}"
        )
    t = _check_time_vector(samples.config.hazards, t)
    if not window > 0.0:
        raise ParameterOutOfRange(f"window must be positive, got {window}")
    others = [q for q in range(jn) if q not in (j, j_prime)]
    if others:
        keep = (samples.times[:, others] > t[others][None, :]).all(axis=1)
        ta = samples.times[keep, j]
        tb = samples.times[keep, j_prime]
    else:
        ta = samples.times[:, j]
        tb = samples.times[:, j_prime]
    cells = _kernels.crf_cell_counts(ta, tb, t[j], t[j_prime], window)

    def ratio(c):
        m = c.reshape(3, 3)
        a_num = m[1, 1]
        r_num = m[1, 1] + m[2, 1]
        a_den = m[1, 1] + m[1, 2]
        r_den = m[1, 1] + m[1, 2] + m[2, 1] + m[2, 2]
        if r_den < MIN_AT_RISK:
            raise TooFewAtRisk(
                f"only {int(r_den)} cluster pairs at risk, need {MIN_AT_RISK}"
            )
        if r_num == 0 or a_den == 0:
            raise EmptyWindow(
                f"no events inside a window of {window} after t={t}"
            )
        if r_num < MIN_AT_RISK:
            raise TooFewAtRisk(
                f"only {int(r_num)} clusters in the conditional risk set, "
                f"need {MIN_AT_RISK}"
            )
        return (a_num / r_num) / (a_den / r_den), int(r_den)

    est, r_den = ratio(cells.astype(np.float64))
    total = int(cells.sum())
    rng = _philox(samples.config.seed, _STREAM_CRF_BOOT)
    draws = rng.multinomial(total, cells / total, size=BOOTSTRAP_RESAMPLES)
    boot = []
    for row in draws:
        try:
            boot.append(ratio(row.astype(np.float64))[0])
        except (TooFewAtRisk, EmptyWindow):
            continue
    if len(boot) < BOOTSTRAP_RESAMPLES // 2:
        raise EmptyWindow("bootstrap resamples kept losing the window events")
    se = float(np.std(np.asarray(boot), ddof=1))
    return EmpiricalEstimate(float(est), se, r_den)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def samples_to_csv(samples: SampleSet, path) -> None:
    """Write ``cluster_id,z,t_1,...,t_J,censored`` rows.

    Cured times appear as ``inf``.  When the config carries a censor time,
    the written times are clipped there and the flag marks clusters with at
    least one clipped entry.
    """
    j = samples.times.shape[1]
    censor = samples.config.censor_time
    if censor is None:
        observed = samples.times
        flags = np.zeros(len(samples), dtype=np.int64)
    else:
        observed = np.minimum(samples.times, censor)
        flags = (samples.times > censor).any(axis=1).astype(np.int64)
    header = ["cluster_id", "z"] + [f"t_{q + 1}" for q in range(j)] + ["censored"]
    _io.write_csv(path, header,
                  [np.arange(len(samples)), samples.z, *observed.T, flags])


def simulation_summary(samples: SampleSet, summary_times=None) -> dict:
    """JSON-ready summary: config echo, cure fraction, at-risk counts."""
    cfg = samples.config
    out = {
        "family": family_to_dict(cfg.family),
        "hazards": [hazard_to_dict(h) for h in cfg.hazards],
        "n_clusters": int(cfg.n_clusters),
        "seed": int(cfg.seed),
        "censor_time": cfg.censor_time,
        "cure_fraction": samples.cure_fraction(),
        "at_risk": [],
    }
    for t in summary_times or []:
        out["at_risk"].append({"t": list(np.atleast_1d(np.asarray(t, dtype=float))),
                               "n": samples.n_at_risk(t)})
    return out
