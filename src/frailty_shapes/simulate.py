"""Cluster simulation under shared discrete frailty, plus empirical checks.

Each cluster draws one frailty ``Z`` and ``J`` conditionally independent
event times with cumulative hazard ``Z * H_j``; a zero frailty yields
infinite ("cured") times.  :func:`empirical_rfv` and :func:`empirical_crf`
recover the relative frailty variance and the cross-ratio from the simulated
sample so the analytic curves can be verified against selection in action.

Determinism: all draws come from a counter-based Philox stream keyed by
``(seed, stream-id)``.  Cluster ``i`` consumes ``J + 1`` uniforms (the first
selects the frailty atom, the next ``J`` drive the targets): row ``i`` of one
``(n_clusters, J + 1)`` matrix of the main stream.  Clusters are drawn in
chunks of ``_io._BLOCK_ROWS`` rows, and each chunk is drawn alone, by
advancing the stream to its first row (:func:`_draw`), so output depends
only on the config, never on which chunks run where.  Bootstrap standard
errors use separate stream ids.

Memory: :func:`simulate` fills one array per quantity.  Every count and
summary is one :func:`_tally` pass over chunks, and estimators use the
integer counts alone.  ``verify`` tallies the draw one chunk at a time,
whatever ``n_clusters`` is.  The command line's job maps the chunk starts
through :func:`._fork.map_on_two_cores`: each item draws, tallies and
formats its own chunk, so the draw runs on two cores when there are, and
the CSV and its summary get the same bytes either way.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, NamedTuple

import numpy as np

from . import _fork, _io, _kernels, _spec
from .errors import DegenerateConditional, EmptyWindow, LengthMismatch, TooFewAtRisk
from .families import FrailtyFamily, family_to_dict, support_table
from .hazards import _check_hazards, _check_time_vector, hazard_to_dict

#: Estimators refuse to run on fewer at-risk clusters than this.
MIN_AT_RISK = 30

#: Bootstrap resamples behind every reported standard error.
BOOTSTRAP_RESAMPLES = 200

_STREAM_MAIN = 0
_STREAM_RFV_BOOT = 1
_STREAM_CRF_BOOT = 2
_STREAM_CORRELATED = 3


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index of the atom each uniform in ``u`` draws from the CDF ``cdf``
    of a support table; the truncated tail mass falls on the last atom."""
    codes = np.searchsorted(cdf, u, side="right")
    return np.minimum(codes, cdf.shape[0] - 1).astype(np.int64)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; identical configs give bit-identical samples."""

    family: FrailtyFamily
    hazards: tuple
    n_clusters: int
    seed: int
    censor_time: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "hazards", _check_hazards(self.hazards))
        object.__setattr__(self, "n_clusters",
                           _spec.integer(self.n_clusters, "n_clusters", positive=True))
        object.__setattr__(self, "seed", _spec.seed(self.seed))
        if self.censor_time is not None:
            _spec.positive(self.censor_time, "censor_time")


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
        return _tally(self.config, self._chunks())[0] / len(self)

    def n_at_risk(self, t) -> int:
        return int(_tally(self.config, self._chunks(), [t])[1][0].sum())

    def _chunks(self):
        """The sample as the ``(start, codes, z, times)`` chunks of :func:`_chunks`."""
        for i, block in enumerate(_io.row_blocks((self.codes, self.z, self.times))):
            yield (i * _io._BLOCK_ROWS, *block)


def _draw(config: SimConfig, table, start: int) -> tuple:
    """``(start, codes, z, times)`` of the chunk of at most
    ``_io._BLOCK_ROWS`` clusters from cluster ``start`` on, a multiple of
    ``_io._BLOCK_ROWS``, over the support table ``table``.

    The chunk's uniforms are its rows of the one-shot ``(n_clusters, J + 1)``
    matrix, bit for bit: Philox makes four words per counter step and
    ``start (J + 1)`` is a multiple of four, so advancing the main stream by
    ``start (J + 1) / 4`` steps skips exactly the rows before ``start``.
    """
    j, n = len(config.hazards), config.n_clusters
    rng = _philox(config.seed, _STREAM_MAIN)
    rng.bit_generator.advance(start * (j + 1) // 4)
    u = rng.random((min(_io._BLOCK_ROWS, n - start), j + 1))
    codes = _inverse_cdf(np.cumsum(table.pmf), u[:, 0])
    z = table.z[codes]
    times = np.empty((u.shape[0], j))
    cured = z == 0.0
    with np.errstate(divide="ignore"):
        for q, hazard in enumerate(config.hazards):
            exp_draw = -np.log1p(-u[:, q + 1])
            target = np.where(cured, np.inf, exp_draw / np.where(cured, 1.0, z))
            times[:, q] = hazard.inverse_cumulative(target)
    return start, codes, z, times


def _chunks(config: SimConfig):
    """The ``(start, codes, z, times)`` chunks of :func:`_draw`, in order."""
    return map(functools.partial(_draw, config, support_table(config.family)),
               range(0, config.n_clusters, _io._BLOCK_ROWS))


def simulate(config: SimConfig) -> SampleSet:
    """Draw ``n_clusters`` clusters under the shared-frailty model."""
    codes = np.empty(config.n_clusters, dtype=np.int64)
    times = np.empty((config.n_clusters, len(config.hazards)))
    for start, chunk_codes, _, chunk_times in _chunks(config):
        codes[start:start + chunk_codes.shape[0]] = chunk_codes
        times[start:start + chunk_codes.shape[0]] = chunk_times
    return SampleSet(config, support_table(config.family).z, codes, times)


def population_survival(samples: SampleSet, t) -> EmpiricalEstimate:
    """Empirical P(all targets event-free at t) with its binomial-proportion SE."""
    n, alive = len(samples), samples.n_at_risk(t)
    p = alive / n
    return EmpiricalEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), alive)


def empirical_rfv(samples: SampleSet, t) -> EmpiricalEstimate:
    """Sample Var/mean^2 of Z among clusters with all event times past ``t``.

    The standard error is a nonparametric bootstrap over clusters
    (multinomial resampling of the at-risk frailty-value counts, 200
    resamples, stream derived from the simulation seed).
    """
    t = _check_time_vector(samples.config.hazards, t)
    return _rfv_estimate(samples.config, _tally(samples.config, samples._chunks(), [t])[1][0], t)


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
    query = _crf_query(samples.config, t, j, j_prime, window)
    cells = _tally(samples.config, samples._chunks(), crf_queries=[query])[2][0]
    return _crf_estimate(samples.config, cells, query[0], window)


def _crf_query(config: SimConfig, t, j: int, j_prime: int, window: float) -> tuple:
    """The checked cross-ratio query ``(t, j, j_prime, window)``."""
    if len(config.hazards) < 2:
        raise LengthMismatch("the cross-ratio needs at least two targets")
    j, j_prime = _spec.target_pair(j, j_prime, len(config.hazards))
    t = _check_time_vector(config.hazards, t)
    return t, j, j_prime, _spec.positive(window, "window")


def _crf_cells(times: np.ndarray, query: tuple) -> np.ndarray:
    """The flat 3x3 table of ``query`` over the rows whose other targets survive."""
    t, j, j_prime, window = query
    others = [q for q in range(times.shape[1]) if q not in (j, j_prime)]
    if others:
        times = times[(times[:, others] > t[others][None, :]).all(axis=1)]
    return _kernels.crf_cell_counts(times[:, j], times[:, j_prime], t[j], t[j_prime], window)


def _tally(config: SimConfig, chunks, alive_times=(), crf_queries=()):
    """``(cured, values, cells)`` summed over ``chunks``, ``config``'s sample
    as ``(start, codes, z, times)`` chunks: the cured count, the at-risk
    frailty-value counts at each of ``alive_times`` and the table of each
    ``(t, j, j_prime, window)`` cross-ratio query.  The queries are checked
    before the first chunk is read."""
    n_values = support_table(config.family).z.shape[0]
    alive_times = [_check_time_vector(config.hazards, t) for t in alive_times]
    crf_queries = [_crf_query(config, *q) for q in crf_queries]
    values = np.zeros((len(alive_times), n_values), dtype=np.int64)
    cells = np.zeros((len(crf_queries), 9), dtype=np.int64)
    cured = 0
    for _, codes, z, times in chunks:
        cured += int(np.count_nonzero(z == 0.0))
        for i, t in enumerate(alive_times):
            values[i] += _kernels.riskset_value_counts(codes, times, t, n_values)
        for i, query in enumerate(crf_queries):
            cells[i] += _crf_cells(times, query)
    return cured, values, cells


def _rfv_from_counts(support, counts):
    m = counts.sum(axis=-1)
    mean = counts @ support / m
    second = counts @ (support * support) / m
    var = (second - mean**2) * (m / (m - 1.0))
    # callers reject mean <= 0; keep the zero-mean rows quiet until then
    with np.errstate(divide="ignore", invalid="ignore"):
        return var / mean**2, mean


def _rfv_estimate(config: SimConfig, counts: np.ndarray, t) -> EmpiricalEstimate:
    """:func:`empirical_rfv` from the at-risk frailty-value ``counts`` at ``t``."""
    support = support_table(config.family).z
    m = int(counts.sum())
    if m < MIN_AT_RISK:
        raise TooFewAtRisk(f"only {m} clusters at risk at t={t}, need {MIN_AT_RISK}")
    est, mean = _rfv_from_counts(support, counts.astype(np.float64))
    if mean <= 0.0:
        raise DegenerateConditional("all at-risk clusters have zero frailty")
    rng = _philox(config.seed, _STREAM_RFV_BOOT)
    resampled = rng.multinomial(m, counts / m, size=BOOTSTRAP_RESAMPLES)
    boot, boot_mean = _rfv_from_counts(support, resampled.astype(np.float64))
    ok = boot_mean > 0.0
    se = float(np.std(boot[ok], ddof=1))
    return EmpiricalEstimate(float(est), se, m)


def _crf_estimate(config: SimConfig, cells: np.ndarray, t, window: float) -> EmpiricalEstimate:
    """:func:`empirical_crf` from the flattened 3x3 table ``cells``."""
    total = int(cells.sum())
    rng = _philox(config.seed, _STREAM_CRF_BOOT)
    # row 0 is the sample, rows 1.. its resamples; an empty table resamples
    # to empty tables, which row 0's first check rejects
    draws = rng.multinomial(total, cells / max(total, 1), size=BOOTSTRAP_RESAMPLES)
    m = np.vstack([cells, draws]).astype(np.float64).reshape(-1, 3, 3)
    a_num = m[:, 1, 1]
    r_num = a_num + m[:, 2, 1]
    a_den = a_num + m[:, 1, 2]
    r_den = a_den + m[:, 2, 1] + m[:, 2, 2]
    if r_den[0] < MIN_AT_RISK:
        raise TooFewAtRisk(f"only {int(r_den[0])} cluster pairs at risk, need {MIN_AT_RISK}")
    if r_num[0] == 0 or a_den[0] == 0:
        raise EmptyWindow(f"no events inside a window of {window} after t={t}")
    if r_num[0] < MIN_AT_RISK:
        raise TooFewAtRisk(f"only {int(r_num[0])} clusters in the conditional risk set, "
                           f"need {MIN_AT_RISK}")
    ok = (r_den >= MIN_AT_RISK) & (r_num >= MIN_AT_RISK) & (a_den > 0)
    if ok[1:].sum() < BOOTSTRAP_RESAMPLES // 2:
        raise EmptyWindow("bootstrap resamples kept losing the window events")
    ratio = (a_num[ok] / r_num[ok]) / (a_den[ok] / r_den[ok])
    se = float(np.std(ratio[1:], ddof=1))
    return EmpiricalEstimate(float(ratio[0]), se, int(r_den[0]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _csv_header(config: SimConfig) -> list:
    return ["cluster_id", "z", *(f"t_{q + 1}" for q in range(len(config.hazards))), "censored"]


def _csv_text(censor, chunk) -> bytes:
    """The CSV rows of a ``(start, codes, z, times)`` chunk: the clusters
    ``start, start + 1, ...`` with their frailties and their latent times
    clipped at ``censor``."""
    start, _, z, times = chunk
    if censor is None:
        observed = times
        flags = np.zeros(z.shape[0], dtype=np.int64)
    else:
        observed = np.minimum(times, censor)
        flags = (times > censor).any(axis=1).astype(np.int64)
    return _io._format_block([np.arange(start, start + z.shape[0]), z, *observed.T, flags])


def samples_to_csv(samples: SampleSet, path) -> None:
    """Write ``cluster_id,z,t_1,...,t_J,censored`` rows.

    Cured times appear as ``inf``.  When the config carries a censor time,
    the written times are clipped there and the flag marks clusters with at
    least one clipped entry.
    """
    _io.write_csv(path, _csv_header(samples.config), _fork.map_on_two_cores(
        functools.partial(_csv_text, samples.config.censor_time), list(samples._chunks())))


def _summary(cfg: SimConfig, cured: int, values: np.ndarray, summary_times) -> dict:
    """The summary payload of ``cfg``'s sample from its cured count and its
    at-risk frailty-value counts at each of ``summary_times``."""
    return {
        "family": family_to_dict(cfg.family),
        "hazards": [hazard_to_dict(h) for h in cfg.hazards],
        "n_clusters": int(cfg.n_clusters),
        "seed": int(cfg.seed),
        "censor_time": cfg.censor_time,
        "cure_fraction": cured / cfg.n_clusters,
        "at_risk": [{"t": list(np.atleast_1d(np.asarray(t, dtype=float))), "n": int(v.sum())}
                    for t, v in zip(summary_times, values)],
    }


def simulation_summary(samples: SampleSet, summary_times=None) -> dict:
    """JSON-ready summary: config echo, cure fraction, at-risk counts."""
    summary_times = summary_times or []
    cured, values, _ = _tally(samples.config, samples._chunks(), summary_times)
    return _summary(samples.config, cured, values, summary_times)


def _chunk_job(config: SimConfig, summary_times, start: int) -> tuple:
    """The CSV text, cured count and at-risk counts of the chunk of
    ``config``'s draw from cluster ``start``."""
    chunk = _draw(config, support_table(config.family), start)
    cured, values, _ = _tally(config, [chunk], summary_times)
    return _csv_text(config.censor_time, chunk), cured, values


def _write_simulation(config: SimConfig, path, summary_times=None) -> None:
    """:func:`samples_to_csv` and the :func:`simulation_summary` sidecar of
    ``simulate(config)``, each chunk drawn, tallied and formatted by one
    item of :func:`._fork.map_on_two_cores`."""
    summary_times = summary_times or []
    # an empty tally checks the times before the CSV is opened
    cured, values, _ = _tally(config, (), summary_times)

    def texts():
        nonlocal cured, values
        for text, chunk_cured, chunk_values in _fork.map_on_two_cores(
                functools.partial(_chunk_job, config, summary_times),
                range(0, config.n_clusters, _io._BLOCK_ROWS)):
            cured += chunk_cured
            values += chunk_values
            yield text

    _io.write_csv(path, _csv_header(config), texts())
    _io.write_json(_io.sidecar_path(path), _summary(config, cured, values, summary_times))
