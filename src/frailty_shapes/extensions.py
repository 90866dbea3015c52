"""Model extensions beyond a single time-invariant shared frailty.

Three constructions reuse the same Laplace-transform machinery:

* :class:`CorrelatedPoissonModel` -- each target ``j`` gets its own Poisson
  frailty with rate ``eta_j * W``, all sharing the mixing variable ``W``, so
  frailties are correlated but not identical across targets.  The joint
  survivor function is W's Laplace transform evaluated at
  ``d(t) = sum_j eta_j (1 - exp(-H_j(t_j)))`` and the cross-ratio becomes a
  function of ``d`` alone.  The cross-ratio here is no longer ``1 + RFV`` of
  any single frailty: the model gives it as ``crf_of_d`` (or at a time
  vector, ``correlated_crf``), beside ``d_of_t``, ``joint_survival``,
  ``frailty_correlation`` and the joint draws of ``sample``.
* :class:`PiecewiseFrailtyModel` -- the acting frailty is redrawn (or carried
  over) at fixed calendar cutpoints; segments may be independent, identical
  copies, or coupled through an explicit conditional table.
* :class:`TimeVaryingShift` -- a deterministic drift ``p(Lambda)`` added to a
  discrete frailty, generalizing the constant-shift family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Tuple, Union

import numpy as np

from . import _io, _kernels, _spec
from ._spec import _require
from .errors import (
    DegenerateDistribution,
    DivisionNearZero,
    LengthMismatch,
    TimeBeforeFinalSegment,
    UnsupportedFamily,
)
from .families import (
    FrailtyFamily,
    GammaFrailty,
    PROB_SUM_TOL,
    _bad_points,
    _finite_result,
    _survivor_triple,
    check_grid,
    laplace,
    moments,
    support_table,
    validate,
)
from .oracle import SurvivorPmf, _normalised, _rfv_from_sums, rfv as oracle_rfv, survivor_pmf
from .shapes import classify_tail, crf_at
from .hazards import _check_hazards, _check_time_vector
from .simulate import _inverse_cdf, _philox

_STREAM_CORRELATED = 3


# ---------------------------------------------------------------------------
# Correlated Poisson mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatedPoissonModel:
    """Poisson frailties Z^(j) | W ~ Poisson(eta_j * W) sharing the mixer W.

    ``w_dist`` may be any supported frailty family with positive mean; the
    classic choice is :class:`~frailty_shapes.families.GammaFrailty`.
    """

    etas: Tuple[float, ...]
    w_dist: FrailtyFamily
    hazards: tuple

    def __post_init__(self):
        object.__setattr__(self, "etas",
                           tuple(float(e) for e in _spec.number_list(self.etas, "etas")))
        object.__setattr__(self, "hazards", _check_hazards(self.hazards))
        validate(self.w_dist)
        if len(self.etas) < 2:
            raise LengthMismatch("need at least two targets for a correlated model")
        if len(self.hazards) != len(self.etas):
            raise LengthMismatch(
                f"{len(self.hazards)} hazards for {len(self.etas)} rate multipliers"
            )
        for e in self.etas:
            _spec.positive(e, "rate multipliers")
        mean, _ = moments(self.w_dist)
        if not mean > 0.0:
            raise DegenerateDistribution("mixing variable must have positive mean")

    def d_of_t(self, t) -> float:
        """Effective argument d(t) = sum_j eta_j (1 - exp(-H_j(t_j)))."""
        t = _check_time_vector(self.hazards, t)
        total = 0.0
        for eta, hazard, tj in zip(self.etas, self.hazards, t):
            total += eta * -math.expm1(-hazard.cumulative(float(tj)))
        return total

    def joint_survival(self, t) -> float:
        return laplace(self.w_dist, self.d_of_t(t)).l0

    def crf_of_d(self, d):
        """Cross-ratio between any two targets: the mixer's CRF at d."""
        return crf_at(self.w_dist, d)

    def correlated_crf(self, t) -> float:
        return self.crf_of_d(self.d_of_t(t))

    def frailty_correlation(self, j: int, j_prime: int) -> float:
        """corr(Z^(j), Z^(j')) induced by the shared mixer."""
        j, j_prime = _spec.target_pair(j, j_prime, len(self.etas))
        mean, var = moments(self.w_dist)
        ra, rb = self.etas[j], self.etas[j_prime]
        num = var * math.sqrt(ra * rb)
        den = math.sqrt((var * ra + mean) * (var * rb + mean))
        return num / den

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n joint frailty vectors, shape (n, J)."""
        n, seed = _spec.integer(n, "n", positive=True), _spec.seed(seed)
        return np.concatenate(list(self._draw_chunks(n, seed))).astype(np.float64)

    def _draw_chunks(self, n: int, seed: int):
        """Yield :meth:`sample`'s rows as integers, ``_io._BLOCK_ROWS`` at a time:
        one generator skips the stream's n mixer values to its Poisson draws, a
        second on the same key replays them; numpy draws element by element."""
        if isinstance(self.w_dist, GammaFrailty):
            shape = self.w_dist.mean**2 / self.w_dist.variance
            scale = self.w_dist.variance / self.w_dist.mean
            mixer = lambda rng, size: rng.gamma(shape, scale, size=size)
        else:
            table = support_table(self.w_dist)
            mixer = lambda rng, size: table.z[_inverse_cdf(table, rng.random(size))]
        sizes = [min(_io._BLOCK_ROWS, n - s) for s in range(0, n, _io._BLOCK_ROWS)]
        replay, rng = _philox(seed, _STREAM_CORRELATED), _philox(seed, _STREAM_CORRELATED)
        for size in sizes:
            mixer(rng, size)
        for size in sizes:
            yield rng.poisson(np.multiply.outer(mixer(replay, size), self.etas))


# ---------------------------------------------------------------------------
# Piecewise (calendar-time segmented) frailty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingTable:
    """Conditional pmf of the earlier segment frailties given the final one.

    ``conditional[i_1, ..., i_{Q-1}, k]`` is
    P(Z_1 = z_1[i_1], ..., Z_{Q-1} = z_{Q-1}[i_{Q-1}] | Z_Q = z_Q[k]);
    summing over all leading axes must give 1 for every ``k``.
    """

    conditional: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.conditional, dtype=np.float64)
        except ValueError:  # ragged nesting, or entries that are not numbers
            raise LengthMismatch("joint_coupling conditional must be a rectangular table "
                                 f"of numbers, got {self.conditional!r}") from None
        object.__setattr__(self, "conditional", arr)
        if arr.ndim < 2:
            raise LengthMismatch("a coupling table needs at least two segments")
        _require(np.all(np.isfinite(arr) & (arr >= 0.0)),
                 "conditional probabilities must be finite and nonnegative")
        col_sums = arr.sum(axis=tuple(range(arr.ndim - 1)))
        if np.any(np.abs(col_sums - 1.0) > PROB_SUM_TOL):
            raise DegenerateDistribution(
                f"conditional columns must each sum to 1, got sums {col_sums!r}"
            )


Coupling = Union[str, CouplingTable]


@dataclass(frozen=True)
class PiecewiseFrailtyModel:
    """Frailty redrawn (or carried over) at fixed calendar cutpoints.

    ``cutpoints`` are the Q-1 strictly increasing segment boundaries; segment
    q covers calendar time ``[cut_{q-1}, cut_q)`` with ``cut_0 = 0`` and the
    final segment unbounded.  ``joint_coupling`` is ``"independent"``,
    ``"identical"`` (every segment reuses one draw; families must coincide),
    or a :class:`CouplingTable` over the segment supports.
    """

    cutpoints: Tuple[float, ...]
    segment_families: Tuple[FrailtyFamily, ...]
    hazards: tuple
    joint_coupling: Coupling = "independent"

    def __post_init__(self):
        object.__setattr__(self, "cutpoints", tuple(
            float(c) for c in _spec.number_list(self.cutpoints, "cutpoints")))
        object.__setattr__(self, "segment_families",
                           _spec.listed(self.segment_families, "segment_families"))
        object.__setattr__(self, "hazards", _check_hazards(self.hazards))
        if len(self.segment_families) != len(self.cutpoints) + 1:
            raise LengthMismatch(
                f"{len(self.segment_families)} segment families need "
                f"{len(self.segment_families) - 1} cutpoints, got {len(self.cutpoints)}"
            )
        for fam in self.segment_families:
            validate(fam)
        cuts = self.cutpoints
        _require(all(math.isfinite(c) and c > 0.0 for c in cuts),
                 f"cutpoints must be positive, got {cuts}")
        _require(all(a < b for a, b in zip(cuts, cuts[1:])),
                 f"cutpoints must strictly increase, got {cuts}")
        if isinstance(self.joint_coupling, str):
            if self.joint_coupling not in ("independent", "identical"):
                raise UnsupportedFamily(
                    f"unknown coupling {self.joint_coupling!r}; use 'independent', "
                    f"'identical', or a CouplingTable"
                )
            if (self.joint_coupling == "identical"
                    and len(set(map(repr, self.segment_families))) > 1):
                raise DegenerateDistribution(
                    "identical coupling requires every segment to use the same family"
                )
        elif isinstance(self.joint_coupling, CouplingTable):
            sizes = tuple(support_table(f).z.shape[0] for f in self.segment_families)
            if self.joint_coupling.conditional.shape != sizes:
                raise LengthMismatch(
                    f"coupling table shape {self.joint_coupling.conditional.shape} "
                    f"does not match segment support sizes {sizes}"
                )
        else:
            raise UnsupportedFamily(
                f"unsupported coupling {type(self.joint_coupling)!r}"
            )

    def segment_loads(self, t) -> np.ndarray:
        """Generic time accrued inside each calendar segment up to ``t``, one time
        per target: a vector ``(J,)`` gives the ``(Q,)`` loads, a matrix ``(n, J)``
        one row of loads per row.  Entry q sums, over targets, the cumulative
        hazard gathered inside segment q (clipped at each target's own time)."""
        # the check counts one time per hazard along the first axis
        t = _check_time_vector(self.hazards, np.asarray(t, dtype=np.float64).T).T
        final_start = self.cutpoints[-1] if self.cutpoints else 0.0
        if float(t.min()) < final_start:
            raise TimeBeforeFinalSegment(
                f"all times must reach the final segment start {final_start}, "
                f"got a time of {float(t.min())}"
            )
        edges = np.asarray((0.0,) + self.cutpoints + (np.inf,))
        loads = 0.0
        for hazard, tj in zip(self.hazards, t.T):
            stops = np.minimum(edges, np.asarray(tj)[..., None])
            loads = loads + np.diff(hazard.cumulative(stops), axis=-1)
        return loads


def _named_coupling_load(model: PiecewiseFrailtyModel, loads: np.ndarray):
    """The final frailty's load: its own segment's if independent (the earlier
    survival factors cancel in the conditional), else every segment's."""
    return loads[..., -1] if model.joint_coupling == "independent" else loads.sum(axis=-1)


def _coupled_prior(model: PiecewiseFrailtyModel, loads: np.ndarray) -> np.ndarray:
    """One row per row of the ``(n, Q)`` ``loads``: the final segment's
    P(Z_Q = z_k) * P(survive the earlier segments | Z_Q = z_k)."""
    carry = model.joint_coupling.conditional[None]  # einsum broadcasts it over rows
    for q, family in enumerate(model.segment_families[:-1]):
        # sum segment q's axis against its survival factor exp(-z load_q)
        survive = np.exp(-np.multiply.outer(loads[:, q], support_table(family).z))
        carry = np.einsum("nk,nk...->n...", survive, carry)
    return carry * support_table(model.segment_families[-1]).pmf


def piecewise_survivor_pmf(model: PiecewiseFrailtyModel, t) -> SurvivorPmf:
    """Conditional pmf of the final-segment frailty among survivors at ``t``."""
    loads = model.segment_loads(t)
    if isinstance(model.joint_coupling, str):
        load = float(_named_coupling_load(model, loads))
        return survivor_pmf(model.segment_families[-1], load)
    table = support_table(model.segment_families[-1])
    unnorm = _coupled_prior(model, loads[None])[0] * np.exp(-(table.z - table.z[0]) * loads[-1])
    return _normalised(float(loads.sum()), table.z, unnorm, table.tail_mass)


def piecewise_rfv(model: PiecewiseFrailtyModel, t):
    """Relative frailty variance of the currently acting frailty at ``t``: a
    time vector ``(J,)`` gives a float, a matrix ``(n, J)`` one value per row."""
    loads = model.segment_loads(t)
    if isinstance(model.joint_coupling, str):
        return oracle_rfv(model.segment_families[-1], _named_coupling_load(model, loads))
    table = support_table(model.segment_families[-1])
    final = np.asarray(loads[..., -1])
    rows = np.atleast_2d(loads)
    # the kernel builds the prior one block of rows at a time
    _, m1, m2, _ = _kernels.survivor_moment_grid(
        table.z, lambda blk: _coupled_prior(model, rows[blk]), np.ravel(final))
    return _rfv_from_sums("the coupled final segment", final, table.z[0], m1, m2)


def piecewise_tail(model: PiecewiseFrailtyModel):
    """Long-run tail class, determined by the final segment family alone."""
    return classify_tail(model.segment_families[-1])


# ---------------------------------------------------------------------------
# Time-varying shift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Path:
    """A shift path p(Lambda) whose one parameter is positive and finite; it
    is held as a float, so a spec echoes an integer parameter as 4.0."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(_spec.positive(getattr(self, f.name), f.name)))


@dataclass(frozen=True)
class ExpHalf(_Path):
    """p(Lambda) = eta * exp(-Lambda / 2): decays at half the conditioning rate."""

    eta: float

    def value(self, lam):
        return self.eta * np.exp(-lam / 2.0)


@dataclass(frozen=True)
class ExpHalfSine(_Path):
    """p(Lambda) = eta * exp(-Lambda / 2) * (2 + sin Lambda): half-rate decay
    with a bounded oscillation, so the relative variance keeps oscillating
    instead of settling at a limit."""

    eta: float

    def value(self, lam):
        return self.eta * np.exp(-lam / 2.0) * (2.0 + np.sin(lam))


@dataclass(frozen=True)
class ExpFull(_Path):
    """p(Lambda) = eta * exp(-Lambda): decays as fast as the conditioning."""

    eta: float

    def value(self, lam):
        return self.eta * np.exp(-lam)


@dataclass(frozen=True)
class ConstantFloor(_Path):
    """p(Lambda) = p0 > 0: a fixed guaranteed hazard contribution."""

    p0: float

    def value(self, lam):
        return np.full(np.shape(lam), self.p0)[()]


ShiftPath = Union[ExpHalf, ExpHalfSine, ExpFull, ConstantFloor]

#: The JSON tag of each shift path class; drives the type check of
#: :class:`TimeVaryingShift` and both directions of the JSON codec.
_SHIFT_TAGS = {
    ExpHalf: "exp_half",
    ExpHalfSine: "exp_half_sine",
    ExpFull: "exp_full",
    ConstantFloor: "constant",
}


@dataclass(frozen=True)
class TimeVaryingShift:
    """Frailty Z(t) = Z_* + p(Lambda(t)) with Z_* a discrete frailty."""

    inner: FrailtyFamily
    shift_fn: ShiftPath

    def __post_init__(self):
        validate(self.inner)
        if not isinstance(self.shift_fn, tuple(_SHIFT_TAGS)):
            raise UnsupportedFamily(
                f"unsupported shift path {type(self.shift_fn)!r}"
            )


def timevarying_shift_rfv(model: TimeVaryingShift, lam):
    """Relative frailty variance of Z_* + p(Lambda) among survivors, at each ``lam``.

    The shift moves the survivors' mean by p(Lambda) and leaves their
    variance alone, so the RFV is variance / (mean + p(Lambda))^2, with the
    mean and variance of Z_* among survivors at Lambda.
    """
    arr = check_grid(lam)
    _, mean, var = _survivor_triple(model.inner, arr)
    shifted = mean + model.shift_fn.value(arr)
    vanished = shifted < 1e-300
    if vanished.any():
        raise DivisionNearZero(
            f"shifted mean vanishes at {_bad_points(arr, vanished, 'lambda')}")
    with np.errstate(over="ignore"):
        out = (var / shifted) / shifted
    return _finite_result(out, arr, f"RFV of {model}", "lambda")


def shift_to_dict(path: ShiftPath) -> dict:
    tag = _SHIFT_TAGS.get(type(path))
    if tag is None:
        raise UnsupportedFamily(f"unsupported shift path {type(path)!r}")
    return {"shift": tag, **_spec.dump(path)}


def shift_from_dict(d: dict) -> ShiftPath:
    """Inverse of :func:`shift_to_dict`; a missing or unknown key raises."""
    return _spec.load_tagged(d, "shift", _SHIFT_TAGS, lambda tag: UnsupportedFamily(
        f"unknown shift tag {tag!r}"), flat=True)
