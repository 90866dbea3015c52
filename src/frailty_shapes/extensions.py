"""Model extensions beyond a single time-invariant shared frailty.

Three constructions reuse the same Laplace-transform machinery:

* :class:`CorrelatedPoissonModel` -- each target ``j`` gets its own Poisson
  frailty with rate ``eta_j * W``, all sharing the mixing variable ``W``, so
  frailties are correlated but not identical across targets.  The joint
  survivor function is W's Laplace transform evaluated at
  ``d(t) = sum_j eta_j (1 - exp(-H_j(t_j)))`` and the cross-ratio becomes a
  function of ``d`` alone.  The cross-ratio here is no longer ``1 + RFV`` of
  any single frailty, so the API exposes only ``correlated_crf``.
* :class:`PiecewiseFrailtyModel` -- the acting frailty is redrawn (or carried
  over) at fixed calendar cutpoints; segments may be independent, identical
  copies, or coupled through an explicit conditional table.
* :class:`TimeVaryingShift` -- a deterministic drift ``p(Lambda)`` added to a
  discrete frailty, generalizing the constant-shift family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import (
    DegenerateConditional,
    DegenerateDistribution,
    DivisionNearZero,
    LengthMismatch,
    ParameterOutOfRange,
    TimeBeforeFinalSegment,
    UnsupportedFamily,
)
from .families import (
    FrailtyFamily,
    GammaFrailty,
    PROB_SUM_TOL,
    laplace,
    moments,
    support_table,
    validate,
)
from .oracle import SurvivorPmf, survivor_pmf
from .shapes import crf_at
from .simulate import _check_time_vector, _philox

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
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "hazards", tuple(self.hazards))
        validate(self.w_dist)
        if len(self.etas) < 2:
            raise LengthMismatch("need at least two targets for a correlated model")
        if len(self.hazards) != len(self.etas):
            raise LengthMismatch(
                f"{len(self.hazards)} hazards for {len(self.etas)} rate multipliers"
            )
        if any(not e > 0.0 or not math.isfinite(e) for e in self.etas):
            raise ParameterOutOfRange(f"rate multipliers must be positive, got {self.etas}")
        mean, _ = moments(self.w_dist)
        if not mean > 0.0:
            raise DegenerateDistribution("mixing variable must have positive mean")

    def d_of_t(self, t) -> float:
        """Effective argument d(t) = sum_j eta_j (1 - exp(-H_j(t_j)))."""
        t = _check_time_vector(self.hazards, t)
        total = 0.0
        for eta, hazard, tj in zip(self.etas, self.hazards, t):
            total += eta * -math.expm1(-float(hazard.cumulative(float(tj))))
        return total

    def joint_survival(self, t) -> float:
        l0, _, _ = laplace(self.w_dist, self.d_of_t(t))
        return float(l0)

    def crf_of_d(self, d):
        """Cross-ratio between any two targets as a function of d."""
        arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ParameterOutOfRange("d must be finite and nonnegative")
        out = np.asarray([crf_at(self.w_dist, float(x)) for x in arr])
        return float(out[0]) if np.isscalar(d) or np.ndim(d) == 0 else out

    def correlated_crf(self, t) -> float:
        return float(self.crf_of_d(self.d_of_t(t)))

    def frailty_correlation(self, j: int, j_prime: int) -> float:
        """corr(Z^(j), Z^(j')) induced by the shared mixer."""
        k = len(self.etas)
        if j == j_prime or not (0 <= j < k and 0 <= j_prime < k):
            raise ParameterOutOfRange(
                f"need two distinct target indices in [0, {k}), got {j}, {j_prime}"
            )
        mean, var = moments(self.w_dist)
        ra, rb = self.etas[j], self.etas[j_prime]
        num = var * math.sqrt(ra * rb)
        den = math.sqrt((var * ra + mean) * (var * rb + mean))
        return num / den

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n joint frailty vectors, shape (n, J)."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterOutOfRange(f"n must be a positive integer, got {n}")
        rng = _philox(seed, _STREAM_CORRELATED)
        if isinstance(self.w_dist, GammaFrailty):
            shape = self.w_dist.mean**2 / self.w_dist.variance
            scale = self.w_dist.variance / self.w_dist.mean
            w = rng.gamma(shape, scale, size=n)
        else:
            table = support_table(self.w_dist)
            cdf = np.cumsum(table.pmf)
            codes = np.searchsorted(cdf, rng.random(n), side="right")
            w = table.z[np.minimum(codes, table.z.shape[0] - 1)]
        lam = w[:, None] * np.asarray(self.etas)[None, :]
        return rng.poisson(lam).astype(np.float64)


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
        arr = np.asarray(self.conditional, dtype=np.float64)
        object.__setattr__(self, "conditional", arr)
        if arr.ndim < 2:
            raise LengthMismatch("a coupling table needs at least two segments")
        if np.any(arr < 0.0):
            raise ParameterOutOfRange("conditional probabilities must be nonnegative")
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
        object.__setattr__(self, "cutpoints", tuple(float(c) for c in self.cutpoints))
        object.__setattr__(self, "segment_families", tuple(self.segment_families))
        object.__setattr__(self, "hazards", tuple(self.hazards))
        if len(self.segment_families) != len(self.cutpoints) + 1:
            raise LengthMismatch(
                f"{len(self.segment_families)} segment families need "
                f"{len(self.segment_families) - 1} cutpoints, got {len(self.cutpoints)}"
            )
        if len(self.hazards) < 1:
            raise LengthMismatch("at least one hazard is required")
        for fam in self.segment_families:
            validate(fam)
        cuts = self.cutpoints
        if any(not math.isfinite(c) or c <= 0.0 for c in cuts):
            raise ParameterOutOfRange(f"cutpoints must be positive, got {cuts}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ParameterOutOfRange(f"cutpoints must strictly increase, got {cuts}")
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
        """Generic time accrued inside each calendar segment up to ``t``.

        Entry q sums, over targets, the cumulative hazard gathered between
        the segment boundaries (clipped at each target's own time).
        """
        t = _check_time_vector(self.hazards, t)
        final_start = self.cutpoints[-1] if self.cutpoints else 0.0
        if float(t.min()) < final_start:
            raise TimeBeforeFinalSegment(
                f"all times must reach the final segment start "
                f"{final_start}, got {t.tolist()}"
            )
        edges = np.asarray((0.0,) + self.cutpoints)
        loads = np.zeros(len(self.segment_families))
        for hazard, tj in zip(self.hazards, t):
            clipped = np.minimum(edges, tj)
            cums = np.asarray([float(hazard.cumulative(c)) for c in clipped])
            full = float(hazard.cumulative(float(tj)))
            loads += np.diff(np.concatenate((cums, [full])))
        return loads


def piecewise_survivor_pmf(model: PiecewiseFrailtyModel, t) -> SurvivorPmf:
    """Conditional pmf of the final-segment frailty among survivors at ``t``."""
    loads = model.segment_loads(t)
    coupling = model.joint_coupling
    final_family = model.segment_families[-1]
    if isinstance(coupling, str) and coupling == "independent":
        # Earlier segments contribute a z-independent survival factor that
        # cancels in the conditional distribution, leaving the final-segment
        # frailty reweighted by its own exposure alone.
        return survivor_pmf(final_family, float(loads[-1]))
    if isinstance(coupling, str):  # identical
        return survivor_pmf(final_family, float(loads.sum()))
    q = len(model.segment_families)
    tables = [support_table(f) for f in model.segment_families]
    weight = np.ones_like(coupling.conditional)
    for axis in range(q - 1):
        z = tables[axis].z
        shape = [1] * q
        shape[axis] = z.shape[0]
        weight = weight * np.exp(-z * loads[axis]).reshape(shape)
    carryover = (coupling.conditional * weight).sum(axis=tuple(range(q - 1)))
    z_final = tables[-1].z
    favored = np.exp(-(z_final - z_final[0]) * loads[-1])
    unnorm = favored * carryover * tables[-1].pmf
    total = float(unnorm.sum())
    if total <= 0.0:
        raise DegenerateConditional(
            "survivors have probability zero under the coupling table"
        )
    probs = unnorm / total
    keep = probs > 0.0
    return SurvivorPmf(lam=float(loads.sum()), support=z_final[keep],
                       probs=probs[keep], tail_mass_bound=tables[-1].tail_mass)


def piecewise_rfv(model: PiecewiseFrailtyModel, t) -> float:
    """Relative frailty variance of the currently acting frailty at ``t``."""
    pmf = piecewise_survivor_pmf(model, t)
    mean = float(pmf.probs @ pmf.support)
    if mean <= 0.0:
        raise DegenerateConditional(f"surviving frailty mean is zero at t={t}")
    y = pmf.support - pmf.support[0]
    m1 = float(pmf.probs @ y)
    m2 = float(pmf.probs @ (y * y))
    var = m2 - m1 * m1
    return var / mean**2


def piecewise_tail(model: PiecewiseFrailtyModel):
    """Long-run tail class, determined by the final segment family alone."""
    from .shapes import classify_tail

    return classify_tail(model.segment_families[-1])


# ---------------------------------------------------------------------------
# Time-varying shift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpHalf:
    """p(Lambda) = eta * exp(-Lambda / 2): decays at half the conditioning rate."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0.0 or not math.isfinite(self.eta):
            raise ParameterOutOfRange(f"eta must be positive, got {self.eta}")

    def value(self, lam: float) -> float:
        return self.eta * math.exp(-lam / 2.0)


@dataclass(frozen=True)
class ExpHalfSine:
    """p(Lambda) = eta * exp(-Lambda / 2) * (2 + sin Lambda): half-rate decay
    with a bounded oscillation, so the relative variance keeps oscillating
    instead of settling at a limit."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0.0 or not math.isfinite(self.eta):
            raise ParameterOutOfRange(f"eta must be positive, got {self.eta}")

    def value(self, lam: float) -> float:
        return self.eta * math.exp(-lam / 2.0) * (2.0 + math.sin(lam))


@dataclass(frozen=True)
class ExpFull:
    """p(Lambda) = eta * exp(-Lambda): decays as fast as the conditioning."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0.0 or not math.isfinite(self.eta):
            raise ParameterOutOfRange(f"eta must be positive, got {self.eta}")

    def value(self, lam: float) -> float:
        return self.eta * math.exp(-lam)


@dataclass(frozen=True)
class ConstantFloor:
    """p(Lambda) = p0 > 0: a fixed guaranteed hazard contribution."""

    p0: float

    def __post_init__(self):
        if not self.p0 > 0.0 or not math.isfinite(self.p0):
            raise ParameterOutOfRange(f"p0 must be positive, got {self.p0}")

    def value(self, lam: float) -> float:
        return self.p0


ShiftPath = Union[ExpHalf, ExpHalfSine, ExpFull, ConstantFloor]


@dataclass(frozen=True)
class TimeVaryingShift:
    """Frailty Z(t) = Z_* + p(Lambda(t)) with Z_* a discrete frailty."""

    inner: FrailtyFamily
    shift_fn: ShiftPath

    def __post_init__(self):
        validate(self.inner)
        if not isinstance(self.shift_fn, (ExpHalf, ExpHalfSine, ExpFull,
                                          ConstantFloor)):
            raise UnsupportedFamily(
                f"unsupported shift path {type(self.shift_fn)!r}"
            )


def timevarying_shift_rfv(model: TimeVaryingShift, lam) -> float:
    """Relative frailty variance of Z_* + p(Lambda) among survivors.

    The shift contributes hazard but no variance, so the inner relative
    variance is damped by the squared mean ratio L' / (L' - p L), with L the
    inner survivor transform at Lambda.
    """
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ParameterOutOfRange("lambda grid must be finite and nonnegative")
    out = np.empty(arr.shape[0])
    for i, x in enumerate(arr):
        x = float(x)
        l0, l1, l2 = laplace(model.inner, x)
        p = model.shift_fn.value(x)
        denom = l1 - p * l0
        if abs(denom) < 1e-300:
            raise DivisionNearZero(
                f"shifted mean vanishes at lambda={x}; shift {p} cancels the "
                f"inner mean exactly"
            )
        inner_rfv = (l2 / l1) * (l0 / l1) - 1.0
        out[i] = inner_rfv * (l1 / denom) ** 2
    return float(out[0]) if np.isscalar(lam) or np.ndim(lam) == 0 else out


def shift_value(path: ShiftPath, lam) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    return np.asarray([path.value(float(x)) for x in arr])


_SHIFT_TAGS = {
    ExpHalf: "exp_half",
    ExpHalfSine: "exp_half_sine",
    ExpFull: "exp_full",
    ConstantFloor: "constant",
}


def shift_to_dict(path: ShiftPath) -> dict:
    tag = _SHIFT_TAGS.get(type(path))
    if tag is None:
        raise UnsupportedFamily(f"unsupported shift path {type(path)!r}")
    if isinstance(path, ConstantFloor):
        return {"shift": tag, "p0": path.p0}
    return {"shift": tag, "eta": path.eta}


def shift_from_dict(d: dict) -> ShiftPath:
    tag = d.get("shift")
    if tag == "exp_half":
        return ExpHalf(eta=float(d["eta"]))
    if tag == "exp_half_sine":
        return ExpHalfSine(eta=float(d["eta"]))
    if tag == "exp_full":
        return ExpFull(eta=float(d["eta"]))
    if tag == "constant":
        return ConstantFloor(p0=float(d["p0"]))
    raise UnsupportedFamily(f"unknown shift tag {tag!r}")
