"""Shapes of the relative frailty variance under discrete frailty.

The relative frailty variance (RFV) of a shared frailty Z at generic time
``lam`` is ``Var(Z | T > t) / E[Z | T > t]^2``, computable from the Laplace
transform ``L`` of Z as ``L'' L / (L')^2 - 1``; the cross-ratio function is
``1 + RFV``.  This package evaluates both in closed form for nine discrete
(and one continuous) frailty families, classifies curve shapes (stationary
points, tail limits), cross-checks the closed forms against a brute-force
survivor-distribution oracle, verifies them by Monte Carlo simulation, and
extends the machinery to correlated, piecewise-in-time, and
time-varying-shift frailty models.

The public names load lazily (PEP 562): ``import frailty_shapes`` imports no
submodule and no numpy, and the first use of a name imports only the
submodule that defines it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: Each public name and the submodule serving it (``module.attribute`` where
#: the attribute is named differently).
_EXPORTS = {
    **dict.fromkeys((
        "DegenerateConditional", "DegenerateDistribution", "DivisionNearZero",
        "EmptyWindow", "FrailtyModelError", "LengthMismatch", "NumericalOverflow",
        "ParameterOutOfRange", "TimeBeforeFinalSegment", "TooFewAtRisk", "UnsupportedFamily",
    ), "errors"),
    **dict.fromkeys((
        "Addams", "Binomial", "GammaFrailty", "KPoint", "NegBin", "NegBinPositive",
        "Poisson", "Shifted", "ZeroModifiedPoisson", "family_from_dict", "family_to_dict",
        "laplace", "min_support", "moments", "pmf", "support_table",
    ), "families"),
    **dict.fromkeys((
        "ExponentialRate", "PiecewiseConstant", "Weibull", "generic_time",
        "hazard_from_dict", "hazard_to_dict",
    ), "hazards"),
    "oracle_rfv": "oracle.rfv",
    **dict.fromkeys(("smallest_point_prob_grid", "survivor_moment", "survivor_pmf"), "oracle"),
    **dict.fromkeys((
        "KPOINT_EXAMPLES", "ShapeCurve", "StationaryPoint", "TailClass", "classify_tail",
        "crf_at", "curve", "curve_sidecar", "curve_to_csv", "rfv_at", "rfv_closed_at",
        "rfv_derivative", "stationary_points", "write_curve", "zmp_derivative_terms",
    ), "shapes"),
    **dict.fromkeys((
        "ClusterSample", "EmpiricalEstimate", "SampleSet", "SimConfig", "empirical_crf",
        "empirical_rfv", "population_survival", "samples_to_csv", "simulate",
        "simulation_summary",
    ), "simulate"),
    **dict.fromkeys((
        "ConstantFloor", "CorrelatedPoissonModel", "CouplingTable", "ExpFull", "ExpHalf",
        "ExpHalfSine", "PiecewiseFrailtyModel", "TimeVaryingShift", "piecewise_rfv",
        "piecewise_survivor_pmf", "piecewise_tail", "shift_from_dict", "shift_to_dict",
        "timevarying_shift_rfv",
    ), "extensions"),
    **dict.fromkeys(("CRITERIA", "run_all", "run_criterion"), "verify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _EXPORTS[name].partition(".")
    value = getattr(importlib.import_module(f".{module}", __name__), attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    """The package module, whose public names are never rebound to submodules.

    Importing a submodule binds it on the package under its own name, so
    loading ``frailty_shapes.simulate`` would replace the public function
    ``simulate`` with the module; that one binding is dropped.
    """

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
