"""Correctness checks on the CLI outputs of one benchmark pass.

Nothing here is timed.  Each checker takes the job's config and the
directory holding its outputs and returns ``(problems, invalid_rfv)``:
``problems`` lists the reasons the job failed, and ``invalid_rfv`` counts RFV
values that are ``inf``/``nan``, negative, or off their reference by more
than ``1e-9 * |ref| + 1e-12``.  Wrong RFV values are counted, not failed.
"""

import json
import math
import os

import numpy as np

from frailty_shapes import family_from_dict
from frailty_shapes.shapes import KPOINT_EXAMPLES, rfv_closed_at

RFV_RTOL = 1e-9
RFV_ATOL = 1e-12
ORACLE_MAX_REL = 1e-8
CURE_SE = 4.0


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rows(table, expected, name):
    n = table.shape[0]
    return [] if n == expected else [f"{name}: {n} rows, expected {expected}"]


def invalid_rfv(rfv, ref) -> int:
    """Number of RFV values that are non-finite, negative or off ``ref``."""
    finite = np.isfinite(rfv)
    negative = finite & (rfv < 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        off = finite & ~negative & ~(np.abs(rfv - ref) <= RFV_RTOL * np.abs(ref) + RFV_ATOL)
    return int((~finite).sum() + negative.sum() + off.sum())


def _curve_file(path, family, points):
    table = _table(path)
    problems = _rows(table, points, os.path.basename(path))
    return problems, invalid_rfv(table[:, 1], rfv_closed_at(family, table[:, 0]))


def check_curve(cfg, out_dir):
    return _curve_file(os.path.join(out_dir, cfg["out"]),
                       family_from_dict(cfg["family"]), cfg["grid"]["points"])


def check_fig2(cfg, out_dir):
    problems, invalid = [], 0
    for name, family in KPOINT_EXAMPLES.items():
        p, n = _curve_file(os.path.join(out_dir, f"fig2_{name}.csv"), family,
                           cfg["grid"]["points"])
        problems += p
        invalid += n
    return problems, invalid


def check_piecewise(cfg, out_dir):
    """Reference: the final segment family's closed form at its own load.

    With independent coupling and exponential hazards the final segment's
    load at calendar time t is sum_j rate_j * (t - last cutpoint).
    """
    model = cfg["model"]
    rates = [h["params"]["rate"] for h in model["hazards"]]
    final = family_from_dict(model["segment_families"][-1])
    table = _table(os.path.join(out_dir, cfg["out"]))
    load = sum(rates) * (table[:, 0] - model["cutpoints"][-1])
    return (_rows(table, cfg["grid"]["points"], cfg["out"]),
            invalid_rfv(table[:, 1], rfv_closed_at(final, load)))


def check_timevarying(cfg, out_dir):
    """Reference: Poisson(eta) plus eta * exp(-x/2) * (2 + sin x) reduces to
    1 / (eta * (exp(-x/2) + sin x + 2)^2)."""
    eta = cfg["inner"]["params"]["eta"]
    table = _table(os.path.join(out_dir, cfg["out"]))
    x = table[:, 0]
    ref = 1.0 / (eta * (np.exp(-x / 2.0) + np.sin(x) + 2.0) ** 2)
    return _rows(table, cfg["grid"]["points"], cfg["out"]), invalid_rfv(table[:, 1], ref)


def check_oracle(cfg, out_dir):
    table = _table(os.path.join(out_dir, cfg["out"]))
    problems = _rows(table, cfg["grid"]["points"], cfg["out"])
    with open(os.path.join(out_dir, cfg["out"][:-4] + ".json")) as fh:
        max_rel = json.load(fh)["max_rel_diff"]
    if not max_rel <= ORACLE_MAX_REL:
        problems.append(f"{cfg['out']}: max_rel_diff {max_rel} > {ORACLE_MAX_REL}")
    return problems, 0


def check_correlated(cfg, out_dir):
    table = _table(os.path.join(out_dir, cfg["out"]))
    problems = _rows(table, cfg["grid"]["points"], cfg["out"])
    if not np.all(np.isfinite(table[:, 1])):
        problems.append(f"{cfg['out']}: non-finite crf")
    return problems, 0


def _p_zero(family: dict) -> float:
    params = family["params"]
    if family["family"] == "poisson":
        return math.exp(-params["eta"])
    if family["family"] == "zero_modified_poisson":
        return params["phi"] * math.exp(-params["eta"])
    raise ValueError(f"no P(Z=0) for {family['family']}")


def check_simulate(cfg, out_dir):
    sim = cfg["sim"]
    n = sim["n_clusters"]
    z = np.loadtxt(os.path.join(out_dir, cfg["out"]), delimiter=",", skiprows=1,
                   usecols=1, ndmin=1)
    problems = [] if z.shape[0] == n else [f"{cfg['out']}: {z.shape[0]} rows, expected {n}"]
    if not np.all((z >= 0.0) & (z == np.floor(z))):
        problems.append(f"{cfg['out']}: z outside the nonnegative integers")
    with open(os.path.join(out_dir, cfg["out"][:-4] + ".json")) as fh:
        summary = json.load(fh)
    p0 = _p_zero(sim["family"])
    cure = summary["cure_fraction"]
    se = math.sqrt(p0 * (1.0 - p0) / n)
    if abs(cure - p0) > CURE_SE * se:
        problems.append(f"{cfg['out']}: cure fraction {cure} vs P(Z=0)={p0} "
                        f"beyond {CURE_SE} SE ({se})")
    if summary["n_clusters"] != n:
        problems.append(f"{cfg['out']}: summary n_clusters {summary['n_clusters']}")
    return problems, 0


def check_verify(cfg, out_dir):
    with open(os.path.join(out_dir, "verify.json")) as fh:
        report = json.load(fh)
    return ([] if report["passed"] is True else ["verify: passed is not true"]), 0


CHECKS = {
    "curve": check_curve,
    "fig2": check_fig2,
    "oracle": check_oracle,
    "simulate": check_simulate,
    "correlated": check_correlated,
    "piecewise": check_piecewise,
    "timevarying": check_timevarying,
    "verify": check_verify,
}


def comparable_bytes(path: str) -> bytes:
    """File bytes for the rerun comparison; a ``verify`` report loses its
    wall-clock ``seconds`` fields first."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != "verify.json":
        return data
    report = json.loads(data)
    for criterion in report["criteria"]:
        criterion.pop("seconds", None)
    return json.dumps(report, sort_keys=True).encode()
