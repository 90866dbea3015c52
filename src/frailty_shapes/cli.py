"""Command-line front end.

Every subcommand reads one JSON config (``--config``), writes CSV/JSON
outputs, and exits 0 on success, 1 when the verification suite fails, or 2
on a bad config (with a machine-readable ``{"error", "message"}`` JSON line
on stderr).  Outputs carry 17 significant digits and LF line endings, and
contain no timestamps, so reruns are byte-identical.

Subcommands
-----------
curve        RFV/CRF curve of one family over a generic-time grid
fig2         the four built-in eight-point example curves
oracle       closed-form RFV against the brute-force survivor oracle
simulate     clustered event-time dataset plus a summary JSON
correlated   cross-ratio of the correlated Poisson mixture over its d clock
piecewise    RFV of a segmented frailty over calendar time
timevarying  RFV of a drifting shifted frailty over generic time
verify       the acceptance criteria suite (JSON report on stdout)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._io import sidecar_path, write_csv, write_json
from .errors import FrailtyModelError, ParameterOutOfRange
from .families import family_from_dict, family_to_dict
from .hazards import hazard_from_dict, hazard_to_dict
from . import oracle as oracle_mod
from .shapes import curve, rfv_at, write_curve, KPOINT_EXAMPLES
from .simulate import SimConfig, samples_to_csv, simulate, simulation_summary
from .extensions import (
    CouplingTable,
    CorrelatedPoissonModel,
    PiecewiseFrailtyModel,
    TimeVaryingShift,
    piecewise_rfv,
    piecewise_tail,
    shift_from_dict,
    shift_to_dict,
    timevarying_shift_rfv,
)
from .verify import report, run_all


def _load_config(path):
    if path is None:
        raise ParameterOutOfRange("this command requires --config CONFIG.json")
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterOutOfRange("config root must be a JSON object")
    return cfg


def _grid_from(spec) -> np.ndarray:
    try:
        start = float(spec["start"])
        stop = float(spec["stop"])
        points = int(spec["points"])
    except (TypeError, KeyError) as exc:
        raise ParameterOutOfRange(
            f"grid must carry start/stop/points, got {spec!r}"
        ) from exc
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ParameterOutOfRange("grid start/stop must be finite")
    if start < 0.0 or stop <= start or points < 2:
        raise ParameterOutOfRange(
            f"grid needs stop > start >= 0 and points >= 2, got {spec!r}"
        )
    return np.linspace(start, stop, points)


def _out_path(cfg, args, default=None) -> str:
    out = args.out or cfg.get("out", default)
    if out is None:
        raise ParameterOutOfRange("an output path is required (--out or config 'out')")
    return str(out)


def _cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    family = family_from_dict(cfg["family"])
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 5.0, "points": 101}))
    shape = curve(family, grid)
    write_curve(shape, _out_path(cfg, args))
    return 0


def _cmd_fig2(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    out_dir = args.out or cfg.get("out_dir", ".")
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 12.0, "points": 481}))
    for name, family in KPOINT_EXAMPLES.items():
        write_curve(curve(family, grid), os.path.join(out_dir, f"fig2_{name}.csv"))
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    family = family_from_dict(cfg["family"])
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 10.0, "points": 41}))
    ratio = np.asarray(rfv_at(family, grid))
    brute = oracle_mod.rfv(family, grid)
    rel = np.abs(ratio - brute) / np.abs(brute)
    out = _out_path(cfg, args)
    write_csv(out, ("lambda", "rfv_laplace", "rfv_oracle", "rel_diff"),
              (grid, ratio, brute, rel))
    write_json(sidecar_path(out), {
        "family": family_to_dict(family),
        "max_rel_diff": float(np.max(rel)),
    })
    return 0


def _sim_config_from(cfg, seed_override) -> SimConfig:
    spec = cfg.get("sim", cfg)
    family = family_from_dict(spec["family"])
    hazards = tuple(hazard_from_dict(h) for h in spec["hazards"])
    seed = int(spec["seed"]) if seed_override is None else int(seed_override)
    censor = spec.get("censor_time")
    return SimConfig(family=family, hazards=hazards,
                     n_clusters=int(spec["n_clusters"]), seed=seed,
                     censor_time=None if censor is None else float(censor))


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim_cfg = _sim_config_from(cfg, args.seed)
    samples = simulate(sim_cfg)
    out = _out_path(cfg, args)
    samples_to_csv(samples, out)
    write_json(sidecar_path(out),
               simulation_summary(samples, cfg.get("summary_times")))
    return 0


def _correlated_from(cfg) -> CorrelatedPoissonModel:
    spec = cfg["model"]
    return CorrelatedPoissonModel(
        etas=tuple(float(e) for e in spec["etas"]),
        w_dist=family_from_dict(spec["w_dist"]),
        hazards=tuple(hazard_from_dict(h) for h in spec["hazards"]),
    )


def _cmd_correlated(args) -> int:
    cfg = _load_config(args.config)
    model = _correlated_from(cfg)
    top = float(sum(model.etas))
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": top, "points": 101}))
    crf = np.asarray(model.crf_of_d(grid))
    out = _out_path(cfg, args)
    # The correlated model's cross-ratio is no longer 1 + RFV of any single
    # frailty, so the CSV deliberately omits an rfv column.
    write_csv(out, ("d", "crf"), (grid, crf))
    pairs = [
        {"j": j, "j_prime": k,
         "correlation": model.frailty_correlation(j, k)}
        for j in range(len(model.etas)) for k in range(j + 1, len(model.etas))
    ]
    write_json(sidecar_path(out), {
        "model": {
            "etas": list(model.etas),
            "w_dist": family_to_dict(model.w_dist),
            "hazards": [hazard_to_dict(h) for h in model.hazards],
        },
        "limit_crf": float(model.crf_of_d(top)),
        "frailty_correlations": pairs,
    })
    return 0


def _piecewise_from(cfg) -> PiecewiseFrailtyModel:
    spec = cfg["model"]
    coupling = spec.get("joint_coupling", "independent")
    if isinstance(coupling, dict):
        coupling = CouplingTable(conditional=np.asarray(coupling["conditional"],
                                                        dtype=np.float64))
    return PiecewiseFrailtyModel(
        cutpoints=tuple(float(c) for c in spec["cutpoints"]),
        segment_families=tuple(family_from_dict(f)
                               for f in spec["segment_families"]),
        hazards=tuple(hazard_from_dict(h) for h in spec["hazards"]),
        joint_coupling=coupling,
    )


def _cmd_piecewise(args) -> int:
    cfg = _load_config(args.config)
    model = _piecewise_from(cfg)
    floor = model.cutpoints[-1] if model.cutpoints else 0.0
    grid = _grid_from(cfg.get("grid", {"start": floor, "stop": floor + 5.0,
                                       "points": 101}))
    if float(grid[0]) < floor:
        raise ParameterOutOfRange(
            f"piecewise grid must start at or after the final cutpoint {floor}"
        )
    j = len(model.hazards)
    rfv = np.array([piecewise_rfv(model, [float(t)] * j) for t in grid])
    out = _out_path(cfg, args)
    write_csv(out, ("t", "rfv", "crf"), (grid, rfv, rfv + 1.0))
    write_json(sidecar_path(out), {
        "segment_families": [family_to_dict(f) for f in model.segment_families],
        "cutpoints": list(model.cutpoints),
        "coupling": (model.joint_coupling if isinstance(model.joint_coupling, str)
                     else {"conditional": model.joint_coupling.conditional.tolist()}),
        "tail": piecewise_tail(model).value,
    })
    return 0


def _cmd_timevarying(args) -> int:
    cfg = _load_config(args.config)
    model = TimeVaryingShift(inner=family_from_dict(cfg["inner"]),
                             shift_fn=shift_from_dict(cfg["shift"]))
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 10.0, "points": 201}))
    vals = np.asarray(timevarying_shift_rfv(model, grid))
    out = _out_path(cfg, args)
    write_csv(out, ("lambda", "rfv", "crf"), (grid, vals, vals + 1.0))
    write_json(sidecar_path(out), {
        "inner": family_to_dict(model.inner),
        "shift": shift_to_dict(model.shift_fn),
    })
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    only = args.only or cfg.get("only")
    results = run_all(only)
    payload = report(results)
    if args.out:
        write_json(args.out, payload)
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0 if payload["passed"] else 1


_COMMANDS = {
    "curve": (_cmd_curve, "RFV/CRF curve for one frailty family"),
    "fig2": (_cmd_fig2, "the four built-in eight-point example curves"),
    "oracle": (_cmd_oracle, "closed-form RFV against the survivor oracle"),
    "simulate": (_cmd_simulate, "clustered event-time dataset plus summary"),
    "correlated": (_cmd_correlated, "cross-ratio of the correlated mixture"),
    "piecewise": (_cmd_piecewise, "RFV of a segmented frailty"),
    "timevarying": (_cmd_timevarying, "RFV of a drifting shifted frailty"),
    "verify": (_cmd_verify, "run the acceptance criteria suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frailty-shapes",
        description="Shapes of the relative frailty variance for discrete "
                    "frailty distributions: curves, oracles, simulation, "
                    "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="path to the JSON config")
        cmd.add_argument("--out", help="override the output path")
        if name == "simulate":
            cmd.add_argument("--seed", type=int, help="override the config seed")
        if name == "verify":
            cmd.add_argument("--only", action="append",
                             help="run only this criterion (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args)
    except (FrailtyModelError, ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        message = str(exc) or type(exc).__name__
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": message,
        }) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
