"""Command-line front end.

Every subcommand reads one JSON config (``--config``), writes CSV/JSON
outputs, and exits 0 on success, 1 when the verification suite fails, or 2
on a bad config (with a machine-readable ``{"error", "message"}`` JSON line
on stderr).  Outputs carry 17 significant digits and LF line endings, and
contain no timestamps, so reruns are byte-identical.  Each handler imports
the modules it runs when it runs, so ``--help`` loads no numpy and a
``curve`` job never loads the simulation or verification code.

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

from . import _spec
from .errors import FrailtyModelError, ParameterOutOfRange


def _load_config(path, kinds, optional=()) -> dict:
    """The config at ``path``, its keys read by :func:`_spec.read`."""
    _spec._require(path is not None, "this command requires --config CONFIG.json")
    with open(path) as fh:
        return _spec.read(json.load(fh), "config", kinds, optional)


#: The config keys of an output file and its grid, both optional.
_GRID_OUT = {"grid": "dict", "out": "str"}


def _grid_from(spec):
    import numpy as np

    grid = _spec.read(spec, "grid", {"start": "float", "stop": "float", "points": "int"})
    start, stop, points = float(grid["start"]), float(grid["stop"]), grid["points"]
    if start < 0.0 or stop <= start or points < 2:
        raise ParameterOutOfRange(f"grid needs stop > start >= 0 and points >= 2, got {spec!r}")
    return np.linspace(start, stop, points)


def _out_path(cfg, args) -> str:
    out = args.out or cfg.get("out")
    _spec._require(out is not None, "an output path is required (--out or config 'out')")
    return out


def _cmd_curve(args) -> int:
    from .families import family_from_dict
    from .shapes import curve, write_curve

    cfg = _load_config(args.config, {"family": family_from_dict, **_GRID_OUT}, _GRID_OUT)
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 5.0, "points": 101}))
    write_curve(curve(cfg["family"], grid), _out_path(cfg, args))
    return 0


def _cmd_fig2(args) -> int:
    from .shapes import KPOINT_EXAMPLES, curve, write_curve

    kinds = {"grid": "dict", "out_dir": "str"}  # all optional
    cfg = _load_config(args.config, kinds, kinds) if args.config else {}
    out_dir = args.out or cfg.get("out_dir", ".")
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 12.0, "points": 481}))
    for name, family in KPOINT_EXAMPLES.items():
        write_curve(curve(family, grid), os.path.join(out_dir, f"fig2_{name}.csv"))
    return 0


def _cmd_oracle(args) -> int:
    import numpy as np

    from . import oracle
    from ._io import write_table
    from .families import family_from_dict, family_to_dict
    from .shapes import rfv_at

    cfg = _load_config(args.config, {"family": family_from_dict, **_GRID_OUT}, _GRID_OUT)
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 10.0, "points": 41}))
    ratio = rfv_at(cfg["family"], grid)
    brute = oracle.rfv(cfg["family"], grid)
    # 0 where the routes agree, also where both return 0.0 (an RFV below the subnormals)
    rel = np.divide(np.abs(ratio - brute), np.abs(brute), out=np.zeros_like(brute),
                    where=ratio != brute)
    write_table(_out_path(cfg, args), ("lambda", "rfv_laplace", "rfv_oracle", "rel_diff"),
                (grid, ratio, brute, rel),
                {"family": family_to_dict(cfg["family"]), "max_rel_diff": float(np.max(rel))})
    return 0


def _cmd_simulate(args) -> int:
    from .families import family_from_dict
    from .hazards import hazard_from_dict
    from .simulate import SimConfig, _write_simulation

    cfg = _load_config(args.config, {"sim": "dict", "summary_times": [["float"]], "out": "str"},
                       ("summary_times", "out"))
    sim = _spec.read(cfg["sim"], "sim", {
        "family": family_from_dict, "hazards": [hazard_from_dict], "n_clusters": "int",
        "seed": "int", "censor_time": "Optional[float]",
    }, ("censor_time",) if args.seed is None else ("censor_time", "seed"))
    sim_cfg = SimConfig(**{**sim, "seed": sim["seed"] if args.seed is None else args.seed})
    _write_simulation(sim_cfg, _out_path(cfg, args), cfg.get("summary_times"))
    return 0


def _cmd_correlated(args) -> int:
    from ._io import write_table
    from .extensions import CorrelatedPoissonModel
    from .families import family_from_dict, family_to_dict
    from .hazards import hazard_from_dict, hazard_to_dict

    cfg = _load_config(args.config, {"model": "dict", **_GRID_OUT}, _GRID_OUT)
    model = CorrelatedPoissonModel(**_spec.read(cfg["model"], "model", {
        "etas": "tuple", "w_dist": family_from_dict, "hazards": [hazard_from_dict]}))
    top = float(sum(model.etas))
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": top, "points": 101}))
    pairs = [
        {"j": j, "j_prime": k,
         "correlation": model.frailty_correlation(j, k)}
        for j in range(len(model.etas)) for k in range(j + 1, len(model.etas))
    ]
    # The correlated model's cross-ratio is no longer 1 + RFV of any single
    # frailty, so the CSV deliberately omits an rfv column.
    write_table(_out_path(cfg, args), ("d", "crf"), (grid, model.crf_of_d(grid)), {
        "model": {
            "etas": list(model.etas),
            "w_dist": family_to_dict(model.w_dist),
            "hazards": [hazard_to_dict(h) for h in model.hazards],
        },
        "limit_crf": model.crf_of_d(top),
        "frailty_correlations": pairs,
    })
    return 0


def _coupling_from(spec):
    """A coupling name as given (the model checks it), or a table's object."""
    from .extensions import CouplingTable

    return spec if isinstance(spec, str) else CouplingTable(
        **_spec.read(spec, "joint_coupling", {"conditional": "array"}))


def _piecewise_from(cfg):
    from .extensions import PiecewiseFrailtyModel
    from .families import family_from_dict
    from .hazards import hazard_from_dict

    return PiecewiseFrailtyModel(**_spec.read(cfg["model"], "model", {
        "cutpoints": "tuple", "segment_families": [family_from_dict],
        "hazards": [hazard_from_dict], "joint_coupling": _coupling_from,
    }, optional=("joint_coupling",)))


def _cmd_piecewise(args) -> int:
    import numpy as np

    from ._io import write_table
    from .extensions import piecewise_rfv, piecewise_tail
    from .families import family_to_dict

    cfg = _load_config(args.config, {"model": "dict", **_GRID_OUT}, _GRID_OUT)
    model = _piecewise_from(cfg)
    floor = model.cutpoints[-1] if model.cutpoints else 0.0
    grid = _grid_from(cfg.get("grid", {"start": floor, "stop": floor + 5.0,
                                       "points": 101}))
    _spec._require(float(grid[0]) >= floor,
                   f"piecewise grid must start at or after the final cutpoint {floor}")
    # one row per grid time, the same time for every target
    rfv = piecewise_rfv(model, np.repeat(grid[:, None], len(model.hazards), axis=1))
    write_table(_out_path(cfg, args), ("t", "rfv", "crf"), (grid, rfv, rfv + 1.0), {
        "segment_families": [family_to_dict(f) for f in model.segment_families],
        "cutpoints": list(model.cutpoints),
        "coupling": (model.joint_coupling if isinstance(model.joint_coupling, str)
                     else {"conditional": model.joint_coupling.conditional.tolist()}),
        "tail": piecewise_tail(model).value,
    })
    return 0


def _cmd_timevarying(args) -> int:
    from ._io import write_table
    from .extensions import TimeVaryingShift, shift_from_dict, shift_to_dict, timevarying_shift_rfv
    from .families import family_from_dict, family_to_dict

    cfg = _load_config(args.config, {"inner": family_from_dict, "shift": shift_from_dict,
                                     **_GRID_OUT}, _GRID_OUT)
    model = TimeVaryingShift(inner=cfg["inner"], shift_fn=cfg["shift"])
    grid = _grid_from(cfg.get("grid", {"start": 0.0, "stop": 10.0, "points": 201}))
    vals = timevarying_shift_rfv(model, grid)
    write_table(_out_path(cfg, args), ("lambda", "rfv", "crf"), (grid, vals, vals + 1.0), {
        "inner": family_to_dict(model.inner),
        "shift": shift_to_dict(model.shift_fn),
    })
    return 0


def _cmd_verify(args) -> int:
    from ._io import write_json
    from .verify import report, run_all

    cfg = _load_config(args.config, {"only": ["str"]}, ("only",)) if args.config else {}
    payload = report(run_all(args.only or cfg.get("only")))
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
    except (FrailtyModelError, ValueError, TypeError, KeyError, OSError) as exc:
        message = str(exc) or type(exc).__name__
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": message,
        }) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
