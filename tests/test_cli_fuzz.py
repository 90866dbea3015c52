"""Property test of the command line's error contract.

Every subcommand gets a small valid config built from the family, hazard
and shift tag tables.  Hypothesis then makes one mutation: it drops a key or
a list item, adds an unknown key, or swaps a value for a bool, a string,
``null``, a nested list or object, ``NaN``, ``Infinity``, the literal
``1e400`` or ``2.5``; ``cli.main`` runs the result in-process.  The
contract: exit 0 or 2; on 2, stderr is exactly one JSON line carrying
``error`` and ``message`` and no output file exists; on 0, stderr is empty.
A mutation that surely breaks the config (an unknown key, a dropped required
key, a value of another JSON type, a non-finite number or a fractional
count) must exit 2.

Sizes stay small: grids of at most 50 points, at most 500 clusters, small
family parameters, and ``verify`` keeps ``only: ["tail_limits"]`` (no
mutation drops it or makes it ``null``, which would run the whole suite).
No mutation inserts a large finite number: a Poisson ``eta`` of 1e9 would
build a support table of gigabytes, so that case is not covered here.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from frailty_shapes import cli
from frailty_shapes.extensions import _SHIFT_TAGS
from frailty_shapes.families import _FAMILY_TAGS
from frailty_shapes.hazards import _HAZARD_TAGS

#: One small valid parameter set per tag of each tag table.
FAMILY_PARAMS = {
    "negbin": {"pi": 0.5, "nu": 2.0},
    "negbin_positive": {"pi": 0.4, "nu": 2},
    "binomial": {"pi": 0.3, "n": 5},
    "poisson": {"eta": 2.0},
    "shifted": {"inner": {"family": "poisson", "params": {"eta": 1.5}}, "p": 0.4},
    "zero_modified_poisson": {"eta": 3.0, "phi": 0.05},
    "addams": {"alpha": -0.3, "gamma": 0.5},
    "kpoint": {"support": [0.0, 1.0, 2.5], "probs": [0.25, 0.5, 0.25]},
    "gamma": {"mean": 1.0, "variance": 0.5},
}
HAZARD_PARAMS = {
    "exponential": {"rate": 1.0},
    "weibull": {"shape": 1.5, "scale": 1.0},
    "piecewise": {"breakpoints": [0.5], "rates": [0.5, 1.5]},
}
SHIFT_PARAMS = {
    "exp_half": {"eta": 4.0},
    "exp_half_sine": {"eta": 4.0},
    "exp_full": {"eta": 4.0},
    "constant": {"p0": 0.5},
}

#: A coupling table for a three-atom then a two-atom k-point segment.
COUPLED = {
    "segment_families": [
        {"family": "kpoint", "params": FAMILY_PARAMS["kpoint"]},
        {"family": "kpoint", "params": {"support": [0.5, 1.5], "probs": [0.4, 0.6]}},
    ],
    "joint_coupling": {"conditional": [[0.1, 0.5], [0.6, 0.2], [0.3, 0.3]]},
}

#: Keys a config may leave out (``out`` may too, but only with ``--out``).
OPTIONAL = {"grid", "out_dir", "censor_time", "summary_times", "joint_coupling"}
COUNTS = {"points", "n_clusters", "seed"}

#: Stands for the literal 1e400 (json.dumps cannot write it); parses as inf.
BIG = "<1e400>"
REPLACEMENTS = [True, False, "x", None, [], [[1.0]], {}, {"a": 1},
                math.nan, math.inf, BIG, 2.5]


def test_examples_cover_every_tag():
    assert set(FAMILY_PARAMS) == set(_FAMILY_TAGS.values())
    assert set(HAZARD_PARAMS) == set(_HAZARD_TAGS.values())
    assert set(SHIFT_PARAMS) == set(_SHIFT_TAGS.values())


families = st.sampled_from(sorted(FAMILY_PARAMS)).map(
    lambda tag: {"family": tag, "params": FAMILY_PARAMS[tag]})
hazards = st.sampled_from(sorted(HAZARD_PARAMS)).map(
    lambda tag: {"hazard": tag, "params": HAZARD_PARAMS[tag]})
shifts = st.sampled_from(sorted(SHIFT_PARAMS)).map(
    lambda tag: {"shift": tag, **SHIFT_PARAMS[tag]})
grids = st.builds(lambda start, width, points: {"start": start, "stop": start + width,
                                               "points": points},
                  st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1.0, 2.5, 5.0]),
                  st.integers(2, 50))


@st.composite
def configs(draw):
    """``(command, config)``: a small config for a subcommand."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    out = {"out": "out.csv"}
    if command in ("curve", "oracle"):
        cfg = {"family": draw(families), "grid": draw(grids), **out}
    elif command == "fig2":
        cfg = {"grid": draw(grids), "out_dir": "."}
    elif command == "simulate":
        targets = draw(st.lists(hazards, min_size=1, max_size=2))
        cfg = {"sim": {"family": draw(families), "hazards": targets,
                       "n_clusters": draw(st.integers(1, 500)),
                       "seed": draw(st.integers(0, 2**32)), "censor_time": 2.0},
               "summary_times": [[0.5] * len(targets)], **out}
    elif command == "correlated":
        cfg = {"model": {"etas": [1.0, 2.0], "w_dist": draw(families),
                         "hazards": [draw(hazards), draw(hazards)]},
               "grid": draw(grids), **out}
    elif command == "piecewise":
        model = {"cutpoints": [0.5], "hazards": [draw(hazards)]}
        coupling = draw(st.sampled_from(["independent", "identical", "table"]))
        if coupling == "table":
            model.update(COUPLED)
        else:
            model.update(segment_families=[draw(families), draw(families)],
                         joint_coupling=coupling)
        cfg = {"model": model, "grid": draw(grids), **out}
    elif command == "timevarying":
        cfg = {"inner": draw(families), "shift": draw(shifts), "grid": draw(grids), **out}
    else:
        cfg = {"only": ["tail_limits"]}
    return command, json.loads(json.dumps(cfg))  # a private copy to mutate


def _paths(node, path=()):
    """Every ``(path, value)`` below the JSON value ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _kind(value):
    """The JSON type of ``value``."""
    for kind in (bool, str, dict, list, type(None)):
        if isinstance(value, kind):
            return kind
    return float


@st.composite
def mutated(draw):
    """``(command, config, broken)`` after one mutation; ``broken`` says how
    the mutation surely broke the config, and is empty if it may not have."""
    command, cfg = draw(configs())
    spots = [((), cfg)] + [(p, v) for p, v in _paths(cfg) if p != ("only",)]
    path, old = draw(st.sampled_from(spots))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add" and isinstance(old, dict) or not path:
        old["bogus"] = 1
        return command, cfg, f"unknown key under {path}"
    holder = cfg
    for key in path[:-1]:
        holder = holder[key]
    key, field = path[-1], next(k for k in reversed(path) if isinstance(k, str))
    if action == "drop":
        del holder[key]
        required = isinstance(key, str) and key not in OPTIONAL
        return command, cfg, f"required key {key!r} dropped" if required else ""
    new = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    holder[key] = new
    if _kind(new) is float and not math.isfinite(new) or new == BIG:
        return command, cfg, f"{field!r} set to non-finite {new!r}"
    if _kind(new) is not _kind(old) and not (field == "censor_time" and new is None):
        return command, cfg, f"{field!r} {_kind(old).__name__} set to {new!r}"
    return command, cfg, f"count {field!r} set to 2.5" if new == 2.5 and field in COUNTS else ""


def run(command, cfg):
    """``(exit code, stdout, stderr, files written)`` of one in-process run."""
    text = json.dumps(cfg).replace(json.dumps(BIG), "1e400")
    with tempfile.TemporaryDirectory() as root:
        config = os.path.join(root, "config.json")
        with open(config, "w") as fh:
            fh.write(text)
        work = os.path.join(root, "out")
        os.mkdir(work)
        here = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main([command, "--config", config])
        finally:
            os.chdir(here)
        return rc, out.getvalue(), err.getvalue(), sorted(os.listdir(work))


@settings(max_examples=600)
@given(mutated())
def test_cli_error_contract(case):
    command, cfg, broken = case
    rc, _, err, files = run(command, cfg)
    assert rc in (0, 2)
    if rc == 0:
        assert err == ""
        assert not broken, f"exit 0 although {broken}"
    else:
        assert err.endswith("\n") and err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "message"}
        assert files == []

