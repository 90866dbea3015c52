"""The lazy package namespace and the CLI's per-subcommand imports.

``import frailty_shapes`` loads no submodule, ``--help`` loads no numpy, and
each subcommand imports only the modules it runs.  The module sets are read
in fresh interpreters, since this test process has loaded everything.
"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import frailty_shapes as fs

#: Runs ``python -m frailty_shapes`` with the JSON argv given, then prints the
#: exit code and the loaded numpy, package and process-pool modules as a last
#: JSON line.
_MAIN_PROBE = """
import json, runpy, sys
sys.argv = ["frailty_shapes", *json.loads(sys.argv[1])]
try:
    runpy.run_module("frailty_shapes", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exit:
    code = exit.code
print(json.dumps([code, sorted(m for m in sys.modules if m == "numpy"
                               or m.startswith(("frailty_shapes", "multiprocessing",
                                                "concurrent")))]))
"""


def _run_main(argv):
    proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("frailty_shapes.") for m in modules}


def _config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return ["--config", str(path)]


def test_import_loads_no_submodule_and_no_numpy():
    proc = subprocess.run([sys.executable, "-c", (
        "import sys, frailty_shapes\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('frailty')))")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['frailty_shapes']"


def test_help_loads_no_numpy():
    assert "numpy" not in _run_main(["--help"])


POISSON = {"family": "poisson", "params": {"eta": 2.0}}
GRID = {"start": 0.0, "stop": 1.0, "points": 3}


def _job_config(command, out_dir):
    """A tiny config of ``command`` writing into ``out_dir``."""
    return {
        "curve": {"family": POISSON, "grid": GRID, "out": f"{out_dir}/curve.csv"},
        "fig2": {"grid": GRID, "out_dir": str(out_dir)},
        "oracle": {"family": POISSON, "grid": GRID, "out": f"{out_dir}/oracle.csv"},
        "simulate": {"sim": {"family": POISSON,
                             "hazards": [{"hazard": "exponential", "params": {"rate": 1.0}}],
                             "n_clusters": 10, "seed": 1}, "out": f"{out_dir}/sim.csv"},
    }[command]


#: Per job: a module it must load, and the modules it must not.
MODULES = {
    "curve": ("shapes", {"simulate", "extensions", "verify"}),
    "fig2": ("shapes", {"simulate", "extensions", "verify"}),
    "oracle": ("oracle", {"simulate", "extensions", "verify"}),
    "simulate": ("simulate", {"oracle", "shapes", "extensions", "verify"}),
}


@pytest.mark.parametrize("command", sorted(MODULES))
def test_subcommand_loads_only_its_modules(tmp_path, command):
    loaded = _run_main([command, *_config(tmp_path, command, _job_config(command, tmp_path))])
    needed, not_loaded = MODULES[command]
    assert {"numpy", needed} <= loaded
    assert loaded & not_loaded == set()


@pytest.mark.parametrize("command", ["oracle", "simulate"])
def test_writers_load_no_process_pool(tmp_path, command):
    # the CSV writer forks its one helper itself; a simulate job of three
    # blocks starts it
    config = _job_config(command, tmp_path)
    if command == "simulate":
        config["sim"]["n_clusters"] = 3 * 4096
    loaded = _run_main([command, *_config(tmp_path, command, config)])
    assert not {m for m in loaded if m.startswith(("multiprocessing", "concurrent"))}


def test_every_public_name_is_its_module_attribute():
    for name in fs.__all__:
        module, _, attr = fs._EXPORTS[name].partition(".")
        owner = importlib.import_module(f"frailty_shapes.{module}")
        assert getattr(fs, name) is getattr(owner, attr or name), name
    assert set(fs.__all__) <= set(dir(fs))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from frailty_shapes import *", namespace)
    assert {name: namespace[name] for name in fs.__all__} == {
        name: getattr(fs, name) for name in fs.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fs.no_such_name


#: Loads the ``simulate`` submodule one way, then checks that the package's
#: ``simulate`` is still the function.
_SIMULATE_PROBE = """
import sys, types
import frailty_shapes as fs
how = sys.argv[1]
if how == "import":
    import frailty_shapes.simulate
elif how == "attribute":
    fs.SimConfig
else:
    from frailty_shapes import cli
    assert cli.main(["simulate", "--config", how]) == 0
assert "frailty_shapes.simulate" in sys.modules
assert isinstance(fs.simulate, types.FunctionType), fs.simulate
assert fs.simulate is sys.modules["frailty_shapes.simulate"].simulate
"""


@pytest.mark.parametrize("how", ["import", "attribute", "cli"])
def test_simulate_stays_the_function(tmp_path, how):
    if how == "cli":
        how = _config(tmp_path, "sim", _job_config("simulate", tmp_path))[1]
    proc = subprocess.run([sys.executable, "-W", "error::ImportWarning",
                           "-c", _SIMULATE_PROBE, how], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

