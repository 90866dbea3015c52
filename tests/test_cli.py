import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frailty_shapes import cli
from frailty_shapes.extensions import piecewise_rfv
from frailty_shapes.verify import Check, CriterionResult

POISSON_CFG = {"family": {"family": "poisson", "params": {"eta": 2.0}}}
EXP_HAZARD = {"hazard": "exponential", "params": {"rate": 1.0}}


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCurveCommand:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        cfg = write_cfg(tmp_path, "curve_cfg.json", {
            **POISSON_CFG,
            "grid": {"start": 0.0, "stop": 2.0, "points": 5},
            "out": str(out),
        })
        rc, _, err = run_main(["curve", "--config", cfg], capsys)
        assert rc == 0 and err == ""
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,rfv,crf"
        assert len(lines) == 6
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["tail"] == "IncreasingToInfinity"
        assert sidecar["family"]["family"] == "poisson"

    def test_out_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "curve_cfg.json", {
            **POISSON_CFG,
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "out": str(tmp_path / "ignored.csv"),
        })
        target = tmp_path / "flag.csv"
        rc, _, _ = run_main(["curve", "--config", cfg, "--out", str(target)],
                            capsys)
        assert rc == 0
        assert target.exists()
        assert not (tmp_path / "ignored.csv").exists()

    @pytest.mark.parametrize("grid", [
        {"start": 2.0, "stop": 1.0, "points": 5},
        {"start": -1.0, "stop": 1.0, "points": 5},
        {"start": 0.0, "stop": 1.0, "points": 1},
        {"start": 0.0, "stop": 1.0},
    ])
    def test_bad_grid_exits_two(self, tmp_path, capsys, grid):
        cfg = write_cfg(tmp_path, "curve_cfg.json", {**POISSON_CFG, "grid": grid,
                                             "out": str(tmp_path / "c.csv")})
        rc, _, err = run_main(["curve", "--config", cfg], capsys)
        assert rc == 2
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}

    def test_missing_config_exits_two(self, capsys):
        rc, _, err = run_main(["curve"], capsys)
        assert rc == 2
        assert json.loads(err)["error"] == "ParameterOutOfRange"

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run_main(["curve", "--config", str(bad)], capsys)
        assert rc == 2
        assert json.loads(err)["error"] == "JSONDecodeError"

    def test_infinite_parameter_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        cfg = write_cfg(tmp_path, "curve_cfg.json", {
            "family": {"family": "poisson", "params": {"eta": float("inf")}},
            "out": str(out),
        })
        assert "Infinity" in (tmp_path / "curve_cfg.json").read_text()
        rc, _, err = run_main(["curve", "--config", cfg], capsys)
        assert rc == 2
        assert json.loads(err)["error"] == "ParameterOutOfRange"
        assert not out.exists()

    def test_unknown_family_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "curve_cfg.json", {
            "family": {"family": "cauchy", "params": {}},
            "out": str(tmp_path / "c.csv"),
        })
        rc, _, err = run_main(["curve", "--config", cfg], capsys)
        assert rc == 2
        assert json.loads(err)["error"] == "UnsupportedFamily"


class TestOracleCommand:
    def test_csv_and_max_diff(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = write_cfg(tmp_path, "oracle_cfg.json", {
            "family": {"family": "negbin", "params": {"pi": 0.5, "nu": 2.0}},
            "grid": {"start": 0.0, "stop": 3.0, "points": 7},
            "out": str(out),
        })
        rc, _, _ = run_main(["oracle", "--config", cfg], capsys)
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,rfv_laplace,rfv_oracle,rel_diff"
        body = np.array([r.split(",") for r in lines[1:]], dtype=float)
        assert body.shape == (7, 4)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["max_rel_diff"] < 1e-8
        assert body[:, 3].max() == pytest.approx(sidecar["max_rel_diff"])


class TestFig2Command:
    def test_writes_four_sets(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "fig2_cfg.json", {
            "out_dir": str(tmp_path),
            "grid": {"start": 0.0, "stop": 2.0, "points": 9},
        })
        rc, _, _ = run_main(["fig2", "--config", cfg], capsys)
        assert rc == 0
        for name in ("set1", "set2", "set3", "set4"):
            csv = tmp_path / f"fig2_{name}.csv"
            assert csv.exists()
            assert csv.read_text().startswith("lambda,rfv,crf\n")
            assert (tmp_path / f"fig2_{name}.json").exists()


class TestSimulateCommand:
    def _config(self, tmp_path, seed=7):
        return write_cfg(tmp_path, "sim_cfg.json", {
            "sim": {
                "family": {"family": "poisson", "params": {"eta": 2.0}},
                "hazards": [EXP_HAZARD],
                "n_clusters": 400,
                "seed": seed,
            },
            "summary_times": [[0.5]],
            "out": str(tmp_path / "s.csv"),
        })

    def test_csv_and_summary(self, tmp_path, capsys):
        rc, _, _ = run_main(["simulate", "--config", self._config(tmp_path)],
                            capsys)
        assert rc == 0
        lines = (tmp_path / "s.csv").read_text().strip().split("\n")
        assert lines[0] == "cluster_id,z,t_1,censored"
        assert len(lines) == 401
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["n_clusters"] == 400
        assert summary["seed"] == 7
        assert summary["at_risk"][0]["t"] == [0.5]

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = self._config(tmp_path, seed=7)
        run_main(["simulate", "--config", cfg], capsys)
        first = (tmp_path / "s.csv").read_text()
        run_main(["simulate", "--config", cfg, "--seed", "8"], capsys)
        second = (tmp_path / "s.csv").read_text()
        assert first != second
        assert json.loads((tmp_path / "s.json").read_text())["seed"] == 8

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        run_main(["simulate", "--config", cfg], capsys)
        first = (tmp_path / "s.csv").read_bytes()
        run_main(["simulate", "--config", cfg], capsys)
        assert (tmp_path / "s.csv").read_bytes() == first


class TestCorrelatedCommand:
    def test_csv_schema_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        cfg = write_cfg(tmp_path, "corr_cfg.json", {
            "model": {
                "etas": [1.0, 2.0],
                "w_dist": {"family": "gamma",
                           "params": {"mean": 1.0, "variance": 0.5}},
                "hazards": [EXP_HAZARD, EXP_HAZARD],
            },
            "grid": {"start": 0.0, "stop": 3.0, "points": 13},
            "out": str(out),
        })
        rc, _, _ = run_main(["correlated", "--config", cfg], capsys)
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "d,crf"
        crf = np.array([r.split(",")[1] for r in lines[1:]], dtype=float)
        np.testing.assert_allclose(crf, 1.5, rtol=1e-12)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["limit_crf"] == pytest.approx(1.5)
        pair = sidecar["frailty_correlations"][0]
        assert pair["correlation"] == pytest.approx(1.0 / np.sqrt(6.0))


class TestPiecewiseCommand:
    def test_grid_defaults_to_final_segment(self, tmp_path, capsys):
        out = tmp_path / "pw.csv"
        cfg = write_cfg(tmp_path, "pw_cfg.json", {
            "model": {
                "cutpoints": [0.5],
                "segment_families": [
                    {"family": "negbin", "params": {"pi": 0.5, "nu": 2.0}},
                    {"family": "poisson", "params": {"eta": 2.0}},
                ],
                "hazards": [EXP_HAZARD],
            },
            "grid": {"start": 0.5, "stop": 2.0, "points": 7},
            "out": str(out),
        })
        rc, _, _ = run_main(["piecewise", "--config", cfg], capsys)
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,rfv,crf"
        assert len(lines) == 8
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["coupling"] == "independent"
        assert sidecar["tail"] == "IncreasingToInfinity"

    def test_grid_before_final_segment_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "pw_cfg.json", {
            "model": {
                "cutpoints": [1.0],
                "segment_families": [
                    {"family": "poisson", "params": {"eta": 2.0}},
                    {"family": "poisson", "params": {"eta": 2.0}},
                ],
                "hazards": [EXP_HAZARD],
            },
            "grid": {"start": 0.2, "stop": 2.0, "points": 4},
            "out": str(tmp_path / "pw.csv"),
        })
        rc, _, err = run_main(["piecewise", "--config", cfg], capsys)
        assert rc == 2
        assert json.loads(err)["error"] == "ParameterOutOfRange"

    def test_coupling_table_rows_match_the_model(self, tmp_path, capsys):
        out = tmp_path / "pw.csv"
        config = {
            "model": {
                "cutpoints": [0.5],
                "segment_families": [
                    {"family": "kpoint", "params": {"support": [0.0, 1.0, 2.0],
                                                    "probs": [0.25, 0.5, 0.25]}},
                    {"family": "kpoint", "params": {"support": [0.5, 1.5],
                                                    "probs": [0.4, 0.6]}},
                ],
                "joint_coupling": {"conditional": [[0.1, 0.5], [0.6, 0.2],
                                                   [0.3, 0.3]]},
                "hazards": [EXP_HAZARD, EXP_HAZARD],
            },
            "grid": {"start": 0.5, "stop": 6.0, "points": 12},
            "out": str(out),
        }
        rc, _, err = run_main(["piecewise", "--config",
                               write_cfg(tmp_path, "pw_cfg.json", config)], capsys)
        assert rc == 0, err
        model = cli._piecewise_from(config)
        rows = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert rows.shape == (12, 3)
        for t, rfv, crf in rows:
            want = piecewise_rfv(model, (t, t))
            assert abs(rfv - want) <= 2e-15 * (1.0 + abs(want))
            assert crf == rfv + 1.0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["coupling"] == config["model"]["joint_coupling"]


class TestTimevaryingCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "tv.csv"
        cfg = write_cfg(tmp_path, "tv_cfg.json", {
            "inner": {"family": "poisson", "params": {"eta": 4.0}},
            "shift": {"shift": "exp_half", "eta": 4.0},
            "grid": {"start": 0.0, "stop": 10.0, "points": 6},
            "out": str(out),
        })
        rc, _, _ = run_main(["timevarying", "--config", cfg], capsys)
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,rfv,crf"
        row0 = lines[1].split(",")
        assert float(row0[1]) == pytest.approx(1.0 / 16.0)

    @pytest.mark.parametrize("shift,message", [
        ("exp_half", "malformed shift spec: 'exp_half'"),
        ({"shift": "exp_half"}, "shift 'exp_half' is missing parameter 'eta'"),
    ], ids=["not_an_object", "missing_eta"])
    def test_bad_shift_exits_two(self, tmp_path, capsys, shift, message):
        out = tmp_path / "tv.csv"
        cfg = write_cfg(tmp_path, "tv_cfg.json", {
            "inner": {"family": "poisson", "params": {"eta": 4.0}},
            "shift": shift,
            "out": str(out),
        })
        rc, _, err = run_main(["timevarying", "--config", cfg], capsys)
        assert rc == 2
        assert json.loads(err) == {"error": "ParameterOutOfRange", "message": message}
        assert not out.exists()


SIM = {"family": POISSON_CFG["family"], "hazards": [EXP_HAZARD], "n_clusters": 10, "seed": 1}
KPOINT_SEGMENTS = [{"family": "kpoint", "params": {"support": [0.0, 1.0], "probs": [0.5, 0.5]}},
                   {"family": "kpoint", "params": {"support": [0.5, 1.5], "probs": [0.4, 0.6]}}]
INF = float("inf")


@pytest.mark.parametrize("command,config,field", [
    ("curve", {**POISSON_CFG, "grid": {"start": 0.0, "stop": 1.0, "points": INF}},
     "grid parameter 'points' must be a finite number"),
    ("simulate", {"sim": {**SIM, "n_clusters": INF}},
     "sim parameter 'n_clusters' must be a finite number"),
    ("simulate", {"sim": {**SIM, "seed": INF}}, "sim parameter 'seed' must be a finite number"),
    ("curve", {**POISSON_CFG, "grid": {"start": 0.0, "stop": 1.0, "points": 3.9}},
     "grid parameter 'points' must be an integer"),
    ("simulate", {"sim": {**SIM, "n_clusters": 10.7}},
     "sim parameter 'n_clusters' must be an integer"),
    ("curve", {"family": {"family": "poisson", "params": {"eta": 2.0, "bogus": 1}}},
     "family 'poisson' has unknown parameter 'bogus'"),
    ("curve", {"family": {"family": "poisson", "params": {"eta": "2"}}},
     "family 'poisson' parameter 'eta' must be a finite number"),
    ("curve", {"family": {"family": "poisson", "params": {"eta": True}}},
     "family 'poisson' parameter 'eta' must be a finite number"),
    ("simulate", {"sim": {k: v for k, v in SIM.items() if k != "seed"}},
     "sim is missing parameter 'seed'"),
    ("simulate", SIM, "config has unknown parameter"),  # the sim keys belong under "sim"
    ("piecewise", {"model": {"cutpoints": [0.5], "segment_families": KPOINT_SEGMENTS,
                             "hazards": [EXP_HAZARD],
                             "joint_coupling": {"conditional": [[float("nan"), 0.5]] * 2}}},
     "joint_coupling parameter 'conditional'[0][0] must be a finite number"),
], ids=["points_1e400", "n_clusters_1e400", "seed_1e400", "fractional_points",
        "fractional_n_clusters", "unknown_param", "string_param", "bool_param",
        "missing_seed", "flat_sim", "nan_coupling"])
def test_bad_config_exits_two_naming_the_field(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "cfg.json"
    # 1e400 as written in a config file parses to inf
    cfg.write_text(json.dumps({**config, "out": str(tmp_path / "out.csv")})
                   .replace("Infinity", "1e400"))
    rc, _, err = run_main([command, "--config", str(cfg)], capsys)
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterOutOfRange"
    assert payload["message"].startswith(field)
    assert not (tmp_path / "out.csv").exists()



@pytest.mark.parametrize("conditional", [[[0.5, 0.5], [0.5]], [[[0.5], [0.5]], [0.5, 0.5]]],
                         ids=["ragged_rows", "ragged_depth"])
def test_ragged_coupling_table_exits_two_naming_the_field(tmp_path, capsys, conditional):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"cutpoints": [0.5], "segment_families": KPOINT_SEGMENTS,
                  "hazards": [EXP_HAZARD], "joint_coupling": {"conditional": conditional}},
        "out": str(tmp_path / "out.csv")})
    rc, out, err = run_main(["piecewise", "--config", cfg], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "LengthMismatch"
    assert payload["message"].startswith("joint_coupling conditional must be a rectangular table")
    assert not (tmp_path / "out.csv").exists()

class TestVerifyCommand:
    def test_single_criterion_report(self, tmp_path, capsys):
        rc, out, _ = run_main(["verify", "--only", "tail_limits",
                               "--out", str(tmp_path / "report.json")], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert [c["name"] for c in payload["criteria"]] == ["tail_limits"]
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == payload

    def test_unknown_criterion_exits_two(self, capsys):
        rc, _, err = run_main(["verify", "--only", "no_such_criterion"], capsys)
        assert rc == 2
        assert "no_such_criterion" in json.loads(err)["message"]

    def test_failing_criterion_exits_one(self, capsys, monkeypatch):
        fail = CriterionResult(
            name="tail_limits", passed=False, seconds=0.0,
            checks=[Check(label="synthetic", passed=False, detail="forced")])
        monkeypatch.setattr(cli, "run_all", lambda only=None: [fail])
        rc, out, _ = run_main(["verify"], capsys)
        assert rc == 1
        assert json.loads(out)["passed"] is False


#: A tiny config per subcommand, with the extra arguments it runs with.
#: Output paths are relative, so each run writes into its own directory.
RERUN_JOBS = {
    "curve": ({**POISSON_CFG, "grid": {"start": 0.0, "stop": 2.0, "points": 5},
               "out": "curve.csv"}, []),
    "fig2": ({"grid": {"start": 0.0, "stop": 2.0, "points": 9}, "out_dir": "."}, []),
    "oracle": ({"family": {"family": "negbin", "params": {"pi": 0.5, "nu": 2.0}},
                "grid": {"start": 0.0, "stop": 3.0, "points": 7},
                "out": "oracle.csv"}, []),
    "simulate": ({"sim": {"family": {"family": "zero_modified_poisson",
                                     "params": {"eta": 3.0, "phi": 0.05}},
                          "hazards": [EXP_HAZARD, {"hazard": "piecewise", "params": {
                              "breakpoints": [0.5], "rates": [0.5, 1.5]}}],
                          "n_clusters": 300, "seed": 5, "censor_time": 2.0},
                  "summary_times": [[0.5, 0.5]], "out": "sim.csv"}, []),
    "correlated": ({"model": {"etas": [1.0, 2.0],
                              "w_dist": {"family": "kpoint", "params": {
                                  "support": [0.5, 1.5], "probs": [0.5, 0.5]}},
                              "hazards": [EXP_HAZARD, EXP_HAZARD]},
                    "grid": {"start": 0.0, "stop": 3.0, "points": 7},
                    "out": "correlated.csv"}, []),
    "piecewise": ({"model": {"cutpoints": [0.5],
                             "segment_families": [
                                 {"family": "poisson", "params": {"eta": 2.0}},
                                 {"family": "negbin", "params": {"pi": 0.3, "nu": 4.0}}],
                             "hazards": [EXP_HAZARD]},
                   "grid": {"start": 0.5, "stop": 2.0, "points": 7},
                   "out": "piecewise.csv"}, []),
    "timevarying": ({"inner": {"family": "poisson", "params": {"eta": 4.0}},
                     "shift": {"shift": "exp_half_sine", "eta": 4.0},
                     "grid": {"start": 0.0, "stop": 10.0, "points": 6},
                     "out": "timevarying.csv"}, []),
    "verify": ({"only": ["tail_limits"]}, ["--out", "report.json"]),
}


def test_every_subcommand_reruns_byte_identical(tmp_path, capsys, monkeypatch):
    assert set(RERUN_JOBS) == set(cli._COMMANDS)
    for command, (config, extra) in RERUN_JOBS.items():
        runs = []
        for run in ("first", "second"):
            out_dir = tmp_path / command / run
            out_dir.mkdir(parents=True)
            monkeypatch.chdir(out_dir)
            cfg = write_cfg(tmp_path / command, f"{run}.json", config)
            rc, _, err = run_main([command, "--config", cfg] + extra, capsys)
            assert rc == 0, err
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            if command == "verify":
                # the report's only non-deterministic bytes: criterion run times
                files["report.json"] = re.sub(rb'"seconds": [0-9.e+-]+', b'"seconds": 0',
                                              files["report.json"])
            runs.append(files)
        assert runs[0], f"{command} wrote no files"
        assert runs[0] == runs[1], f"{command} outputs differ between reruns"


def test_module_entry_point_end_to_end(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"family": "negbin", "params": {"pi": 0.5, "nu": 2.0}},
        "grid": {"start": 0.0, "stop": 2.0, "points": 5},
        "out": str(tmp_path / "a.csv"),
    }))
    cmd = [sys.executable, "-m", "frailty_shapes", "curve", "--config", str(cfg)]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    first = (tmp_path / "a.csv").read_bytes()

    # a second run to another file gives the same bytes
    proc = subprocess.run(cmd + ["--out", str(tmp_path / "b.csv")],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert (tmp_path / "b.csv").read_bytes() == first
    assert first == (tmp_path / "a.csv").read_bytes()  # untouched by second run


def test_benchmark_traced_names_resolve(monkeypatch):
    """Every name the benchmark's tracer wraps exists, so a rename fails here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    traced = importlib.import_module("traced_cli")
    missing = []
    for module, names in traced.FUNCTIONS.items():
        found = importlib.import_module(f"frailty_shapes.{module}")
        missing += [f"{module}.{n}" for n in names if not callable(getattr(found, n, None))]
    for module, cls_name, names in traced.METHODS:
        cls = getattr(importlib.import_module(f"frailty_shapes.{module}"), cls_name, None)
        missing += [f"{module}.{cls_name}.{n}" for n in names
                    if not callable(getattr(cls, n, None))]
    kernels = importlib.import_module("frailty_shapes._kernels")
    missing += [f"_kernels.{n}" for n in traced.KERNELS
                if not callable(getattr(kernels, n, None))]
    assert missing == []


_SCIPY_PROBE = """
import sys

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

from frailty_shapes.cli import main
try:
    main(["--help"])
except SystemExit:
    pass
print("after --help:", scipy_loaded())
from frailty_shapes.verify import run_all, run_criterion
print("after addams_ode:", scipy_loaded(), run_criterion("addams_ode").passed)
print("after run_all:", scipy_loaded(), all(r.passed for r in run_all()))
"""


def test_no_code_path_imports_scipy():
    """The package needs numpy only: neither start-up nor any verify
    criterion, the ODE check included, loads scipy."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "after --help: False",
        "after addams_ode: False True",
        "after run_all: False True",
    ]
