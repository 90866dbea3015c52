"""End-to-end and per-layer benchmark of the ``frailty-shapes`` command line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process runs the workload as a closed loop with one client: the
next ``python -m frailty_shapes <cmd> --config ...`` job starts only after
the previous one exits.  A pass runs the workload's jobs in order.  The
first pass runs every job; later passes keep cycling through the jobs until
``--seconds`` have gone by since the first one started, and the last pass
stops there.  Each job is measured from outside: wall time around the
child, and its CPU time and peak RSS from ``os.wait4`` on that one child.
Children run with ``FRAILTY_SHAPES_BACKEND`` and ``FRAILTY_SHAPES_THREADS``
removed from their environment.  Set-up time is the median of
``SETUP_RUNS`` fresh ``--help`` runs, one after each of the first untraced
passes (so they meet the same machine load as the jobs) and the rest after
the last pass; one untimed warm-up job fills the bytecode and page caches
before measuring.  Job sizes keep each job to a few seconds, so that a run
repeats every job two or more times.

Workloads (``--seed`` sets the seed of every ``simulate`` config; family
parameters and grids are fixed here):

  simulate_io      two ``simulate`` jobs, write-heavy: the CSV writer, the
                   draw, the cured ``inf`` path and ``piecewise_inverse``.
  analytic_verify  one ``curve``, ``fig2``, ``correlated``, ``piecewise``
                   and ``timevarying`` job and two ``oracle`` jobs,
                   compute-heavy along the analytic routes, with oracle
                   working sets on both sides of the L3 size; then the full
                   ``verify`` suite: the simulate layer in memory, the
                   estimators and bootstrap, a JSON report only.

The first pass's outputs are checked (see ``check.py``), and a job fails
when it exits nonzero, fails a check, or gives different bytes on a rerun:
its warm-up run, a later pass or the traced pass.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics: wall and CPU time are
summed over the jobs of each job's fastest run, and peak RSS is the largest
over the jobs of each job's median over its runs (see ``best_pass``).  With
``--trace 1`` one untraced pass is followed by one traced pass through
``traced_cli.py``; its outputs must be byte-identical to the untraced pass,
and the spans give the per-layer metrics.  The per-subcommand times,
``sim_rows_per_s``, ``failed_frac`` and ``invalid_rfv_points`` are zero on
workloads that lack the subcommand, so they are reported with the per-layer
metrics, from the untraced pass.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, namedtuple
from pathlib import Path

from traced_cli import KERNELS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
JOB_TIMEOUT_S = 120.0
SCRUBBED_ENV = ("FRAILTY_SHAPES_BACKEND", "FRAILTY_SHAPES_THREADS")

COMMANDS = ("simulate", "curve", "fig2", "oracle", "correlated", "piecewise",
            "timevarying", "verify")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

CRITERIA = ("closed_form_vs_laplace", "oracle_equivalence", "tail_limits",
            "stationary_points", "mc_selection", "crf_identity",
            "kpoint_examples", "correlated_model", "timevarying_shift",
            "addams_ode")

PER_LAYER = {
    **{f"{cmd}_s": "s" for cmd in COMMANDS},
    "sim_rows_per_s": "1/s",
    "failed_frac": "fraction",
    "invalid_rfv_points": "count",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_stats_s": "s",
    "import.scipy_integrate_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "families.support_table.calls": "count",
    "families.support_table.distinct": "count",
    "families.support_table.self_s": "s",
    "families.laplace.calls": "count",
    "families.laplace.points": "count",
    "families.laplace.self_s": "s",
    "shapes.curve.self_s": "s",
    "shapes.rfv_at.calls": "count",
    "shapes.rfv_at.self_s": "s",
    "shapes.stationary_points.self_s": "s",
    "shapes.rfv_derivative.calls": "count",
    "shapes.rfv_closed_at.self_s": "s",
    "shapes.write_curve.self_s": "s",
    "oracle.rfv_grid.self_s": "s",
    "oracle.survivor_moment.calls": "count",
    **{f"kernels.{k}.self_s": "s" for k in KERNELS},
    "kernels.survivor_moment_grid.bytes_computed": "bytes",
    "kernels.kpoint_rfv_grid.ops_computed": "ops",
    "hazards.inverse_cumulative.self_s": "s",
    "hazards.cumulative.calls": "count",
    "simulate.simulate.self_s": "s",
    "simulate.simulate.rows": "count",
    "simulate.samples_to_csv.self_s": "s",
    "simulate.simulation_summary.self_s": "s",
    "simulate.empirical_rfv.self_s": "s",
    "simulate.empirical_crf.self_s": "s",
    "extensions.crf_of_d.self_s": "s",
    "extensions.piecewise_rfv.calls": "count",
    "extensions.piecewise_rfv.self_s": "s",
    "extensions.timevarying_shift_rfv.self_s": "s",
    "extensions.sample.self_s": "s",
    **{f"verify.{c}.s": "s" for c in CRITERIA},
    "trace.overhead_s": "s",
}

#: Layers whose metrics come from the traced pass's spans and counters.
SPAN_LAYERS = ("cli", "families", "shapes", "oracle", "kernels", "hazards",
               "simulate", "extensions", "verify")

Job = namedtuple("Job", "name command config extra")
JobRun = namedtuple("JobRun", "job wall cpu rss rc digest nbytes")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _exp(rate):
    return {"hazard": "exponential", "params": {"rate": rate}}


def _grid(start, stop, points):
    return {"start": start, "stop": stop, "points": points}


def _family(tag, **params):
    return {"family": tag, "params": params}


ZMP = _family("zero_modified_poisson", eta=3.0, phi=0.05)
SET1 = _family("kpoint", support=[0.99, 2.02, 2.22, 2.41, 2.51, 2.52, 3.96, 10.44],
               probs=[0.03, 0.22, 0.01, 0.03, 0.18, 0.03, 0.16, 0.34])


def simulate_io(seed):
    # 4e5 clusters x 2 targets is dominated by the CSV writer; the second
    # job covers cured clusters (inf times) and the piecewise inverse.  The
    # sizes keep a job to a few seconds, so that a run repeats each job
    # several times (see best_pass).
    return [
        Job("sim_poisson", "simulate", {
            "sim": {"family": _family("poisson", eta=2.0),
                    "hazards": [_exp(1.0), _exp(0.5)],
                    "n_clusters": 400_000, "seed": seed, "censor_time": 3.0},
            "summary_times": [[0.5, 0.5], [1.0, 1.0]],
            "out": "sim_poisson.csv"}, []),
        Job("sim_zmp", "simulate", {
            "sim": {"family": ZMP,
                    "hazards": [_exp(1.0), {"hazard": "piecewise", "params": {
                        "breakpoints": [0.5, 2.0], "rates": [0.5, 1.5, 0.8]}}],
                    "n_clusters": 100_000, "seed": seed},
            "out": "sim_zmp.csv"}, []),
    ]


def analytic_grids(seed):
    # One job per analytic subcommand (two for oracle), sized so that a run
    # repeats each job two or three times.  The oracle grids put the grid x K weight matrix at
    # ~28 MB (inside the 105 MB L3) and ~250 MB (well past it).  piecewise
    # rebuilds the same support table per point; curve and oracle build it
    # once.  The long set1 horizon keeps the known overflow defect in view.
    return [
        Job("curve_set1", "curve", {"family": SET1, "grid": _grid(0.0, 1500.0, 3001),
                                    "out": "curve_set1.csv"}, []),
        Job("fig2", "fig2", {"grid": _grid(0.0, 12.0, 5000), "out_dir": "."}, []),
        Job("oracle_negbin", "oracle", {"family": _family("negbin", pi=0.3, nu=4.0),
                                        "grid": _grid(0.0, 10.0, 30_000),
                                        "out": "oracle_negbin.csv"}, []),
        Job("oracle_poisson", "oracle", {"family": _family("poisson", eta=200.0),
                                         "grid": _grid(0.0, 5.0, 100_000),
                                         "out": "oracle_poisson.csv"}, []),
        Job("correlated", "correlated", {
            "model": {"etas": [1.0, 2.0],
                      "w_dist": _family("kpoint", support=[0.5, 1.5], probs=[0.5, 0.5]),
                      "hazards": [_exp(1.0), _exp(1.0)]},
            "grid": _grid(0.0, 3.0, 5000), "out": "correlated.csv"}, []),
        Job("piecewise", "piecewise", {
            "model": {"cutpoints": [1.0],
                      "segment_families": [_family("poisson", eta=2.0),
                                           _family("negbin", pi=0.3, nu=4.0)],
                      "joint_coupling": "independent",
                      "hazards": [_exp(1.0)]},
            "grid": _grid(1.0, 6.0, 500), "out": "piecewise.csv"}, []),
        Job("timevarying", "timevarying", {
            "inner": _family("poisson", eta=4.0),
            "shift": {"shift": "exp_half_sine", "eta": 4.0},
            "grid": _grid(0.0, 40.0, 5000), "out": "timevarying.csv"}, []),
    ]


def analytic_verify(seed):
    # verify adds the simulate layer in memory (three 1e6-cluster draws, the
    # estimators, the bootstrap), the k-point closed form and the Addams ODE,
    # and writes only a JSON report: a change that streams simulate to disk
    # must show here if it slows the estimators.
    return analytic_grids(seed) + [Job("verify", "verify", {}, ["--out", "verify.json"])]


WORKLOADS = {
    "simulate_io": (simulate_io, "sim_zmp"),
    "analytic_verify": (analytic_verify, "curve_set1"),
}


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, cwd, env, log_stem):
    """(wall s, cpu s, peak RSS MB, exit code) of one child, killed after
    JOB_TIMEOUT_S."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def config_path(job):
    return WORK / "configs" / f"{job.name}.json"


def digest(out_dir):
    """{file name: sha256 of its comparable bytes} and the total bytes written."""
    from check import comparable_bytes

    names = sorted(os.listdir(out_dir))
    sums = {n: hashlib.sha256(comparable_bytes(os.path.join(out_dir, n))).hexdigest()
            for n in names}
    return sums, sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)


def run_pass(jobs, pass_dir, env, spans_dir=None, deadline=None):
    """Run every job once; traced through traced_cli.py when ``spans_dir``.
    No job starts after ``deadline`` (a ``perf_counter`` time)."""
    runs = []
    for job in jobs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        out_dir = pass_dir / job.name
        out_dir.mkdir(parents=True)
        cli_args = [job.command, "--config", str(config_path(job))] + job.extra
        if spans_dir is None:
            argv = ["-m", "frailty_shapes"] + cli_args
        else:
            argv = [str(HERE / "traced_cli.py"), str(spans_dir / f"{job.name}.json"),
                    job.name, "--"] + cli_args
        wall, cpu, rss, rc = run_child(argv, out_dir, env, str(pass_dir / job.name))
        sums, nbytes = digest(out_dir)
        runs.append(JobRun(job, wall, cpu, rss, rc, sums, nbytes))
    return runs


def setup_time(env, i):
    return run_child(["-m", "frailty_shapes", "--help"], WORK, env,
                     str(WORK / "logs" / f"setup{i}"))[0]


# ---------------------------------------------------------------------------
# Checking and metrics
# ---------------------------------------------------------------------------


def failures(passes, ref_dir, warmup):
    """(failed job runs, problems, invalid RFV points of the reference pass).

    The first pass is the reference: its outputs are checked, and every
    other run of a job, the warm-up run included, must reproduce its bytes.
    A job whose warm-up run differs fails in every pass."""
    from check import CHECKS

    reference = {r.job.name: r for r in passes[0]}
    problems, invalid, bad_jobs = [], 0, set()
    for run in warmup:
        if run.digest != reference[run.job.name].digest:
            problems.append(f"{run.job.name}: warm-up bytes differ from the reference run")
            bad_jobs.add(run.job.name)
    for name, run in reference.items():
        if run.rc != 0:
            problems.append(f"{name}: exit code {run.rc}")
            bad_jobs.add(name)
            continue
        try:
            found, n = CHECKS[run.job.command](run.job.config, ref_dir / name)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found, n = [f"{name}: unreadable output: {exc!r}"], 0
        invalid += n
        if found:
            problems += found
            bad_jobs.add(name)
    failed = 0
    for runs in passes:
        for run in runs:
            differs = run.digest != reference[run.job.name].digest
            if differs:
                problems.append(f"{run.job.name}: bytes differ from the reference run")
            failed += run.rc != 0 or differs or run.job.name in bad_jobs
    return failed, problems, invalid


def best_pass(passes):
    """The first pass with each job's wall and CPU time replaced by their
    minimum, and its RSS by the median, over every run of that job.

    The host is shared, and its speed swings by up to 1.5x from one second
    to the next and from one minute to the next.  A median over a run's few
    repetitions follows those swings; the fastest repetition is the job's
    cost when the neighbours leave it alone, and moves far less between
    runs."""
    def over(run, field, stat):
        return stat(getattr(r, field) for p in passes for r in p
                    if r.job.name == run.job.name)

    return [r._replace(wall=over(r, "wall", min), cpu=over(r, "cpu", min),
                       rss=over(r, "rss", statistics.median))
            for r in passes[0]]


def pass_metrics(runs):
    by_cmd = Counter()
    for run in runs:
        by_cmd[run.job.command] += run.wall
    rows = sum(r.job.config["sim"]["n_clusters"] for r in runs if r.job.command == "simulate")
    out = {
        "wall_s": sum(r.wall for r in runs),
        "cpu_s": sum(r.cpu for r in runs),
        "peak_rss_mb": max(r.rss for r in runs),
        "cli.output_bytes": sum(r.nbytes for r in runs),
        "sim_rows_per_s": rows / by_cmd["simulate"] if rows else 0.0,
    }
    out.update({f"{cmd}_s": by_cmd[cmd] for cmd in COMMANDS})
    return out


IMPORT_PACKAGES = {"import.numpy_s": "numpy", "import.scipy_stats_s": "scipy.stats",
                   "import.scipy_integrate_s": "scipy.integrate"}


def _in_package(module, package):
    return module == package or module.startswith(package + ".")


def parse_importtime(lines):
    """Import seconds from ``-X importtime`` lines: the total over top-level
    imports, and per package the cumulative time of its outermost modules.

    A package imported through ``importlib`` (scipy's lazy submodules) has no
    line of its own, only its submodules do, so a package's time is summed
    over every module under its name that has no ancestor under that name.
    Lines come in post-order (children first); reading them backwards gives
    each line's ancestors on a stack.
    """
    entries = []
    for line in lines:
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name.rstrip("\n")[1:]
        entries.append(((len(name) - len(name.lstrip(" "))) // 2, name.strip(),
                        int(cumulative) / 1e6))
    out = dict.fromkeys(["import.total_s", *IMPORT_PACKAGES], 0.0)
    ancestors = []
    for level, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if level == 0:
            out["import.total_s"] += seconds
        for metric, package in IMPORT_PACKAGES.items():
            if _in_package(name, package) and not any(
                    _in_package(a, package) for _, a in ancestors):
                out[metric] += seconds
        ancestors.append((level, name))
    return out


def import_times(env):
    """Import seconds of ``--help`` under ``python -X importtime``, medians over runs."""
    samples = []
    for i in range(IMPORTTIME_RUNS):
        stem = str(WORK / "logs" / f"importtime{i}")
        run_child(["-X", "importtime", "-m", "frailty_shapes", "--help"], WORK, env, stem)
        with open(f"{stem}.err") as fh:
            samples.append(parse_importtime(fh))
    return median_report(samples, samples[0])


def span_metrics(spans_dir, untraced, setup_s):
    """Per-layer metrics from the span files of one traced pass."""
    calls, self_ns, total_ns, counters = Counter(), Counter(), Counter(), Counter()
    overhead = 0.0
    for run in untraced:
        path = spans_dir / f"{run.job.name}.json"
        if not path.is_file():  # the traced job failed; counted in failures()
            continue
        with open(path) as fh:
            data = json.load(fh)
        spans = data["spans"]
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - covered[i]
        counters.update(data["counters"])
        main_ns = sum(end - start for name, start, end, parent, _ in spans
                      if name == "cli.main")
        overhead += main_ns / 1e9 - (run.wall - setup_s)
    out = {"trace.overhead_s": overhead}
    for metric in PER_LAYER:
        stem, _, field = metric.rpartition(".")
        if metric.split(".")[0] not in SPAN_LAYERS:
            continue
        if field == "calls":
            out[metric] = calls[stem]
        elif field == "self_s":
            out[metric] = self_ns["cli.main" if stem == "cli" else stem] / 1e9
        elif stem.startswith("verify."):
            out[metric] = total_ns[stem] / 1e9
        else:
            out[metric] = counters.get(metric, 0)
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment():
    import numpy
    import scipy
    from frailty_shapes import _kernels

    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip()
    except OSError:
        l3 = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "l3_bytes": l3, "backend": _kernels.active_backend()}


def median_report(samples, names):
    return {k: statistics.median(s[k] for s in samples) for k in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frailty_shapes" / "__main__.py").is_file():
        sys.stderr.write(f"no frailty_shapes package under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(SRC))
    env = child_env()

    make_jobs, warmup_name = WORKLOADS[args.workload]
    jobs = make_jobs(args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("configs", "logs"):
        (WORK / sub).mkdir(parents=True)
    for job in jobs:
        with open(config_path(job), "w") as fh:
            json.dump(job.config, fh, indent=2)

    info = environment()
    warmup = [j for j in jobs if j.name == warmup_name]
    warmup = run_pass(warmup, WORK / "warmup", env)

    passes, setup = [], []
    if args.trace:
        passes.append(run_pass(jobs, WORK / "pass0", env))
        setup.append(setup_time(env, 0))
        spans_dir = WORK / "spans"
        spans_dir.mkdir()
        passes.append(run_pass(jobs, WORK / "traced", env, spans_dir))
    else:
        # The first pass is whole (it is the reference); later passes cycle
        # through the jobs until the time is up, the last one possibly cut
        # short, so a run measures for about --seconds on every workload.
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            pass_dir = WORK / f"pass{len(passes)}"
            passes.append(run_pass(jobs, pass_dir, env, deadline=deadline if passes else None))
            if len(setup) < SETUP_RUNS:
                setup.append(setup_time(env, len(setup)))
            if len(passes) > 1:
                shutil.rmtree(pass_dir)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time(env, len(setup)))
    setup_s = statistics.median(setup)
    failed, problems, invalid = failures(passes, WORK / "pass0", warmup)
    attempted = sum(len(p) for p in passes)

    if args.trace:
        metrics = span_metrics(spans_dir, passes[0], setup_s)
        metrics.update(pass_metrics(passes[0]))
        metrics.update(import_times(env))
        metrics["failed_frac"] = failed / attempted
        metrics["invalid_rfv_points"] = invalid
        units = PER_LAYER
    else:
        metrics = pass_metrics(best_pass(passes))
        metrics["setup_s"] = setup_s
        units = END_TO_END

    print(f"# environment: {json.dumps(info)}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed; setup runs (s) "
          f"{[round(t, 3) for t in setup]}; invalid_rfv_points {invalid}")
    for problem in problems:
        print(f"# problem: {problem}")
    if args.trace:
        print("# per-layer metrics: layer spans and counters from the traced pass; "
              "per-subcommand times, sim_rows_per_s and cli.output_bytes from the "
              f"untraced pass; import.* medians of {IMPORTTIME_RUNS} -X importtime runs")
    else:
        print(f"# setup_s: median of {len(setup)} runs; wall_s, cpu_s: sums over jobs of "
              f"each job's fastest run; peak_rss_mb: maximum over jobs of each job's "
              f"median; from {len(passes)} passes "
              f"with wall_s {[round(sum(r.wall for r in p), 3) for p in passes]} "
              f"and {[len(p) for p in passes]} jobs")
    for name in units:
        print(f"# {name} = {metrics[name]} {units[name]}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
