"""Run one ``frailty_shapes`` CLI job with spans around each layer's public calls.

Usage: python3 perfbench/traced_cli.py SPANS.json JOB_ID -- <cli arguments>

The package is imported unchanged; this script then replaces every module
binding of the wrapped functions (``shapes.laplace`` and
``extensions.laplace`` are separate bindings of ``families.laplace``) and the
hazard classes' methods with wrappers that record a span: name, start and end
in nanoseconds, parent span index and job id.  Spans stay in memory and are
written to SPANS.json, with a few size counters, when the job ends.  The
job's exit code is passed through.
"""

import functools
import json
import sys
import time
from importlib import import_module

import numpy as np


def _module(name):
    # The package re-exports functions under module names (``simulate``), so
    # modules are looked up by their full dotted name.
    return import_module(f"frailty_shapes.{name}")


#: The kernels timed one by one; ``run.py`` names its ``kernels.*`` metrics
#: from this tuple.
KERNELS = ("survivor_moment_grid", "kpoint_rfv_grid", "piecewise_cumulative",
           "piecewise_inverse", "riskset_value_counts", "crf_cell_counts")

#: Wrapped module-level functions by module; spans are named
#: ``<module>.<function>``, with ``_kernels`` shortened to ``kernels``.
#: ``oracle.rfv`` and ``oracle.survivor_pmf`` report no metric of their own;
#: their spans keep their time out of their callers' self time.
FUNCTIONS = {
    "families": ("support_table", "laplace"),
    "shapes": ("curve", "rfv_at", "stationary_points", "rfv_derivative",
               "rfv_closed_at", "write_curve"),
    "oracle": ("rfv_grid", "rfv", "survivor_moment", "survivor_pmf"),
    "_kernels": KERNELS,
    "simulate": ("simulate", "samples_to_csv", "simulation_summary",
                 "empirical_rfv", "empirical_crf"),
    "extensions": ("piecewise_rfv", "timevarying_shift_rfv"),
}

#: (module, class, method names) for the wrapped methods, named
#: ``<module>.<method>``.
METHODS = (
    [("hazards", cls, ("cumulative", "inverse_cumulative"))
     for cls in ("ExponentialRate", "Weibull", "PiecewiseConstant")]
    + [("extensions", "CorrelatedPoissonModel", ("crf_of_d", "sample"))]
)


class Tracer:
    """In-memory span list for one job, plus size counters keyed by name."""

    def __init__(self, job: str):
        self.job = job
        self.spans = []
        self.stack = []
        self.counters = {}
        self.support_keys = set()

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, count=None):
        spans, stack, job = self.spans, self.stack, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["families.support_table.distinct"] = len(self.support_keys)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def _count_support(tracer, args, kwargs, result):
    tracer.support_keys.add(repr((args, sorted(kwargs.items()))))


def _count_laplace(tracer, args, kwargs, result):
    tracer.add("families.laplace.points", np.size(args[1]))


def _count_moment_grid(tracer, args, kwargs, result):
    z, _, lam = args
    tracer.add("kernels.survivor_moment_grid.bytes_computed", 8 * np.size(z) * np.size(lam))


def _count_kpoint(tracer, args, kwargs, result):
    z, _, lam = args
    tracer.add("kernels.kpoint_rfv_grid.ops_computed", np.size(z) ** 2 * np.size(lam))


def _count_rows(tracer, args, kwargs, result):
    tracer.add("simulate.simulate.rows", len(result))


COUNTERS = {
    "families.support_table": _count_support,
    "families.laplace": _count_laplace,
    "kernels.survivor_moment_grid": _count_moment_grid,
    "kernels.kpoint_rfv_grid": _count_kpoint,
    "simulate.simulate": _count_rows,
}


def install(tracer: Tracer) -> None:
    """Replace every binding of the wrapped names in the package's modules."""
    wrapped = {}
    for module, names in FUNCTIONS.items():
        for name in names:
            fn = getattr(_module(module), name)
            span = f"{module.lstrip('_')}.{name}"
            wrapped[id(fn)] = (fn, tracer.wrap(span, fn, COUNTERS.get(span)))
    for module in [m for n, m in sys.modules.items()
                   if n == "frailty_shapes" or n.startswith("frailty_shapes.")]:
        for key, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    for module, cls_name, names in METHODS:
        cls = getattr(_module(module), cls_name)
        for name in names:
            setattr(cls, name, tracer.wrap(f"{module}.{name}", vars(cls)[name]))
    criteria = _module("verify").CRITERIA
    for name, fn in list(criteria.items()):
        criteria[name] = tracer.wrap(f"verify.{name}", fn)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, job = argv[0], argv[1]
    import frailty_shapes.cli as cli  # imports every module install() wraps

    tracer = Tracer(job)
    install(tracer)
    rc = tracer.wrap("cli.main", cli.main)(argv[3:])
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
