"""Acceptance suite: one test per verification criterion.

Each test runs the library-level criterion (the same code path the
``frailty-shapes verify`` subcommand uses), prints a single PASS/FAIL line,
and asserts both the outcome and the criterion's wall-clock budget.  Failing
checks are spelled out in the assertion message.
"""

import pytest

from frailty_shapes import _kernels
from frailty_shapes.verify import CRITERIA, run_criterion

# generous wall-clock ceilings, seconds
BUDGETS = {
    "closed_form_vs_laplace": 1.0,
    "oracle_equivalence": 10.0,
    "tail_limits": 5.0,
    "stationary_points": 5.0,
    "mc_selection": 120.0,
    "crf_identity": 120.0,
    "kpoint_examples": 5.0,
    "correlated_model": 60.0,
    "timevarying_shift": 1.0,
    "addams_ode": 5.0,
}


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_criterion(name):
    result = run_criterion(name)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{name}: {verdict} ({result.seconds:.2f}s, "
          f"{len(result.checks)} checks)")
    # details are plain text: no numpy scalar reprs such as np.float64(...)
    assert not [c.detail for c in result.checks if "np." in c.detail]
    failing = [c for c in result.checks if not c.passed]
    detail = "\n".join(f"  {c.label}: {c.detail}" for c in failing)
    assert result.passed, f"{name} failed {len(failing)} check(s):\n{detail}"
    assert result.seconds < BUDGETS[name], (
        f"{name} took {result.seconds}s, budget {BUDGETS[name]}s"
    )


def test_every_criterion_is_covered():
    assert set(BUDGETS) == set(CRITERIA)
    assert _kernels.active_backend() == "numpy"
