"""Acceptance suite: one test per verification criterion.

Each test runs the library-level criterion (the same code path the
``frailty-shapes verify`` subcommand uses), prints a single PASS/FAIL line,
and asserts both the outcome and the criterion's wall-clock budget.  Failing
checks are spelled out in the assertion message.  The RK4 integrator behind
``addams_ode`` is also checked here against scipy's DOP853 and for its order.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frailty_shapes import _kernels
from frailty_shapes.errors import NumericalOverflow
from frailty_shapes.families import Addams, _survivor_triple
from frailty_shapes.verify import CRITERIA, _addams_ode, run_criterion

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



@pytest.mark.parametrize("name", ["mc_selection", "crf_identity", "correlated_model"])
def test_monte_carlo_criteria_stream_their_draws(name):
    # each criterion draws 1e6 clusters; held in memory they peaked at
    # 46-54 MiB, streamed in chunks they stay near 1 MiB
    tracemalloc.start()
    try:
        assert run_criterion(name).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"


# (alpha, gamma): the three of the addams_ode criterion, then the other five
# of test_families' test_matches_the_integrated_transform
ADDAMS_PAIRS = [(-0.3, 0.5), (0.0, 0.5), (0.3, 0.5), (0.5, 0.5), (1.0, 0.2),
                (-1.0, 2.0), (0.05, 3.0), (-0.05, 0.1)]


@pytest.mark.parametrize("alpha,gamma", ADDAMS_PAIRS)
def test_addams_rk4_matches_dop853(alpha, gamma):
    from scipy.integrate import solve_ivp

    step, n = 0.001, 8000
    l0, l1 = _addams_ode(alpha, gamma, step, n)

    def rhs(t, y):
        return (y[1], (1.0 + gamma * math.exp(alpha * t)) * y[1] * y[1] / y[0])

    # max_step keeps DOP853's dense output at the nodes as accurate as its
    # steps: with its own ~0.27-long steps the interpolant is off by 3.6e-10
    # at (1.0, 0.2), where the closed form agrees with RK4 to 2e-14
    sol = solve_ivp(rhs, (0.0, step * n), (1.0, -1.0), method="DOP853", rtol=1e-12,
                    atol=1e-250, t_eval=step * np.arange(n + 1), max_step=0.1)
    assert sol.success
    assert_allclose(l0, sol.y[0], rtol=1e-11, atol=0.0)
    assert_allclose(l1, sol.y[1], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("alpha,gamma", ADDAMS_PAIRS)
def test_addams_rk4_is_fourth_order(alpha, gamma):
    def error(step):
        n = round(5.0 / step)
        l0, l1 = _addams_ode(alpha, gamma, step, n)
        log_l, mean, _, _ = _survivor_triple(Addams(alpha=alpha, gamma=gamma),
                                             step * np.arange(n + 1))
        return max(np.max(np.abs(log_l - np.log(l0))), np.max(np.abs(mean + l1 / l0)))

    # a fourth-order method cuts its error 16x when the step halves
    assert error(0.004) >= 12.0 * error(0.002)


def test_addams_rk4_raises_when_l_leaves_its_range():
    with pytest.raises(NumericalOverflow, match="non-finite"):
        _addams_ode(0.0, 0.5, 10.0, 400)  # a step this long blows up to inf
    with pytest.raises(NumericalOverflow, match="math range error"):
        _addams_ode(1.0, 0.5, 1.0, 800)  # e^(alpha s) overflows at s = 710
