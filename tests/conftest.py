import os

import hypothesis
import pytest

# These tests check values, not per-example run time; a cold first example
# (empty support-table caches, first numpy calls) on a busy host can exceed
# hypothesis' default deadline, so the deadline is disabled globally.
hypothesis.settings.register_profile(
    "frailty", deadline=None, max_examples=60, print_blob=True
)
hypothesis.settings.load_profile("frailty")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process behind, running or
    unreaped: forked helpers must be reaped on every exit path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (pid {pid or 'still running'})")
