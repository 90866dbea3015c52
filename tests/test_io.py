"""The shared CSV writer against the row-by-row ``f"{x:.17g}"`` join, and
the two-core map behind it and every other job that uses a second core:
its results, its exceptions and the life of its forked helper."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frailty_shapes import _fork, _io, cli

B = _io._BLOCK_ROWS

SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0]


def _joined(header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(str(int(v)) if isinstance(v, int) else f"{v:.17g}"
                              for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n", [1, len(SPECIAL), 16 * _io._BLOCK_ROWS + 5])
def test_bytes_match_row_join(tmp_path, n):
    rng = np.random.default_rng(n)
    ids = np.arange(n)
    special = np.resize(np.array(SPECIAL), n)
    noise = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    flags = (rng.random(n) < 0.5).astype(np.int64)
    columns = (ids, special, noise, flags)
    header = ("id", "special", "noise", "flag")
    path = tmp_path / "t.csv"
    _io.write_csv(path, header, _io.formatted(columns))
    want = _joined(header, [c.tolist() for c in columns])
    assert path.read_bytes() == want


def test_special_values_spelled_out(tmp_path):
    path = tmp_path / "s.csv"
    _io.write_csv(path, ("x",), _io.formatted((np.array(SPECIAL),)))
    assert path.read_text().split("\n")[1:7] == [
        "inf", "-inf", "nan", "-0", "4.9406564584124654e-324", "10000000000000000"]


def test_sidecar_path():
    assert _io.sidecar_path("out/a.csv") == "out/a.json"
    assert _io.sidecar_path("out/a.txt") == "out/a.txt.json"


def _column(kind, rng, n):
    if kind == "int":
        return rng.integers(-2**62, 2**62, n)
    if kind == "bool":
        return rng.random(n) < 0.5
    special = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), n)]
    noise = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return np.where(rng.random(n) < 0.5, special, noise)


@settings(max_examples=12, deadline=None)
@given(full=st.integers(0, 6), partial=st.integers(0, B - 1),
       kinds=st.lists(st.sampled_from(["int", "bool", "float"]), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_bytes_match_row_join_for_any_block_count(tmp_path_factory, full, partial, kinds, seed):
    # up to six full blocks and a partial last one: from three blocks on
    # the map forks a helper, which formats the blocks it takes
    n = max(full * B + partial, 1)
    rng = np.random.default_rng(seed)
    columns = [_column(kind, rng, n) for kind in kinds]
    header = [f"c{i}" for i in range(len(kinds))]
    path = tmp_path_factory.mktemp("blocks") / "t.csv"
    _io.write_csv(path, header, _io.formatted(columns))
    # compared line by line, so that a failure reports the first bad row
    # without diffing whole files on every shrink step
    want = _joined(header, [c.tolist() for c in columns])
    assert path.read_bytes().split(b"\n") == want.split(b"\n")


def _no_fork():
    raise AssertionError("the writer forked")


@pytest.mark.parametrize("n,cores", [(2 * B, {0, 1}), (5 * B + 1, {0})])
def test_no_helper_for_two_blocks_or_one_core(tmp_path, monkeypatch, n, cores):
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    columns = (np.arange(n), np.linspace(0.0, 1.0, n))
    _io.write_csv(tmp_path / "t.csv", ("i", "x"), _io.formatted(columns))
    assert (tmp_path / "t.csv").read_bytes() == _joined(("i", "x"), [c.tolist() for c in columns])


def _helper_pids(monkeypatch):
    """The pids the map forks from now on, recorded as it forks them."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


class _Stop(Exception):
    pass


def _source(n_blocks, stop_at=None, stop=_Stop):
    """The text of ``n_blocks`` one-column blocks, formatted through the map;
    the writer's source raises ``stop`` in place of block ``stop_at`` (1-based)."""
    blocks = [[np.full(B, float(i))] for i in range(1, n_blocks + 1)]
    for i, text in enumerate(_fork.map_on_two_cores(_io._format_block, blocks), 1):
        if i == stop_at:
            raise stop("block %d" % i)
        yield text


class _ClosedAfter:
    """A block source whose generator its owner closes after ``k`` blocks."""

    def __init__(self, blocks, k):
        self.blocks, self.k = blocks, k

    def __iter__(self):
        return self

    def __next__(self):
        if self.k == 0:
            self.blocks.close()
        self.k -= 1
        return next(self.blocks)


@pytest.mark.parametrize("case", ["end", "raise", "interrupt", "closed"])
def test_helper_is_reaped_however_the_source_ends(tmp_path, monkeypatch, case):
    pids = _helper_pids(monkeypatch)
    path = tmp_path / "t.csv"
    if case == "end":
        _io.write_csv(path, ["x"], _source(6))
        assert path.read_bytes() == _joined(["x"], [[float(i) for i in range(1, 7) for _ in range(B)]])
    elif case == "closed":
        _io.write_csv(path, ["x"], _ClosedAfter(_source(6), 3))
        assert path.read_bytes() == _joined(["x"], [[float(i) for i in range(1, 4) for _ in range(B)]])
    else:
        stop = _Stop if case == "raise" else KeyboardInterrupt
        with pytest.raises(stop, match="block 4"):
            _io.write_csv(path, ["x"], _source(6, stop_at=4, stop=stop))
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


#: Writes 200 blocks through the map, prints the helper's pid, then sleeps
#: after the third block while the helper fills the results pipe.
_KILLED_WRITER = """
import os, sys, time
import numpy as np
from frailty_shapes import _io

fork = os.fork
def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announcing_fork
os.sched_getaffinity = lambda pid: {0, 1}

def texts():
    for i, text in enumerate(_io.formatted([np.linspace(0.0, 1.0, 200 * _io._BLOCK_ROWS)])):
        if i == 3:
            time.sleep(60)
        yield text

_io.write_csv(sys.argv[1], ["x"], texts())
"""


def _running(pid) -> bool:
    """Whether ``pid`` is a live process: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def _killed_parent_leaves_no_helper(script, *args):
    """Run ``script``, kill it once its helper is up, and check that the
    helper leaves within five seconds."""
    proc = subprocess.Popen([sys.executable, "-c", script, *args],
                            stdout=subprocess.PIPE, text=True)
    try:
        pid = int(proc.stdout.readline())
        time.sleep(0.2)
        assert _running(pid)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_helper_leaves_when_the_writer_is_killed(tmp_path):
    # the helper is blocked on the full results pipe when the writer dies
    _killed_parent_leaves_no_helper(_KILLED_WRITER, str(tmp_path / "t.csv"))


def _dying_in_the_helper(monkeypatch):
    """Make the helper die, without an answer, on the first block it formats."""
    parent = os.getpid()
    format_block = _io._format_block

    def format_or_die(cols):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.01)
        return format_block(cols)

    monkeypatch.setattr(_io, "_format_block", format_or_die)
    return _helper_pids(monkeypatch)


def test_helper_failure_raises_os_error(tmp_path, monkeypatch):
    pids = _dying_in_the_helper(monkeypatch)
    with pytest.raises(OSError, match="helper"):
        _io.write_csv(tmp_path / "t.csv", ["x"], _source(20))
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_helper_failure_exits_two_from_the_command_line(tmp_path, monkeypatch, capsys):
    _dying_in_the_helper(monkeypatch)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "sim": {"family": {"family": "poisson", "params": {"eta": 2.0}},
                "hazards": [{"hazard": "exponential", "params": {"rate": 1.0}}],
                "n_clusters": 20 * B + 1, "seed": 1},
        "out": str(tmp_path / "sim.csv")}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "OSError"


# The map itself, on items other than blocks of text.


def _square(x):
    return x * x


# 200000 indices overfill a 1 MiB index pipe, so the parent runs and yields
# the head of the pipe before it forks
@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 200_000])
def test_map_equals_the_serial_list(monkeypatch, n):
    pids = _helper_pids(monkeypatch)
    assert list(_fork.map_on_two_cores(_square, range(n))) == [x * x for x in range(n)]
    assert len(pids) == (n >= 3)


@pytest.mark.parametrize("n,cores", [(1, {0, 1}), (50, {0}), (2, {0, 1})])
def test_map_forks_no_helper_for_one_item_or_one_core(monkeypatch, n, cores):
    # nor for two items: the fork pays for itself only from three on
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    assert list(_fork.map_on_two_cores(_square, range(n))) == [x * x for x in range(n)]


def _slow_unless(side, stop):
    """An item function that raises ``stop`` on the items it runs in
    ``side`` ("parent", "helper" or neither) and takes 10 ms on the others,
    so that each process takes some of the items."""
    parent = os.getpid()

    def fn(i):
        if side == ("parent" if os.getpid() == parent else "helper"):
            raise stop(f"item {i} in the {side}")
        time.sleep(0.01)
        return i

    return fn


@pytest.mark.parametrize("case", ["end", "raise", "interrupt", "helper raises", "stopped"])
def test_map_helper_is_reaped_however_the_items_end(monkeypatch, case):
    pids = _helper_pids(monkeypatch)
    if case == "end":
        assert list(_fork.map_on_two_cores(_slow_unless("neither", _Stop), range(50))) == list(range(50))
    elif case == "stopped":  # the caller stops early and drops the map
        results = _fork.map_on_two_cores(_slow_unless("neither", _Stop), range(50))
        assert [next(results) for _ in range(5)] == list(range(5))
        del results
    else:
        stop = KeyboardInterrupt if case == "interrupt" else _Stop
        side = "helper" if case == "helper raises" else "parent"
        with pytest.raises(stop, match=f"in the {side}$"):
            list(_fork.map_on_two_cores(_slow_unless(side, stop), range(50)))
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_map_raises_the_lowest_failing_index(monkeypatch):
    # item 1 fails at once and item 0 a moment later, each in its own
    # process; the serial loop would stop at item 0
    pids = _helper_pids(monkeypatch)

    def fn(i):
        if i < 2:
            time.sleep(0.2 * (1 - i))
            raise _Stop(f"item {i}")
        return i

    with pytest.raises(_Stop, match="^item 0$"):
        list(_fork.map_on_two_cores(fn, range(50)))
    assert len(pids) == 1


@pytest.mark.parametrize("failing", [0, 1, 7, 29])
def test_map_raises_where_the_serial_loop_raises(monkeypatch, failing):
    # every result before the failing item comes out first, in order
    _helper_pids(monkeypatch)

    def fn(i):
        time.sleep(0.002 * (i % 3))
        if i == failing:
            raise _Stop(f"item {i}")
        return i

    got = []
    with pytest.raises(_Stop, match=f"^item {failing}$"):
        for value in _fork.map_on_two_cores(fn, range(30)):
            got.append(value)
    assert got == list(range(failing))


def test_map_parent_runs_at_most_one_item_ahead(monkeypatch):
    pids = _helper_pids(monkeypatch)
    parent, ran = os.getpid(), []

    def fn(i):
        if os.getpid() == parent:
            ran.append(i)
        time.sleep(0.002 * (i % 4))
        return i

    for k, value in enumerate(_fork.map_on_two_cores(fn, range(60))):
        assert value == k
        assert len([i for i in ran if i > k]) <= 1
        time.sleep(0.005)  # a slow caller: the helper runs ahead, not the parent
    assert len(pids) == 1 and 0 < len(ran) < 60


def test_map_helper_failure_raises_os_error(monkeypatch):
    _helper_pids(monkeypatch)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            os._exit(3)  # the helper dies without an answer
        time.sleep(0.01)
        return i

    with pytest.raises(OSError, match="helper"):
        list(_fork.map_on_two_cores(fn, range(20)))


def _fail_to_load():
    raise RuntimeError("cannot be unpickled")


class _Unreadable:
    def __reduce__(self):
        return _fail_to_load, ()


def test_map_helper_failure_raises_os_error_when_results_cannot_be_read(monkeypatch):
    _helper_pids(monkeypatch)
    parent = os.getpid()

    def fn(i):
        time.sleep(0.01)
        return i if os.getpid() == parent else _Unreadable()

    with pytest.raises(OSError, match="helper"):
        list(_fork.map_on_two_cores(fn, range(20)))


def test_map_nested_work_never_forks(monkeypatch):
    # fork records helper pids in the parent only: the helper's copy of the
    # list is the one from before its fork, so it grows only if the helper
    # forks again; in the parent it holds the one helper
    pids = _helper_pids(monkeypatch)

    def fn(i):
        time.sleep(0.01)
        return os.getpid(), len(pids), list(_fork.map_on_two_cores(_square, range(5)))

    results = list(_fork.map_on_two_cores(fn, range(20)))
    assert [r[2] for r in results] == [[x * x for x in range(5)]] * 20
    assert len(pids) == 1
    sides = {pid: seen for pid, seen, _ in results}
    assert sides == {os.getpid(): 1, pids[0]: 0}


#: Maps 200 items: the parent's first sleeps for a minute, the helper's take
#: 50 ms each.  Prints the helper's pid once forked.
_KILLED_MAP = """
import os, sys, time
from frailty_shapes import _fork

fork = os.fork
def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announcing_fork
os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()

def item(i):
    time.sleep(60 if os.getpid() == parent else 0.05)

list(_fork.map_on_two_cores(item, range(200)))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_map_helper_leaves_when_the_parent_is_killed():
    # left alone, the helper would run the other 199 items for ten seconds;
    # its next result meets a broken pipe
    _killed_parent_leaves_no_helper(_KILLED_MAP)
