"""The shared CSV writer against the row-by-row ``f"{x:.17g}"`` join."""

import math

import numpy as np
import pytest

from frailty_shapes import _io

SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0]


def _joined(header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.17g}"
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
    _io.write_csv(path, header, _io.row_blocks(columns))
    want = _joined(header, [c.tolist() for c in columns])
    assert path.read_bytes() == want


def test_special_values_spelled_out(tmp_path):
    path = tmp_path / "s.csv"
    _io.write_csv(path, ("x",), _io.row_blocks((np.array(SPECIAL),)))
    assert path.read_text().split("\n")[1:7] == [
        "inf", "-inf", "nan", "-0", "4.9406564584124654e-324", "10000000000000000"]


def test_sidecar_path():
    assert _io.sidecar_path("out/a.csv") == "out/a.json"
    assert _io.sidecar_path("out/a.txt") == "out/a.txt.json"
