"""The one output format: CSV tables and JSON sidecars.

Every file the package writes goes through this module.  CSV integers print
with ``%d`` and floats with ``%.17g`` (enough digits to round-trip float64;
``inf``/``nan`` print as such), rows end in LF, and JSON uses a two-space
indent plus a trailing newline.  Nothing time- or host-dependent enters a
file, so reruns are byte-identical.

Tables are written one block of ``_BLOCK_ROWS`` rows at a time, so the text
held in memory stays small whatever the table length; ``simulate`` draws its
clusters in chunks of the same size and hands each chunk straight to the
writer.
"""

from __future__ import annotations

import json

import numpy as np

#: Rows per block, both in the CSV writer and in the simulation's draw
#: chunks: large enough to amortise the per-block numpy calls, small enough
#: that a block's arrays and text stay well under a megabyte.
_BLOCK_ROWS = 4096


def row_blocks(columns):
    """Yield equal-length ``columns`` in blocks of ``_BLOCK_ROWS`` rows."""
    cols = [np.asarray(c) for c in columns]
    for start in range(0, cols[0].shape[0], _BLOCK_ROWS):
        yield [c[start:start + _BLOCK_ROWS] for c in cols]


def write_csv(path, header, blocks) -> None:
    """Write ``header`` (column names) and then each block of ``blocks``, a
    sequence of equal-length columns, as CSV rows.

    Integer and boolean columns print with ``%d``, all others with ``%.17g``.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cols in blocks:
            row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\n"
            fh.write("".join(map(row.__mod__, zip(*(c.tolist() for c in cols)))))


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def sidecar_path(csv_path) -> str:
    """The JSON sidecar next to a CSV: same stem, ``.json`` suffix."""
    csv_path = str(csv_path)
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"
