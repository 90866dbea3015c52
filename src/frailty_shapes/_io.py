"""The one output format: CSV tables and JSON sidecars.

Every file the package writes goes through this module.  CSV integers print
with ``%d`` and floats with ``%.17g`` (enough digits to round-trip float64;
``inf``/``nan`` print as such), rows end in LF, and JSON uses a two-space
indent plus a trailing newline.  Nothing time- or host-dependent enters a
file, so reruns are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

#: Rows formatted per write; bounds the text held in memory for large tables.
CHUNK_ROWS = 65_536


def write_csv(path, header, columns) -> None:
    """Write ``header`` (column names) and equal-length ``columns`` as CSV.

    Integer and boolean columns print with ``%d``, all others with ``%.17g``.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\n"
    n = cols[0].shape[0]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CHUNK_ROWS):
            chunk = zip(*(c[start:start + CHUNK_ROWS].tolist() for c in cols))
            fh.write("".join(map(row.__mod__, chunk)))


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def sidecar_path(csv_path) -> str:
    """The JSON sidecar next to a CSV: same stem, ``.json`` suffix."""
    csv_path = str(csv_path)
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"
