"""The one output format: CSV tables and JSON sidecars.

Every file the package writes goes through this module.  CSV integers print
with ``%d`` and floats with ``%.17g`` (enough digits to round-trip float64;
``inf``/``nan`` print as such), rows end in LF, and JSON uses a two-space
indent plus a trailing newline.  Nothing time- or host-dependent enters a
file, so reruns are byte-identical.

A table is a CSV plus a JSON sidecar with the same stem.  :func:`write_csv`
writes CSV text one block at a time, so the text held in memory stays small
whatever the table length.  A block is the rows of ``_BLOCK_ROWS`` clusters
or grid points, formatted by :func:`_format_block`; ``simulate`` draws its
clusters in chunks of the same size and formats each chunk as it draws it.

Formatting ``%.17g`` text is most of a long table's cost, so the blocks are
formatted through :func:`._fork.map_on_two_cores`, on a second core when
one is there.  Each block is formatted whole on one side and the file gets
them in block order, so the bytes depend neither on the helper nor on the
core count.
"""

from __future__ import annotations

import json

import numpy as np

from . import _fork

#: Rows per block, both in the CSV writer and in the simulation's draw
#: chunks: large enough to amortise the per-block numpy calls, small enough
#: that a block's arrays and text stay well under a megabyte.
_BLOCK_ROWS = 4096


def row_blocks(columns):
    """Yield equal-length ``columns`` in blocks of ``_BLOCK_ROWS`` rows."""
    cols = [np.asarray(c) for c in columns]
    for start in range(0, cols[0].shape[0], _BLOCK_ROWS):
        yield [c[start:start + _BLOCK_ROWS] for c in cols]


def _format_block(cols) -> bytes:
    """The CSV rows of one block: integer and boolean columns print with
    ``%d``, all others with ``%.17g``."""
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\n"
    return "".join(map(row.__mod__, zip(*(c.tolist() for c in cols)))).encode()


def write_csv(path, header, texts) -> None:
    """Write ``header`` (column names) and then each block of bytes of
    ``texts``, CSV rows as :func:`_format_block` makes them."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for text in texts:
            fh.write(text)


def formatted(columns):
    """The CSV text of equal-length ``columns``, one block of
    ``_BLOCK_ROWS`` rows at a time, formatted through
    :func:`._fork.map_on_two_cores`."""
    return _fork.map_on_two_cores(_format_block, list(row_blocks(columns)))


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def sidecar_path(csv_path) -> str:
    """The JSON sidecar next to a CSV: same stem, ``.json`` suffix."""
    csv_path = str(csv_path)
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"


def write_table(path, header, columns, sidecar) -> None:
    """Write equal-length ``columns`` under ``header`` as the CSV ``path``,
    then the payload ``sidecar`` as its JSON sidecar."""
    write_csv(path, header, formatted(columns))
    write_json(sidecar_path(path), sidecar)
