"""The one output format: CSV tables and JSON sidecars.

Every file the package writes goes through this module.  CSV integers print
with ``%d`` and floats with ``%.17g`` (enough digits to round-trip float64;
``inf``/``nan`` print as such), rows end in LF, and JSON uses a two-space
indent plus a trailing newline.  Nothing time- or host-dependent enters a
file, so reruns are byte-identical.

A table is a CSV plus a JSON sidecar with the same stem.  Tables are written
one block of ``_BLOCK_ROWS`` rows at a time, so the text held in memory
stays small whatever the table length; ``simulate`` draws its clusters in
chunks of the same size and hands each chunk straight to the writer.

Formatting ``%.17g`` text is most of a long table's cost, so the writer uses
a second core when one is there.  It formats the first two blocks itself.
When a third block arrives and :func:`._fork.can_fork` allows (two or more
cores, and no helper at work), it forks one helper through
:func:`._fork.helper`, which formats every other block from then on: the
writer pickles a block's columns down one pipe, formats the next block itself,
then reads the helper's text back from a second pipe and writes both in
order.  At most one block is in flight, so memory stays flat and neither
side waits on a full pipe.  Both sides run the same ``_format_block`` and
the writer alone puts text in the file, in block order, so the bytes depend
neither on the helper nor on the core count.  Shorter tables never fork:
the fork and the pickling pay for themselves only from the third block on.
"""

from __future__ import annotations

import contextlib
import json
import pickle

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


def _format_blocks(jobs, texts) -> None:
    """The helper's side of :func:`write_csv`: format each pickled block
    from the pipe ``jobs`` onto the pipe ``texts`` until end of file."""
    while (payload := _fork.receive(jobs)) is not None:
        _fork.send(texts, _format_block(pickle.loads(payload)))


def write_csv(path, header, blocks) -> None:
    """Write ``header`` (column names) and then each block of ``blocks``, a
    sequence of equal-length columns, as CSV rows.

    Integer and boolean columns print with ``%d``, all others with ``%.17g``.
    From the third block on, one forked helper formats every other block
    when two or more cores are there (see the module docstring).
    """
    blocks = iter(blocks)
    texts = None
    with open(path, "wb") as fh, contextlib.ExitStack() as stack:
        fh.write((",".join(header) + "\n").encode())
        for i, cols in enumerate(blocks):
            if i == 2 and _fork.can_fork():
                jobs_r, jobs = _fork.pipe()
                texts = stack.enter_context(
                    _fork.helper(_format_blocks, theirs=(jobs_r,), mine=(jobs,)))
            if texts is None:
                fh.write(_format_block(cols))
                continue
            _fork.send(jobs, pickle.dumps(cols, protocol=5))
            own = next(blocks, None)
            text = b"" if own is None else _format_block(own)
            helped = _fork.receive(texts)
            if helped is None:
                raise OSError("the CSV format helper stopped before returning a block")
            fh.write(helped)
            fh.write(text)


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
    write_csv(path, header, row_blocks(columns))
    write_json(sidecar_path(path), sidecar)
