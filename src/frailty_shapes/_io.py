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
When a third block arrives and the process may run on two or more cores, it
forks one helper, which formats every other block from then on: the writer
pickles a block's columns down one pipe, formats the next block itself,
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
import os
import pickle
import struct

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


def _format_block(cols) -> bytes:
    """The CSV rows of one block: integer and boolean columns print with
    ``%d``, all others with ``%.17g``."""
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\n"
    return "".join(map(row.__mod__, zip(*(c.tolist() for c in cols)))).encode()


#: The length prefix of each message on the helper's pipes.
_LENGTH = struct.Struct("<Q")

#: The capacity asked of each pipe: several blocks of text or columns, and
#: Linux's default ``/proc/sys/fs/pipe-max-size``.
_PIPE_BYTES = 1 << 20


def _send(fd, payload) -> None:
    """Write ``payload`` to ``fd`` behind its length."""
    for part in (_LENGTH.pack(len(payload)), payload):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _read(fd, n) -> bytes:
    """``n`` bytes from ``fd``, or fewer at end of file."""
    parts = []
    while n:
        part = os.read(fd, n)
        if not part:
            break
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _receive(fd):
    """The next message on ``fd``, or ``None`` at end of file."""
    head = _read(fd, _LENGTH.size)
    if len(head) == _LENGTH.size:
        (n,) = _LENGTH.unpack(head)
        payload = _read(fd, n)
        if len(payload) == n:
            return payload
    return None


def _fork_helper() -> tuple:
    """Fork the helper; return its pid and the parent's ends of its job and
    text pipes.

    The helper formats each pickled block from the job pipe onto the text
    pipe until end of file.  It leaves only through ``os._exit``: it holds
    forked copies of the parent's file buffers, which must never be flushed.
    It runs only unpickling and string formatting, never BLAS, so it needs
    none of the threads (numpy's BLAS pool) that the fork leaves behind.
    """
    import fcntl

    jobs_r, jobs_w = os.pipe()
    texts_r, texts_w = os.pipe()
    # a pipe that holds a whole block lets each side write it and go on, so
    # neither waits to be woken for every 64 KiB the other reads
    for fd in (jobs_w, texts_w):
        with contextlib.suppress(AttributeError, OSError):  # Linux only
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    try:
        pid = os.fork()
    except BaseException:
        for fd in (jobs_r, jobs_w, texts_r, texts_w):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(jobs_w)
            os.close(texts_r)
            while (payload := _receive(jobs_r)) is not None:
                _send(texts_w, _format_block(pickle.loads(payload)))
            status = 0
        finally:
            os._exit(status)
    os.close(jobs_r)
    os.close(texts_w)
    return pid, jobs_w, texts_r


def _two_cores() -> bool:
    """Whether this process may run on two or more cores."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def write_csv(path, header, blocks) -> None:
    """Write ``header`` (column names) and then each block of ``blocks``, a
    sequence of equal-length columns, as CSV rows.

    Integer and boolean columns print with ``%d``, all others with ``%.17g``.
    From the third block on, one forked helper formats every other block
    when two or more cores are there (see the module docstring).
    """
    blocks = iter(blocks)
    pid = None
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        try:
            for i, cols in enumerate(blocks):
                if i == 2 and _two_cores():
                    pid, jobs, texts = _fork_helper()
                if pid is None:
                    fh.write(_format_block(cols))
                    continue
                _send(jobs, pickle.dumps(cols, protocol=5))
                own = next(blocks, None)
                text = b"" if own is None else _format_block(own)
                helped = _receive(texts)
                if helped is None:
                    raise OSError("the CSV format helper stopped before returning a block")
                fh.write(helped)
                fh.write(text)
        finally:
            if pid is not None:
                os.close(jobs)
                os.close(texts)
                os.waitpid(pid, 0)


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
