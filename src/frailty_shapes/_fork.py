"""One forked helper process, for work that pays for a second core.

Two jobs use it: the CSV writer (:func:`._io.write_csv`), which hands every
other block of rows to the helper to format, and :func:`map_on_two_cores`,
which shares a list of items between this process and the helper: the
survivor kernel's row blocks and the verification suite's criteria.  Both
fork through :func:`helper`, and only when :func:`can_fork` says so: when
the process may run on two or more cores and neither has a helper at work
nor is one.  So a helper never forks a helper of its own, calls nested in
shared work run serially, and at most two processes ever work at once.

The two processes talk through pipes only.  Each message on a pipe is its
length as 8 little-endian bytes, then its bytes; results come back pickled.
A helper that dies shows on the parent's side as end of file, where the
caller raises ``OSError``; a parent that dies shows on the helper's side as
end of file or a broken pipe, or, for the map, as a changed parent pid,
which the helper checks before each item.  The helper may run BLAS: numpy's
OpenBLAS stops its worker threads before a fork and starts them afresh in
the child.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import struct

#: An unsigned 8-byte word: the length prefix of each message, and one item
#: index on the map's index pipe.
_WORD = struct.Struct("<Q")

#: The capacity asked of each pipe: several blocks of text or columns, or
#: 131072 item indices, and Linux's default ``/proc/sys/fs/pipe-max-size``.
_PIPE_BYTES = 1 << 20

#: Whether this process has a helper at work, or is one.  It describes the
#: process itself, so it lives as long as the process: the helper inherits
#: it set, and the parent clears it when its helper is reaped.
_busy = False


def can_fork() -> bool:
    """Whether to fork a helper now: this process may run on two or more
    cores, and neither has a helper at work nor is one."""
    return (not _busy and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def pipe() -> tuple:
    """The read and write ends of a new pipe, asked to hold ``_PIPE_BYTES``:
    a pipe that holds a whole message lets the writer go on without waiting
    to be woken for every 64 KiB the reader takes."""
    import fcntl

    ends = os.pipe()
    with contextlib.suppress(AttributeError, OSError):  # Linux only
        fcntl.fcntl(ends[1], fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    return ends


def send(fd, payload) -> None:
    """Write ``payload`` to ``fd`` behind its length."""
    for part in (_WORD.pack(len(payload)), payload):
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


def receive(fd):
    """The next message on ``fd``, or ``None`` at end of file."""
    head = _read(fd, _WORD.size)
    if len(head) == _WORD.size:
        (n,) = _WORD.unpack(head)
        payload = _read(fd, n)
        if len(payload) == n:
            return payload
    return None


def _close(fds) -> None:
    for fd in fds:
        os.close(fd)


@contextlib.contextmanager
def helper(work, theirs=(), mine=()):
    """Run ``work(*theirs, results)`` in one forked helper process while the
    ``with`` block runs; yield the read end of the pipe ``results``.

    ``theirs`` and ``mine`` are further pipe ends that only the helper, or
    only this process, goes on using; each side closes the other's at once,
    so that the end of either side reads as end of file, or a broken pipe,
    on the other.  Ends in neither stay open on both sides.  The helper
    leaves only through ``os._exit``, with status 1 if ``work`` raised: it
    holds forked copies of the parent's file buffers, which must never be
    flushed.  On leaving the block this process closes ``mine`` and the
    results pipe, kills the helper if the block raised, and reaps it.
    """
    global _busy
    try:
        results, results_w = pipe()
    except BaseException:
        _close([*theirs, *mine])
        raise
    ours = [*mine, results]
    _busy = True
    try:
        pid = os.fork()
    except BaseException:
        _busy = False
        _close([*theirs, *ours, results_w])
        raise
    if pid == 0:
        status = 1
        try:
            _close(ours)
            work(*theirs, results_w)
            status = 0
        finally:
            os._exit(status)
    try:
        _close([*theirs, results_w])
        yield results
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _close(ours)
        os.waitpid(pid, 0)
        _busy = False


def _run_next(fn, items, index, done, failed) -> bool:
    """Take the next index from the pipe ``index`` and run ``fn`` on that
    item, into ``done[i]``, or ``failed[i]`` if it raises; ``False`` once
    the pipe is empty."""
    record = _read(index, _WORD.size)
    if len(record) < _WORD.size:
        return False
    (i,) = _WORD.unpack(record)
    try:
        done[i] = fn(items[i])
    except Exception as exc:  # re-raised by the parent, lowest index first
        failed[i] = exc
    return True


def _run_all(fn, items, index, done, failed, parent=None) -> None:
    """Run items taken from the pipe ``index`` until it is empty, an item
    raises, or (in the helper) the process ``parent`` is gone.  After an
    item raised, every later index is taken unrun, so that neither process
    starts an item that the failure makes moot."""
    while (not failed and (parent is None or os.getppid() == parent)
           and _run_next(fn, items, index, done, failed)):
        pass
    # each read takes a multiple of 8 bytes, so the other side's stay records
    while failed and os.read(index, _PIPE_BYTES):
        pass


def _serve(fn, items, index, parent, results) -> None:
    """The helper's side of :func:`map_on_two_cores`: run items from the
    pipe ``index``, then pickle ``({index: result}, {index: exception})``
    down ``results``."""
    done, failed = {}, {}
    _run_all(fn, items, index, done, failed, parent)
    send(results, pickle.dumps((done, failed), protocol=5))


def map_on_two_cores(fn, items) -> list:
    """``[fn(x) for x in items]``, with the items shared between this
    process and one forked helper when there are two or more of them and
    :func:`can_fork` allows; otherwise run here, in order.

    Every item index is written up front as an 8-byte record on one pipe,
    whose write end is then closed; should the pipe fill first, this process
    runs the indices at its head until the rest fits.  Then this process and
    the helper each take the next index from the pipe until it is empty,
    and the helper pickles its ``{index: result}`` back on a second pipe.
    ``fn`` and the items reach the helper through the fork, unpickled.  If
    items raise, the exception of the lowest failing index is raised here,
    as in the serial loop.  A helper that dies, or sends back what cannot be
    unpickled, raises ``OSError``.
    """
    items = list(items)
    if len(items) < 2 or not can_fork():
        return [fn(x) for x in items]
    done, failed = {}, {}
    index, index_w = pipe()
    try:
        try:
            os.set_blocking(index_w, False)
            records = memoryview(struct.pack(f"<{len(items)}Q", *range(len(items))))
            while records and not failed:
                try:
                    records = records[os.write(index_w, records):]
                except BlockingIOError:  # the pipe is full: run its head here
                    _run_next(fn, items, index, done, failed)
        finally:
            os.close(index_w)
        if not failed:
            with helper(functools.partial(_serve, fn, items, index, os.getpid())) as results:
                _run_all(fn, items, index, done, failed)
                message = receive(results)
                if message is None:
                    raise OSError("the map helper stopped before returning its results")
                try:
                    answer = pickle.loads(message)
                except Exception as exc:
                    raise OSError("the map helper's results could not be unpickled") from exc
            done.update(answer[0])
            failed.update(answer[1])
    finally:
        os.close(index)
    if failed:
        raise failed[min(failed)]
    return [done[i] for i in range(len(items))]
