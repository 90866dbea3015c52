"""One forked helper process, for work that pays for a second core.

:func:`map_on_two_cores` is ``map`` over a list of items, with the items
shared between this process and one helper forked through :func:`helper`.
Every job that uses a second core goes through it: the CSV writer's row
blocks, the simulation's draw chunks, the survivor kernel's row blocks and
the verification suite's criteria.  The map forks only for three or more
items, when the process may run on two or more cores and neither has a
helper at work nor is one.  So a helper never forks a helper of its own,
maps nested in shared work run serially, and at most two processes ever
work at once.

The two processes talk through pipes only.  Each message on a pipe is its
length as 8 little-endian bytes, then its bytes; results come back pickled,
one message per item, as soon as the helper has it.  A helper that dies
shows on the parent's side as end of file, where the map raises
``OSError``; a parent that dies shows on the helper's side as a broken pipe
at its next result.  The helper may run BLAS: numpy's OpenBLAS stops its
worker threads before a fork and starts them afresh in the child.
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

#: The capacity asked of each pipe: several blocks of text or results, or
#: 131072 item indices, and Linux's default ``/proc/sys/fs/pipe-max-size``.
_PIPE_BYTES = 1 << 20

#: Whether this process has a helper at work, or is one.  It describes the
#: process itself, so it lives as long as the process: the helper inherits
#: it set, and the parent clears it when its helper is reaped.
_busy = False


def can_fork() -> bool:
    """Whether this process may run on two or more cores and neither has a
    helper at work nor is one."""
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


@contextlib.contextmanager
def helper(work):
    """Run ``work(results)`` in one forked helper process while the ``with``
    block runs; yield the read end of the pipe whose write end is
    ``results``.

    The helper leaves only through ``os._exit``, with status 1 if ``work``
    raised: it holds forked copies of the parent's file buffers, which must
    never be flushed.  On leaving the block this process closes its end of
    the pipe, kills the helper if the block raised, and reaps it.
    """
    global _busy
    results, results_w = pipe()
    _busy = True
    try:
        pid = os.fork()
    except BaseException:
        _busy = False
        os.close(results)
        os.close(results_w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(results)
            work(results_w)
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(results_w)
        yield results
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(results)
        os.waitpid(pid, 0)
        _busy = False


def _take(index):
    """The next item index on the pipe ``index``, or ``None`` once it is empty."""
    record = _read(index, _WORD.size)
    return _WORD.unpack(record)[0] if len(record) == _WORD.size else None


def _run(fn, item) -> tuple:
    """``(True, fn(item))``, or ``(False, exception)`` if it raises."""
    try:
        return True, fn(item)
    except Exception as exc:  # raised by the parent where the serial loop would
        return False, exc


def _serve(fn, items, index, results) -> None:
    """The helper's side of :func:`map_on_two_cores`: run the items whose
    indices it takes from the pipe ``index`` and pickle each outcome of
    :func:`_run` down ``results`` as it comes, until the pipe is empty or an
    item raises."""
    while (i := _take(index)) is not None:
        outcome = _run(fn, items[i])
        send(results, pickle.dumps(outcome, protocol=5))
        if not outcome[0]:
            return


def map_on_two_cores(fn, items):
    """Yield ``fn(x)`` for each of ``items`` in order, as ``map`` does, with
    the items shared between this process and one forked helper when there
    are three or more of them and :func:`can_fork` allows; otherwise run
    here, in order.

    Every item index is written up front as an 8-byte record on one pipe,
    whose write end is then closed; should the pipe fill first, this process
    runs and yields the items at its head until the rest fits.  Then both
    processes take the next index from the pipe, so a long item on one side
    leaves the other side free for the rest.  The helper sends each result
    back as soon as it has it, and this process runs an item of its own only
    when the caller asks for a result it does not have: it never runs more
    than one item ahead of the caller.  ``fn`` and the items reach the
    helper through the fork, unpickled.  An item that raises raises here
    when the caller asks for its result, as in the serial loop.  A helper
    that dies, or sends back what cannot be unpickled, raises ``OSError``.
    """
    items = list(items)
    if len(items) < 3 or not can_fork():
        yield from map(fn, items)
        return
    k = 0  # the next result to yield
    index, index_w = pipe()
    try:
        try:
            os.set_blocking(index_w, False)
            records = memoryview(struct.pack(f"<{len(items)}Q", *range(len(items))))
            while records:
                try:
                    records = records[os.write(index_w, records):]
                except BlockingIOError:  # the pipe is full: run its head here
                    _take(index)
                    yield fn(items[k])
                    k += 1
        finally:
            os.close(index_w)
        with helper(functools.partial(_serve, fn, items, index)) as results:
            own = None  # (index, outcome) of this process's item not yet yielded
            for k in range(k, len(items)):
                if own is None and (i := _take(index)) is not None:
                    own = i, _run(fn, items[i])
                if own is not None and own[0] == k:
                    outcome, own = own[1], None
                else:  # the helper took item k: its next result is k's
                    message = receive(results)
                    if message is None:
                        raise OSError("the map helper stopped before returning a result")
                    try:
                        outcome = pickle.loads(message)
                    except Exception as exc:
                        raise OSError("the map helper's result could not be unpickled") from exc
                ok, value = outcome
                if not ok:
                    raise value
                yield value
    finally:
        os.close(index)
