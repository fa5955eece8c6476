"""Run one function in a forked child beside the caller's own work.

Small numpy operations hold the GIL, so two threads of them run no faster
than one; two processes do.  ``fork`` gives the caller a ``join`` that
returns the child's result, or re-raises the child's exception; no child
outlives the ``with`` block.  ``lockstep`` does the same for a child that
swaps values with the caller as both go.  One child at a time: while a
block is open, in the process that opened it and in its child, ``free``
is False and a nested ``fork`` runs its function inline.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager

_open = 0  # fork blocks open in this process, or in the one that forked it


def free() -> bool:
    """True when a child would have a CPU of its own: ``os.fork`` exists and
    no fork block is open here or in the process that forked this one."""
    return hasattr(os, "fork") and not _open


@contextmanager
def inline(fn, *args):
    """``fork``'s interface with no child: ``join()`` calls ``fn(*args)``."""
    yield lambda: fn(*args)


@contextmanager
def fork(fn, *args):
    """Start ``fn(*args)`` in a forked child and yield ``join``.

    ``join()`` waits for the child and returns its result, or re-raises its
    exception (one that cannot be pickled comes back as a RuntimeError
    naming its type and message).  Leaving the block before ``join``, say
    because the caller's own work raised, kills the child; either way it is
    reaped.  An error of ``os.fork`` itself closes the pipe and propagates.
    Where ``free()`` is False, ``fn`` runs inline at ``join``.
    """
    global _open
    if not free():
        yield lambda: fn(*args)
        return
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:  # no child: the pipe is the caller's to close
        os.close(r)
        os.close(w)
        raise
    _open += 1  # in the parent and in the child alike
    if pid == 0:  # the child sends (ok, value) and leaves without cleanup
        try:
            os.close(r)
            try:
                out = (True, fn(*args))
            except BaseException as exc:
                out = (False, exc)
            try:
                data = pickle.dumps(out)
            except Exception:
                what = type(out[1]).__name__
                data = pickle.dumps((False, RuntimeError(
                    f"forked child's {what} cannot be pickled: {out[1]}")))
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(w)
    state = {"fd": r, "pid": pid}

    def join():
        fh, state["fd"] = os.fdopen(state["fd"], "rb"), None
        with fh:
            data = fh.read()
        status = os.waitpid(state["pid"], 0)[1]
        del state["pid"]
        if not data:
            raise RuntimeError(f"forked child ended with wait status {status} "
                               f"and sent no result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    try:
        yield join
    finally:
        _open -= 1
        if state["fd"] is not None:
            os.close(state["fd"])
        if "pid" in state:
            os.kill(state["pid"], signal.SIGKILL)
            os.waitpid(state["pid"], 0)


class _Ends:
    """One side's ends of the two pipes between a lockstep child and its caller."""

    def __init__(self, w, r):
        self.w = w
        self.reader = os.fdopen(r, "rb")

    def swap(self, value):
        data = pickle.dumps(value)
        while data:
            data = data[os.write(self.w, data):]
        return pickle.load(self.reader)

    def close(self):
        os.close(self.w)
        self.reader.close()


@contextmanager
def lockstep(fn, *args):
    """Start ``fn(swap, *args)`` in a forked child and yield ``(swap, join)``.

    Each ``swap(value)``, in the child and in the caller, sends ``value`` to
    the other side and returns the value the other side sent in the same
    round, so both sides must make the same number of swaps.  Each side
    writes before it reads, so a round of values that fit a pipe's buffer
    (64 KiB on Linux) never blocks on its writes.  ``join`` and the block's
    exit are those of :func:`fork`: when the caller leaves the block, the
    child is killed, even while it waits in a swap.  When the child has
    left before a round, by returning or by raising, the caller's swap
    calls ``join``, which re-raises the child's exception; a child that
    returned gives a RuntimeError.  Needs ``free()``: the two sides cannot
    run in step in one process.
    """
    if not free():
        raise RuntimeError("lockstep needs a free CPU (see parallel.free)")
    down_r, down_w = os.pipe()  # caller -> child
    up_r, up_w = os.pipe()  # child -> caller

    def child(*child_args):
        os.close(down_w)
        os.close(up_r)
        return fn(_Ends(up_w, down_r).swap, *child_args)

    try:
        with fork(child, *args) as join:
            # without the child's ends here, the child's exit reads as EOF
            os.close(down_r)
            os.close(up_w)
            down_r = up_w = None
            ends = _Ends(down_w, up_r)
            down_w = up_r = None

            def swap(value):
                try:
                    return ends.swap(value)
                except (BrokenPipeError, EOFError):
                    join()
                    raise RuntimeError("lockstep child returned before the last swap") from None

            try:
                yield swap, join
            finally:
                ends.close()
    finally:
        for fd in (down_r, down_w, up_r, up_w):
            if fd is not None:
                os.close(fd)
