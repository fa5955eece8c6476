"""Run one function in a forked child beside the caller's own work.

Small numpy operations hold the GIL, so two threads of them run no faster
than one; two processes do.  ``fork`` gives the caller a ``join`` that
returns the child's result, or re-raises the child's exception; no child
outlives the ``with`` block.  ``inline`` has the same interface and runs
the function in the caller, at ``join``.  One child at a time: while a
block is open, in the process that opened it and in its child, ``free``
is False and a nested ``fork`` runs its function inline; so does every
``fork`` of a process that may run on one CPU only.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager

_open = 0  # fork blocks open in this process, or in the one that forked it


def free() -> bool:
    """True when a child would have a CPU of its own: ``os.fork`` exists, no
    fork block is open here or in the process that forked this one, and
    this process may run on two CPUs or more (where
    ``os.sched_getaffinity`` says; a pinned child would only take turns
    with its parent)."""
    return (hasattr(os, "fork") and not _open
            and (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) >= 2))


@contextmanager
def inline(fn, *args):
    """``fork``'s interface with no child: ``join()`` calls ``fn(*args)``."""
    yield lambda: fn(*args)


def fork(fn, *args):
    """A context manager that starts ``fn(*args)`` in a forked child and
    yields ``join``.

    ``join()`` waits for the child and returns its result, or re-raises its
    exception (one that cannot be pickled comes back as a RuntimeError
    naming its type and message).  Leaving the block before ``join``, say
    because the caller's own work raised, kills the child; either way it is
    reaped.  An error of ``os.fork`` itself closes the pipe and propagates.
    Where ``free()`` is False, this is ``inline(fn, *args)``.
    """
    return _forked(fn, *args) if free() else inline(fn, *args)


@contextmanager
def _forked(fn, *args):
    """``fork`` where ``free()`` is True."""
    global _open
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
