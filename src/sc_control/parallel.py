"""Run one function in a forked child beside the caller's own work.

Small numpy operations hold the GIL, so two threads of them run no faster
than one; two processes do.  ``fork`` gives the caller a ``join`` that
returns the child's result, or re-raises the child's exception; no child
outlives the ``with`` block.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager


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
    Where ``os.fork`` does not exist, ``fn`` runs inline at ``join``.
    """
    if not hasattr(os, "fork"):
        yield lambda: fn(*args)
        return
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:  # no child: the pipe is the caller's to close
        os.close(r)
        os.close(w)
        raise
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
        if state["fd"] is not None:
            os.close(state["fd"])
        if "pid" in state:
            os.kill(state["pid"], signal.SIGKILL)
            os.waitpid(state["pid"], 0)
