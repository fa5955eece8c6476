"""parallel.fork: results and exceptions come back from the child, and no
child outlives the call."""

import os

import pytest

from sc_control import parallel
from sc_control.errors import NoConvergence


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def stall(residual):
    raise NoConvergence("stalled", residual=residual)


def fail_test():
    pytest.fail("cannot be sent")


def test_result_comes_back_from_a_child():
    with parallel.fork(lambda a, b: (os.getpid(), a ** b), 2, 10) as join:
        pid, value = join()
    assert value == 1024 and pid != os.getpid()
    assert no_child_left()


def test_child_exception_reraised_with_its_fields():
    with pytest.raises(NoConvergence, match="^stalled$") as err:
        with parallel.fork(stall, 0.25) as join:
            join()
    assert err.value.residual == 0.25
    assert no_child_left()


def test_unpicklable_exception_named_by_type_and_message():
    with pytest.raises(RuntimeError, match="Failed cannot be pickled: cannot be sent"):
        with parallel.fork(fail_test) as join:
            join()
    assert no_child_left()


def test_parent_failure_before_join_kills_the_child():
    r, w = os.pipe()
    try:
        with pytest.raises(ValueError, match="parent failed"):
            # the child blocks on a pipe nobody writes to
            with parallel.fork(os.read, r, 1):
                raise ValueError("parent failed")
    finally:
        os.close(r)
        os.close(w)
    assert no_child_left()


def test_inline_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    calls = []
    with parallel.fork(lambda a, b: calls.append(os.getpid()) or a ** b, 2, 10) as join:
        assert calls == []  # nothing runs before the join
        assert join() == 1024
    assert calls == [os.getpid()]
    with pytest.raises(NoConvergence, match="^stalled$") as err:
        with parallel.fork(stall, 0.25) as join:
            join()
    assert err.value.residual == 0.25
