"""parallel.fork and parallel.lockstep: results, swapped values and
exceptions come back from the child, and no child outlives the call."""

import errno
import os
import signal
import time

import pytest

from sc_control import parallel
from sc_control.errors import NoConvergence

from conftest import no_child_left


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


def test_fork_error_closes_the_pipe(monkeypatch):
    pipes = []
    pipe = os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError) as err:
        with parallel.fork(pytest.fail, "ran"):
            pytest.fail("entered the block")
    assert err.value.errno == errno.EAGAIN
    (fds,) = pipes
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


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


def swap_rounds(swap, n, tag):
    return [swap((tag, k)) for k in range(n)]


def swap_then_stall(swap, rounds):
    for k in range(rounds):
        swap(k)
    stall(0.5)


def test_lockstep_swaps_values_both_ways():
    with parallel.lockstep(swap_rounds, 4, "child") as (swap, join):
        got = swap_rounds(swap, 4, "parent")
        sent = join()
    assert got == [("child", k) for k in range(4)]
    assert sent == [("parent", k) for k in range(4)]
    assert no_child_left()


def test_lockstep_child_that_returns_early_raises_at_the_next_swap():
    with pytest.raises(RuntimeError, match="returned before the last swap"):
        with parallel.lockstep(swap_rounds, 2, "child") as (swap, join):
            swap_rounds(swap, 3, "parent")
    assert no_child_left()


def test_lockstep_child_error_mid_exchange_is_reraised_at_the_swap():
    with pytest.raises(NoConvergence, match="^stalled$") as err:
        with parallel.lockstep(swap_then_stall, 2) as (swap, join):
            assert [swap(k) for k in range(2)] == [0, 1]
            swap(2)
    assert err.value.residual == 0.5
    assert no_child_left()


def test_lockstep_child_killed_mid_exchange_raises():
    def die(swap):
        swap(0)
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="sent no result"):
        with parallel.lockstep(die) as (swap, join):
            swap(0)
            swap(1)
    assert no_child_left()


def test_lockstep_parent_error_kills_the_child_waiting_to_swap():
    with pytest.raises(ValueError, match="parent failed"):
        with parallel.lockstep(swap_rounds, 1, "child"):
            time.sleep(0.2)  # the child now waits for the parent's value
            raise ValueError("parent failed")
    assert no_child_left()


def test_no_second_child_while_a_block_is_open():
    assert parallel.free()
    with parallel.fork(parallel.free) as join:
        assert not parallel.free()
        with parallel.fork(os.getpid) as nested:  # inline: no third process
            assert nested() == os.getpid()
        with pytest.raises(RuntimeError, match="needs a free CPU"):
            with parallel.lockstep(swap_rounds, 1, "child"):
                pytest.fail("entered the block")
        assert join() is False  # nor in the child
    assert parallel.free()
    assert no_child_left()
