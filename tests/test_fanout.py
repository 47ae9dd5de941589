"""Forked fan-out: task order, pickled results, failure and early close."""

import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import check_no_child, deadline, fork_counter
from octoforms import fanout
from octoforms.berger import _BLOCK, _group_tasks, _group_worker, _plan


def test_fan_out_yields_groups_in_task_order(no_child_left):
    """Whatever the worker count, the fan-out yields each task's result in
    task order."""
    tasks = _group_tasks(64 * _BLOCK, 0)

    def numbered(args):
        return np.full(_plan()["moments"], float(args[1].start))

    for workers in (2, 3):
        with deadline(60):
            got = [part[0] for part in fanout.fan_out(numbered, tasks, workers)]
        assert got == [float(g) for g in range(len(tasks))], workers


def test_fan_out_returns_any_picklable_result(no_child_left):
    """Results come back through pickle: exact rationals stay exact, and
    results of any size and type arrive whole."""
    tasks = [0, 1, 2, 3, 4]

    def result(t):
        return {1 << t: Fraction(1, 3 + t), "big": 10**40 + t, "pad": bytes(70_000 * t)}

    with deadline(60):
        got = list(fanout.fan_out(result, tasks, 2))
    assert got == [result(t) for t in tasks]


def test_failed_child_names_its_task(no_child_left):
    """A child that raises makes the caller raise RuntimeError naming the
    task, without starting a thread.  Task P + 1 is child 1's second (P
    workers); at 3 workers the next task is child 2's, a 30 s one that is
    killed rather than waited for (at 2 it is the caller's, never reached)."""
    for workers in (2, 3):
        failing_task = workers + 1

        def failing(t):
            if t == failing_task:
                raise ValueError(f"task {t} fails")
            if t == failing_task + 1:
                time.sleep(30)
            return t

        threads = threading.active_count()
        with deadline(10), pytest.raises(RuntimeError,
                                         match=f"the worker of share {failing_task} exited"):
            list(fanout.fan_out(failing, list(range(3 * workers)), workers, "share"))
        assert threading.active_count() == threads
        check_no_child()


def test_failed_caller_task_raises_its_own_error(no_child_left):
    """A task that raises in the caller propagates its own exception, after
    the children, one of them in a 30 s task, are killed and reaped."""

    def failing(t):
        if t == 3:
            raise ValueError("task 3 fails")
        if t == 4:
            time.sleep(30)
        return t

    with deadline(10), pytest.raises(ValueError, match="task 3 fails"):
        list(fanout.fan_out(failing, list(range(9)), 3))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_worker_forks_nothing(monkeypatch):
    """With one worker the caller runs every task: nothing is forked, and
    the results are exactly map(fn, tasks), unpickled."""
    forks = fork_counter(monkeypatch)
    tasks = [[t] * t for t in range(5)]
    got = list(fanout.fan_out(lambda t: t, tasks, 1))
    assert forks == []
    assert got == tasks and all(g is t for g, t in zip(got, tasks))


def test_closed_fan_out_leaves_no_child():
    """Closing the fan-out after its first group, which the caller
    computes, kills and reaps the forked worker; none of it starts a
    thread."""
    tasks = _group_tasks(64 * _BLOCK, 3)
    threads = threading.active_count()
    with deadline(60):
        parts = fanout.fan_out(_group_worker, tasks, 2)
        assert np.array_equal(next(parts), _group_worker(tasks[0]))
        assert threading.active_count() == threads
        parts.close()
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count(monkeypatch):
    """Capped at the usable CPUs, which come from the affinity set; at least
    1, and 1 where there is no os.fork."""
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert fanout.usable_cpus() == 3
    assert [fanout.worker_count(k) for k in (-1, 0, 1, 2, 3, 4)] == [1, 1, 1, 2, 3, 3]
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert [fanout.worker_count(k) for k in (0, 1, 2)] == [1, 1, 1]
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(fanout.os, "fork")
    assert [fanout.worker_count(k) for k in (0, 1, 3)] == [1, 1, 1]


def test_child_check_fails_on_a_child_left_behind():
    """The no_child_left check fails on a running child and on an exited
    one nobody reaped, and passes once both are gone."""
    r, w = os.pipe()
    running = os.fork()
    if running == 0:
        os.close(w)
        os.read(r, 1)
        os._exit(0)
    exited = os.fork()
    if exited == 0:
        os._exit(0)
    os.close(r)
    try:
        os.waitid(os.P_PID, exited, os.WEXITED | os.WNOWAIT)
        with pytest.raises(pytest.fail.Exception, match=f"child {exited} was left unreaped"):
            check_no_child()
        with pytest.raises(pytest.fail.Exception, match="still running"):
            check_no_child()
    finally:
        os.close(w)
        os.waitpid(running, 0)
    check_no_child()
