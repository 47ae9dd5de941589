"""Forked fan-out: task order, pickled results, failure and early close."""

import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import check_no_child, deadline
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
    """A child that raises makes the parent raise RuntimeError naming the
    task, without starting a thread; the other child, in a 30 s task, is
    killed rather than waited for."""

    def failing(t):
        if t == 3:
            raise ValueError("task 3 fails")
        if t == 4:
            time.sleep(30)
        return t

    threads = threading.active_count()
    with deadline(10), pytest.raises(RuntimeError, match="the worker of share 3 exited"):
        list(fanout.fan_out(failing, list(range(6)), 2, "share"))
    assert threading.active_count() == threads


def test_closed_fan_out_leaves_no_child():
    """Closing the fan-out after its first group kills and reaps the
    workers; none of it starts a thread."""
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
