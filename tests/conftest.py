"""Shared test helpers: a child-process guard and a fork counter for the
forking routes, a deadline, and the environment for running the package in
a subprocess."""

import os
import signal
from contextlib import contextmanager

import pytest


def check_no_child():
    """Fail unless this process has no child, running or exited-but-unreaped.

    An exited child is reaped by the check, so one failure does not spill
    into the next test."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"child {pid} was left unreaped (status {status})")
    pytest.fail("a child process is still running")


@pytest.fixture
def no_child_left():
    """Fail the test if it leaves a child process behind."""
    yield
    check_no_child()


def fork_counter(monkeypatch) -> list:
    """Record the pid of every child os.fork starts in this process from now
    on, for the rest of the test; the list's length counts the forks."""
    forks, real = [], os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body if it runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def subprocess_env(**extra) -> dict:
    """os.environ with the package's source on PYTHONPATH, plus `extra`."""
    from pathlib import Path

    import octoforms

    src = str(Path(octoforms.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
