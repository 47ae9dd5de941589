"""Forked workers over pipes, for exact and Monte-Carlo routes alike.

``fan_out(fn, tasks, workers)`` runs `workers` workers: the caller is worker
0, and it forks `workers - 1` children, which inherit its state (a built
plan, a form matrix), so nothing is pickled on the way in.  Worker w runs
tasks w, w + P, w + 2P, ... (P workers).  A child writes each result to its
own pipe as a pickle behind an 8-byte length; the caller computes its own
tasks in turn between reads, so the results come back in task order.  With
one worker nothing is forked.  The caller starts no thread.  A child that
fails leaves its pipe short: the caller then kills and reaps every child
and raises RuntimeError naming the task.  A task that raises in the caller,
or closing the generator early, kills and reaps the children as well.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(limit: int) -> int:
    """How many workers, the caller included, to run for at most `limit`:
    capped at the usable CPUs, and 1 (the caller alone, forking nothing)
    where there is no os.fork or limit < 1."""
    return max(1, min(limit, usable_cpus())) if hasattr(os, "fork") else 1


def _read(fd: int, size: int) -> bytearray | None:
    """Exactly `size` bytes from fd, or None if the writer closed it first."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return buf


def fan_out(fn, tasks: list, workers: int, label: str = "task"):
    """Yield ``fn(task)`` for each task, in order, computed by the caller and
    `workers - 1` forked children; a child's result must pickle.  A child's
    failure raises RuntimeError naming ``f"{label} {index}"``; a task that
    raises in the caller raises its own exception."""
    pipes, pids = [], []
    done, failed = False, None
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
            except OSError:
                os.close(wfd)
                raise
            if pid == 0:  # child: never returns into the caller's frames
                code = 1
                try:
                    for fd in pipes:
                        os.close(fd)
                    for task in tasks[w::workers]:
                        data = pickle.dumps(fn(task), pickle.HIGHEST_PROTOCOL)
                        out = memoryview(len(data).to_bytes(8, "little") + data)
                        while out:
                            out = out[os.write(wfd, out) :]
                    code = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(code)
            os.close(wfd)
            pids.append(pid)
        for i, task in enumerate(tasks):
            w = i % workers
            if w == 0:
                yield fn(task)
                continue
            fd = pipes[w - 1]
            head = _read(fd, 8)
            body = head and _read(fd, int.from_bytes(head, "little"))
            if body is None:
                failed = i
                break
            # only this call's own children wrote these bytes
            yield pickle.loads(body)
        else:
            done = True
    finally:
        if not done:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    if failed is not None:
        raise RuntimeError(f"the worker of {label} {failed} exited before returning it")
