"""Host-speed sampling for benchmark children, and the launcher that applies it.

    python3 perfbench/clock.py -m MODULE [ARGS...]
    python3 perfbench/clock.py -c CODE
    python3 perfbench/clock.py SCRIPT [ARGS...]

runs the target like `python3` would, with a `Speedometer` sampling the
speed of the core it runs on, and at exit writes one line
`{"speedometer": {...}}` to stderr.

Why: on a shared VM the core a benchmark child runs on also serves other
tenants, and their load changes its speed by up to 1.8x in spells of 0.1 to a
few seconds.  A child's wall time then says as much about its neighbours as
about octoforms.  Every SAMPLE_INTERVAL_S of wall time, a signal handler in
the child's main thread times `probe`, a fixed integer loop that touches no
octoforms code; the sample's speed is REFERENCE_PROBE_S / (probe time).  The
handler runs only between bytecodes, so a long call into C delays it: each
sample stands for the wall time since the one before, and the child's mean
speed is the mean of its samples' speeds weighted by those times.  Its
normalised time is its wall time, less the time spent probing, times that
mean speed: the seconds it would have taken on a core running at the
reference speed.  Timers are not inherited across fork, so pool workers are
not sampled; the main process samples whichever core it is on while it waits
for them.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
import time

SAMPLE_INTERVAL_S = 0.01
# the probe's time on an otherwise idle core of a 2.0 GHz Xeon VM; any fixed
# value would do, it only sets the scale of normalised times
REFERENCE_PROBE_S = 60e-6


def probe() -> float:
    """Wall time of a fixed loop of integer work."""
    t0 = time.perf_counter()
    x = 3
    for _ in range(300):
        x = (x * 1103515245 + 12345) % (1 << 61)
    return time.perf_counter() - t0


class Speedometer:
    def __init__(self):
        self.samples: list = []  # (wall time it stands for, probe time)
        self._last = 0.0

    def _sample(self, signum, frame):
        now = time.perf_counter()
        self.samples.append((now - self._last, probe()))
        self._last = time.perf_counter()

    def start(self):
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return summarise(self.samples)


def summarise(samples: list) -> dict:
    """The samples' count, total probing time and time-weighted mean speed
    (1.0 when every probe took REFERENCE_PROBE_S; None without samples)."""
    span = sum(w for w, _ in samples)
    speed = sum(w * REFERENCE_PROBE_S / t for w, t in samples) / span if span > 0 else None
    return {"samples": len(samples), "probe_s": sum(t for _, t in samples), "speed": speed}


def normalised(wall_s: float, meter: dict | None) -> float:
    """A child's wall time at the reference speed.  A child without samples
    (it ended before the first one) keeps its wall time."""
    if not meter or meter["speed"] is None:
        return wall_s
    return (wall_s - meter["probe_s"]) * meter["speed"]


def main(argv: list) -> None:
    if not argv:
        sys.exit("usage: clock.py (-m MODULE | -c CODE | SCRIPT) [ARGS...]")
    meter = Speedometer()
    meter.start()
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "-c":
            sys.argv = ["-c"] + argv[2:]
            exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.stderr.write("\n" + json.dumps({"speedometer": meter.stop()}) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
