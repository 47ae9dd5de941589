"""octoforms benchmark: three workloads, cold-process passes, exact checks.

    python3 perfbench/run.py --workload {forms,spheres,mc} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the package is imported from
`src/`.  Every pass runs in a fresh interpreter (see passes.py) and the
harness runs one child at a time, each under clock.py, which samples the
speed of the child's core so that its wall time can be normalised to a
reference speed.  The environment is passed on unchanged apart from
PYTHONPATH; in particular no BLAS thread variable is set.

--trace 0 measures the end-to-end metrics: passes until the next one would
end after --seconds, with SETUP_REPS_PER_PASS timed fresh imports before
each pass and after the last (SETUP_REPS_MIN at least), reporting the median
normalised set-up time, the median normalised pass time and the largest
child RSS.
--trace 1 runs one untraced and one traced pass of the workload (their ratio
is the tracing overhead), traced forms and spheres passes (reusing the
workload's own) and the Monte-Carlo probe, so that every per-layer metric is
measured on every workload.  Span times are scaled to the reference speed by
their child's mean speed.

Before the last line, one JSON line `{"report": ...}` carries the machine,
each timing's median, max and sample count (normalised, and as plain wall
time under `*_wall_s`), the failed checks and the Monte-Carlo observations.
The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from clock import normalised
from passes import MC_SMALL, TINY_MC_SMALL
from spans import span_sum, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPS_PER_PASS = 2
SETUP_REPS_MIN = 6
START = time.perf_counter()
RUN_LIMIT_S = 170  # every run must end within 180 s
WORKLOAD_MODULES = {
    "forms": ["octoforms.canonical", "octoforms.exterior", "octoforms.octform",
              "octoforms.serialize"],
    "spheres": ["octoforms.spheres", "octoforms.clifford", "octoforms.linalg",
                "octoforms.models", "octoforms.hopf", "octoforms.cayley_dickson"],
    "mc": ["octoforms.berger", "octoforms.cli"],
}
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, traced source, span name, span tag, self time?)
LAYER_SPANS = {
    "exterior.charpoly_coeffs_s": ("s", "forms", "exterior.charpoly_coeffs", None, True),
    "exterior.tau4_direct_s": ("s", "forms", "exterior.tau4_direct", None, True),
    "canonical.kotrbaty_psi8_s": ("s", "forms", "canonical.kotrbaty_psi8", None, True),
    "canonical.cgm_form_s": ("s", "forms", "canonical.cgm_form", None, True),
    "canonical.fpq_identity_check_s": ("s", "forms", "canonical.fpq_identity_check", None,
                                       True),
    "serialize.json_roundtrip_s": ("s", "forms", "serialize.json_roundtrip", None, True),
    "berger.phi_dense_s": ("s", "berger-probe", "berger.phi_dense", None, False),
    "berger.warm_small_s": ("s", "berger-probe", "probe.warm_small", None, False),
    "spheres.build_fields_s": ("s", "spheres", "spheres.build_fields", None, True),
    "spheres.verify_system_s": ("s", "spheres", "spheres.verify_system", None, True),
    "spheres.build_fields_512_s": ("s", "spheres", "spheres.build_fields", 512, True),
    "spheres.verify_system_512_s": ("s", "spheres", "spheres.verify_system", 512, True),
    "clifford.extend_s": ("s", "spheres", "clifford.extend", None, True),
    "clifford.verify_s": ("s", "spheres", "clifford.verify", None, True),
    "linalg.lie_closure_dim_s": ("s", "spheres", "linalg.lie_closure_dim", None, True),
    "models.structure_census_s": ("s", "spheres", "models.structure_census", None, True),
    "hopf.reconstruct_s": ("s", "spheres", "hopf.reconstruct", None, True),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Child(NamedTuple):
    wall_s: float  # start to exit
    norm_s: float  # the same at the reference speed (clock.py)
    speed: float  # the child's mean speed relative to the reference
    code: int
    out: str


def run_child(argv: list, stdin: bytes | None = None) -> Child:
    """Run `python3 argv...` under clock.py, from start to exit.

    The child gets its own process group, so that a child that outlives the
    run's time limit is killed together with its pool workers."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "clock.py")] + argv, cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            start_new_session=True)
    out, err = b"", b""
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, RUN_LIMIT_S - (t0 - START)))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    wall = time.perf_counter() - t0
    meter = next((json.loads(line)["speedometer"] for line in reversed(err.decode().splitlines())
                  if line.startswith('{"speedometer"')), None)
    speed = meter["speed"] if meter and meter["speed"] else 1.0
    return Child(wall, normalised(wall, meter), speed, proc.returncode, out.decode())


def last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


class Run:
    """Results of one benchmark run: checks, pass records, observations."""

    def __init__(self, args):
        self.args = args
        self.workers = nproc()
        self.checks: list = []
        self.observations: dict = {}
        self.outputs: dict = {}  # kind -> outputs of its last pass

    def child_pass(self, kind: str, trace: bool, stdin: bytes | None = None) -> dict:
        argv = [str(HERE / "passes.py"), kind, "--seed", str(self.args.seed),
                "--workers", str(self.workers)]
        argv += ["--trace"] * trace + ["--tiny"] * self.args.tiny
        child = run_child(argv, stdin)
        res = last_json(child.out) if child.code == 0 else None
        if res is None:
            res = {"checks": [[f"{kind}-exit", False, f"exit code {child.code}"]],
                   "outputs": {}, "counts": {}, "spans": []}
        self.checks += [[f"{kind}:{name}", ok, detail] for name, ok, detail in res["checks"]]
        self.outputs[kind] = res["outputs"]
        res["wall_s"], res["norm_s"], res["speed"] = child.wall_s, child.norm_s, child.speed
        return res

    def cli_berger(self) -> Child:
        samples = TINY_MC_SMALL if self.args.tiny else MC_SMALL
        argv = ["-m", "octoforms.cli", "berger", "--samples", str(samples),
                "--seed", str(self.args.seed), "--workers", str(self.workers), "--json",
                "--full"]
        child = run_child(argv)
        self.checks.append(["mc:cli-exit", child.code == 0, f"exit code {child.code}"])
        if child.code == 0:
            cosine = float(json.loads(child.out)["cosine_similarity"])
            self.checks.append(["mc:cli-cosine", cosine >= 0.99, f"cosine {cosine!r}"])
        return child

    def workload_pass(self, trace: bool) -> dict:
        """One pass of the workload, timed from start to exit of its
        processes.  An mc pass is the small CLI call, then the large library
        call."""
        obs = self.observations
        cli, stdin = Child(0.0, 0.0, 1.0, 0, ""), None
        if self.args.workload == "mc":
            cli = self.cli_berger()
            obs.setdefault("mc_small_s", []).append(cli.norm_s)
            obs.setdefault("mc_small_wall_s", []).append(cli.wall_s)
            if cli.code != 0:
                return {"wall_s": cli.wall_s, "norm_s": cli.norm_s, "parts": {}}
            stdin = cli.out.encode()
        res = self.child_pass(self.args.workload, trace, stdin)
        out = res["outputs"]
        if "large_s" in out:
            obs.setdefault("mc_samples_per_s", []).append(out["samples"] / out["large_s"])
            obs.setdefault("mc_cosine", []).append(out["cosine"])
        return {"wall_s": cli.wall_s + res["wall_s"], "norm_s": cli.norm_s + res["norm_s"],
                "parts": {self.args.workload: res}}

    def setup_times(self, reps: int) -> list:
        """`reps` fresh interpreters importing the workload."""
        code = "import octoforms, " + ", ".join(WORKLOAD_MODULES[self.args.workload])
        children = [run_child(["-c", code]) for _ in range(reps)]
        self.checks += [["setup:import", c.code == 0, f"exit code {c.code}"] for c in children]
        return children

    def end_to_end(self, deadline: float) -> dict:
        # set-up samples are spread over the run rather than taken in one
        # burst, so that they see the same spells of host load as the passes
        setup, passes = [], []
        while True:
            setup += self.setup_times(SETUP_REPS_PER_PASS)
            passes.append(self.workload_pass(trace=False))
            if time.perf_counter() + statistics.median(p["wall_s"] for p in passes) > deadline:
                break
        setup += self.setup_times(max(SETUP_REPS_PER_PASS, SETUP_REPS_MIN - len(setup)))
        obs = self.observations
        obs["setup_s"] = [c.norm_s for c in setup]
        obs["setup_wall_s"] = [c.wall_s for c in setup]
        obs["pass_s"] = [p["norm_s"] for p in passes]
        obs["pass_wall_s"] = [p["wall_s"] for p in passes]
        return {
            "setup_s": statistics.median(obs["setup_s"]),
            "pass_s": statistics.median(obs["pass_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        plain = self.workload_pass(trace=False)
        traced = self.workload_pass(trace=True)
        sources = {kind: traced["parts"].get(kind) or self.child_pass(kind, trace=True)
                   for kind in ("forms", "spheres")}
        sources["berger-probe"] = self.child_pass("berger-probe", trace=True)

        # span times are scaled to the reference speed by their child's mean
        # speed, as pass times are
        metrics = {name: span_sum(sources[kind]["spans"], span, arg, self_time)
                   * sources[kind]["speed"]
                   for name, (_, kind, span, arg, self_time) in LAYER_SPANS.items()}
        tables = {kind: totals_by_name(res["spans"]) for kind, res in sources.items()}
        probe = sources["berger-probe"]
        n = probe["counts"].get("probe_samples", 0)
        w1 = span_sum(probe["spans"], "probe.w1", self_time=False)
        wn = span_sum(probe["spans"], "probe.wn", self_time=False)
        metrics["berger.w1_samples_per_s"] = n / (w1 * probe["speed"]) if w1 else 0.0
        metrics["berger.parallel_efficiency"] = w1 / (self.workers * wn) if wn else 0.0
        metrics["exterior.tau_monomials"] = sources["forms"]["counts"].get("tau_monomials", 0)
        metrics["trace.overhead_frac"] = traced["norm_s"] / plain["norm_s"] - 1
        self.observations["self_times"] = tables
        self.observations["speeds"] = {kind: res["speed"] for kind, res in sources.items()}
        units = {name: spec[0] for name, spec in LAYER_SPANS.items()}
        units.update({"berger.w1_samples_per_s": "1/s", "berger.parallel_efficiency": "ratio",
                      "exterior.tau_monomials": "count", "trace.overhead_frac": "ratio"})
        return {name: (value, units[name]) for name, value in metrics.items()}


def machine() -> dict:
    info = {
        "cores": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), platform.processor())
    except OSError:
        info["cpu"] = platform.processor()
    probe = ("import json, numpy as np; c = np.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps({'numpy': np.__version__, 'blas': b.get('name'),"
             "'blas_version': b.get('version'), 'blas_config': b.get('openblas configuration')}))")
    child = run_child(["-c", probe])
    info.update((child.code == 0 and last_json(child.out)) or {"numpy": None})
    return info


def summary(values: list) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_MODULES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced problem sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # a terminated run still kills its children (run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "octoforms" / "__init__.py").is_file():
        print("run.py: no src/octoforms here; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    run = Run(args)
    run.setup_times(1)  # compiles bytecode, so that no timed child does; not counted
    if args.trace:
        metrics = run.per_layer()
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in
                   run.end_to_end(start + args.seconds).items()}

    failed = sum(1 for _, ok, _ in run.checks if not ok)
    attempted = len(run.checks)
    obs = run.observations
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - start,
        "machine": machine(),
        "fail_ratio": failed / attempted,
        "failed_checks": [c for c in run.checks if not c[1]],
        "timings": {k: summary(v) for k, v in obs.items()
                    if k.endswith("_s")},
        "outputs": run.outputs,
        "mc_cosine": obs.get("mc_cosine"),
        "self_times": obs.get("self_times"),
        "speeds": obs.get("speeds"),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
