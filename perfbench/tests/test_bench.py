"""Tests of the benchmark itself: span arithmetic, a tiny-size run of every
workload in both modes, and seed dependence of the outputs.

    python3 -m pytest perfbench/tests -q

The tiny runs take about a minute on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "perfbench"))

from spans import Tracer, self_times, span_sum, totals_by_name  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _span(i, name, parent, start, end, arg=None):
    s = {"id": i, "name": name, "parent": parent, "start": start, "end": end}
    if arg is not None:
        s["arg"] = arg
    return s


# root [0, 10] with children [1, 4], [3, 6] and [8, 12] (the last runs past the
# root's end); [1, 4] has a child [2, 3]
TREE = [
    _span(0, "root", None, 0.0, 10.0),
    _span(1, "a", 0, 1.0, 4.0, arg=1),
    _span(2, "leaf", 1, 2.0, 3.0),
    _span(3, "a", 0, 3.0, 6.0, arg=2),
    _span(4, "late", 0, 8.0, 12.0),
]


def test_self_time_subtracts_the_union_of_children_within_the_span():
    selfs = self_times(TREE)
    # children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)


def test_totals_and_tagged_sums():
    totals = totals_by_name(TREE)
    assert totals["a"] == {"calls": 2, "total_s": 6.0, "self_s": pytest.approx(5.0)}
    assert span_sum(TREE, "a", arg=2) == pytest.approx(3.0)
    assert span_sum(TREE, "a", self_time=False) == pytest.approx(6.0)
    assert span_sum(TREE, "absent") == 0.0


def test_tracer_nests_spans():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", arg=512):
            pass
    outer, inner = tr.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["arg"] == 512
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


_RUNS: dict = {}


def tiny_run(workload: str, seed: int, trace: int) -> tuple:
    """(report, result) of a tiny-size benchmark run, cached per arguments."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=REPO, capture_output=True, text=True, timeout=170, check=True,
        ).stdout.strip().splitlines()
        _RUNS[key] = json.loads(out[-2])["report"], json.loads(out[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    _, result = tiny_run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_monte_carlo_coefficients_but_no_exact_output(workload):
    one, _ = tiny_run(workload, 1, 0)
    two, _ = tiny_run(workload, 2, 0)
    a, b = one["outputs"], two["outputs"]
    if workload == "mc":
        assert a["mc"]["coeff_sha"] != b["mc"]["coeff_sha"]
        assert a["mc"]["cosine"] != b["mc"]["cosine"]
    else:
        assert a[workload] == b[workload] and a[workload]


def test_normalised_time_weights_samples_by_the_wall_time_they_stand_for():
    from clock import REFERENCE_PROBE_S, normalised, summarise

    # 1 s at full reference speed, then 3 s at half speed (probe twice as slow)
    meter = summarise([(1.0, REFERENCE_PROBE_S), (3.0, 2 * REFERENCE_PROBE_S)])
    assert meter["samples"] == 2
    assert meter["probe_s"] == pytest.approx(3 * REFERENCE_PROBE_S)
    assert meter["speed"] == pytest.approx((1.0 + 3.0 / 2) / 4)
    wall = 4.0 + meter["probe_s"]
    assert normalised(wall, meter) == pytest.approx(2.5)
    # a child that ended before its first sample keeps its wall time
    assert summarise([])["speed"] is None
    assert normalised(0.3, summarise([])) == 0.3
