"""Smoke test: demos 01-05 run to completion and print their key results.

Demo 06 is left out: it repeats the Monte-Carlo acceptance run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "01_octonions_and_sedenions.py": [
        "Right multiplication by i is skew: True and squares to -Id: True",
    ],
    "02_spin9_and_the_8_form.py": [
        "Normalizations: gcd(tau4) = 360, 702 monomials, tau8 top coefficient -19958400",
    ],
    "03_vector_fields_on_spheres.py": [
        "  against the level-2 fields: fails (fields 0,8 break A^T B + B^T A = 0)",
        "  the D(D2(L_i N)) field instead: ok",
    ],
    "04_hopf_fibration.py": ["  at (0, 1) with tangent (0, f): True"],
    "05_clifford_systems_and_structures.py": ["  c6_triples: 35"],
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in EXPECTED[demo]:
        assert line in lines
