"""CLI surface: schemas, determinism, exit codes."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from conftest import subprocess_env
from octoforms import cli, clifford
from octoforms.canonical import spin9_form
from octoforms.cli import main
from octoforms.exterior import Multivector
from octoforms.serialize import (
    matrix_to_json,
    multivector_from_json,
    multivector_to_csv,
    multivector_to_json,
    rational_str,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_rational_strings():
    assert rational_str(Fraction(-3, 4)) == "-3/4"
    assert rational_str(Fraction(8, 4)) == "2"
    assert rational_str(5) == "5"


def test_multivector_json_roundtrip():
    mv = Multivector.blade(16, [1, 2, 3, 4], 2) + Multivector.blade(
        16, [2, 3, 5, 9], Fraction(-7, 3)
    )
    obj = multivector_to_json(mv)
    assert obj["n"] == 16 and obj["grade"] == 4
    assert multivector_from_json(obj) == mv
    # blades sorted lexicographically
    assert obj["terms"][0]["blade"] == [1, 2, 3, 4]


def test_json_roundtrip_keeps_integer_coefficients_int():
    """Integral coefficients come back as int, so an integer form keeps its
    content; the others stay Fraction."""
    phi = spin9_form()
    back = multivector_from_json(multivector_to_json(phi))
    assert back == phi and back.coeff_gcd() == 1
    assert {type(c) for _, c in back.terms()} == {int}
    mixed = multivector_from_json(multivector_to_json(
        Multivector.blade(4, [1, 2], Fraction(6, 3)) + Multivector.blade(4, [3, 4], Fraction(1, 2))))
    assert [type(c) for _, c in mixed.terms()] == [int, Fraction]


def test_multivector_from_json_sums_repeated_blades():
    obj = {
        "n": 8,
        "grade": 2,
        "terms": [
            {"blade": [1, 3], "coeff": "1/2"},
            {"blade": [2, 5], "coeff": "4"},
            {"blade": [1, 3], "coeff": "3/2"},
            {"blade": [2, 5], "coeff": "-4"},
        ],
    }
    assert multivector_from_json(obj) == Multivector.blade(8, [1, 3], 2)


def test_csv_format():
    mv = Multivector.blade(8, [1, 3], 4)
    csv = multivector_to_csv(mv)
    assert csv == "blade;coeff\n1-3;4\n"


def test_form_csv_has_702_rows():
    code, out, _ = run_cli("form", "--which", "spin9", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "blade;coeff"
    assert len(lines) == 703


def test_form_json_matches_library():
    code, out, _ = run_cli("form", "--which", "spin9", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert multivector_from_json(obj) == spin9_form()


def test_cli_byte_identical_runs():
    a = run_cli("charpoly", "--json")
    b = run_cli("charpoly", "--json")
    assert a == b
    a = run_cli("fields", "--m", "16", "--json", "--verify")
    b = run_cli("fields", "--m", "16", "--json", "--verify")
    assert a == b and a[0] == 0


def test_charpoly_json_shape():
    code, out, _ = run_cli("charpoly", "--json")
    rows = json.loads(out)["coefficients"]
    zeros = [r["tau"] for r in rows if r["zero"]]
    assert zeros == [1, 2, 3, 5, 6, 7, 9]
    assert [r["monomials"] for r in rows if not r["zero"]] == [702, 1]


def test_fields_json_triplets():
    code, out, _ = run_cli("fields", "--m", "16", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["sigma"] == 8 and obj["count"] == 8
    first = obj["fields"][0]
    assert all(len(t) == 3 and t[2] in (-1, 1) for t in first)
    assert len(first) == 16


def test_fields_128_note_surfaces():
    code, out, _ = run_cli("fields", "--m", "128", "--json")
    obj = json.loads(out)
    assert obj["notes"] and "L_e" in obj["notes"][0]


def test_hopf_json_and_exit_codes():
    point = ["3/5", "0", "0", "0", "0", "0", "0", "0", "4/5", "0", "0", "0", "0", "0", "0", "0"]
    code, out, _ = run_cli("hopf", "--json", "--point", *point)
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"][0] == "24/25"
    assert obj["lambda"][8] == "-7/25"
    assert obj["lambda"] == obj["inner_products"]
    # off-sphere point: invariant failure (exit 1)
    bad = ["1"] + ["0"] * 14 + ["1"]
    code, _, err = run_cli("hopf", "--point", *bad)
    assert code == 1 and "unit sphere" in err
    # malformed point: usage error (exit 2)
    code, _, err = run_cli("hopf", "--point", "1", "2")
    assert code == 2


def test_hopf_numerator_denominator_form():
    tokens = []
    for val in [Fraction(3, 5)] + [Fraction(0)] * 7 + [Fraction(4, 5)] + [Fraction(0)] * 7:
        tokens.extend([str(val.numerator), str(val.denominator)])
    code, out, _ = run_cli("hopf", "--json", "--point", *tokens)
    assert code == 0
    assert json.loads(out)["lambda"][0] == "24/25"


@pytest.mark.parametrize("form", [16, 32])
def test_hopf_zero_denominator_exits_2(form):
    point = ["1/0"] + ["0"] * 15 if form == 16 else ["1", "0"] + ["0", "1"] * 15
    code, out, err = run_cli("hopf", "--point", *point)
    assert code == 2 and out == "" and "zero denominator" in err


def test_clifford_subcommand():
    code, out, _ = run_cli("clifford", "--kind", "spin9", "--extend", "1", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["n"] == 32 and obj["m"] == 9 and obj["verified"]
    assert obj["matrices"][0][0][16] == "1"  # Q_0 = antidiag(Id, Id)


@pytest.mark.parametrize("kind", clifford.STANDARD_KINDS)
def test_matrix_to_json_matches_dense_rational_strings(kind):
    """The row writer against the formula it replaced, rational_str of every
    dense entry, for the systems of `clifford --extend 0..2 --json`."""
    system = clifford.standard_system(kind)
    for _ in range(3):
        for p in system.mats:
            want = [[rational_str(x) for x in row] for row in np.asarray(p).tolist()]
            assert matrix_to_json(p) == want
        system = clifford.extend(system)


@pytest.mark.parametrize("compact", [False, True])
def test_dump_json_ends_the_line(compact):
    obj = {"a": [1, "2/3"], "b": {"c": None}}
    out = io.StringIO()
    with redirect_stdout(out):
        cli._dump_json(obj, compact=compact)
    want = json.dumps(obj, separators=(",", ":")) if compact else json.dumps(obj, indent=2)
    assert out.getvalue() == want + "\n"


class _CountingStdout(io.TextIOWrapper):
    """A text stdout over a BytesIO that counts the writes to its binary layer."""

    def __init__(self):
        self.writes = 0
        raw = io.BytesIO()
        write = raw.write

        def counted(data):
            self.writes += 1
            return write(data)

        raw.write = counted
        super().__init__(raw, encoding="ascii")

    def value(self) -> str:
        self.flush()
        return self.buffer.getvalue().decode()


@pytest.mark.parametrize("compact", [False, True])
def test_dump_json_bytes_are_one_json_dumps(compact):
    """Values are encoded one at a time, and a top-level list of lists or
    dicts one element at a time, with the bytes of one json.dumps; a large
    payload goes out in a few writes, not one per token."""
    objs = [
        {},
        {"empty": [], "dict": {}, "s": "line\nbreak \u00e9", "n": None, "f": 0.1},
        {"rows": [{"a": [1, 2], "b": {}}, {"a": [], "b": {"c": "d"}}], "x": [[]]},
        {"head": 1, "matrices": [[["0", "1"] * 250] * 100] * 20, "tail": [1, 2]},
    ]
    want_kw = {"separators": (",", ":")} if compact else {"indent": 2}
    for obj in objs:
        stdout = _CountingStdout()
        with redirect_stdout(stdout):
            cli._dump_json(obj, compact=compact)
        want = json.dumps(obj, **want_kw) + "\n"
        assert stdout.value() == want
        assert stdout.writes <= len(want) // cli._WRITE_CHUNK + 1


def test_clifford_extend_bound_exits_2_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(clifford, "extend", lambda c, extra=(): calls.append(c))
    for kind, past in (("spin9", 7), ("pauli_U2", 9), ("spin9", 40), ("spin9", 10**12)):
        t0 = time.perf_counter()
        code, out, err = run_cli("clifford", "--kind", kind, "--extend", str(past))
        assert time.perf_counter() - t0 < 5
        assert code == 2 and out == "" and "R^1024" in err
    assert calls == []


def test_clifford_extend_up_to_the_bound():
    code, out, _ = run_cli("clifford", "--kind", "spin9", "--extend", "6")
    assert code == 0 and out == "spin9 extended 6x: C_14 on R^1024, verify pass\n"
    code, out, _ = run_cli("clifford", "--help")
    assert code == 0 and "at most 1024" in " ".join(out.split())


def test_clifford_structure_subcommand():
    code, out, _ = run_cli("clifford-structure", "--model", "eiii", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["model"]["ambient_dim"] == 32 and obj["model"]["lambda2_count"] == 45


def test_berger_subcommand_small():
    code, out, _ = run_cli("berger", "--samples", "2000", "--seed", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["samples"] == 2000 and float(obj["cosine_similarity"]) > 0.9


def test_unknown_command_exits_2():
    code, _, _ = run_cli("nope")
    assert code == 2


def test_unknown_flag_exits_2():
    code, _, _ = run_cli("form", "--which", "spin9", "--bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("fields", "--m", "4096"),
        ("fields", "--m", "0"),
        ("berger", "--samples", "0"),
        ("berger", "--samples", "10", "--workers", "0"),
        ("clifford", "--extend", "-1"),
        ("berger", "--samples", "many"),
        ("berger", "--samples", "10", "--full"),
        ("clifford-structure", "--deep"),
    ],
)
def test_bad_arguments_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert any(s in err for s in ("must be >= ", "out of scope", "invalid int value",
                                  "--full needs --json", "--deep needs --census"))


def test_model_choices_are_the_model_names():
    from octoforms.models import MODEL_NAMES

    code, out, _ = run_cli("clifford-structure", "--help")
    assert code == 0 and "one of " + ", ".join(MODEL_NAMES) in " ".join(out.split())
    code, out, err = run_cli("clifford-structure", "--model", "e9")
    assert code == 2 and out == "" and "invalid choice: 'e9'" in err
    code, out, _ = run_cli("clifford-structure", "--model", MODEL_NAMES[-1], "--json")
    assert code == 0 and json.loads(out)["model"]["name"] == MODEL_NAMES[-1]


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_workers_environment_exits_2(monkeypatch, value):
    monkeypatch.setenv("OCTOFORMS_WORKERS", value)
    code, out, err = run_cli("berger", "--samples", "10", "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: OCTOFORMS_WORKERS: ") and value in err


def test_workers_environment_sets_the_default(monkeypatch):
    monkeypatch.setenv("OCTOFORMS_WORKERS", "2")
    code, out, _ = run_cli("berger", "--samples", "10", "--json")
    assert code == 0 and json.loads(out)["workers"] == 2


def test_workers_flag_wins_over_a_bad_environment(monkeypatch):
    monkeypatch.setenv("OCTOFORMS_WORKERS", "abc")
    code, out, _ = run_cli("berger", "--samples", "10", "--workers", "3", "--json")
    assert code == 0 and json.loads(out)["workers"] == 3


def test_bad_workers_environment_is_read_only_by_berger(monkeypatch):
    monkeypatch.setenv("OCTOFORMS_WORKERS", "0")
    code, out, _ = run_cli("pontrjagin", "--json")
    assert code == 0 and json.loads(out)["manifold_classes"]


def test_pontrjagin_subcommand():
    code, out, _ = run_cli("pontrjagin", "--json")
    obj = json.loads(out)
    assert code == 0
    rows = {r["class"]: r["coefficient"] for r in obj["manifold_classes"]}
    assert rows["p2(M)"] == "-45/2" and rows["p4(M)"] == "-13/256"
    assert rows["p1(M)"] == "0" and rows["p3(M)"] == "0"


def test_clifford_structure_deep_census_subprocess():
    """`clifford-structure --census --deep` runs the evi and eviii closures."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import octoforms

    src = str(Path(octoforms.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "octoforms.cli", "clifford-structure", "--model", "eviii",
            "--census", "--deep", "--json"]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    payload = json.loads(proc.stdout)
    assert payload["census"]["lie_eviii"] == 120
    assert payload["census"]["lie_evi"] == 66
    assert payload["model"] == {"name": "eviii", "ambient_dim": 128, "rank": 16,
                                "lambda2_count": 120}


def test_berger_full_coefficients_are_float_str_of_the_run():
    """`berger --json --full` writes each coefficient as float_str of the
    same run's float64 coefficient."""
    from octoforms.berger import berger_mc
    from octoforms.serialize import float_str

    code, out, _ = run_cli("berger", "--samples", "1500", "--seed", "4", "--json", "--full")
    assert code == 0
    form, _ = berger_mc(1500, seed=4)
    assert json.loads(out)["coefficients"] == [float_str(x) for x in form.coeffs]


# The CLI under a 1 ms SIGALRM timer with a no-op handler, as a sampling
# profiler runs it: a blocking write to a full pipe returns short each time
# the timer fires.
_UNDER_TIMER = """
import signal, sys
from octoforms.cli import main
signal.signal(signal.SIGALRM, lambda signum, frame: None)
signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
code = main(sys.argv[1:])
signal.setitimer(signal.ITIMER_REAL, 0)  # before exit restores the default action
sys.exit(code)
"""


def test_submodule_import_loads_only_its_dependencies():
    """The package itself imports nothing, so `import octoforms.spheres`
    does not load the exterior algebra."""
    import subprocess
    import sys

    code = "import sys, octoforms.spheres; print('octoforms.exterior' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _complete_when_signals_cut_pipe_writes(args):
    """The CLI writes all its bytes unbuffered into a pipe that fills while
    the reader sleeps, with a signal cutting every blocking write short."""
    import subprocess
    import sys

    env = subprocess_env(PYTHONUNBUFFERED="1")
    want = subprocess.run([sys.executable, "-m", "octoforms.cli", *args], env=env,
                          capture_output=True, timeout=300)
    assert want.returncode == 0, want.stderr.decode()
    proc = subprocess.Popen([sys.executable, "-c", _UNDER_TIMER, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        time.sleep(1.0)
        out, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err.decode()
    assert len(want.stdout) > 1 << 16  # more than a pipe holds
    assert out == want.stdout


def test_berger_json_complete_when_signals_cut_pipe_writes():
    _complete_when_signals_cut_pipe_writes(
        ["berger", "--samples", "2048", "--seed", "0", "--json", "--full"])


def test_clifford_json_complete_when_signals_cut_pipe_writes():
    _complete_when_signals_cut_pipe_writes(["clifford", "--extend", "2", "--json"])


@pytest.mark.parametrize("argv, unbuffered", [
    (("form", "--which", "tau8"), "1"),  # _dump_json
    (("form", "--which", "spin9", "--format", "csv"), "1"),  # sys.stdout.write
    (("form", "--which", "spin9", "--format", "csv"), ""),  # ... left in the buffer
    (("charpoly",), "1"),  # print
    (("charpoly",), ""),
    (("clifford", "--extend", "2", "--json"), "1"),
    (("berger", "--samples", "2048", "--seed", "3", "--json", "--full"), "1"),
])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    """A reader that closes before the first write: no traceback, no
    message, exit 141 (128 + SIGPIPE)."""
    import os
    import subprocess
    import sys

    env = subprocess_env(PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "octoforms.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_cli_import_leaves_other_commands_unloaded():
    """Importing the CLI and parsing a berger command line loads nothing
    that only other commands run."""
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import octoforms.cli\n"
        "octoforms.cli.build_parser().parse_args(['berger', '--samples', '1', '--json'])\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(proc.stdout.split())
    assert {b"octoforms.cli", b"argparse"} <= loaded
    unused = {b"octoforms.spheres", b"octoforms.hopf", b"octoforms.verifysuite",
              b"octoforms.models", b"octoforms.serialize", b"json"}
    assert not loaded & unused


# sha256 of each command's stdout, recorded before the CLI's imports moved
# into the commands and its JSON writer became _dump_json on json.dumps
_POINT = ("3/5", "0", "0", "0", "0", "0", "0", "0", "4/5", "0", "0", "0", "0", "0", "0", "0")
_EXACT_OUTPUTS = {
    ("form", "--which", "spin9"):
        "3f5449967d4b33ad7e998360eae2de16131954b0da3430133bfc95fc3ebb5d42",
    ("form", "--which", "spin9", "--format", "csv"):
        "3c0cc0ff0445fcaae013f998fd65ad0db421efbf2944e9bc49c2cdb25c354d84",
    ("form", "--which", "cgm"):
        "ff90cc75169bfe2a73dfa86e6039aea0c5c3176f721f58623d0ad99c75c2ebef",
    ("form", "--which", "cgm", "--format", "csv"):
        "c89f8c4b5367c64c6a99853a278ebdd7370b73eef4238e94d48fd6633f14c054",
    ("form", "--which", "psi8"):
        "eaedc1c3eaafbe177ed4a4fe961c3bf347e093a594bd375a2df54195d649312a",
    ("form", "--which", "psi8", "--format", "csv"):
        "020601db3267c0094858ecb6264860cd634d2a0b50617b814cd109e76d108817",
    ("form", "--which", "tau8"):
        "4ee831783bb5eee326a243f49f87617a0762b1fd5a5e105ba390c109c14a454b",
    ("form", "--which", "tau8", "--format", "csv"):
        "276370b96f250fb5db709db97612a973396e5ca6a49c3788d1ea27e7b31fbef7",
    ("charpoly", "--which", "spin9", "--json"):
        "842bf0091b02d320c6c32f862ba7b24dd565d677a56f85601a55aab1d1090d6c",
    ("charpoly", "--which", "quaternionic", "--json"):
        "98aa2d49c4aced3593101fe8407003c45404fbf40522d0a7b94a759e9c9e468a",
    ("fields", "--m", "16", "--verify", "--json"):
        "e7fa861942e7e3251e4d912e629cf9d96fac07babe07426e82098d74c8485684",
    ("fields", "--m", "512", "--verify", "--json"):
        "d2c8f8388325c15b64985936d03603a327bcea54fac28d17ab97f2d60854216a",
    ("hopf", "--point", *_POINT, "--json"):
        "36cbc5cd4b2aabd85250d11af3e9d3a3c314065298810ab8520c248acac39bfa",
    ("clifford", "--kind", "spin9", "--extend", "2", "--json"):
        "fa376b6f23cdff4ac850f691765567aef1477fc909417c88192dea6b188d3db7",
    ("clifford", "--kind", "pauli_U2", "--extend", "2", "--json"):
        "461f45303af5abccc1ddad7a078582d16720d0821efcaa24f9f7655789071678",
    ("clifford-structure", "--census", "--json"):
        "b1d7485e10c5963fc71117bb87b9aeba1e41e8670122994a4e4e301c93c5b92c",
    ("pontrjagin", "--json"):
        "4f67198085d4a062f86bf77a273d94fff73841d30d7f3b841b118b55a3010c2b",
}


@pytest.mark.parametrize("argv", list(_EXACT_OUTPUTS), ids=" ".join)
def test_exact_output_digests(argv):
    import hashlib

    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_OUTPUTS[argv]


def test_berger_json_is_json_dumps_of_the_run():
    """Monte-Carlo bits depend on the machine, so `berger --json --full` is
    checked against json.dumps(payload, indent=2) of the same run."""
    from octoforms.berger import berger_mc
    from octoforms.serialize import float_str

    code, out, _ = run_cli("berger", "--samples", "1500", "--seed", "4", "--workers", "1",
                           "--json", "--full")
    form, report = berger_mc(1500, seed=4, workers=1)
    payload = {
        "samples": 1500,
        "seed": 4,
        "workers": 1,
        "cosine_similarity": float_str(report.cosine_similarity),
        "fitted_scale": float_str(report.fitted_scale),
        "candidate_scale": float_str(report.candidate_scale),
        "zero_slots": report.zero_slots,
        "zero_slots_within_3sigma": report.zero_slots_within_3sigma,
        "max_zero_sigma_ratio": float_str(report.max_zero_sigma_ratio),
        "coefficients": [float_str(x) for x in form.coeffs],
    }
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
