"""What each benchmark workload leaves unloaded.

Every row runs in a fresh interpreter, imports the modules its workload
imports (perfbench's WORKLOAD_MODULES, written out here), makes the calls
the workload's pass makes, and asserts that the octoforms modules the
workload never runs are still unloaded.  With bytecode writing off, every
module a process loads is compiled in that process, so an eager import
fails here instead of quietly slowing every pass.
"""

import subprocess
import sys
import textwrap

import pytest

from conftest import subprocess_env

_SPHERES = """
    import random
    from octoforms import cayley_dickson, clifford, hopf, linalg, models, spheres

    built = {}
    for m in (2, 4, 8, 16, 32, 48, 64, 128, 256, 512):
        built[m] = spheres.build_fields(m)
        assert spheres.verify_system(built[m], samples=1, seed=1).ok
    fields = built[512].fields
    naive = spheres.VectorFieldSystem(
        m=512, fields=tuple(fields[8:16]) + (spheres.naive_s511_extra(),))
    assert not spheres.verify_system(naive, samples=0).ok

    c = clifford.standard_system("spin9")
    for _ in (9, 10, 11):
        c = clifford.extend(c)
        assert clifford.verify(c).ok

    assert models.structure_census()["lie_eiii"] == 45
    assert linalg.lie_closure_dim(
        models.lambda2_generators(models.build_model("evi")), max_dim=300) == 66

    rng = random.Random(1)
    for _ in range(20):
        pt = hopf.rational_sphere_point(rng)
        assert hopf.reconstruct(pt) == list(pt.coords())
"""

_CLIFFORD_STRUCTURE = """
    from octoforms import cli

    assert cli.main(["clifford-structure", "--census"]) == 0
"""

_FORMS = """
    from octoforms import canonical, exterior, octform, serialize
"""

# row -> (code, modules it must load, modules it must leave unloaded)
ROWS = {
    "spheres": (_SPHERES,
                {"spheres", "clifford", "linalg", "models", "hopf", "cayley_dickson"},
                {"exterior", "octform", "canonical", "berger", "fanout", "serialize"}),
    "clifford-structure": (_CLIFFORD_STRUCTURE, {"cli", "models"}, {"exterior"}),
    "forms": (_FORMS, {"canonical", "exterior", "octform", "serialize"},
              {"berger", "spheres", "models", "hopf"}),
}


def _octoforms_modules_after(code: str) -> set:
    """The octoforms submodules loaded once `code` has run in a fresh
    interpreter, read off the last line of its stdout."""
    probe = textwrap.dedent(code) + (
        "import sys\n"
        "print(' '.join(m[10:] for m in sys.modules if m.startswith('octoforms.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("row", sorted(ROWS))
def test_workload_leaves_unused_modules_unloaded(row):
    code, used, unused = ROWS[row]
    loaded = _octoforms_modules_after(code)
    assert used <= loaded
    assert not loaded & unused, sorted(loaded & unused)


# The modules the mc children compile, exactly.  A text change in any of them
# moves the mc workload's peak_rss_mb by heap layout (ROADMAP, Known defects),
# so a module joining or leaving this set is a change to this table.
_MC_MODULES = {"berger", "cayley_dickson", "fanout", "serialize"}
# the exact linear algebra and the rationals, which no mc child loads
_MC_UNLOADED = ("fractions", "octoforms.linalg")

_BERGER_CLI = f"""
    import sys

    from octoforms import cli

    assert cli.main(["berger", "--samples", "2048", "--seed", "1", "--json", "--full"]) == 0
    loaded = [m for m in {_MC_UNLOADED!r} if m in sys.modules]
    assert not loaded, loaded
"""


def test_berger_leaves_the_exact_form_stack_unloaded():
    """The mc rows: berger_mc and the float writer the library child uses
    load exactly _MC_MODULES, and the berger command those plus cli; none is
    an exact-form module, and neither loads linalg or fractions.
    Multivector JSON still round-trips with serialize's deferred imports of
    exterior and fractions."""
    code = ("import sys; from octoforms.berger import berger_mc; berger_mc(2048, seed=1); "
            "from octoforms.serialize import float_str; "
            "print(' '.join(sorted(m[10:] for m in sys.modules if m.startswith('octoforms.')))); "
            f"print([m for m in {_MC_UNLOADED!r} if m in sys.modules]); "
            "from octoforms.canonical import spin9_form; "
            "from octoforms.serialize import multivector_from_json, multivector_to_json; "
            "print(multivector_from_json(multivector_to_json(spin9_form())) == spin9_form())")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == " ".join(sorted(_MC_MODULES)) + "\n[]\nTrue\n"
    assert _octoforms_modules_after(_BERGER_CLI) == _MC_MODULES | {"cli"}
