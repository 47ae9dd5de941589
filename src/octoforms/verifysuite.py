"""Named invariant checks aggregated by the `verify` CLI command.

Each check returns (ok, detail); run_all executes every check, streams one
PASS/FAIL line per check through the supplied writer, and reports overall
success.  Everything here is exact except where a check explicitly says
otherwise; nothing depends on seeds beyond the documented defaults.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .berger import exact_mean, exact_second_moment, slot_masks
from .canonical import (
    cgm_form,
    fpq_identity_check,
    kotrbaty_psi8,
    quaternionic_forms,
    spin9_form,
    spin9_psi,
    spin9_taus,
)
from .cayley_dickson import CDElement
from .clifford import (
    STANDARD_KINDS,
    delta,
    extend,
    standard_system,
    trace_invariant,
    verify,
)
from .exterior import tau2_direct, tau4_direct
from .hopf import (
    SpherePoint16,
    fiber_orthogonality_check,
    rational_sphere_point,
    reconstruct,
    spin9_sections,
)
from .linalg import lie_closure_dim
from .models import build_model, lambda2_generators, structure_census
from .spheres import build_fields, sigma, verify_system


def _check_charpoly_shape():
    taus = spin9_taus()
    surviving = [j + 1 for j, t in enumerate(taus) if not t.is_zero()]
    return surviving == [4, 8], f"surviving tau indices: {surviving}"


def _check_360_factor():
    tau4 = spin9_taus()[3]
    g = tau4.coeff_gcd()
    phi = spin9_form()
    return (
        g == 360 and phi.coeff_gcd() == 1 and 360 * phi == tau4,
        f"gcd(tau4) = {g}",
    )


def _check_702_count():
    phi = spin9_form()
    return len(phi) == 702, f"{len(phi)} monomials"


def _check_cgm():
    ok = cgm_form() == -4 * spin9_taus()[3]
    return ok, "Omega_CGM == -4 tau4"


def _check_tau4_direct():
    ok = tau4_direct(spin9_psi()) == spin9_taus()[3]
    return ok, "sub-Pfaffian route agrees with Faddeev-LeVerrier"


def _check_kotrbaty():
    _, psi8 = kotrbaty_psi8()
    ok = psi8.exact_div(-2880) == spin9_form()
    return ok, "Phi == -Psi8 / 2880, imaginary part zero"


def _check_berger_exact():
    num, den = exact_mean()
    content = math.gcd(*num.tolist())
    phi = {m: n // content for m, n in zip(slot_masks().tolist(), num.tolist()) if n}
    ok = Fraction(content, den) == Fraction(1, 132) and phi == dict(spin9_form().mask_items())
    # each line's 8-form is a unit simple 8-vector, so its squared
    # coordinates sum to 1 (Cauchy-Binet); |Phi / 132|^2 = 1848 / 132^2
    second, sden = exact_second_moment()
    pairs = list(zip(second.tolist(), num.tolist()))
    total = Fraction(sum(s for s, _ in pairs), sden)
    mean_sq = Fraction(sum(n * n for _, n in pairs), den * den)
    least = Fraction(min(s * den * den - n * n * sden for s, n in pairs), sden * den * den)
    ok = ok and total == 1 and mean_sq == Fraction(7, 66) and least > 0
    return ok, (f"exact line average == Phi * {Fraction(content, den)}; second moments sum to "
                f"{total}, squared means to {mean_sq}; least variance {least}")


def _check_quaternionic():
    theta, omega_l = quaternionic_forms()
    t2 = tau2_direct(theta)
    ok = t2 == -2 * omega_l and t2.coefficient((1, 2, 3, 4)) == -12
    return ok, "tau2(theta) == -2 Omega_L, coeff(e1234) == -12"


def _check_fpq():
    rep = fpq_identity_check(25, seed=0)
    return rep.all_exact, f"{rep.trials} random rational skew matrices"


def _check_lambda_identity():
    rng = random.Random(0)
    for _ in range(100):
        p = rational_sphere_point(rng)
        if list(p.coords()) != reconstruct(p):
            return False, "reconstruction failed"
    return True, "N == sum lambda_a I_a N at 100 rational points"


def _check_fiber_orthogonality():
    zero = CDElement.zero(3)
    rng = random.Random(1)
    for t in range(1, 8):
        y = CDElement.unit(3, 0)
        p = SpherePoint16(x=zero, y=y)
        w = CDElement.unit(3, t)  # orthogonal to y inside l_inf
        if not fiber_orthogonality_check(p, list(zero.coeffs) + list(w.coeffs)):
            return False, f"failed at unit {t}"
    secs = spin9_sections(rational_sphere_point(rng))
    onb = all(
        sum(a * b for a, b in zip(secs[i], secs[j])) == (1 if i == j else 0)
        for i in range(9)
        for j in range(9)
    )
    return onb, "l_inf tangents orthogonal to all I_a N; I_a N orthonormal"


def _check_clifford_systems():
    for kind in STANDARD_KINDS:
        if not verify(standard_system(kind)).ok:
            return False, f"{kind} failed"
    c9 = extend(standard_system("spin9"))
    if c9.n != 32 or len(c9.mats) != 10 or not verify(c9).ok:
        return False, "extension of spin9 is not a valid C9 on R^32"
    if abs(trace_invariant(standard_system("spin9"))) != 2 * delta(8):
        return False, "spin9 trace invariant"
    if abs(trace_invariant(standard_system("quaternionic_Sp2Sp1"))) != 2 * delta(4):
        return False, "quaternionic trace invariant"
    if delta(17) != 256:
        return False, "delta recursion"
    return True, f"{len(STANDARD_KINDS)} standard systems, extension, traces, delta table"


def _check_fields():
    expected = {2: 1, 4: 3, 8: 7, 16: 8, 32: 9, 48: 8, 64: 11, 128: 15, 256: 16, 512: 17}
    for m, count in expected.items():
        v = build_fields(m)
        if sigma(m) != count or len(v.fields) != count:
            return False, f"m={m}: wrong field count"
        if not verify_system(v, samples=1, seed=0).ok:
            return False, f"m={m}: verification failed"
    return True, f"all of m in {sorted(expected)}"


def _check_census():
    expected = dict(spin9_pairs=36, spin9_triples=84, c6_triples=35, quaternionic_pairs=10,
                    so16_dim=120, spin7_bound=21, lie_spin9=36, lie_eiii=45)
    return structure_census() == expected, "counts 36/84/35/10, closures 36/45, 35 > 21"


def _check_model_closures():
    evi = lie_closure_dim(lambda2_generators(build_model("evi")), max_dim=300)
    eviii = lie_closure_dim(lambda2_generators(build_model("eviii")), max_dim=300)
    ok = evi == 66 and eviii == 120
    return ok, f"lambda^2 closures: evi {evi} = spin(12), eviii {eviii} = spin(16)"


CHECKS = [
    ("charpoly-shape", _check_charpoly_shape),
    ("360-factor", _check_360_factor),
    ("702-count", _check_702_count),
    ("cgm", _check_cgm),
    ("tau4-dual-route", _check_tau4_direct),
    ("kotrbaty", _check_kotrbaty),
    ("berger-exact", _check_berger_exact),
    ("quaternionic-tau2", _check_quaternionic),
    ("f-2p2-4q", _check_fpq),
    ("lambda-identity", _check_lambda_identity),
    ("fiber-orthogonality", _check_fiber_orthogonality),
    ("clifford-systems", _check_clifford_systems),
    ("field-systems", _check_fields),
    ("structure-census", _check_census),
    ("model-closures", _check_model_closures),
]


def run_all(write=print) -> bool:
    all_ok = True
    for name, func in CHECKS:
        try:
            ok, detail = func()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc}"
        all_ok &= ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
