"""The Spin(9) canonical 8-form and its relatives.

Three independent constructions of one object live here: the characteristic
coefficient tau_4 of the 9x9 matrix of Kahler 2-forms (divided by its content
360 to give the primitive integral form Phi), the quadruple-sum 8-form
Omega_CGM, and the octonionic coordinate construction Psi_8.  The module also
carries the quaternionic 4-form analogue on R^8, the scalar polynomial
identity F = 2P^2 - 4Q behind Omega_CGM = -4 tau_4, and the Pontrjagin-class
coefficient table of compact Spin(9)-holonomy manifolds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cayley_dickson import unit_left_mults
from .clifford import standard_system
from .exterior import (
    FormMatrix,
    Multivector,
    charpoly_coeffs,
    kahler_form,
    wedge_sum,
    wedge_sums,
)
from .linalg import SignedPerm, _clear_denominators
from .octform import coordinate_octonion_form


@lru_cache(maxsize=None)
def spin9_psi() -> FormMatrix:
    """The 9x9 skew matrix of Kahler 2-forms psi_ab of J_ab = I_a I_b."""
    c = standard_system("spin9")
    return FormMatrix.from_endomorphisms(c.mats)


@lru_cache(maxsize=None)
def spin9_taus() -> tuple:
    """Characteristic coefficients tau_1..tau_9 of the spin9 form matrix."""
    return tuple(charpoly_coeffs(spin9_psi()))


@lru_cache(maxsize=None)
def spin9_form() -> Multivector:
    """The canonical 8-form Phi: tau_4 divided by its coefficient content.

    The content equals 360 (pinned by the acceptance suite), so this realizes
    360 Phi = tau_4(psi) with integer, gcd-1 coefficients.
    """
    tau4 = spin9_taus()[3]
    return tau4.exact_div(tau4.coeff_gcd())


@lru_cache(maxsize=None)
def cgm_form() -> Multivector:
    """The 8-form sum_{a,b,a',b'} psi_ab ^ psi_ab' ^ psi_a'b ^ psi_a'b'.

    Grouped as sum_{a,a'} (sum_b psi_ab ^ psi_a'b)^2, which is the same sum
    because homogeneous 2-forms commute under the wedge: the 45 inner sums
    (a <= a') are one grouped wedge_sums call, and their squares, doubled
    when a < a', one wedge_sum.
    """
    f = spin9_psi()
    n = f.n
    ends = [(a, a2) for a in range(9) for a2 in range(a, 9)]
    inner = wedge_sums([[(f.entry_dict(a, b), f.entry_dict(a2, b)) for b in range(9)] for a, a2 in ends], n)
    squares = [(x, x if a == a2 else {m: 2 * c for m, c in x.items()}) for (a, a2), x in zip(ends, inner)]
    return Multivector(n, wedge_sum(squares, n))


_UPPER = tuple(combinations(range(9), 2))


def _random_skew_entries(rng: random.Random) -> dict:
    x = {}
    for a in range(9):
        for b in range(a + 1, 9):
            x[(a, b)] = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
    return x


def _fpq_values(x: dict):
    """F, P, Q of the scalar skew matrix with upper entries x[(a, b)].

    F and Q are homogeneous of degree 4 in the entries and P of degree 2, so
    they are computed over Z on the integer matrix s x, where s is the lcm of
    the denominators, and returned exactly as F/s^4, P/s^2 and Q/s^4.  F stays
    the literal quadruple sum of x_ab x_ab' x_a'b x_a'b'.
    """
    ints, s = _clear_denominators(x[k] for k in _UPPER)
    rows = [[0] * 9 for _ in range(9)]
    for (a, b), v in zip(_UPPER, ints):
        rows[a][b], rows[b][a] = v, -v
    f = 0
    for ra in rows:
        for ra2 in rows:
            for xab, xa2b in zip(ra, ra2):
                f += sum(xab * xab2 * xa2b * xa2b2 for xab2, xa2b2 in zip(ra, ra2))
    p = sum(v * v for v in ints)
    q = 0
    for a1, a2, a3, a4 in combinations(range(9), 4):
        pf = rows[a1][a2] * rows[a3][a4] - rows[a1][a3] * rows[a2][a4] + rows[a1][a4] * rows[a2][a3]
        q += pf * pf
    return Fraction(f, s**4), Fraction(p, s**2), Fraction(q, s**4)


@dataclass(frozen=True)
class FPQReport:
    trials: int
    all_exact: bool
    first_failure: dict | None


def fpq_identity_check(trials: int, seed: int = 0) -> FPQReport:
    """Verify F = 2 P^2 - 4 Q on random rational skew 9x9 matrices, exactly."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for t in range(trials):
        x = _random_skew_entries(rng)
        f, p, q = _fpq_values(x)
        if f != 2 * p * p - 4 * q:
            return FPQReport(trials=t + 1, all_exact=False, first_failure=dict(x))
    return FPQReport(trials=trials, all_exact=True, first_failure=None)


@lru_cache(maxsize=None)
def quaternionic_forms() -> tuple:
    """(theta, Omega_L): the 5x5 matrix of Kahler forms of the quaternionic
    system on R^8 and the left quaternionic 4-form.

    Omega_L = omega_{L_i}^2 + omega_{L_j}^2 + omega_{L_k}^2 where L_u acts by
    left multiplication on each quaternion slot of H^2 = R^8; the identity
    tau_2(theta) = -2 Omega_L is pinned by the acceptance suite.
    """
    c = standard_system("quaternionic_Sp2Sp1")
    theta = FormMatrix.from_endomorphisms(c.mats)
    eye2 = SignedPerm.identity(2)
    omega_l = Multivector.zero(8)
    for lu in unit_left_mults(2)[1:]:
        w = kahler_form(eye2.kron(lu))
        omega_l = omega_l + w.wedge(w)
    return theta, omega_l


@lru_cache(maxsize=None)
def kotrbaty_psi8() -> tuple:
    """(intermediates, Psi8): the octonionic coordinate construction.

    dx, dy are octonion-valued 1-forms; the four 4-forms are wedged in the
    printed left parenthesization ((conj(dx) ^ dx) ^ conj(dx)) ^ dx, etc.
    Psi8 is returned as a real 8-form; its imaginary octonion part vanishes
    identically and Phi = -Psi8 / (4 * 6!) = -Psi8 / 2880.
    """
    dx = coordinate_octonion_form(16, 0)
    dy = coordinate_octonion_form(16, 8)
    dxc = dx.conjugate()
    dyc = dy.conjugate()

    psi40 = dxc.wedge(dx).wedge(dxc).wedge(dx)
    psi31 = dyc.wedge(dx).wedge(dxc).wedge(dx)
    psi13 = dxc.wedge(dy).wedge(dyc).wedge(dy)
    psi04 = dyc.wedge(dy).wedge(dyc).wedge(dy)

    psi8 = (
        psi40.wedge(psi40.conjugate())
        + 4 * psi31.wedge(psi31.conjugate())
        + (-5) * (psi31.wedge(psi13) + psi13.conjugate().wedge(psi31.conjugate()))
        + 4 * psi13.wedge(psi13.conjugate())
        + psi04.wedge(psi04.conjugate())
    )
    intermediates = {"psi40": psi40, "psi31": psi31, "psi13": psi13, "psi04": psi04, "psi8": psi8}
    if not psi8.imaginary_is_zero():
        raise AssertionError("Psi8 has a nonzero imaginary octonion part")
    real = Multivector(16, psi8.real_part())
    return intermediates, real


def tau8_and_ratio() -> tuple:
    """(top coefficient of tau_8, the rational (tau_4 ^ tau_4) / tau_8).

    Both 16-forms are multiples of e^{1..16}; tau_8 = 0 would contradict the
    characteristic polynomial shape, so it is an error.
    """
    taus = spin9_taus()
    top = tuple(range(1, 17))
    c8 = taus[7].coefficient(top)
    if c8 == 0:
        raise ValueError("tau_8 vanishes; characteristic polynomial is degenerate")
    t4 = taus[3]
    c44 = t4.wedge(t4).coefficient(top)
    return c8, Fraction(c44, c8)


# p_k(M) of a compact Spin(9)-holonomy M^16 in terms of the classes p_i(E) of
# its rank-16 bundle E: the printed relation and its terms, each a rational
# factor and the indices i of the p_i(E) it multiplies.
_PONTRJAGIN_RELATIONS = (
    ("p1(M) = 2 p1(E)", ((2, (1,)),)),
    ("p2(M) = (7/4) p1(E)^2 - p2(E)", ((Fraction(7, 4), (1, 1)), (-1, (2,)))),
    (
        "p3(M) = (1/8) (7 p1(E)^3 - 12 p1(E) p2(E) + 16 p3(E))",
        ((Fraction(7, 8), (1, 1, 1)), (Fraction(-12, 8), (1, 2)), (Fraction(16, 8), (3,))),
    ),
    (
        "p4(M) = (1/128) (35 p1(E)^4 - 120 p1(E)^2 p2(E) + 400 p1(E) p3(E) - 1664 p4(E))",
        (
            (Fraction(35, 128), (1, 1, 1, 1)),
            (Fraction(-120, 128), (1, 1, 2)),
            (Fraction(400, 128), (1, 3)),
            (Fraction(-1664, 128), (4,)),
        ),
    ),
)


def _manifold_classes(bundle_classes: list) -> list:
    """The p_k(M) rows derived exactly from the p_i(E) rows.

    A term vanishes when one of its factors does.  A product of nonzero
    classes would need the cup product of their forms, which the rows do not
    carry, so it is an error.
    """
    rows = []
    for k, (_, terms) in enumerate(_PONTRJAGIN_RELATIONS, start=1):
        row = {"class": f"p{k}(M)", "coefficient": Fraction(0), "pi_power": 0, "of": "1"}
        for scale, factors in terms:
            classes = [bundle_classes[i - 1] for i in factors]
            if any(c["coefficient"] == 0 for c in classes):
                continue
            if len(classes) > 1:
                raise ValueError(f"p{k}(M) needs a product of nonzero bundle classes")
            row["coefficient"] += scale * classes[0]["coefficient"]
            row["pi_power"], row["of"] = classes[0]["pi_power"], classes[0]["of"]
        if row["coefficient"] == 0:
            row["pi_power"], row["of"] = 0, "1"
        rows.append(row)
    return rows


def pontrjagin_report() -> dict:
    """Pontrjagin classes of a compact Spin(9)-holonomy M^16 and the E-bundle
    normalizations they come from; coefficients are exact rationals paired
    with the power of pi they multiply."""
    taus = spin9_taus()
    top = tuple(range(1, 17))
    bundle_classes = [
        {"class": "p1(E)", "coefficient": Fraction(0), "pi_power": 0, "of": "1"},
        {"class": "p2(E)", "coefficient": Fraction(360, 16), "pi_power": -4, "of": "[Phi_Spin9]"},
        {"class": "p3(E)", "coefficient": Fraction(0), "pi_power": 0, "of": "1"},
        {"class": "p4(E)", "coefficient": Fraction(1, 256), "pi_power": -8, "of": "[tau8(psi)]"},
    ]
    return {
        "manifold_classes": _manifold_classes(bundle_classes),
        "bundle_classes": bundle_classes,
        "relations": [text for text, _ in _PONTRJAGIN_RELATIONS],
        "normalizations": {
            "tau4_content": taus[3].coeff_gcd(),
            "tau4_monomials": len(taus[3]),
            "tau8_top_coefficient": taus[7].coefficient(top),
        },
    }


def render_pontrjagin_text(report: dict) -> str:
    lines = ["Pontrjagin classes (compact Spin(9)-holonomy M^16):"]
    for row in report["manifold_classes"]:
        c = row["coefficient"]
        if c == 0:
            lines.append(f"  {row['class']} = 0")
        else:
            lines.append(f"  {row['class']} = ({c}) * pi^{row['pi_power']} * {row['of']}")
    lines.append("E-bundle classes:")
    for row in report["bundle_classes"]:
        c = row["coefficient"]
        if c == 0:
            lines.append(f"  {row['class']} = 0")
        else:
            lines.append(f"  {row['class']} = ({c}) * pi^{row['pi_power']} * {row['of']}")
    lines.append("Relations:")
    for r in report["relations"]:
        lines.append(f"  {r}")
    norm = report["normalizations"]
    lines.append(
        f"Normalizations: gcd(tau4) = {norm['tau4_content']}, "
        f"{norm['tau4_monomials']} monomials, tau8 top coefficient "
        f"{norm['tau8_top_coefficient']}"
    )
    return "\n".join(lines)
