"""The Spin(9) canonical 8-form and its relatives.

Three independent constructions of one object live here: the characteristic
coefficient tau_4 of the 9x9 matrix of Kahler 2-forms (divided by its content
360 to give the primitive integral form Phi), the quadruple-sum 8-form
Omega_CGM, and the octonionic coordinate construction Psi_8.  The module also
carries the quaternionic 4-form analogue on R^8, the scalar polynomial
identity F = 2P^2 - 4Q behind Omega_CGM = -4 tau_4, and the Pontrjagin-class
coefficient table of compact Spin(9)-holonomy manifolds.

F = 2P^2 - 4Q is checked over Z on random rational skew 9x9 matrices with
their denominators cleared, a stack of trials at a time in int64: F as the
literal quadruple sum (one einsum, never the grouping Omega_CGM uses), P as
a sum of squares, Q from the 126 sub-Pfaffians.  A stated bound on the
largest entry keeps every sum exact, and past it the check raises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

import numpy as np

from .cayley_dickson import unit_left_mults
from .clifford import standard_system
from .exterior import (
    FormMatrix,
    Multivector,
    charpoly_coeffs,
    kahler_form,
    wedge_sum,
)
from .linalg import _INT64_SAFE, SignedPerm, _clear_denominators
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
    because homogeneous 2-forms commute under the wedge: each of the 45 inner
    sums (a <= a') is one wedge_sum, and their squares, doubled when a < a',
    one more.  An inner sum holds 7 or 8 pairs of 8 x 8 blades (448 or 512
    blade pairs, at most _KERNEL_MIN_WORK), so it runs on the reference
    engine; the squares run on the kernel.
    """
    f = spin9_psi()
    n = f.n
    ends = [(a, a2) for a in range(9) for a2 in range(a, 9)]
    inner = [wedge_sum([(f.entry_dict(a, b), f.entry_dict(a2, b)) for b in range(9)], n) for a, a2 in ends]
    squares = [(x, x if a == a2 else {m: 2 * c for m, c in x.items()}) for (a, a2), x in zip(ends, inner)]
    return Multivector(n, wedge_sum(squares, n))


_UPPER = tuple(combinations(range(9), 2))
_ROW, _COL = np.array(_UPPER).T
_QUADS = np.array(list(combinations(range(9), 4))).T  # the 126 sub-Pfaffians a1 < a2 < a3 < a4

# The int64 guard of _fpq_ints: with top the largest |entry| after clearing
# denominators, 9^4 top^4 bounds |F| (9^4 products, each at most top^4) and
# every partial sum of it, P^2 <= (36 top^2)^2, 4Q <= 4 * 126 * (3 top^2)^2,
# hence 2P^2, 4Q and 2P^2 - 4Q (two nonnegative terms); all stay exact while
# 9^4 top^4 < _INT64_SAFE.  2^62 is not a multiple of 3^8, so that holds
# exactly for top < _FPQ_TOP_LIMIT.
_FPQ_TOP_LIMIT = isqrt(isqrt((_INT64_SAFE - 1) // 9**4)) + 1
_FPQ_CHUNK = 32  # trials per int64 stack in fpq_identity_check


def _random_skew_entries(rng: random.Random) -> dict:
    x = {}
    for a in range(9):
        for b in range(a + 1, 9):
            x[(a, b)] = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
    return x


def _fpq_ints(ints: list):
    """int64 arrays F, P, Q of the integer skew 9x9 matrices whose upper
    entries, in _UPPER order, are the rows of ints (T x 36).

    F is the literal quadruple sum of x_ab x_ab' x_a'b x_a'b' as one einsum
    with no contraction path, P the sum of the squared upper entries and Q
    the sum of the 126 squared sub-Pfaffians.  Raises ValueError past the
    guard above (top >= _FPQ_TOP_LIMIT).
    """
    top = max((abs(v) for row in ints for v in row), default=0)
    if top >= _FPQ_TOP_LIMIT:
        raise ValueError(f"entries up to {top} after clearing denominators overflow int64; "
                         f"the bound is {_FPQ_TOP_LIMIT - 1}")
    upper = np.array(ints, dtype=np.int64).reshape(-1, len(_UPPER))
    x = np.zeros((len(upper), 9, 9), dtype=np.int64)
    x[:, _ROW, _COL] = upper
    x[:, _COL, _ROW] = -upper
    f = np.einsum("tab,tac,tdb,tdc->t", x, x, x, x, optimize=False)
    p = np.einsum("tk,tk->t", upper, upper)
    a1, a2, a3, a4 = _QUADS
    pf = x[:, a1, a2] * x[:, a3, a4] - x[:, a1, a3] * x[:, a2, a4] + x[:, a1, a4] * x[:, a2, a3]
    return f, p, np.einsum("tk,tk->t", pf, pf)


def _fpq_values(x: dict):
    """F, P, Q of the scalar skew matrix with upper entries x[(a, b)].

    F and Q are homogeneous of degree 4 in the entries and P of degree 2, so
    they are computed in int64 by _fpq_ints on the integer matrix s x, where
    s is the lcm of the denominators, and returned exactly as F/s^4, P/s^2
    and Q/s^4.  F stays the literal quadruple sum.  This is the one-trial
    case of fpq_identity_check; past the int64 guard it raises ValueError.
    """
    ints, s = _clear_denominators(x[k] for k in _UPPER)
    f, p, q = (int(v[0]) for v in _fpq_ints([ints]))
    return Fraction(f, s**4), Fraction(p, s**2), Fraction(q, s**4)


@dataclass(frozen=True)
class FPQReport:
    trials: int
    all_exact: bool
    first_failure: dict | None


def fpq_identity_check(trials: int, seed: int = 0) -> FPQReport:
    """Verify F = 2 P^2 - 4 Q on random rational skew 9x9 matrices, exactly.

    Each matrix is scaled by the lcm s of its denominators, which multiplies
    both sides by s^4, so the identity is compared over Z.  The trials are
    drawn in order and checked _FPQ_CHUNK at a time, as one int64 stack.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for start in range(0, trials, _FPQ_CHUNK):
        xs = [_random_skew_entries(rng) for _ in range(min(_FPQ_CHUNK, trials - start))]
        f, p, q = _fpq_ints([_clear_denominators(x[k] for k in _UPPER)[0] for x in xs])
        bad = np.flatnonzero(f != 2 * p * p - 4 * q)
        if len(bad):
            k = int(bad[0])
            return FPQReport(trials=start + k + 1, all_exact=False, first_failure=dict(xs[k]))
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
    lines = []
    for title, key in (("Pontrjagin classes (compact Spin(9)-holonomy M^16):", "manifold_classes"),
                       ("E-bundle classes:", "bundle_classes")):
        lines.append(title)
        for row in report[key]:
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
