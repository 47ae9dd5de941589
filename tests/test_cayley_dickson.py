"""Cayley-Dickson tower: oracle table, composition law, multiplication matrices.

The octonion structure constants are derived here by an independent route:
quaternion arithmetic plus the three doubling rules

    q (q' e) = (q' q) e,   (q e) q' = (q conj(q')) e,   (q e)(q' e) = -conj(q') q,

which specialize the doubled product without recursion.  The expanded table is
frozen below and both are held against cd_mul.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoforms.cayley_dickson import (
    CDElement,
    associator,
    basis_products,
    cd_mul,
    conjugate,
    left_mult_matrix,
    mult_table_json,
    norm2,
    octonion_unit,
    right_mult_matrix,
    unit_left_mults,
    unit_right_mults,
    unit_signs,
)
from octoforms.linalg import SignedPerm

# Octonion unit products in the basis (1, i, j, k, e, f, g, h), frozen from
# the quaternion-doubling oracle: entry [a][b] = signed index of e_a * e_b.
FROZEN_OCT_TABLE = [
    [+1, +2, +3, +4, +5, +6, +7, +8],
    [+2, -1, +4, -3, +6, -5, -8, +7],
    [+3, -4, -1, +2, +7, +8, -5, -6],
    [+4, +3, -2, -1, +8, -7, +6, -5],
    [+5, -6, -7, -8, -1, +2, +3, +4],
    [+6, +5, -8, +7, -2, -1, -4, +3],
    [+7, +8, +5, -6, -3, +4, -1, -2],
    [+8, -7, +6, +5, -4, -3, +2, -1],
]

# quaternion units as (coeff vector); products by the standard table
_QUAT = {
    0: (1, 0, 0, 0),
    1: (0, 1, 0, 0),
    2: (0, 0, 1, 0),
    3: (0, 0, 0, 1),
}


def _quat_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _quat_conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _oracle_oct_mul(a: int, b: int):
    """e_a * e_b via quaternion doubling rules; returns 8-vector."""
    qa, ea = (_QUAT[a], False) if a < 4 else (_QUAT[a - 4], True)
    qb, eb = (_QUAT[b], False) if b < 4 else (_QUAT[b - 4], True)
    if not ea and not eb:
        out = _quat_mul(qa, qb)
        return out + (0, 0, 0, 0)
    if not ea and eb:
        out = _quat_mul(qb, qa)  # q (q' e) = (q' q) e
        return (0, 0, 0, 0) + out
    if ea and not eb:
        out = _quat_mul(qa, _quat_conj(qb))  # (q e) q' = (q conj(q')) e
        return (0, 0, 0, 0) + out
    out = _quat_mul(_quat_conj(qb), qa)  # (q e)(q' e) = -conj(q') q
    return tuple(-v for v in out) + (0, 0, 0, 0)


def test_frozen_table_matches_oracle():
    for a in range(8):
        for b in range(8):
            vec = _oracle_oct_mul(a, b)
            signed = FROZEN_OCT_TABLE[a][b]
            want = [0] * 8
            want[abs(signed) - 1] = 1 if signed > 0 else -1
            assert list(vec) == want, (a, b)


def test_cd_mul_matches_frozen_table():
    for a in range(8):
        for b in range(8):
            prod = CDElement.unit(3, a) * CDElement.unit(3, b)
            signed = FROZEN_OCT_TABLE[a][b]
            want = [0] * 8
            want[abs(signed) - 1] = 1 if signed > 0 else -1
            assert list(prod.coeffs) == want, (a, b)


def test_named_unit_relations():
    i, e = octonion_unit("i"), octonion_unit("e")
    assert i * e == octonion_unit("f")
    assert octonion_unit("j") * e == octonion_unit("g")
    assert octonion_unit("k") * e == octonion_unit("h")


def test_quaternion_table():
    i, j, k = (CDElement.unit(2, t) for t in (1, 2, 3))
    assert i * j == k
    assert j * i == -k
    assert (i * i).coeffs[0] == -1


def test_sedenion_zero_divisor():
    s = lambda t: CDElement.unit(4, t)
    assert ((s(2) - s(11)) * (s(7) + s(14))).is_zero()


def test_level_mismatch():
    with pytest.raises(ValueError):
        cd_mul(CDElement.unit(2, 1), CDElement.unit(3, 1))


coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def element(level):
    size = 1 << level
    return st.lists(coeff, min_size=size, max_size=size).map(
        lambda c: CDElement(level, c)
    )


@settings(max_examples=40, deadline=None)
@given(element(3), element(3))
def test_conjugation_antiautomorphism(x, y):
    assert conjugate(x * y) == conjugate(y) * conjugate(x)


@settings(max_examples=30, deadline=None)
@given(element(3), element(3))
def test_norm_composition_level3(x, y):
    assert norm2(x * y) == norm2(x) * norm2(y)


@settings(max_examples=30, deadline=None)
@given(element(2), element(2))
def test_norm_composition_level2(x, y):
    assert norm2(x * y) == norm2(x) * norm2(y)


def test_norm_composition_fails_at_level4():
    s = lambda t: CDElement.unit(4, t)
    x, y = s(2) - s(11), s(7) + s(14)
    assert norm2(x * y) == 0
    assert norm2(x) * norm2(y) == 4


@settings(max_examples=25, deadline=None)
@given(element(3), element(3))
def test_associator_with_repeated_argument_vanishes(x, y):
    assert associator(x, x, y).is_zero()
    assert associator(x, conjugate(x), y).is_zero()


def test_associator_quaternions_vanishes_octonions_not():
    i2, j2, k2 = (CDElement.unit(2, t) for t in (1, 2, 3))
    assert associator(i2, j2, k2).is_zero()
    i, j, e = octonion_unit("i"), octonion_unit("j"), octonion_unit("e")
    assert not associator(i, j, e).is_zero()


def test_right_mult_matrix_basics():
    eye = np.eye(8, dtype=object)
    assert np.array_equal(right_mult_matrix(CDElement.unit(3, 0)), eye)
    ri = right_mult_matrix(octonion_unit("i"))
    assert np.array_equal(ri @ ri, -eye)
    assert np.array_equal(ri, -ri.T)
    assert np.array_equal(ri.T @ ri, eye)


def test_dense_matrices_stay_exact_past_int64():
    """The dense multiplication matrices, the Hopf action and m_uv are
    dtype=object even when every entry is an integer: at u = (2^40,) * 8,
    R_u^T R_u = |u|^2 I = 8 * 2^80 I, where int64 products would wrap."""
    from octoforms.hopf import hopf_action
    from octoforms.models import m_uv

    one, i = CDElement.unit(3, 0), CDElement.unit(3, 1)
    for m in (right_mult_matrix(i), left_mult_matrix(i), hopf_action(i, 0), m_uv(one, i)):
        assert m.dtype == object
    u = CDElement(3, [2**40] * 8)
    assert norm2(u) == 8 * 2**80 > 2**63
    eye = np.eye(8, dtype=object)
    for m in (right_mult_matrix(u), left_mult_matrix(u)):
        assert np.array_equal(m.T @ m, norm2(u) * eye)


def test_mult_matrices_encode_products():
    rng = random.Random(3)
    for _ in range(10):
        x = CDElement(3, [Fraction(rng.randint(-4, 4)) for _ in range(8)])
        u = CDElement(3, [Fraction(rng.randint(-4, 4)) for _ in range(8)])
        vec = np.array(x.coeffs, dtype=object)
        assert (right_mult_matrix(u) @ vec).tolist() == list((x * u).coeffs)
        assert (left_mult_matrix(u) @ vec).tolist() == list((u * x).coeffs)


def test_right_mult_skew_iff_imaginary():
    u = octonion_unit("e") + octonion_unit("g")
    m = right_mult_matrix(u)
    assert np.array_equal(m, -m.T)
    assert np.array_equal(m.T @ m, norm2(u) * np.eye(8, dtype=object))


def test_left_right_agree_on_central_elements():
    # C is commutative; in H only the reals are central
    for t in range(2):
        u = CDElement.unit(1, t)
        assert np.array_equal(right_mult_matrix(u), left_mult_matrix(u))
    r = CDElement.from_real(2, Fraction(7, 2))
    assert np.array_equal(right_mult_matrix(r), left_mult_matrix(r))
    i2 = CDElement.unit(2, 1)
    assert not np.array_equal(right_mult_matrix(i2), left_mult_matrix(i2))


def test_basis_products_structure():
    table = basis_products(3)
    assert table[(1, 4)] == (5, 1)  # i * e = f
    assert table[(4, 4)] == (0, -1)


def test_mult_table_json_schema():
    rows = mult_table_json(1)
    assert len(rows) == 4
    assert rows[3] == {"i": 1, "j": 1, "product": ["-1", "0"]}


@pytest.mark.parametrize("level", range(6))
def test_unit_signs_match_basis_products(level):
    """The doubling-rule sign table against the recursive cd_mul table."""
    signs = unit_signs(level)
    n = 1 << level
    assert signs.shape == (n, n) and not signs.flags.writeable
    for (a, b), (c, s) in basis_products(level).items():
        assert c == a ^ b and signs[a, b] == s, (a, b)


@pytest.mark.parametrize("level", range(5))
def test_unit_mults_match_mult_matrices(level):
    right, left = unit_right_mults(level), unit_left_mults(level)
    assert len(right) == len(left) == 1 << level
    for t in range(1 << level):
        u = CDElement.unit(level, t)
        assert right[t] == SignedPerm.of(right_mult_matrix(u)), t
        assert left[t] == SignedPerm.of(left_mult_matrix(u)), t


def test_mult_table_json_matches_cd_mul():
    rows = mult_table_json(3)
    assert len(rows) == 64
    for row in rows:
        prod = CDElement.unit(3, row["i"]) * CDElement.unit(3, row["j"])
        assert row["product"] == [str(Fraction(c)) for c in prod.coeffs]
