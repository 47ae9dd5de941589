"""Octonionic Hopf fibration: action, lambda coordinates, fiber certificates."""

import random
from fractions import Fraction

import numpy as np
import pytest

from octoforms.cayley_dickson import CDElement, unit_right_mults
from octoforms.clifford import standard_system
from octoforms.hopf import (
    SpherePoint16,
    fiber_orthogonality_check,
    hopf_action,
    lambda_coeffs,
    lambda_coeffs_raw,
    rational_sphere_point,
    reconstruct,
    spin9_sections,
)
from octoforms.linalg import SignedPerm


def test_action_at_basis_vectors_gives_involutions():
    mats = standard_system("spin9").mats
    zero = CDElement.zero(3)
    assert SignedPerm.of(hopf_action(zero, 1)) == mats[8]
    assert SignedPerm.of(hopf_action(CDElement.unit(3, 0), 0)) == mats[0]
    assert SignedPerm.of(hopf_action(CDElement.unit(3, 1), 0)) == mats[1]


def test_action_squares_to_identity_on_random_units():
    rng = random.Random(4)
    eye = np.eye(16, dtype=object)
    for _ in range(25):
        # rational unit (u, r): stereographic image of a rational 8-vector
        t = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
        s = sum(v * v for v in t)
        u = CDElement(3, [2 * v / (1 + s) for v in t])
        r = (1 - s) / (1 + s)
        g = hopf_action(u, r)
        assert np.array_equal(g, g.T)
        assert np.array_equal(g @ g, eye)


def test_action_rejects_non_unit():
    with pytest.raises(ValueError):
        hopf_action(CDElement.unit(3, 0), 1)


def test_action_checks_unit_length_over_z():
    """Floats are read as the dyadics they store: 0.36 + 0.64 rounds to 1.0,
    but 0.6 and 0.8 as stored are off S^8; halves and exact fifths are on."""
    with pytest.raises(ValueError, match="unit vector"):
        hopf_action(CDElement(3, [0.6, 0.8, 0, 0, 0, 0, 0, 0]), 0)
    eye = np.eye(16, dtype=object)
    for u in ([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0], [Fraction(3, 5), Fraction(4, 5)] + [0] * 6):
        g = hopf_action(CDElement(3, u), 0)
        assert np.array_equal(g @ g, eye)
    for u, r in (([float("nan")] + [0] * 7, 0), ([0] * 8, float("inf"))):
        with pytest.raises(ValueError):
            hopf_action(CDElement(3, u), r)


def test_lambda_polar_points():
    one = CDElement.unit(3, 0)
    zero = CDElement.zero(3)
    assert lambda_coeffs(SpherePoint16(x=one, y=zero)) == (0,) * 8 + (1,)
    assert lambda_coeffs(SpherePoint16(x=zero, y=one)) == (0,) * 8 + (-1,)


def test_lambda_identity_at_random_points():
    rng = random.Random(12)
    for _ in range(100):
        p = rational_sphere_point(rng)
        lam = lambda_coeffs(p)
        assert sum(v * v for v in lam) == 1
        assert reconstruct(p) == list(p.coords())


def test_lambda_homogeneity():
    rng = random.Random(13)
    p = rational_sphere_point(rng)
    t = Fraction(3, 2)
    scaled_lam = lambda_coeffs_raw(p.x.scaled(t), p.y.scaled(t))
    lam = lambda_coeffs_raw(p.x, p.y)
    assert scaled_lam == tuple(t * t * v for v in lam)


def test_hopf_map_constant_on_lines():
    i3 = CDElement.unit(3, 1)
    for x in (CDElement.unit(3, 0), CDElement.unit(3, 2), CDElement.unit(3, 5)):
        y = x * i3
        lam = lambda_coeffs_raw(x, y)
        norm = x.norm2() + y.norm2()
        normalized = tuple(Fraction(v, 1) / norm for v in lam)
        if x == CDElement.unit(3, 0):
            reference = normalized
        else:
            assert normalized == reference


def test_l_infinity_fiber():
    zero = CDElement.zero(3)
    for t in range(8):
        y = CDElement.unit(3, t)
        p = SpherePoint16(x=zero, y=y)
        assert lambda_coeffs(p) == (0,) * 8 + (-1,)


def test_sections_orthonormal_on_sphere():
    rng = random.Random(14)
    for _ in range(10):
        p = rational_sphere_point(rng)
        secs = spin9_sections(p)
        for i in range(9):
            for j in range(i, 9):
                dot = sum(a * b for a, b in zip(secs[i], secs[j]))
                assert dot == (1 if i == j else 0)


def test_fiber_orthogonality_on_l_infinity():
    zero = CDElement.zero(3)
    y = CDElement.unit(3, 0)
    p = SpherePoint16(x=zero, y=y)
    for t in range(1, 8):
        w = CDElement.unit(3, t)
        tangent = list(zero.coeffs) + list(w.coeffs)
        assert fiber_orthogonality_check(p, tangent)
    # a section itself is never fiber-tangent
    assert not fiber_orthogonality_check(p, spin9_sections(p)[0])


def test_fiber_orthogonality_invariant_under_action():
    # push an l_inf point and tangent through an involution of the action
    zero = CDElement.zero(3)
    y = CDElement.unit(3, 0)
    p = SpherePoint16(x=zero, y=y)
    w = CDElement.unit(3, 3)
    tangent = list(zero.coeffs) + list(w.coeffs)
    t8 = [Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0]
    s = sum(v * v for v in t8)
    g = hopf_action(CDElement(3, [2 * v / (1 + s) for v in t8]), (1 - s) / (1 + s))
    moved = (g @ np.array(p.coords(), dtype=object)).tolist()
    q = SpherePoint16(x=CDElement(3, moved[:8]), y=CDElement(3, moved[8:]))
    assert fiber_orthogonality_check(q, (g @ np.array(tangent, dtype=object)).tolist())
    assert sum(v * v for v in lambda_coeffs(q)) == 1  # lambda stays unit


def test_off_sphere_rejected():
    one = CDElement.unit(3, 0)
    with pytest.raises(ValueError):
        SpherePoint16(x=one, y=one)
    with pytest.raises(ValueError):
        fiber_orthogonality_check(
            SpherePoint16(x=one, y=CDElement.zero(3)), [1, 2, 3]
        )


def test_right_unit_mults_match_cd_mul():
    rng = random.Random(11)
    for _ in range(20):
        y = CDElement(3, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)])
        for t, r in enumerate(unit_right_mults(3)[1:], start=1):
            assert r.apply(y.coeffs) == list((y * CDElement.unit(3, t)).coeffs)


def _fraction_reconstruct(p):
    """sum_a lambda_a I_a N over Q, the formula reconstruct computes over Z."""
    lam = lambda_coeffs(p)
    sections = spin9_sections(p)
    return [sum(lam[a] * Fraction(sections[a][i]) for a in range(9)) for i in range(16)]


def test_integer_reconstruct_matches_fraction_formula():
    rng = random.Random(23)
    points = [rational_sphere_point(rng) for _ in range(25)]
    zero = CDElement.zero(3)
    for t in range(8):  # integer points (scale 1), the poles among them
        points.append(SpherePoint16(x=CDElement.unit(3, t), y=zero))
        points.append(SpherePoint16(x=zero, y=-CDElement.unit(3, t)))
    assert lambda_coeffs(points[25])[8] == 1 and lambda_coeffs(points[26])[8] == -1
    for p in points:
        want = _fraction_reconstruct(p)
        assert want == list(p.coords())
        assert reconstruct(p) == want


def test_reconstruct_rejects_off_sphere_point():
    rng = random.Random(4)
    for scale in (Fraction(1, 2), 2):
        p = rational_sphere_point(rng)
        object.__setattr__(p, "x", p.x.scaled(scale))
        with pytest.raises(AssertionError):
            reconstruct(p)


def _fraction_sphere_point(rng):
    """The stereographic image of t in Q^15, term by term over Fraction."""
    t = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(15)]
    s = sum(v * v for v in t)
    den = 1 + s
    return tuple(2 * v / den for v in t) + ((1 - s) / den,)


def test_rational_sphere_point_matches_fraction_construction():
    """200 seeded points over one integer denominator equal the Fraction
    construction, from the same draws."""
    got, want = random.Random(11), random.Random(11)
    for _ in range(200):
        assert rational_sphere_point(got).coords() == _fraction_sphere_point(want)
    assert got.getstate() == want.getstate()


def test_membership_reads_floats_as_dyadic_rationals():
    """Membership is exact: a float is the dyadic rational it stores.
    0.36 + 0.64 rounds to 1.0 in floats, but 0.6^2 + 0.8^2 != 1 for the
    stored dyadics, so (0.6, 0.8, 0, ...) is refused; (0.5, 0.5, 0.5, 0.5,
    0, ...) lies on the sphere exactly, and reconstruct returns it."""
    zero = CDElement.zero(3)
    assert 0.6 * 0.6 + 0.8 * 0.8 == 1.0
    with pytest.raises(ValueError, match="not on the unit sphere"):
        SpherePoint16(x=CDElement(3, [0.6, 0.8, 0, 0, 0, 0, 0, 0]), y=zero)
    p = SpherePoint16(x=CDElement(3, [0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0]), y=zero)
    assert reconstruct(p) == [0.5] * 4 + [0] * 12
    q = SpherePoint16(x=zero, y=CDElement(3, [0, 0.5, 0, Fraction(1, 2), 0, 0.5, 0, -0.5]))
    assert reconstruct(q) == list(q.coords())
    with pytest.raises(ValueError, match="not on the unit sphere"):
        near = [Fraction(3, 5), Fraction(4, 5) + Fraction(1, 10**30)]
        SpherePoint16(x=CDElement(3, near + [0] * 6), y=zero)
