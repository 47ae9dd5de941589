"""Octonion-coefficient forms: conjugation rules and engine agreement."""

import random
from fractions import Fraction

from octoforms.cayley_dickson import CDElement, _conj, basis_products
from octoforms.exterior import _sums_dicts, _wedge_kernel, _wedge_reference
from octoforms.octform import _OCT_TENSOR, OctForm, coordinate_octonion_form


def rand_octform(n, grade, terms, rng, lo=-4, hi=4):
    from itertools import combinations

    blades = list(combinations(range(n), grade))
    chosen = rng.sample(blades, min(terms, len(blades)))
    data = {}
    for blade in chosen:
        mask = sum(1 << b for b in blade)
        data[mask] = tuple(rng.randint(lo, hi) for _ in range(8))
    return OctForm(n, data)


def test_scalar_wedge_matches_cd_mul():
    # on 0-forms the wedge is the octonion product through the structure tensor
    rng = random.Random(0)
    for _ in range(30):
        a = tuple(rng.randint(-5, 5) for _ in range(8))
        b = tuple(rng.randint(-5, 5) for _ in range(8))
        want = OctForm(1, {0: tuple((CDElement(3, a) * CDElement(3, b)).coeffs)})
        assert OctForm(1, {0: a}).wedge(OctForm(1, {0: b})) == want
        assert OctForm(1, _sums_dicts(*_wedge_kernel([({0: a}, {0: b})], 1, _OCT_TENSOR))[0]) == want


def test_conjugation_involution():
    rng = random.Random(1)
    f = rand_octform(16, 3, 20, rng)
    assert f.conjugate().conjugate() == f


def test_conjugation_graded_rule():
    rng = random.Random(2)
    for _ in range(10):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        a = rand_octform(12, k, 6, rng)
        b = rand_octform(12, l, 6, rng)
        lhs = a.wedge(b).conjugate()
        rhs = (-1) ** (k * l) * b.conjugate().wedge(a.conjugate())
        assert lhs == rhs, (k, l)


def test_wedge_kernel_agrees_with_dict():
    rng = random.Random(3)
    for _ in range(5):
        a = rand_octform(16, 2, 40, rng)
        b = rand_octform(16, 2, 40, rng)
        pairs = [(dict(a.mask_items()), dict(b.mask_items()))]
        (got,) = _sums_dicts(*_wedge_kernel(pairs, 16, _OCT_TENSOR))
        assert got == _wedge_reference(pairs, _OCT_TENSOR)
        assert a.wedge(b) == OctForm(16, got)


def test_wedge_keeps_fraction_coefficients():
    # large enough for the kernel, which must decline rational coefficients
    # instead of truncating them to int64
    dx = coordinate_octonion_form(16, 0)
    dy = coordinate_octonion_form(16, 8)
    a = dx.conjugate().wedge(dx).wedge(dy)
    b = Fraction(1, 3) * a
    ba = b.wedge(a)
    assert len(ba) == 1568
    assert 3 * ba == a.wedge(a)


def test_wedge_respects_operand_order():
    # octonion coefficients do not commute, so a ^ b and the graded swap of
    # b ^ a differ unless coefficients happen to commute; check a witness
    dx = coordinate_octonion_form(16, 0)
    dy = coordinate_octonion_form(16, 8)
    ab = dx.wedge(dy)
    ba = dy.wedge(dx)
    assert ab != (-1) ** (1 * 1) * ba  # graded rule fails for noncommuting coeffs


def test_coordinate_form_structure():
    dx = coordinate_octonion_form(16, 0)
    assert len(dx) == 8
    assert dx.grades() == {1}
    items = dict(dx.mask_items())
    assert items[1][0] == 1  # coefficient of the first slot is the unit 1
    assert items[2][1] == 1  # second slot carries the unit i


def test_real_part_and_imag_check():
    f = OctForm(8, {0b11: (3, 0, 0, 0, 0, 0, 0, 0), 0b101: (0, 1, 0, 0, 0, 0, 0, 0)})
    assert not f.imaginary_is_zero()
    real = f.real_part()
    assert real == {0b11: 3}
    assert _conj((1, 2, 3, 4, 5, 6, 7, 8)) == (1, -2, -3, -4, -5, -6, -7, -8)


def test_oct_tensor_matches_basis_products():
    """_OCT_TENSOR is derived from unit_signs(3); cd_mul is the oracle."""
    table = basis_products(3)
    assert len(table) == 64
    for (a, b), (c, s) in table.items():
        assert _OCT_TENSOR[a, b, c] == s, (a, b)
        assert [x for x in range(8) if x != c and _OCT_TENSOR[a, b, x]] == [], (a, b)
