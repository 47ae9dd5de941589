"""Octonion-coefficient forms: conjugation rules and engine agreement."""

import random
from fractions import Fraction

import numpy as np
import pytest

from octoforms import exterior
from octoforms.canonical import kotrbaty_psi8, spin9_form
from octoforms.cayley_dickson import CDElement, _conj, basis_products, unit_signs
from octoforms.exterior import _sums_dicts, _terms, _wedge_kernel, _wedge_reference, merge_sign, wedge_sum
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


def test_results_drop_cancelled_blades():
    """Results of +, * and wedge skip the public checks but still drop every
    all-zero coefficient, so a cancelled blade is gone, not a zero entry."""
    rng = random.Random(4)
    a = rand_octform(12, 2, 10, rng)
    mask, coeff = next(iter(a.mask_items()))
    b = OctForm(12, {mask: tuple(-x for x in coeff), 0b111: (0, 0, 2, 0, 0, 0, 0, 0)})
    s = a + b
    assert mask not in dict(s.mask_items()) and len(s) == len(a)
    assert a - a == OctForm.zero(12) and len(a - a) == 0
    assert len(0 * a) == 0
    e1 = OctForm(2, {0b01: (1, 0, 0, 0, 0, 0, 0, 0)})
    assert len(e1.wedge(e1)) == 0


def test_public_constructor_checks_its_terms():
    with pytest.raises(ValueError, match="outside ambient dimension 4"):
        OctForm(4, {1 << 4: (1, 0, 0, 0, 0, 0, 0, 0)})
    f = OctForm(4, {0b1: [0] * 8, 0b10: [0, 3, 0, 0, 0, 0, 0, 0]})
    assert dict(f.mask_items()) == {0b10: (0, 3, 0, 0, 0, 0, 0, 0)}


def test_oct_tensor_matches_basis_products():
    """_OCT_TENSOR is derived from unit_signs(3); cd_mul is the oracle."""
    table = basis_products(3)
    assert len(table) == 64
    for (a, b), (c, s) in table.items():
        assert _OCT_TENSOR[a, b, c] == s, (a, b)
        assert [x for x in range(8) if x != c and _OCT_TENSOR[a, b, x]] == [], (a, b)


def cd_tensor(level):
    """The level-k Cayley-Dickson structure tensor, built as _OCT_TENSOR is."""
    d = 1 << level
    t = np.zeros((d, d, d), dtype=np.int64)
    units = np.arange(d)
    t[units[:, None], units, units[:, None] ^ units] = unit_signs(level)
    return t


def brute_wedge(pairs, level):
    """Sum of a ^ b over blade pairs, coefficients multiplied as CDElements:
    an oracle that reads no unit table."""
    d = 1 << level
    out = {}
    for a, b in pairs:
        for ma, ca in a.items():
            for mb, cb in b.items():
                if not ma & mb:
                    s = merge_sign(ma, mb)
                    prod = (CDElement(level, ca) * CDElement(level, cb)).coeffs
                    out[ma | mb] = tuple(x + s * y for x, y in zip(out.get(ma | mb, (0,) * d), prod))
    return {m: c for m, c in out.items() if any(c)}


def oracle_operand(kind, n, d, terms, rng):
    """Random {mask: d-tuple}: one unit per blade, dense tuples, or dense
    Fraction tuples."""
    out = {}
    for _ in range(terms):
        mask = sum(1 << i for i in rng.sample(range(n), rng.choice([1, 2, 3])))
        if kind == "unit":
            c = [0] * d
            c[rng.randrange(d)] = rng.choice((-1, 1)) * rng.randint(1, 9)
        elif kind == "dense":
            c = [rng.randint(-9, 9) for _ in range(d)]
        else:
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
        if any(c):
            out[mask] = tuple(c)
    return out


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("kind", ["unit", "dense", "fraction"])
def test_engines_match_cd_products(kind, level):
    """Single and grouped calls of both engines against brute_wedge; the
    kernel declines Fraction coefficients, so that case is reference only."""
    rng = random.Random(f"{kind}-{level}")
    d, n = 1 << level, 9
    tensor = _OCT_TENSOR if level == 3 else cd_tensor(level)
    entries = [
        [(oracle_operand(kind, n, d, rng.randint(3, 14), rng), oracle_operand(kind, n, d, rng.randint(3, 14), rng))
         for _ in range(rng.randint(1, 3))]
        for _ in range(4)
    ]
    want = [brute_wedge(pairs, level) for pairs in entries]
    assert all(want)
    for pairs, w in zip(entries, want):
        assert _wedge_reference(pairs, tensor) == w
        for a, b in pairs:
            single = _wedge_kernel([(a, b)], n, tensor)
            if kind == "fraction":
                assert single is None
            else:
                assert _sums_dicts(*single) == [brute_wedge([(a, b)], level)]
    grouped = [(_terms(a, d, g), _terms(b, d)) for g, pairs in enumerate(entries) for a, b in pairs]
    if kind == "fraction":
        assert grouped[0][0] is None
    else:
        assert _sums_dicts(*_wedge_kernel(grouped, n, tensor, len(entries))) == want
    assert [wedge_sum(pairs, n, tensor) for pairs in entries] == want


def test_psi8_products_run_on_the_kernel(monkeypatch):
    """Psi_8's four 448 x 448 blade products (200,704 pairs each) run on the
    kernel, on one unit term per blade; no kernel call declines."""
    want, calls = -2880 * spin9_form(), []
    real = exterior._wedge_kernel

    def spy(pairs, n, tensor, groups=1):
        out = real(pairs, n, tensor, groups)
        calls.extend((len(a.masks) * len(b.masks), a.blades, b.blades, out is not None) for a, b in pairs)
        return out

    monkeypatch.setattr(exterior, "_wedge_kernel", spy)
    _, psi8 = kotrbaty_psi8.__wrapped__()
    assert psi8 == want
    assert all(ran for *_, ran in calls)
    big = [c for c in calls if c[0] == 448 * 448]
    assert big == [(200704, 448, 448, True)] * 4
    assert sorted(c[0] for c in calls if c[0] != 448 * 448) == [70 * 70] * 2
