"""Even Clifford structures: models, census, Grassmannian machinery."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from octoforms.cayley_dickson import CDElement
from octoforms.linalg import lie_closure_dim
from octoforms.models import (
    MODEL_NAMES,
    build_model,
    eiii_kahler,
    eiii_tau2,
    eiii_tau4_nonzero,
    grassmann_phi_apply,
    lambda2_generators,
    m_uv,
    spin_generators,
    structure_census,
)


def test_model_shapes():
    expect = {
        "eiii": (32, 10),
        "evi": (64, 12),
        "eviii": (128, 16),
        "gr8r": (16, 8),
        "gr4c": (16, 6),
        "gr2h": (8, 5),
    }
    for name, (dim, rank) in expect.items():
        model = build_model(name)
        assert model.ambient_dim == dim and model.rank == rank
        assert len(model.generators) == rank
    with pytest.raises(ValueError):
        build_model("f4")


def test_generators_orthonormal_and_unit_square():
    for name in MODEL_NAMES:
        model = build_model(name)
        n = model.ambient_dim
        eye = np.eye(n, dtype=np.int64)
        flat = np.stack(model.generators).reshape(model.rank, -1)
        gram = flat @ flat.T
        assert np.array_equal(gram, n * np.eye(model.rank, dtype=np.int64)), name
        for g in model.generators:
            sq = g @ g
            assert np.array_equal(sq, eye) or np.array_equal(sq, -eye), name


def test_lambda2_skew_and_complex():
    for name in ("eiii", "evi", "eviii", "gr8r"):
        model = build_model(name)
        eye = np.eye(model.ambient_dim, dtype=np.int64)
        for j in lambda2_generators(model):
            assert np.array_equal(j, -j.T), name
            assert np.array_equal(j @ j, -eye), name


def test_eiii_closure_is_spin10():
    model = build_model("eiii")
    gens = spin_generators(model)
    assert len(gens) == 9
    assert lie_closure_dim(gens, max_dim=100) == 45


def test_eiii_tau2_identity_and_tau4():
    t2 = eiii_tau2()  # raises if tau_2 != -3 omega^2
    assert t2.is_homogeneous(4)
    omega = eiii_kahler()
    assert t2 == -3 * omega.wedge(omega)
    assert eiii_tau4_nonzero()


def test_census_counts():
    c = structure_census()
    assert list(c) == ["spin9_pairs", "spin9_triples", "c6_triples", "quaternionic_pairs",
                       "so16_dim", "spin7_bound", "lie_spin9", "lie_eiii"]
    assert c["spin9_pairs"] == 36
    assert c["spin9_triples"] == 84
    assert c["c6_triples"] == 35
    assert c["quaternionic_pairs"] == 10
    assert c["so16_dim"] == 120  # 36 + 84 = dim so(16)
    assert c["c6_triples"] > c["spin7_bound"] == 21
    assert c["lie_spin9"] == 36
    assert c["lie_eiii"] == 45


def _pythagorean_unit_pair(rng):
    """Orthonormal rational octonion pairs from a Pythagorean rotation."""
    a, b = rng.sample(range(8), 2)
    c1, c2 = rng.choice(
        [(Fraction(3, 5), Fraction(4, 5)),
         (Fraction(5, 13), Fraction(12, 13)),
         (Fraction(8, 17), Fraction(15, 17))]
    )
    u = [Fraction(0)] * 8
    v = [Fraction(0)] * 8
    u[a], u[b] = c1, c2
    v[a], v[b] = -c2, c1
    return CDElement(3, u), CDElement(3, v)


def test_m_uv_properties_on_random_orthonormal_pairs():
    """m_vu = -m_uv and m_uv^2 = -I for 50 orthonormal rational pairs.

    m_uv is bilinear, so both are checked over Python ints on the pair
    scaled by its common denominator d: m_(dv)(du) = -m_(du)(dv) and
    m_(du)(dv)^2 = -d^4 I.
    """
    rng = random.Random(8)
    eye = np.eye(16, dtype=object)
    for _ in range(50):
        u, v = _pythagorean_unit_pair(rng)
        assert u.norm2() == 1 and v.norm2() == 1
        d = math.lcm(*(c.denominator for c in u.coeffs + v.coeffs))
        du, dv = (CDElement(3, [int(c * d) for c in x.coeffs]) for x in (u, v))
        muv = m_uv(du, dv)
        assert np.array_equal(m_uv(dv, du), -muv)
        assert np.array_equal(muv @ muv, -(d**4) * eye)


def test_m_uv_blocks_are_the_octonion_products():
    """m_uv = diag(-R_u R_conj(v), -R_conj(u) R_v) entry by entry, each block
    built from CDElement products on the basis vectors: column t holds
    -((e_t conj(v)) u) and -((e_t v) conj(u)).  On an orthonormal pair
    (x u) conj(v) + (x v) conj(u) = 2 <u, v> x = 0, so -R_conj(v) R_u gives
    the same lower-right block there; the non-orthonormal pair tells the two
    apart."""
    rng = random.Random(11)
    pairs = [_pythagorean_unit_pair(rng) for _ in range(10)]
    pairs.append(
        (CDElement(3, [1, 2, 0, -1, 0, 3, 0, 0]), CDElement(3, [2, 1, 1, 0, -2, 0, 0, 1]))
    )
    basis = [CDElement.unit(3, t) for t in range(8)]
    zero = np.zeros((8, 8), dtype=object)
    for u, v in pairs:
        uc, vc = u.conjugate(), v.conjugate()
        upper = np.array([((e * vc) * u).coeffs for e in basis], dtype=object).T
        lower = np.array([((e * v) * uc).coeffs for e in basis], dtype=object).T
        assert np.array_equal(m_uv(u, v), np.block([[-upper, zero], [zero, -lower]]))


def test_m_uv_basis_pair():
    one, i = CDElement.unit(3, 0), CDElement.unit(3, 1)
    muv = m_uv(one, i)
    assert np.array_equal(muv @ muv, -np.eye(16, dtype=object))
    assert np.array_equal(m_uv(i, one), -muv)


def test_m_uv_degenerate_pair_flagged():
    one = CDElement.unit(3, 0)
    m = m_uv(one, one)
    assert not np.array_equal(m @ m, -np.eye(16, dtype=object))


def test_grassmann_apply_reduces_to_matrix():
    one, i = CDElement.unit(3, 0), CDElement.unit(3, 1)
    rng = random.Random(9)
    a = CDElement(3, [rng.randint(-3, 3) for _ in range(8)])
    b = CDElement(3, [rng.randint(-3, 3) for _ in range(8)])
    out = grassmann_phi_apply(one, i, [a, b])
    direct = (m_uv(one, i) @ np.array(a.coeffs + b.coeffs, dtype=object)).tolist()
    assert list(out[0].coeffs) + list(out[1].coeffs) == direct


def test_grassmann_apply_twice_negates():
    rng = random.Random(10)
    u, v = _pythagorean_unit_pair(rng)
    tangent = [
        CDElement(3, [rng.randint(-3, 3) for _ in range(8)]) for _ in range(6)
    ]
    once = grassmann_phi_apply(u, v, tangent)
    twice = grassmann_phi_apply(u, v, once)
    assert twice == [-t for t in tangent]


def test_grassmann_apply_linear():
    rng = random.Random(11)
    u, v = _pythagorean_unit_pair(rng)
    xs = [CDElement(3, [rng.randint(-3, 3) for _ in range(8)]) for _ in range(4)]
    ys = [CDElement(3, [rng.randint(-3, 3) for _ in range(8)]) for _ in range(4)]
    sum_apply = grassmann_phi_apply(u, v, [x + y for x, y in zip(xs, ys)])
    apply_sum = [
        p + q
        for p, q in zip(grassmann_phi_apply(u, v, xs), grassmann_phi_apply(u, v, ys))
    ]
    assert sum_apply == apply_sum


def test_grassmann_apply_odd_length_rejected():
    one = CDElement.unit(3, 0)
    with pytest.raises(ValueError):
        grassmann_phi_apply(one, one, [one])


def test_verify_model_closures_check():
    from octoforms.verifysuite import CHECKS, _check_model_closures

    ok, detail = _check_model_closures()
    assert ok, detail
    # evi: exactly spin(12), not spin(12) + sp(1); eviii: spin(16) = spin(9) + Lambda2_84
    assert detail == "lambda^2 closures: evi 66 = spin(12), eviii 120 = spin(16)"
    assert [name for name, _ in CHECKS][-1] == "model-closures"
