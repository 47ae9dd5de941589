"""Clifford systems: axioms, extensions, invariants, dimension table."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from octoforms.clifford import (
    STANDARD_KINDS,
    CliffordSystem,
    VerifyReport,
    all_J_pairs,
    all_J_triples,
    compose_J,
    delta,
    extend,
    independence_count,
    standard_system,
    trace_invariant,
    verify,
)
from octoforms.linalg import SignedPerm


def test_standard_systems_verify():
    for kind, n, count in (
        ("pauli_U2", 4, 3),
        ("quaternionic_Sp2Sp1", 8, 5),
        ("spin9", 16, 9),
    ):
        c = standard_system(kind)
        assert c.n == n and len(c.mats) == count
        assert verify(c).ok


def test_spin9_block_shapes():
    c = standard_system("spin9")
    i9 = np.asarray(c.mats[8])
    for p in range(8):
        assert i9[p, p] == 1
        assert i9[8 + p, 8 + p] == -1
    i1 = np.asarray(c.mats[0])
    assert all(i1[p, 8 + p] == 1 and i1[8 + p, p] == 1 for p in range(8))
    quat = standard_system("quaternionic_Sp2Sp1")
    i5 = np.asarray(quat.mats[4])
    assert all(i5[p, p] == 1 and i5[4 + p, 4 + p] == -1 for p in range(4))


def test_identity_pair_fails_anticommutation():
    eye = np.eye(2, dtype=object)
    rep = verify(CliffordSystem(n=2, mats=(eye, eye)))
    assert not rep.ok
    assert any("P_0 P_1" in f for f in rep.failures)


def test_system_rejects_non_signed_permutations():
    eye = np.eye(2, dtype=object)
    with pytest.raises(ValueError):
        CliffordSystem(n=2, mats=(eye, eye * Fraction(1, 2)))
    with pytest.raises(ValueError):
        CliffordSystem(n=2, mats=(eye, np.array([[0, 1], [1, 1]])))


def test_unknown_kind():
    with pytest.raises(ValueError):
        standard_system("so3")


def test_delta_table():
    table = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16, 10: 32,
             11: 64, 12: 64, 13: 128, 14: 128, 15: 128, 16: 128}
    for m, d in table.items():
        assert delta(m) == d
    assert delta(17) == 16 * delta(9) == 256
    with pytest.raises(ValueError):
        delta(0)


def test_extend_spin9_gives_c9_on_r32():
    c9 = extend(standard_system("spin9"))
    assert c9.n == 32 and len(c9.mats) == 10
    assert verify(c9).ok
    assert c9.n == 2 * delta(9)


def test_extend_pauli_gives_c3_on_r8():
    c3 = extend(standard_system("pauli_U2"))
    assert c3.n == 8 and len(c3.mats) == 4
    assert verify(c3).ok
    assert c3.n == 2 * delta(3)


def test_extension_chain_matches_table_dimensions():
    c = standard_system("spin9")
    for m in (9, 10, 11):
        c = extend(c)
        assert len(c.mats) == m + 1
        assert verify(c).ok
        assert c.n == 2 * delta(m)
    c = extend(c)  # C_12 on R^256: valid but no longer the minimal 2 delta(12)
    assert verify(c).ok
    assert c.n == 256 and 2 * delta(12) == 128


def test_extend_rejects_invalid():
    eye = np.eye(2, dtype=object)
    with pytest.raises(ValueError):
        extend(CliffordSystem(n=2, mats=(eye, eye)))


def test_trace_invariants():
    assert abs(trace_invariant(standard_system("spin9"))) == 2 * delta(8) == 16
    assert abs(trace_invariant(standard_system("quaternionic_Sp2Sp1"))) == 2 * delta(4) == 8
    assert trace_invariant(standard_system("pauli_U2")) == 0


def test_orthonormality_of_involutions():
    c = standard_system("spin9")
    arrs = [np.asarray(p) for p in c.mats]
    for i, p in enumerate(arrs):
        assert abs(p.trace()) in (0, c.n)
        for q in arrs[i + 1 :]:
            assert (p * q).sum() == 0  # tr(P^T Q) with symmetric P


def test_compose_j_properties():
    c = standard_system("spin9")
    j12 = compose_J(c, (1, 2))
    assert j12.T == -j12
    assert j12 @ j12 == -SignedPerm.identity(16)
    j123 = compose_J(c, (1, 2, 3))
    assert j123.T == -j123
    with pytest.raises(ValueError):
        compose_J(c, (2, 1))
    with pytest.raises(ValueError):
        compose_J(c, (1, 10))
    with pytest.raises(ValueError):
        compose_J(c, (1,))


def test_J_products_in_nested_index_order():
    """all_J_pairs and all_J_triples are compose_J over the nested index
    loops a < b (< g), in that order, for spin9 and its C_6 subsystem."""
    spin9 = standard_system("spin9")
    for c in (spin9, CliffordSystem(n=16, mats=spin9.mats[:7])):
        idx = range(1, len(c.mats) + 1)
        assert all_J_pairs(c) == [compose_J(c, (a, b)) for a in idx for b in idx if a < b]
        assert all_J_triples(c) == [
            compose_J(c, (a, b, g)) for a in idx for b in idx for g in idx if a < b < g
        ]


def test_independence_counts():
    c = standard_system("spin9")
    assert independence_count(all_J_pairs(c)) == 36
    assert independence_count(all_J_triples(c)) == 84
    assert independence_count([np.eye(4, dtype=object), np.eye(4, dtype=object)]) == 1
    half = np.eye(2, dtype=object) * Fraction(1, 2)
    assert independence_count([np.eye(2, dtype=object), half]) == 1


def test_c6_triples_break_spin7_bound():
    c = standard_system("spin9")
    c6 = CliffordSystem(n=16, mats=c.mats[:7])
    assert verify(c6).ok
    triples = all_J_triples(c6)
    assert len(triples) == 35
    assert independence_count(triples) == 35 > 21


def test_extend_with_extra_structures():
    # the pauli compositions P0 P1, P0 P2 are the quaternion right
    # multiplications R_i, R_j on R^4 = H; appending R_k gives the C_4 system
    # on R^8 (the "further endomorphisms" clause), while appending one of the
    # existing compositions duplicates a generator and must fail verify
    from octoforms.cayley_dickson import CDElement, right_mult_matrix

    pauli = standard_system("pauli_U2")
    assert pauli.mats[0] @ pauli.mats[1] == SignedPerm.of(right_mult_matrix(CDElement.unit(2, 1)))
    assert pauli.mats[0] @ pauli.mats[2] == SignedPerm.of(right_mult_matrix(CDElement.unit(2, 2)))
    rk = right_mult_matrix(CDElement.unit(2, 3))
    c4 = extend(pauli, extra=[rk])
    assert len(c4.mats) == 5 and c4.n == 8 and verify(c4).ok
    assert c4.n == 2 * delta(4)
    with pytest.raises(ValueError):
        extend(pauli, extra=[pauli.mats[0] @ pauli.mats[1]])


def test_verify_suite_counts_the_standard_systems():
    from octoforms.clifford import STANDARD_KINDS
    from octoforms.verifysuite import _check_clifford_systems

    ok, detail = _check_clifford_systems()
    assert ok
    assert len(STANDARD_KINDS) == 3
    assert detail.startswith("3 standard systems")


@pytest.mark.parametrize("kind", ["pauli_U2", "quaternionic_Sp2Sp1", "spin9"])
def test_standard_system_matches_cd_mul_reference(kind):
    """antidiag(Id, Id), [[0, -R_u], [R_u, 0]] for the imaginary units u, and
    diag(Id, -Id), with R_u built from cd_mul products."""
    from octoforms.cayley_dickson import CDElement, right_mult_matrix

    level = {"pauli_U2": 1, "quaternionic_Sp2Sp1": 2, "spin9": 3}[kind]
    d = 1 << level
    eye, zero = np.eye(d, dtype=object), np.zeros((d, d), dtype=object)
    ref = [np.block([[zero, eye], [eye, zero]])]
    for t in range(1, d):
        r = right_mult_matrix(CDElement.unit(level, t))
        ref.append(np.block([[zero, -r], [r, zero]]))
    ref.append(np.block([[eye, zero], [zero, -eye]]))
    assert standard_system(kind).mats == tuple(SignedPerm.of(m) for m in ref)


def _verify_reference(c):
    """verify with one SignedPerm product per axiom and pair: the oracle for
    the stacked checks."""
    failures = []
    mats = c.mats
    eye = SignedPerm.identity(c.n)
    for i, p in enumerate(mats):
        if p.T != p:
            failures.append(f"P_{i} is not symmetric")
            break
    for i, p in enumerate(mats):
        if p @ p != eye:
            failures.append(f"P_{i}^2 != Id")
            break
    for i, j in combinations(range(len(mats)), 2):
        if mats[i] @ mats[j] != -(mats[j] @ mats[i]):
            failures.append(f"P_{i} P_{j} != -P_{j} P_{i}")
            break
    return VerifyReport(ok=not failures, failures=tuple(failures))


def _oracle_systems():
    """The standard systems and their extensions up to C_11, and broken
    systems: a non-symmetric matrix (which, being a signed permutation, is
    no involution either), a diagonal sign flip that stays an involution, a
    duplicated involution and one commuting pair."""
    systems = []
    for kind in STANDARD_KINDS:
        c = standard_system(kind)
        systems.append(c)
        while c.m < 11:
            c = extend(c)
            systems.append(c)
    spin9 = standard_system("spin9").mats
    cycle = SignedPerm(np.roll(np.arange(16), 1), np.ones(16, dtype=np.int64))
    flip = spin9[8].sign.copy()
    flip[3] = -flip[3]
    broken = [
        spin9[:2] + (cycle,) + spin9[3:],
        spin9[:4] + (cycle,) + spin9[5:] + (cycle,),
        spin9[:8] + (SignedPerm(spin9[8].perm, flip),),
        spin9[:5] + (spin9[2],),
        spin9 + (-spin9[3],),
    ]
    return systems + [CliffordSystem(n=16, mats=mats) for mats in broken]


def test_stacked_verify_gives_the_per_pair_reports():
    """verify reports the same first violation of each kind as the per-pair
    reference, on valid and broken systems."""
    systems = _oracle_systems()
    reports = [verify(c) for c in systems]
    assert reports == [_verify_reference(c) for c in systems]
    assert sum(not r.ok for r in reports) == 5
    assert reports[-1].failures == ("P_3 P_9 != -P_9 P_3",)


def test_symmetry_and_involution_fail_together():
    """For a signed permutation P^T = P^-1, so P is symmetric exactly when
    it squares to Id: both checks name the same first matrix.  Checked on
    random systems of symmetric signed permutations (two transpositions,
    equal signs on each), where a matrix is broken by flipping one sign of
    a transposition with probability 1/5."""
    rng = random.Random(3)
    first = set()
    for _ in range(60):
        mats = []
        for _ in range(4):
            perm, sign = list(range(6)), [rng.choice((1, -1)) for _ in range(6)]
            for a, b in zip(*[iter(rng.sample(range(6), 4))] * 2):
                perm[a], perm[b] = b, a
                sign[b] = sign[a]
            if rng.random() < 0.2:
                sign[a] = -sign[a]
            mats.append(SignedPerm(perm, sign))
        c = CliffordSystem(n=6, mats=tuple(mats))
        rep = verify(c)
        assert rep == _verify_reference(c)
        kinds = [f for f in rep.failures if "symmetric" in f or "Id" in f]
        assert len(kinds) in (0, 2)
        first.add(kinds[0].split()[0] if kinds else None)
        if kinds:
            assert kinds[1] == f"{kinds[0].split()[0]}^2 != Id"
    assert first == {None, "P_0", "P_1", "P_2", "P_3"}
