"""Exact matrix core: products, predicates, rank, Lie closures."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoforms.clifford import standard_system
from octoforms.linalg import (
    Matrix,
    SignedPerm,
    _clear_denominators,
    lie_closure_dim,
    mat_mul,
    rank,
)


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination oracle (textbook Bareiss)."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) / prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


def mat_strategy(rows, cols):
    return st.lists(
        st.lists(rational, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Matrix.from_rows)


def test_identity_product():
    eye = Matrix.identity(2)
    assert mat_mul(eye, eye) == eye


def test_spin9_involution_relations():
    mats = [Matrix.from_rows(np.asarray(p).tolist()) for p in standard_system("spin9").mats]
    eye = Matrix.identity(16)
    assert mat_mul(mats[0], mats[0]) == eye
    anti = mat_mul(mats[0], mats[1]) + mat_mul(mats[1], mats[0])
    assert anti == Matrix.zero(16, 16)
    assert mats[8].is_symmetric()
    j12 = mats[0] @ mats[1]
    assert j12.is_skew()


def test_trace_and_dimension_errors():
    assert Matrix.identity(16).trace() == 16
    with pytest.raises(ValueError):
        mat_mul(Matrix.zero(2, 3), Matrix.zero(2, 3))
    with pytest.raises(ValueError):
        Matrix.zero(2, 3).trace()


def test_clear_denominators():
    assert _clear_denominators([Fraction(0)] * 3) == ([0, 0, 0], 1)
    assert _clear_denominators([]) == ([], 1)
    ints, scale = _clear_denominators([Fraction(-3, 4), 2, Fraction(5, -6), Fraction(0)])
    assert (ints, scale) == ([-9, 24, -10, 0], 12)
    assert all(type(v) is int for v in ints)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(max_denominator=30), max_size=8))
def test_clear_denominators_scales_exactly(values):
    ints, scale = _clear_denominators(values)
    assert scale >= 1 and [Fraction(v, scale) for v in ints] == values
    assert all(scale % v.denominator == 0 for v in values)


@settings(max_examples=25, deadline=None)
@given(mat_strategy(3, 3), mat_strategy(3, 3), mat_strategy(3, 3))
def test_mat_mul_associative_distributive(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(rational, min_size=4, max_size=4), min_size=2, max_size=5
    )
)
def test_rank_matches_bareiss_oracle(rows):
    assert rank(Matrix.from_rows(rows)) == bareiss_rank(rows)


def test_lie_closure_spin9_is_36():
    mats = standard_system("spin9").mats
    pairs = [mats[a] @ mats[b] for a in range(9) for b in range(a + 1, 9)]
    assert lie_closure_dim(pairs) == 36


def test_lie_closure_order_independent():
    mats = standard_system("spin9").mats
    gens = [mats[a] @ mats[8] for a in range(4)]
    base = lie_closure_dim(gens)
    rng = random.Random(11)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert lie_closure_dim(shuffled) == base


def test_lie_closure_single_generator():
    j = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    assert lie_closure_dim([j]) == 1


def test_lie_closure_rejects_non_skew():
    with pytest.raises(ValueError):
        lie_closure_dim([np.eye(2, dtype=np.int64)])


def test_lie_closure_max_dim_bound():
    mats = standard_system("spin9").mats
    pairs = [mats[a] @ mats[b] for a in range(9) for b in range(a + 1, 9)]
    with pytest.raises(ValueError):
        lie_closure_dim(pairs, max_dim=10)


def test_kron_and_blocks():
    a = Matrix.from_rows([[0, 1], [1, 0]])
    eye = Matrix.identity(2)
    k = eye.kron(a)
    assert k.rows == 4 and k[0, 1] == 1 and k[2, 3] == 1 and k[0, 3] == 0
    b = Matrix.from_blocks([[a, eye], [eye, a]])
    assert b.rows == 4 and b[0, 2] == 1 and b[0, 1] == 1


@st.composite
def signed_perms(draw, n):
    perm = draw(st.permutations(range(n)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPerm(perm, sign)


def dense(p: SignedPerm) -> np.ndarray:
    """Reference dense int64 matrix, built row by row from (perm, sign)."""
    out = np.zeros((p.n, p.n), dtype=np.int64)
    for i, (j, s) in enumerate(zip(p.perm, p.sign)):
        out[i, j] = s
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            signed_perms(n),
            signed_perms(n),
            signed_perms(3),
            st.lists(rational, min_size=n, max_size=n),
        )
    )
)
def test_signed_perm_matches_dense(args):
    a, b, c, vec = args
    da, db, dc = dense(a), dense(b), dense(c)
    assert np.array_equal(np.asarray(a), da)
    assert np.array_equal(dense(a @ b), da @ db)
    assert np.array_equal(dense(a.T), da.T)
    assert np.array_equal(dense(-a), -da)
    assert np.array_equal(dense(a.kron(c)), np.kron(da, dc))
    assert a.apply(vec) == Matrix.from_rows(da.tolist()).apply(vec)
    assert type(a.trace()) is int and a.trace() == int(np.trace(da))
    assert SignedPerm.of(da) == a and (a @ b == b @ a) == np.array_equal(da @ db, db @ da)


@pytest.mark.parametrize(
    "x",
    [
        [[2, 0], [0, 1]],  # an entry of 2
        [[1, 1], [0, 1]],  # a row with two nonzeros
        [[1, 0], [1, 0]],  # a repeated column
        [[0, 0], [0, 1]],  # a zero row
        Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]]),  # a rational Matrix
        [[1, 0, 0], [0, 1, 0]],  # not square
    ],
)
def test_signed_perm_of_rejects_non_signed_permutations(x):
    with pytest.raises(ValueError):
        SignedPerm.of(x)


def test_signed_perm_of_matrix():
    assert SignedPerm.of(Matrix.from_rows([[0, -1], [1, 0]])) == SignedPerm([1, 0], [-1, 1])
