"""Exact linear algebra: signed permutations, rank, Lie closures.

A dense exact matrix is a numpy array of dtype=object holding Python ints
and Fractions.
"""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octoforms import linalg
from octoforms.cayley_dickson import unit_left_mults, unit_right_mults
from octoforms.clifford import independence_count, standard_system
from octoforms.models import build_model, lambda2_generators
from octoforms.linalg import SignedPerm, _clear_denominators, lie_closure_dim, rank


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


def exact(rows) -> np.ndarray:
    """An exact dense matrix: Python ints and Fractions in a dtype=object array."""
    return np.array(rows, dtype=object)


def test_spin9_involution_relations():
    mats = [exact(np.asarray(p).tolist()) for p in standard_system("spin9").mats]
    eye = np.eye(16, dtype=object)
    assert np.array_equal(mats[0] @ mats[0], eye)
    anti = mats[0] @ mats[1] + mats[1] @ mats[0]
    assert np.array_equal(anti, np.zeros((16, 16), dtype=object))
    assert np.array_equal(mats[8], mats[8].T)
    j12 = mats[0] @ mats[1]
    assert np.array_equal(j12, -j12.T)


def test_clear_denominators():
    assert _clear_denominators([Fraction(0)] * 3) == ([0, 0, 0], 1)
    assert _clear_denominators([]) == ([], 1)
    ints, scale = _clear_denominators([Fraction(-3, 4), 2, Fraction(5, -6), Fraction(0)])
    assert (ints, scale) == ([-9, 24, -10, 0], 12)
    assert all(type(v) is int for v in ints)


def test_clear_denominators_matches_fraction_products():
    """Each value scaled by an integer equals its exact Fraction times the
    lcm, for ints, Fractions and dyadic floats."""
    rng = random.Random(5)
    values = [0, 7, -3, True, Fraction(-3, 4), Fraction(5, 6), Fraction(7, -12), 0.5, -0.375,
              2.0, 1e-3, 3.0 * 2**60, -0.0]
    values += [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(30)]
    values += [rng.uniform(-8, 8) for _ in range(10)]
    exact = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in exact))
    assert _clear_denominators(values) == ([int(v * scale) for v in exact], scale)
    assert all(type(v) is int for v in _clear_denominators(values)[0])


def test_clear_denominators_takes_floats_exactly():
    assert _clear_denominators([0.5, -0.25, 3]) == ([2, -1, 12], 4)
    ints, scale = _clear_denominators([0.1])
    assert Fraction(ints[0], scale) == Fraction(0.1) != Fraction(1, 10)
    # half-integer float generators keep their span instead of truncating to 0
    assert lie_closure_dim([np.array([[0, 0.5], [-0.5, 0]])]) == 1
    assert independence_count([0.5 * np.eye(2)]) == 1
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _clear_denominators([1, bad])
    with pytest.raises(ValueError):
        lie_closure_dim([np.array([[0, np.nan], [-np.nan, 0]])])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(max_denominator=30), max_size=8))
def test_clear_denominators_scales_exactly(values):
    ints, scale = _clear_denominators(values)
    assert scale >= 1 and [Fraction(v, scale) for v in ints] == values
    assert all(scale % v.denominator == 0 for v in values)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(rational, min_size=4, max_size=4), min_size=2, max_size=5
    )
)
def test_rank_matches_bareiss_oracle(rows):
    assert rank(exact(rows)) == bareiss_rank(rows)


def test_rank_reads_any_2d_array_in_python_ints():
    """int64 rows are reduced in Python ints: the cross-multiplied second row
    holds 2^80 - 1.  A SignedPerm counts through its dense view."""
    big = 2**40
    m = np.array([[big, 1], [1, big], [big + 1, big + 1]], dtype=np.int64)
    assert rank(m) == rank(m.tolist()) == 2
    assert rank(SignedPerm([2, 0, 1], [1, -1, 1])) == 3
    with pytest.raises(ValueError):
        rank([1, 2, 3])


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
    with pytest.raises(ValueError):
        lie_closure_dim([SignedPerm([1, 0], [1, -1]), SignedPerm.identity(2)])


def test_lie_closure_max_dim_bound():
    mats = standard_system("spin9").mats
    pairs = [mats[a] @ mats[b] for a in range(9) for b in range(a + 1, 9)]
    with pytest.raises(ValueError):
        lie_closure_dim(pairs, max_dim=10)


def to_fraction_rows(g) -> list:
    return [[Fraction(x) for x in row] for row in np.asarray(g).tolist()]


def reference_closure_dim(generators) -> int:
    """Dense Fraction Lie closure: bracket every pair until the span is stable."""
    basis = []

    def grow(m):
        flat = [[x for row in b for x in row] for b in basis + [m]]
        if bareiss_rank(flat) > len(basis):
            basis.append(m)

    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b))]
                for i in range(len(a))]

    for g in generators:
        grow(to_fraction_rows(g))
    i = 0
    while i < len(basis):
        for j in range(i):
            ab, ba = product(basis[i], basis[j]), product(basis[j], basis[i])
            grow([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)])
        i += 1
    return len(basis)


@st.composite
def skew_generators(draw, n):
    """A skew n x n generator: a SignedPerm (n even), an int64 array or an
    exact Fraction array."""
    kinds = ("array", "exact") + (("perm",) if n % 2 == 0 else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "perm":
        order = draw(st.permutations(range(n)))
        perm, sign = [0] * n, [0] * n
        for p, q in zip(order[::2], order[1::2]):
            s = draw(st.sampled_from((1, -1)))
            perm[p], sign[p], perm[q], sign[q] = q, s, p, -s
        return SignedPerm(perm, sign)
    entry = st.integers(-3, 3) if kind == "array" else rational
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    return np.array(rows, dtype=np.int64) if kind == "array" else exact(rows)


# Skew signed permutations on R^4: LEFT_I anticommutes with LEFT_J (their
# bracket is 2 LEFT_I LEFT_J, a third one) and commutes with RIGHT_J.
LEFT_I = SignedPerm([1, 0, 3, 2], [1, -1, 1, -1])
LEFT_J = SignedPerm([2, 3, 0, 1], [1, -1, -1, 1])
RIGHT_J = SignedPerm([2, 3, 0, 1], [1, 1, -1, -1])


# Skew signed permutations on R^6 pairing (01)(23)(45) and (12)(34)(50): their
# products have different permutations, so [a, b] is neither 0 nor +-2ab.
NON_CLOSING = (
    SignedPerm([1, 0, 3, 2, 5, 4], [1, -1, 1, -1, 1, -1]),
    SignedPerm([5, 2, 1, 4, 3, 0], [1, 1, -1, 1, -1, -1]),
)

# Octonion unit multiplications on R^8: skew signed permutations; L_1 and L_2
# anticommute, L_1 and R_2 neither commute nor anticommute.
OCT_LEFT, OCT_RIGHT = unit_left_mults(3), unit_right_mults(3)

# Skew signed permutation pairs whose products ab, ba have different
# permutations but sign vectors that agree (on R^6) or are opposite (on R^8):
# a sign-only test would take [a, b] for 0 or for 2ab.
SIGNS_AGREE = (
    SignedPerm([5, 4, 3, 2, 1, 0], [-1, 1, 1, -1, -1, 1]),
    SignedPerm([2, 3, 0, 1, 5, 4], [1, -1, -1, 1, 1, -1]),
)
SIGNS_OPPOSE = (
    SignedPerm([5, 4, 6, 7, 1, 0, 2, 3], [-1, -1, 1, 1, 1, 1, -1, -1]),
    SignedPerm([3, 5, 7, 0, 6, 1, 4, 2], [1, -1, 1, -1, -1, 1, 1, -1]),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(skew_generators(n), min_size=1, max_size=3)))
@example([LEFT_I, LEFT_J])
@example([LEFT_I, RIGHT_J])
@example([LEFT_I, LEFT_J, np.asarray(RIGHT_J)])
@example([np.asarray(RIGHT_J), LEFT_I, LEFT_J])
@example(list(NON_CLOSING))
@example([NON_CLOSING[1], NON_CLOSING[0], NON_CLOSING[0] @ NON_CLOSING[1] @ NON_CLOSING[0]])
@example([OCT_LEFT[1], OCT_LEFT[2]])
@example([OCT_LEFT[1], OCT_RIGHT[2]])
@example([OCT_LEFT[1], OCT_LEFT[2], OCT_LEFT[4]])
@example(list(SIGNS_AGREE))
@example(list(SIGNS_OPPOSE))
def test_lie_closure_matches_fraction_reference(gens):
    assert lie_closure_dim(gens) == reference_closure_dim(gens)


def test_lie_closure_signed_perm_fast_paths():
    assert LEFT_I @ LEFT_J == -(LEFT_J @ LEFT_I)
    assert LEFT_I @ RIGHT_J == RIGHT_J @ LEFT_I
    assert lie_closure_dim([LEFT_I, LEFT_J]) == 3  # su(2)
    assert lie_closure_dim([LEFT_I, RIGHT_J]) == 2  # abelian
    assert lie_closure_dim([LEFT_I, LEFT_J, RIGHT_J]) == 4


def test_lie_closure_general_bracket(monkeypatch):
    a, b = NON_CLOSING
    assert a.T == -a and b.T == -b
    assert a @ b != b @ a and a @ b != -(b @ a)
    calls = []
    general = linalg._sparse_bracket
    monkeypatch.setattr(linalg, "_sparse_bracket", lambda x, y: calls.append(1) or general(x, y))
    dim = lie_closure_dim([a, b])
    assert calls
    assert dim == reference_closure_dim([a, b]) == 4


def test_lie_closure_general_path_max_dim():
    a, b = (np.asarray(p) for p in NON_CLOSING)
    with pytest.raises(ValueError, match="max_dim=3"):
        lie_closure_dim([a, b], max_dim=3)
    assert lie_closure_dim([a, b], max_dim=4) == 4


def test_lie_closure_exact_beyond_int64():
    big = 2**40
    a = np.array([[0, big, 0], [-big, 0, 0], [0, 0, 0]], dtype=np.int64)
    b = exact([[0, 0, 0], [0, 0, big], [0, -big, 0]])
    assert lie_closure_dim([a, b]) == 3


def per_pair_basis(generators, max_dim=None) -> list:
    """The closure basis of the sweep that brackets pair by pair: each signed
    permutation product formed on its own, every bracket's row reduced."""
    n, elements = linalg._elements(generators)
    if max_dim is None:
        max_dim = n * (n - 1) // 2
    space, basis = linalg.RowSpace(), []

    def keep(x):
        if space.add(linalg._flat_row(x, n)):
            basis.append(x)
            if len(basis) > max_dim:
                raise ValueError(f"Lie closure exceeds max_dim={max_dim}")

    for g in elements:
        keep(g)
    i = 0
    while i < len(basis):
        a = basis[i]
        for j in range(i):
            b = basis[j]
            if isinstance(a, SignedPerm) and isinstance(b, SignedPerm):
                ab, ba = a @ b, b @ a
                if ab == ba:
                    continue
                if ab == -ba:
                    keep(ab)
                    continue
            keep(linalg._sparse_bracket(a, b))
        i += 1
    return basis


def spin9_pairs() -> list:
    mats = standard_system("spin9").mats
    return [mats[a] @ mats[b] for a in range(9) for b in range(a + 1, 9)]


@pytest.mark.parametrize(
    "gens",
    [
        spin9_pairs(),
        [np.asarray(RIGHT_J), LEFT_I, LEFT_J],  # table rows lag basis indices by one
        [NON_CLOSING[0], np.asarray(NON_CLOSING[1]), NON_CLOSING[0] @ NON_CLOSING[1] @ NON_CLOSING[0]],
        [OCT_LEFT[1], OCT_RIGHT[2], OCT_LEFT[2]],
        list(SIGNS_AGREE),
        list(SIGNS_OPPOSE),
    ],
)
def test_lie_closure_basis_matches_per_pair_sweep(gens):
    got, want = linalg._lie_closure_basis(gens, None), per_pair_basis(gens)
    assert [type(x) for x in got] == [type(x) for x in want]
    assert got == want  # SignedPerm and sparse-dict equality, in order


@pytest.mark.parametrize("max_dim", [8, 9, 20, 35, 36])
def test_lie_closure_max_dim_matches_per_pair_sweep(max_dim):
    pairs = spin9_pairs()
    if max_dim >= 36:
        assert linalg._lie_closure_basis(pairs, max_dim) == per_pair_basis(pairs, max_dim)
        return
    for sweep in (per_pair_basis, linalg._lie_closure_basis):
        with pytest.raises(ValueError, match=f"max_dim={max_dim}$"):
            sweep(pairs, max_dim)


def test_lie_closure_reduces_each_signed_perm_once(monkeypatch):
    """The evi closure brackets 66 elements; the per-pair sweep reduced 726
    rows, 660 of them +- a signed permutation reduced before."""
    rows = []
    add = linalg.RowSpace.add
    monkeypatch.setattr(linalg.RowSpace, "add", lambda self, row: rows.append(row) or add(self, row))
    assert lie_closure_dim(lambda2_generators(build_model("evi")), max_dim=300) == 66
    keys = []
    for row in rows:
        assert sorted(map(abs, row.values())) == [1] * 64  # a signed permutation's row
        lead = row[min(row)]
        keys.append(frozenset((k, v * lead) for k, v in row.items()))
    assert len(set(keys)) == len(keys)
    assert len(rows) < 100


def test_trusted_results_are_read_only_int64():
    a, b = NON_CLOSING
    for x in (a @ b, -a, a.T, a.kron(b), (a @ b).T, -(a.kron(b))):
        for v in (x.perm, x.sign):
            assert v.dtype == np.int64 and not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = v[0]
    wide = SignedPerm._trusted(np.array([1, 0], dtype=np.int32), np.array([1, -1], dtype=np.int8))
    assert wide.perm.dtype == wide.sign.dtype == np.int64 and wide == SignedPerm([1, 0], [1, -1])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(signed_perms(n), min_size=1, max_size=4)))
@example([SignedPerm([1, 2, 0], [1, -1, 1])])
def test_independence_count_signed_perms_match_dense(perms):
    dense_twins = [exact(np.asarray(p).tolist()) for p in perms]
    count = independence_count(perms)
    assert count == independence_count(perms + dense_twins)
    assert count == bareiss_rank([[Fraction(x) for x in np.asarray(p).ravel()] for p in perms])


def test_inputs_must_share_one_size():
    j2 = SignedPerm([1, 0], [1, -1])
    with pytest.raises(ValueError, match="differ in size"):
        independence_count([j2, np.eye(3, dtype=object)])
    with pytest.raises(ValueError, match="differ in size"):
        lie_closure_dim([j2, np.zeros((3, 3), dtype=np.int64)])


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
    assert a.apply(vec) == (exact(da.tolist()) @ exact(vec)).tolist()
    assert type(a.trace()) is int and a.trace() == int(np.trace(da))
    assert SignedPerm.of(da) == a and (a @ b == b @ a) == np.array_equal(da @ db, db @ da)


@pytest.mark.parametrize(
    "x",
    [
        [[2, 0], [0, 1]],  # an entry of 2
        [[1, 1], [0, 1]],  # a row with two nonzeros
        [[1, 0], [1, 0]],  # a repeated column
        [[0, 0], [0, 1]],  # a zero row
        np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object),  # a rational entry
        [[1, 0, 0], [0, 1, 0]],  # not square
    ],
)
def test_signed_perm_of_rejects_non_signed_permutations(x):
    with pytest.raises(ValueError):
        SignedPerm.of(x)


def test_signed_perm_of_matrix():
    assert SignedPerm.of(exact([[0, -1], [1, 0]])) == SignedPerm([1, 0], [-1, 1])
    assert SignedPerm.of(exact([[0, Fraction(-1)], [Fraction(1), 0]])) == SignedPerm([1, 0], [-1, 1])


def test_signed_perm_equality_matches_dense():
    rng = random.Random(5)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        a = SignedPerm(perm, [rng.choice((1, -1)) for _ in range(n)])
        pick = rng.randrange(4)
        if pick == 0:  # same perm, one sign flipped
            sign = list(a.sign)
            sign[rng.randrange(n)] *= -1
            b = SignedPerm(perm, sign)
        elif pick == 1:  # an equal copy
            b = SignedPerm(list(perm), list(a.sign))
        else:
            b = SignedPerm(rng.sample(range(m), m), [rng.choice((1, -1)) for _ in range(m)])
        da, db = np.asarray(a), np.asarray(b)
        want = np.array_equal(da, db)
        assert (a == b) is want and (a != b) is not want
        if want:
            assert hash(a) == hash(b)
    a = SignedPerm.identity(3)
    assert a != SignedPerm.identity(4) and a != -a
    for other in (np.asarray(a), np.eye(3, dtype=object), 1, None):
        assert a.__eq__(other) is False
