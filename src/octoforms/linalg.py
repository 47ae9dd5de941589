"""Exact linear algebra over the rationals.

A dense matrix is a 2-D numpy array: int64 for the dense view of a signed
permutation, ``dtype=object`` holding Python ``int`` and
``fractions.Fraction`` for exact rationals (int64 products would wrap
silently).  Signed permutation matrices, which make up the Clifford systems,
the sphere fields and the Hopf involutions, are held as ``SignedPerm`` (a
column and a sign per row); a list of them that gets checked is one stack of
(k, n) int64 perm and sign arrays (``_stack``).  Everything here is pure and
safe to share across threads.  Rank and Lie-closure computations reduce
integer rows fraction-free (cross-multiplied, gcd-normalized), so no
rational blow-up occurs.  The Lie closure keeps signed permutations as
``SignedPerm`` and brackets them in O(n); other matrices are bracketed as
sparse dicts of Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import mul

import numpy as np

from . import _INT64_SAFE

_INT64 = np.dtype(np.int64)


class SignedPerm:
    """Immutable signed permutation matrix: row i has sign[i] in column perm[i].

    Products, transposes, Kronecker products, comparisons and traces cost
    O(n); ``np.asarray`` gives the dense int64 matrix.
    """

    __slots__ = ("perm", "sign")

    def __init__(self, perm, sign):
        perm, sign = np.asarray(perm), np.asarray(sign)
        n = len(perm)
        if perm.shape != (n,) or sign.shape != (n,):
            raise ValueError("perm and sign must be vectors of one length")
        if not (np.abs(sign) == 1).all():
            raise ValueError("not a signed permutation: an entry is not 0, 1 or -1")
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("not a signed permutation: a column is repeated")
        self.perm = perm.astype(np.int64)
        self.sign = sign.astype(np.int64)
        self.perm.flags.writeable = False
        self.sign.flags.writeable = False

    @classmethod
    def _trusted(cls, perm: np.ndarray, sign: np.ndarray) -> "SignedPerm":
        """Wrap vectors already known to form a signed permutation, unchecked.

        Products, negation, transposes and Kronecker products of valid
        signed permutations are valid, so they skip ``__init__``'s checks.
        """
        self = object.__new__(cls)
        self.perm = perm if perm.dtype is _INT64 else perm.astype(_INT64)
        self.sign = sign if sign.dtype is _INT64 else sign.astype(_INT64)
        self.perm.setflags(write=False)
        self.sign.setflags(write=False)
        return self

    @classmethod
    def of(cls, x) -> "SignedPerm":
        """The signed permutation equal to a square array x.

        Raises ValueError when x is not one: an entry other than 0 and +-1
        (a non-integer one included), a row without exactly one nonzero
        entry, or a repeated column.
        """
        if isinstance(x, SignedPerm):
            return x
        arr = np.asarray(x)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("a signed permutation is a square matrix")
        nonzero = arr != 0
        if not (nonzero.sum(axis=1) == 1).all():
            raise ValueError("not a signed permutation: a row has no single nonzero entry")
        perm = nonzero.argmax(axis=1)
        return cls(perm, arr[np.arange(len(perm)), perm])

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(np.arange(n), np.ones(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return len(self.perm)

    def __eq__(self, other):
        return (
            isinstance(other, SignedPerm)
            and self.perm.tobytes() == other.perm.tobytes()
            and self.sign.tobytes() == other.sign.tobytes()
        )

    def __hash__(self):
        return hash((self.perm.tobytes(), self.sign.tobytes()))

    def __matmul__(self, other: "SignedPerm") -> "SignedPerm":
        if not isinstance(other, SignedPerm):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} @ {other.n}")
        return SignedPerm._trusted(other.perm[self.perm], self.sign * other.sign[self.perm])

    def __neg__(self) -> "SignedPerm":
        return SignedPerm._trusted(self.perm, -self.sign)

    @property
    def T(self) -> "SignedPerm":
        inverse = np.argsort(self.perm)
        return SignedPerm._trusted(inverse, self.sign[inverse])

    def kron(self, other: "SignedPerm") -> "SignedPerm":
        """Kronecker product: block (i, perm[i]) holds sign[i] * other."""
        perm = self.perm[:, None] * other.n + other.perm[None, :]
        return SignedPerm._trusted(perm.ravel(), np.outer(self.sign, other.sign).ravel())

    def apply(self, vec) -> list:
        """The matrix-vector product on an exact coefficient sequence."""
        vec = list(vec)
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        pairs = zip(self.perm.tolist(), self.sign.tolist())
        return [vec[j] if s > 0 else -vec[j] for j, s in pairs]

    def trace(self) -> int:
        return int(self.sign[self.perm == np.arange(self.n)].sum())

    def __array__(self, dtype=None, copy=None):
        out = np.zeros((self.n, self.n), dtype=np.int64 if dtype is None else dtype)
        out[np.arange(self.n), self.perm] = self.sign
        return out


def _stack(mats, n: int) -> tuple:
    """The signed permutations ``mats``, each of size n, as one stack: a
    (k, n) int64 perm array and a (k, n) int64 sign array whose row i holds
    mats[i]."""
    perm = np.array([a.perm for a in mats], dtype=np.int64).reshape(len(mats), n)
    sign = np.array([a.sign for a in mats], dtype=np.int64).reshape(len(mats), n)
    return perm, sign


def _stack_T(stack) -> tuple:
    """The stack of the transposes of the rows of ``stack``."""
    perm, sign = stack
    inverse = np.argsort(perm, axis=1)
    return inverse, np.take_along_axis(sign, inverse, axis=1)


def _stack_equal(a, b) -> np.ndarray:
    """Row by row, whether the signed permutations of stacks a and b are equal."""
    return (a[0] == b[0]).all(axis=1) & (a[1] == b[1]).all(axis=1)


def _row_products(left, right, i: int) -> tuple:
    """(L_i R_j, L_j R_i) for every j > i, as two stacks of k - i - 1 rows.

    L_r and R_r are row r of the k-row stacks ``left`` and ``right``.  Every
    temporary is (k - i - 1) x n, so the pairs of a stack are formed one row
    i at a time in O(k n) memory.
    """
    (lp, ls), (rp, rs) = left, right
    ij = rp[i + 1:, lp[i]], ls[i] * rs[i + 1:, lp[i]]
    ji = rp[i][lp[i + 1:]], ls[i + 1:] * rs[i][lp[i + 1:]]
    return ij, ji


def _strip_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v if v >= 0 else -v)
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _accumulate(out: dict, items, scale=1) -> dict:
    """Add scale * c into out[k] for each (k, c), dropping zeros; returns out."""
    for k, c in items:
        v = out.get(k, 0) + scale * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


class RowSpace:
    """Incremental row space over the rationals.

    Rows are sparse ``{column: int}`` dicts; reduction is fraction-free
    (cross-multiplication followed by content stripping), so coefficients stay
    integral throughout.
    """

    def __init__(self):
        self._pivots: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def add(self, row: dict) -> bool:
        """Reduce ``row``; add the remainder to the space. True if dim grew."""
        row = {k: v for k, v in row.items() if v}
        while row:
            col = min(row)
            piv = self._pivots.get(col)
            if piv is None:
                row = _strip_content(row)
                if row[col] < 0:
                    row = {k: -v for k, v in row.items()}
                self._pivots[col] = row
                return True
            a = piv[col]
            b = row[col]
            new = {k: a * v for k, v in row.items()}
            row = _strip_content(_accumulate(new, piv.items(), -b))
        return False


def _clear_denominators(values) -> tuple[list[int], int]:
    """(ints, scale): scale is the lcm of the denominators of the exact
    rationals ``values`` (1 when there are none), ints the values times scale
    as Python ints.  A float counts as the dyadic rational it stores; a
    non-finite one is a ValueError."""
    values = [_exact(v) if isinstance(v, float) else v for v in values]
    scale = lcm(*(v.denominator for v in values if isinstance(v, Fraction)))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _exact(x: float) -> Fraction:
    if not isfinite(x):
        raise ValueError(f"non-finite value {x!r} has no exact rational")
    return Fraction(x)


def _dot(a, b):
    """Exact dot product of two coefficient sequences."""
    return sum(map(mul, a, b))


def rank(m) -> int:
    """Exact rank of a 2-D array-like via incremental fraction-free row
    reduction.  Rows are read as Python numbers, never as int64, and clearing
    a row's denominators does not change the row space."""
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValueError("rank needs a 2-D matrix")
    space = RowSpace()
    for row in arr.tolist():
        ints, _ = _clear_denominators(row)
        space.add({j: v for j, v in enumerate(ints) if v})
    return space.dim


def _entries(x) -> dict:
    """The nonzero entries of a SignedPerm or sparse matrix as {(i, j): int}."""
    if isinstance(x, SignedPerm):
        return {(i, j): s for i, (j, s) in enumerate(zip(x.perm.tolist(), x.sign.tolist()))}
    return x


def _elements(mats) -> tuple[int, list]:
    """(n, elements) for equally sized square matrices ``mats``.

    A ``SignedPerm`` stays one; any other array becomes the sparse
    {(i, j): int} dict of its entries scaled to integers, which keeps every
    span.  n is 0 when ``mats`` is empty.
    """
    sizes, out = set(), []
    for m in mats:
        if isinstance(m, SignedPerm):
            sizes.add(m.n)
            out.append(m)
            continue
        arr = np.asarray(m)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("generators must be square")
        n = arr.shape[0]
        ints, _ = _clear_denominators(arr.ravel().tolist())
        sizes.add(n)
        out.append({divmod(k, n): v for k, v in enumerate(ints) if v})
    if len(sizes) > 1:
        raise ValueError("generators differ in size")
    return (sizes.pop() if sizes else 0), out


def _flat_row(x, n: int) -> dict:
    """The ``RowSpace`` row of an n x n element: entry (i, j) in column i*n + j."""
    if isinstance(x, SignedPerm):
        return dict(zip((np.arange(n) * n + x.perm).tolist(), x.sign.tolist()))
    return {i * n + j: v for (i, j), v in x.items()}


def _sparse_bracket(a, b) -> dict:
    """ab - ba as {(i, j): int}, exact in Python ints."""
    a, b = _entries(a), _entries(b)
    out: dict = {}
    for x, y, scale in ((a, b, 1), (b, a, -1)):
        y_rows: dict = {}
        for (k, j), v in y.items():
            y_rows.setdefault(k, []).append((j, v))
        for (i, k), u in x.items():
            _accumulate(out, (((i, j), u * v) for j, v in y_rows.get(k, ())), scale)
    return out


def _lie_closure_basis(generators, max_dim: int | None) -> list:
    """The basis lie_closure_dim counts, in the order the sweep keeps it."""
    n, elements = _elements(generators)
    if not elements:
        return []
    if max_dim is None:
        max_dim = n * (n - 1) // 2
    for g in elements:
        entries = _entries(g)
        if any(entries.get((j, i)) != -v for (i, j), v in entries.items()):
            raise ValueError("generators must be skew-symmetric")

    space = RowSpace()
    basis: list = []
    # The signed permutations of the basis, in basis order, as the rows of a
    # perm table and a sign table (grown by doubling); table_row[i] is the row
    # of basis[i], or the number of such rows before it when basis[i] is not
    # a signed permutation.
    tables = np.empty((2, 8, n), dtype=np.int64)
    table_row: list = []
    rows = 0
    # (perm, sign) bytes of every signed permutation RowSpace has reduced, and
    # of its negative: all of them lie in the span, so a repeat is skipped.
    seen: set = set()

    def keep(x):
        nonlocal tables, rows
        if isinstance(x, SignedPerm):
            key = x.perm.tobytes(), x.sign.tobytes()
            if key in seen:
                return
            seen.add(key)
            seen.add((key[0], (-x.sign).tobytes()))
        if not space.add(_flat_row(x, n)):
            return
        table_row.append(rows)
        if isinstance(x, SignedPerm):
            if rows == tables.shape[1]:
                tables = np.concatenate((tables, np.empty_like(tables)), axis=1)
            tables[:, rows] = x.perm, x.sign
            rows += 1
        basis.append(x)
        if len(basis) > max_dim:
            raise ValueError(f"Lie closure exceeds max_dim={max_dim}")

    for g in elements:
        keep(g)

    # Bracket every unordered pair exactly once, including pairs formed with
    # elements appended during the sweep.
    i = 0
    while i < len(basis):
        a = basis[i]
        if isinstance(a, SignedPerm):
            # ab and ba against every earlier signed permutation b at once
            perms, signs = tables[:, : table_row[i]]
            ab_perm, ab_sign = perms[:, a.perm], signs[:, a.perm] * a.sign
            ba_perm, ba_sign = a.perm[perms], signs * a.sign[perms]
            same = (ab_perm == ba_perm).all(axis=1)
            commute = same & (ab_sign == ba_sign).all(axis=1)
            anticommute = same & (ab_sign == -ba_sign).all(axis=1)
        for j in range(i):
            b = basis[j]
            if isinstance(a, SignedPerm) and isinstance(b, SignedPerm):
                r = table_row[j]
                if commute[r]:
                    continue
                if anticommute[r]:
                    keep(SignedPerm._trusted(ab_perm[r], ab_sign[r]))
                    continue
            keep(_sparse_bracket(a, b))
        i += 1
    return basis


def lie_closure_dim(generators, max_dim: int | None = None) -> int:
    """Dimension of the smallest Lie algebra of matrices containing the span
    of ``generators``.

    Repeatedly brackets the current basis and extends it by every bracket that
    enlarges the row space, until stable.  Generators must be square, equally
    sized and skew-symmetric; ``max_dim`` (default n(n-1)/2, the dimension of
    so(n)) is a safety bound, exceeding it raises ValueError.

    Signed permutations bracket without a matrix product: when ab == ba the
    bracket is 0, and when ab == -ba it is 2ab, kept as the signed
    permutation ab.  A new basis element a that is a signed permutation forms
    ab and ba against every earlier one in one gather on int64 tables of
    their perms and signs.  A signed permutation already reduced by the row
    space, or its negative, lies in the span, so a repeat skips the
    reduction.  Every other bracket, and every one with a
    non-signed-permutation operand (an array, whose denominators are cleared
    first), is a sparse dict product in Python ints, so the result is
    exact at any entry size.  The basis, its order and the point where
    ``max_dim`` raises are those of bracketing pair by pair.
    """
    return len(_lie_closure_basis(generators, max_dim))
