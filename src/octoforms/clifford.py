"""Clifford systems: symmetric anticommuting involutions on R^N.

The standard systems are generated uniformly from the doubling construction:
for the level-k Cayley-Dickson algebra A (dim d = 2**k), the 2+d symmetric
involutions on A^2 = R^{2d} are

    antidiag(Id, Id),   [[0, -R_u], [R_u, 0]] for the d-1 imaginary units u,
    diag(Id, -Id),

giving the Pauli system (k=1), the quaternionic system (k=2) and the
octonionic system I_1..I_9 (k=3).  Each one, and each extension, is the
Kronecker product of a 2x2 sign pattern with a block.  The involutions are
signed permutations and are held as ``linalg.SignedPerm``, so the axioms are
checked in O(N) per product.  ``verify`` checks a system of m+1 involutions
as one stack of (m+1, N) int64 perm and sign arrays, forming the pair
products one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cayley_dickson import unit_right_mults
from .linalg import (
    RowSpace,
    SignedPerm,
    _elements,
    _flat_row,
    _row_products,
    _stack,
    _stack_equal,
    _stack_T,
)

STANDARD_KINDS = ("pauli_U2", "quaternionic_Sp2Sp1", "spin9")
_KIND_LEVEL = {"pauli_U2": 1, "quaternionic_Sp2Sp1": 2, "spin9": 3}

# Seeds of Table "Clifford systems": delta(m) for m = 1..8, then
# delta(8 + h) = 16 * delta(h).
_DELTA_SEED = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}

# 2x2 sign patterns of the doubling: antidiag(1, 1), offdiag(-1, 1), diag(1, -1)
_SWAP = SignedPerm([1, 0], [1, 1])
_TURN = SignedPerm([1, 0], [-1, 1])
_FLIP = SignedPerm([0, 1], [1, -1])


@dataclass(frozen=True)
class CliffordSystem:
    """m+1 symmetric anticommuting involutions on R^n (mats[alpha] = P_alpha),
    held as SignedPerm: inputs are converted once by SignedPerm.of."""

    n: int
    mats: tuple

    @property
    def m(self) -> int:
        return len(self.mats) - 1

    def __post_init__(self):
        mats = tuple(SignedPerm.of(p) for p in self.mats)
        if any(p.n != self.n for p in mats):
            raise ValueError("endomorphism size mismatch")
        object.__setattr__(self, "mats", mats)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple = ()

    def __bool__(self):
        return self.ok


def verify(c: CliffordSystem) -> VerifyReport:
    """Check the three axioms, reporting the first violation of each kind.

    The involutions are one stack of (m+1, N) int64 perms and signs.  P is
    symmetric when the stack of transposes equals the stack, and squares to
    Id when perm[perm] is the identity with sign * sign[perm] = 1 (for a
    signed permutation P^T = P^-1, so the two fail together).  The pairs are
    formed one row i at a time, P_i P_j and P_j P_i for every j > i, and the
    first pair in (i, j) order with P_i P_j != -P_j P_i is reported.
    """
    failures = []
    stack = _stack(c.mats, c.n)
    perm, sign = stack
    symmetric = _stack_equal(_stack_T(stack), stack)
    if not symmetric.all():
        failures.append(f"P_{np.argmin(symmetric)} is not symmetric")
    square = np.take_along_axis(perm, perm, 1), sign * np.take_along_axis(sign, perm, 1)
    involution = _stack_equal(square, (np.arange(c.n), 1))
    if not involution.all():
        failures.append(f"P_{np.argmin(involution)}^2 != Id")
    for i in range(len(perm) - 1):
        ij, ji = _row_products(stack, stack, i)
        anticommute = _stack_equal(ij, (ji[0], -ji[1]))
        if not anticommute.all():
            j = i + 1 + np.argmin(anticommute)
            failures.append(f"P_{i} P_{j} != -P_{j} P_{i}")
            break
    return VerifyReport(ok=not failures, failures=tuple(failures))


def _doubling(n: int, middle) -> CliffordSystem:
    """antidiag(Id, Id), offdiag(-S, S) for each S in middle, diag(Id, -Id)."""
    eye = SignedPerm.identity(n)
    mats = [_SWAP.kron(eye), *(_TURN.kron(s) for s in middle), _FLIP.kron(eye)]
    return CliffordSystem(n=2 * n, mats=tuple(mats))


def standard_system(kind: str) -> CliffordSystem:
    """The Pauli, quaternionic, or octonionic (spin9) system."""
    if kind not in _KIND_LEVEL:
        raise ValueError(f"unknown kind {kind!r}; expected one of {STANDARD_KINDS}")
    level = _KIND_LEVEL[kind]
    return _doubling(1 << level, unit_right_mults(level)[1:])


def delta(m: int) -> int:
    """Dimension constant: an irreducible C_m lives on R^{2 delta(m)}."""
    if m < 1:
        raise ValueError("delta(m) needs m >= 1")
    if m <= 8:
        return _DELTA_SEED[m]
    return 16 * delta(m - 8)


def extend(c: CliffordSystem, extra=()) -> CliffordSystem:
    """Next system C_{m+1} on R^{2N} from a verified C_m on R^N.

    Q_0 = antidiag(Id, Id), Q_{m+1} = diag(Id, -Id), and for alpha = 1..m
    Q_alpha = offdiag(-P_0 P_alpha, P_0 P_alpha).  ``extra`` lists additional
    complex structures S on R^N (e.g. further unit right multiplications) to
    append as offdiag(-S, S): whether they extend the system is decided by
    verify() on the result, not assumed.
    """
    rep = verify(c)
    if not rep.ok:
        raise ValueError(f"cannot extend an invalid system: {rep.failures}")
    p0 = c.mats[0]
    middle = [p0 @ p for p in c.mats[1:]] + [SignedPerm.of(s) for s in extra]
    out = _doubling(c.n, middle)
    rep = verify(out)
    if not rep.ok:
        raise ValueError(f"extension failed verification: {rep.failures}")
    return out


def trace_invariant(c: CliffordSystem):
    """tr(P_0 P_1 ... P_m); |value| = 2 delta(m) distinguishes the two
    equivalence classes when m = 0 mod 4, and the standard systems give 0
    otherwise."""
    rep = verify(c)
    if not rep.ok:
        raise ValueError(f"invalid system: {rep.failures}")
    prod = c.mats[0]
    for p in c.mats[1:]:
        prod = prod @ p
    return prod.trace()


def compose_J(c: CliffordSystem, indices) -> SignedPerm:
    """J_{ab} = P_a P_b or J_{abc} = P_a P_b P_c for strictly increasing
    1-based indices; the result is a skew complex structure."""
    idx = list(indices)
    if len(idx) not in (2, 3):
        raise ValueError("indices must have length 2 or 3")
    if idx != sorted(idx) or len(set(idx)) != len(idx):
        raise ValueError("indices must be strictly increasing")
    if idx[0] < 1 or idx[-1] > len(c.mats):
        raise ValueError("index out of range")
    prod = c.mats[idx[0] - 1]
    for a in idx[1:]:
        prod = prod @ c.mats[a - 1]
    if prod.T != -prod:
        raise AssertionError("composition is not skew")
    if prod @ prod != -SignedPerm.identity(c.n):
        raise AssertionError("composition does not square to -Id")
    return prod


def all_J_pairs(c: CliffordSystem) -> list:
    return [compose_J(c, ab) for ab in combinations(range(1, len(c.mats) + 1), 2)]


def all_J_triples(c: CliffordSystem) -> list:
    return [compose_J(c, abg) for abg in combinations(range(1, len(c.mats) + 1), 3)]


def independence_count(mats) -> int:
    """Rank of the Gram matrix under <A, B> = tr(A^T B)/n.

    That is the rank of the flattened matrices, found exactly by row
    reduction.  A ``SignedPerm`` gives its n-entry row directly; any other
    input is scaled to integers first, which keeps the rank.
    """
    n, elements = _elements(mats)
    space = RowSpace()
    for x in elements:
        space.add(_flat_row(x, n))
    return space.dim
