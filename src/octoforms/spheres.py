"""Maximal orthonormal tangent vector-field systems on spheres.

For m = (2k+1) 2^p 16^q (0 <= p <= 3) the sphere S^{m-1} carries exactly
sigma(m) = 2^p + 8q - 1 linearly independent tangent fields.  All fields here
are linear, A_i x at x, with A_i a signed permutation held as
``linalg.SignedPerm`` and built by Kronecker products and products.  So
tangency and orthonormality on the whole sphere reduce to exact checks of
O(m) each:

    A skew,   A^T A = Id (true of any signed permutation),   A^T B + B^T A = 0.

``verify_system`` runs them on the k fields as one stack of (k, m) int64
perm and sign arrays: the skew test on the whole stack, then the pairs one
row i at a time, and the sampled-point checks as two int64 matrix products.

Construction by q:
  q = 0: right multiplications by the imaginary units of C, H, O.
  q = 1: the eight J_a = I_a I_9 acting on each sedenion slot, plus for
         p >= 1 the fields D(L_u N) built from the formal left multiplication
         table at level p and the conjugation D = Id ox diag(Id8, -Id8).
  q = 2: the eight J_a, the eight D(block(J_a) N) acting on columns of 16
         sedenions, and for p = 1 the extra field D(D2(L_i N)).
Odd factors 2k+1 enter through the diagonal (block-repeated) extension.

The printed level-3 left multiplication table is transcribed verbatim; its
L_e row contains "k s6" where the octonion product table gives "k s8", so it
is not a signed permutation.  The builder tries the verbatim table first and
falls back to the table derived from genuine octonion left multiplication when
it is rejected, recording the switch in the system notes: both outcomes stay
observable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

import numpy as np

from .cayley_dickson import unit_left_mults, unit_right_mults
from .clifford import _FLIP, _TURN, VerifyReport, standard_system
from .linalg import _INT64_SAFE, SignedPerm, _dot, _row_products, _stack, _stack_equal, _stack_T

# Formal left multiplication tables, printed form.  Row u, slot t holds the
# signed source index: L_u(s^1..s^l) has sign * s^{|entry|} in slot t, slots
# ordered (1, i, j, k, e, f, g, h).
_PRINTED_L = {
    2: {"i": "-2 +1"},
    4: {
        "i": "-2 +1 -4 +3",
        "j": "-3 +4 +1 -2",
        "k": "-4 -3 +2 +1",
    },
    8: {
        "i": "-2 +1 -4 +3 -6 +5 +8 -7",
        "j": "-3 +4 +1 -2 -7 -8 +5 +6",
        "k": "-4 -3 +2 +1 -8 +7 -6 +5",
        "e": "-5 +6 +7 +6 +1 -2 -3 -4",
        "f": "-6 -5 +8 -7 +2 +1 +4 -3",
        "g": "-7 -8 -5 +6 +3 -4 +1 +2",
        "h": "-8 +7 -6 -5 +4 +3 -2 +1",
    },
}

_UNIT_ORDER = ("i", "j", "k", "e", "f", "g", "h")

# Memory grows linearly with m (fields, sample point, --json triplets): on
# S^65023 (m = 65024, 17 fields) `fields --verify --json` peaks at 245 MB RSS.
_MAX_FIELDS_DIM = 65536


def hr_decompose(m: int) -> "HRDecomposition":
    if m < 1:
        raise ValueError("m must be >= 1")
    rest = m
    q = 0
    while rest % 16 == 0:
        rest //= 16
        q += 1
    p = 0
    while rest % 2 == 0:
        rest //= 2
        p += 1
    # every 16 absorbs four 2s, so the leftover doubling satisfies 0 <= p <= 3
    return HRDecomposition(m=m, k=(rest - 1) // 2, p=p, q=q)


@dataclass(frozen=True)
class HRDecomposition:
    m: int
    k: int
    p: int
    q: int

    def __post_init__(self):
        if not (0 <= self.p <= 3):
            raise AssertionError("decomposition broke the 0 <= p <= 3 bound")
        if self.m != (2 * self.k + 1) * (1 << self.p) * 16**self.q:
            raise AssertionError("decomposition does not recompose")


def sigma(m: int) -> int:
    """Maximal number of linearly independent tangent fields on S^{m-1}."""
    d = hr_decompose(m)
    return (1 << d.p) + 8 * d.q - 1


@dataclass(frozen=True)
class VectorFieldSystem:
    """Fields A_i x on S^{m-1}, held as SignedPerm: inputs are converted once
    by SignedPerm.of."""

    m: int
    fields: tuple
    notes: tuple = ()

    def __post_init__(self):
        fields = tuple(SignedPerm.of(a) for a in self.fields)
        if any(a.n != self.m for a in fields):
            raise ValueError("field size mismatch")
        object.__setattr__(self, "fields", fields)


def _matrix_conditions(fields) -> list:
    """Failures of A skew and A^T B + B^T A = 0; A^T A = Id holds for every
    signed permutation.

    The fields are one stack of (k, m) int64 perms and signs.  The skew test
    compares the stack of transposes with the negated stack; then, one row i
    at a time, A_i^T A_j is skew for every j > i exactly when it is the
    negative of its transpose A_j^T A_i, formed from (k - i - 1) x m
    temporaries.  Failures come in field order, then in pair order.
    """
    stack = _stack(fields, fields[0].n if fields else 0)
    transposes = _stack_T(stack)
    skew = _stack_equal(transposes, (stack[0], -stack[1]))
    failures = [f"field {i} is not skew" for i in np.flatnonzero(~skew).tolist()]
    for i in range(len(fields) - 1):
        g, g_T = _row_products(transposes, stack, i)
        g_skew = _stack_equal(g_T, (g[0], -g[1]))
        failures.extend(
            f"fields {i},{j} break A^T B + B^T A = 0"
            for j in (i + 1 + np.flatnonzero(~g_skew)).tolist()
        )
    return failures


def _integer_sample_point(m: int, rng) -> list:
    """An integer point on the ray of a random rational point of S^(m-1):
    the stereographic image of t = u / q (q one denominator) is
    (2 q u, q^2 - |u|^2) / (q^2 + |u|^2), kept without its positive
    denominator."""
    t = [(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m - 1)]
    q = lcm(*(d for _, d in t))
    u = [n * (q // d) for n, d in t]
    return [2 * q * v for v in u] + [q * q - _dot(u, u)]


def verify_system(v: VectorFieldSystem, samples: int = 2, seed: int = 0) -> VerifyReport:
    """Exact matrix conditions plus sampled-point tangency/orthonormality.

    Tangency and orthonormality at x are homogeneous of degree 2 in x, so
    they are checked at an integer point x on the ray of a rational unit
    point: every dot product is an integer one, compared with the integer
    norm^2 of x.  The images A_i x are one (k, m) int64 array, sign * x[perm]
    over the stack of fields, so tangency is images @ x and orthonormality
    is images @ images.T == |x|^2 Id.  Each image is a signed permutation of
    x, so every such dot product, and each of its partial sums, is at most
    |x|^2 in absolute value (Cauchy-Schwarz).  A sample point with
    |x|^2 >= linalg._INT64_SAFE raises ValueError.
    """
    failures = _matrix_conditions(list(v.fields))
    perm, sign = _stack(v.fields, v.m)
    eye = np.eye(len(perm), dtype=np.int64)
    rng = random.Random(seed)
    for _ in range(samples):
        x = _integer_sample_point(v.m, rng)
        norm2 = _dot(x, x)
        if norm2 >= _INT64_SAFE:
            raise ValueError(
                f"sample point has |x|^2 = {norm2}, past the int64 bound {_INT64_SAFE}"
            )
        x = np.array(x, dtype=np.int64)
        images = sign * x[perm]
        failures.extend(
            f"field {i} not tangent at sample point" for i in np.flatnonzero(images @ x).tolist()
        )
        wrong = np.triu(images @ images.T != norm2 * eye)
        failures.extend(
            f"fields {i},{j} not orthonormal at sample point"
            for i, j in np.argwhere(wrong).tolist()
        )
    return VerifyReport(ok=not failures, failures=tuple(failures))


def _left_mult_from_table(row: str, l: int) -> np.ndarray:
    mat = np.zeros((l, l), dtype=np.int64)
    for slot, tok in enumerate(row.split()):
        src = int(tok[1:]) - 1
        mat[slot, src] = 1 if tok[0] == "+" else -1
    return mat


def formal_left_mults(l: int, printed: bool = True) -> list:
    """Left multiplication matrices on l formal slots (l = 2, 4, 8).

    printed=True transcribes the published table; printed=False derives the
    table from genuine left multiplication in the level log2(l) algebra.
    Both are l x l int64 arrays: the printed level-3 L_e is not a signed
    permutation.
    """
    if l not in (2, 4, 8):
        raise ValueError("formal left multiplications exist for l in {2, 4, 8}")
    if printed:
        return [
            _left_mult_from_table(_PRINTED_L[l][u], l)
            for u in _UNIT_ORDER[: l - 1]
        ]
    return [np.asarray(a) for a in unit_left_mults(l.bit_length() - 1)[1:]]


_D16 = SignedPerm(range(16), [1] * 8 + [-1] * 8)
_EYE16 = SignedPerm.identity(16)


def _base_16(p: int, printed: bool) -> list:
    """The 2^p * 16 system (q = 1); raises ValueError when the formal left
    multiplication table is not made of signed permutations (printed, p = 3)."""
    slots = SignedPerm.identity(1 << p)
    fields = [slots.kron(j) for j in fixed_beta_variant(9).fields]
    if p >= 1:
        d = slots.kron(_D16)
        for lu in formal_left_mults(1 << p, printed=printed):
            fields.append(d @ SignedPerm.of(lu).kron(_EYE16))
    return fields


def _base_256(p: int) -> list:
    """The 2^p * 256 system (q = 2, p <= 1)."""
    j16 = fixed_beta_variant(9).fields
    slots = SignedPerm.identity(16 << p)  # sedenion slots
    d = slots.kron(_D16)
    fields = [slots.kron(j) for j in j16]
    fields.extend(d @ SignedPerm.identity(1 << p).kron(j.kron(_EYE16)) for j in j16)
    if p == 1:
        fields.append(d @ _d2_512() @ _li_512())
    return fields


def _li_512() -> SignedPerm:
    """offdiag(-Id256, Id256)."""
    return _TURN.kron(SignedPerm.identity(256))


def _d2_512() -> SignedPerm:
    """Id2 ox diag(Id128, -Id128)."""
    return SignedPerm.identity(2).kron(_FLIP.kron(SignedPerm.identity(128)))


def naive_s511_extra() -> SignedPerm:
    """D(L_i N) on R^512 without the D2 conjugation: the documented failure.

    Orthogonal to the eight J_a N but not to the level-2 fields; the working
    field is D(D2(L_i N)).
    """
    return SignedPerm.identity(32).kron(_D16) @ _li_512()


def check_scope(m: int) -> HRDecomposition:
    """hr_decompose(m) if the system on S^{m-1} is built, else ValueError:
    the paper defers q >= 3 and gives q = 2 constructions for p <= 1 only."""
    if m > _MAX_FIELDS_DIM:
        raise ValueError(f"m = {m} is out of scope: m <= {_MAX_FIELDS_DIM}")
    dec = hr_decompose(m)
    if dec.q > 2 or dec.q == 2 and dec.p > 1:
        raise ValueError(f"m = {m} (q = {dec.q}, p = {dec.p}) is out of scope: "
                         "q <= 2, and p <= 1 when q = 2")
    return dec


def build_fields(m: int) -> VectorFieldSystem:
    """Maximal system of sigma(m) orthonormal tangent fields on S^{m-1}.

    At level 3 the printed formal table is tried first; the octonion-table
    variant replaces it, with a note, when the printed table is not made of
    signed permutations.
    """
    dec = check_scope(m)
    notes = ()
    if dec.q == 0:
        fields = list(unit_right_mults(dec.p)[1:])
    elif dec.q == 2:
        fields = _base_256(dec.p)
    else:
        try:
            fields = _base_16(dec.p, printed=True)
        except ValueError:
            fields = _base_16(dec.p, printed=False)
            notes = (
                "printed formal left multiplication table fails orthonormality "
                "(row L_e, term k s6); using the octonion product table (k s8)",
            )
    if dec.k > 0:
        odd = SignedPerm.identity(2 * dec.k + 1)
        fields = [odd.kron(a) for a in fields]

    system = VectorFieldSystem(m=m, fields=tuple(fields), notes=notes)
    expected = sigma(m)
    if len(system.fields) != expected:
        raise AssertionError(f"built {len(system.fields)} fields, expected sigma({m}) = {expected}")
    return system


def fixed_beta_variant(beta: int) -> VectorFieldSystem:
    """The eight fields I_a I_beta (a != beta) on S^15, for any 1 <= beta <= 9."""
    if not 1 <= beta <= 9:
        raise ValueError("beta must be in 1..9")
    mats = standard_system("spin9").mats
    ib = mats[beta - 1]
    fields = [mats[a] @ ib for a in range(9) if a != beta - 1]
    return VectorFieldSystem(m=16, fields=tuple(fields))
