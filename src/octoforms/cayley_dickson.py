"""Cayley-Dickson algebras over the rationals: R, C, H, O, S.

An element of the level-k algebra is a vector of 2**k exact coefficients in
the canonical basis.  The basis ordering follows the doubling construction:
index n splits as (low half, high half), so level 3 reads

    (1, i, j, k, e, f, g, h)   with   f = i*e,  g = j*e,  h = k*e,

and level 4 appends the sedenion units e_8..e_15.  Doubled multiplication:

    (a, b) * (c, d) = (a*c - conj(d)*b,  b*conj(c) + d*a).

Basis units multiply as e_a * e_b = S[a, b] e_(a xor b): ``unit_signs``
builds S by doubling, and the unit multiplications are read off it as signed
permutations; the recursive ``cd_mul`` and ``basis_products`` check it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import SignedPerm

UNIT_NAMES = ("1", "i", "j", "k", "e", "f", "g", "h")


def _conj(x: tuple) -> tuple:
    return (x[0],) + tuple(-c for c in x[1:])


def _mul(x: tuple, y: tuple) -> tuple:
    n = len(x)
    if n == 1:
        return (x[0] * y[0],)
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    lo = tuple(p - q for p, q in zip(_mul(a, c), _mul(_conj(d), b)))
    hi = tuple(p + q for p, q in zip(_mul(b, _conj(c)), _mul(d, a)))
    return lo + hi


class CDElement:
    """Exact element of the level-k Cayley-Dickson algebra (dimension 2**k)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        coeffs = tuple(coeffs)
        if level < 0 or len(coeffs) != 1 << level:
            raise ValueError(f"level-{level} element needs {1 << level} coefficients")
        self.level = level
        self.coeffs = coeffs

    @classmethod
    def zero(cls, level: int) -> "CDElement":
        return cls(level, (0,) * (1 << level))

    @classmethod
    def unit(cls, level: int, index: int) -> "CDElement":
        """Basis unit e_index (index 0 is the real unit)."""
        c = [0] * (1 << level)
        c[index] = 1
        return cls(level, c)

    @classmethod
    def from_real(cls, level: int, value) -> "CDElement":
        c = [0] * (1 << level)
        c[0] = value
        return cls(level, c)

    def _check(self, other: "CDElement"):
        if self.level != other.level:
            raise ValueError("level mismatch")

    def __add__(self, other: "CDElement") -> "CDElement":
        self._check(other)
        return CDElement(self.level, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CDElement") -> "CDElement":
        self._check(other)
        return CDElement(self.level, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CDElement":
        return CDElement(self.level, (-a for a in self.coeffs))

    def __mul__(self, other: "CDElement") -> "CDElement":
        return cd_mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, CDElement)
            and self.level == other.level
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __repr__(self):
        return f"CDElement(level={self.level}, {list(self.coeffs)})"

    def scaled(self, s) -> "CDElement":
        return CDElement(self.level, (s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def conjugate(self) -> "CDElement":
        return CDElement(self.level, _conj(self.coeffs))

    def norm2(self):
        return sum(a * a for a in self.coeffs)

    def real_part(self):
        return self.coeffs[0]


def cd_mul(x: CDElement, y: CDElement) -> CDElement:
    x._check(y)
    return CDElement(x.level, _mul(x.coeffs, y.coeffs))


def conjugate(x: CDElement) -> CDElement:
    return x.conjugate()


def norm2(x: CDElement):
    return x.norm2()


def real_part(x: CDElement):
    return x.real_part()


def associator(x: CDElement, y: CDElement, z: CDElement) -> CDElement:
    """[x, y, z] = (xy)z - x(yz); zero for levels <= 2."""
    x._check(y)
    x._check(z)
    return (x * y) * z - x * (y * z)


def right_mult_matrix(u: CDElement) -> np.ndarray:
    """M with M @ vec(x) = vec(x * u) in the canonical basis.

    Always ``dtype=object`` with the exact entries, even when every entry is
    an integer: products of int64 arrays would wrap silently.
    """
    cols = [(CDElement.unit(u.level, j) * u).coeffs for j in range(1 << u.level)]
    return np.array(cols, dtype=object).T


def left_mult_matrix(u: CDElement) -> np.ndarray:
    """M with M @ vec(x) = vec(u * x), ``dtype=object`` as in right_mult_matrix."""
    cols = [(u * CDElement.unit(u.level, j)).coeffs for j in range(1 << u.level)]
    return np.array(cols, dtype=object).T


@lru_cache(maxsize=None)
def unit_signs(level: int) -> np.ndarray:
    """Read-only int64 table S with e_a * e_b = S[a, b] e_(a xor b).

    Doubling with e_(h+a) = (0, e_a) and conj(e_b) = c[b] e_b gives the four
    blocks S, S^T, S c and -(S^T c), c[b] = -1 except c[0] = 1.
    """
    s = np.ones((1, 1), dtype=np.int64)
    for _ in range(level):
        c = np.where(np.arange(len(s)) == 0, 1, -1)
        s = np.block([[s, s.T], [s * c, -(s.T * c)]])
    s.flags.writeable = False
    return s


def _unit_mults(s: np.ndarray) -> tuple:
    i = np.arange(len(s))
    return tuple(SignedPerm(i ^ t, s[i ^ t, t]) for t in i)


@lru_cache(maxsize=None)
def unit_right_mults(level: int) -> tuple:
    """x -> x * e_t (R_(e_t)) for t = 0..2^level - 1, as SignedPerm."""
    return _unit_mults(unit_signs(level))


@lru_cache(maxsize=None)
def unit_left_mults(level: int) -> tuple:
    """x -> e_t * x (L_(e_t)) for t = 0..2^level - 1, as SignedPerm."""
    return _unit_mults(unit_signs(level).T)


def basis_products(level: int) -> dict:
    """Structure table {(a, b): (index, sign)} for unit products e_a * e_b.

    Every product of two basis units is +/- another basis unit; this holds at
    all levels of the construction.
    """
    n = 1 << level
    table = {}
    for a in range(n):
        ea = CDElement.unit(level, a)
        for b in range(n):
            prod = ea * CDElement.unit(level, b)
            nz = [(i, c) for i, c in enumerate(prod.coeffs) if c]
            if len(nz) != 1 or nz[0][1] not in (1, -1):
                raise AssertionError("basis product is not a signed unit")
            table[(a, b)] = nz[0]
    return table


def mult_table_json(level: int) -> list:
    """Multiplication table rows for JSON export.

    Each row is {"i": a, "j": b, "product": [c_0, ..., c_{2^k-1}]} with the
    coefficients of e_a * e_b serialized as rational strings.
    """
    s = unit_signs(level)
    n = len(s)
    return [
        {"i": a, "j": b, "product": [str(s[a, b]) if c == a ^ b else "0" for c in range(n)]}
        for a in range(n)
        for b in range(n)
    ]


# Octonion units by name, for readable construction of the standard systems.
def octonion_unit(name: str) -> CDElement:
    return CDElement.unit(3, UNIT_NAMES.index(name))
