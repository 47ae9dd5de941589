"""Exterior forms with octonion coefficients.

Coefficients live in the level-3 Cayley-Dickson algebra and multiply in the
operand order of the wedge: (a ox e^A) ^ (b ox e^B) = (a*b) ox (e^A ^ e^B).
Octonion multiplication is neither commutative nor associative, so chains of
wedges must keep the intended parenthesization; nothing here reassociates.

Conjugation negates the seven imaginary components coefficient-wise; this is
the unique extension of octonion conjugation satisfying
conj(alpha ^ beta) = (-1)^{kl} conj(beta) ^ conj(alpha) on k- and l-forms.

The wedge is ``exterior.wedge_sum`` with the octonion structure tensor, so
real and octonion forms share one exterior-product core and its exactness
rules (int64 kernel or the dict reference).  e_a * e_b is the single signed
unit S[a, b] e_(a xor b), so both engines expand a coefficient into unit
terms, one per nonzero component, and multiply terms by two table lookups.
The coordinate forms dx, dy and every blade of Psi_8's four 4-forms carry
one unit each, so a product costs one multiplication per disjoint blade pair.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .cayley_dickson import _conj, unit_signs
from .exterior import wedge_sum

# Structure tensor T[a, b, c] = coefficient of e_c in e_a * e_b, where
# e_a * e_b = S[a, b] e_(a xor b) with S the Cayley-Dickson sign table.
_OCT_TENSOR = np.zeros((8, 8, 8), dtype=np.int64)
_units = np.arange(8)
_OCT_TENSOR[_units[:, None], _units, _units[:, None] ^ _units] = unit_signs(3)


class OctForm:
    """Sparse exterior form on R^n with octonion coefficients."""

    __slots__ = ("n", "_t")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self._t = {m: tuple(c) for m, c in terms.items() if any(c)}
        if any(m >> n for m in self._t):
            raise ValueError(f"blade outside ambient dimension {n}")

    @classmethod
    def _of(cls, n: int, terms: dict) -> "OctForm":
        """The form of terms that are already 8-tuples on blades inside R^n,
        as the results of the operations below are: only the all-zero
        coefficients are dropped."""
        form = cls.__new__(cls)
        form.n = n
        form._t = {m: c for m, c in terms.items() if any(c)}
        return form

    @classmethod
    def zero(cls, n: int) -> "OctForm":
        return cls(n, {})

    def mask_items(self):
        return self._t.items()

    def __len__(self):
        return len(self._t)

    def __eq__(self, other):
        return isinstance(other, OctForm) and self.n == other.n and self._t == other._t

    def __repr__(self):
        return f"OctForm(n={self.n}, {len(self._t)} terms)"

    def __add__(self, other: "OctForm") -> "OctForm":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        t = dict(self._t)
        for m, c in other._t.items():
            old = t.get(m)
            t[m] = c if old is None else tuple(map(add, old, c))
        return OctForm._of(self.n, t)

    def __sub__(self, other: "OctForm") -> "OctForm":
        return self + (-1) * other

    def __rmul__(self, s) -> "OctForm":
        return OctForm._of(self.n, {m: tuple([s * x for x in c]) for m, c in self._t.items()})

    __mul__ = __rmul__

    def conjugate(self) -> "OctForm":
        return OctForm._of(self.n, {m: _conj(c) for m, c in self._t.items()})

    def grades(self) -> set:
        return {m.bit_count() for m in self._t}

    def real_part(self) -> dict:
        """{mask: real coefficient} of the real component."""
        return {m: c[0] for m, c in self._t.items() if c[0]}

    def imaginary_is_zero(self) -> bool:
        return all(all(x == 0 for x in c[1:]) for c in self._t.values())

    def wedge(self, other: "OctForm") -> "OctForm":
        """self ^ other, multiplying coefficients in this operand order."""
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return OctForm._of(self.n, wedge_sum([(self._t, other._t)], self.n, _OCT_TENSOR))


def coordinate_octonion_form(n: int, offset: int) -> OctForm:
    """The octonion-valued 1-form sum_p e_p ox dcoord_{offset+p} (p = 0..7)."""
    terms = {}
    for p in range(8):
        c = [0] * 8
        c[p] = 1
        terms[1 << (offset + p)] = tuple(c)
    return OctForm(n, terms)
