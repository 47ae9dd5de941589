"""Sparse exact exterior algebra over R^n.

A multivector is a sparse map from basis blades to rational coefficients.
Blades are bitmasks: bit p set means index p+1 belongs to the blade (indices
are 1-based at the API surface).  The wedge sign is the parity of the number
of index crossings when merging two disjoint blades.

One exterior-product core serves real and octonion coefficients.  It is
parametrised by the coefficient structure tensor T[a, b, c], the coefficient
of unit c in the product of units a and b: 1x1x1 for R, the octonion table
for O (``octform``).  ``wedge_sum`` runs ``_wedge_kernel``, a numpy kernel
that accumulates exactly in int64 for n <= 16 and ``int`` coefficients under
the bound ``linalg._INT64_SAFE``, once a call holds more than
``_KERNEL_MIN_WORK`` blade pairs.  Otherwise, or when the kernel declines, it
runs the pure-Python reference built on ``wedge_dicts``, exact for any n and
any rational coefficients.  Tests compare the two engines.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from .linalg import _INT64_SAFE, Matrix, _accumulate

# _PARITY16[i] = popcount(i) mod 2, built by doubling in place: the upper half
# of each prefix is the lower half with one more bit set
_PARITY16 = np.zeros(1 << 16, dtype=np.int8)
for _k in range(16):
    np.subtract(1, _PARITY16[: 1 << _k], out=_PARITY16[1 << _k : 2 << _k])

# Structure tensor of the real coefficients: 1 * 1 = 1.
_REAL = np.ones((1, 1, 1), dtype=np.int64)

# Blade pairs per wedge_sum call up to which the reference engine runs.  The
# kernel is faster from a few hundred pairs on, but the Spin(9) charpoly,
# Psi_8 and CGM routes ran no faster with 400 or 200 than with 2000.
_KERNEL_MIN_WORK = 2000


def _odd_crossings_mask(mask_a: int) -> int:
    """The bits k with an odd number of bits of mask_a above k.

    The sign of e^A ^ e^B is the parity of popcount(B & this mask of A).
    """
    odd = 0
    while mask_a:
        low = mask_a & -mask_a
        odd ^= low - 1
        mask_a ^= low
    return odd


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of e^A ^ e^B for disjoint blades (parity of index crossings).

    Crossings are pairs (a, b) with a in A, b in B, a > b: exactly the swaps
    needed to sort the concatenation of the two increasing index lists.
    """
    return -1 if (mask_b & _odd_crossings_mask(mask_a)).bit_count() & 1 else 1


def _indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if bit & mask:
            raise ValueError("repeated index in blade")
        mask |= bit
    return mask


def _mask_to_indices(mask: int) -> tuple:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p + 1)
        mask >>= 1
        p += 1
    return tuple(out)


class Multivector:
    """Immutable sparse multivector with exact coefficients."""

    __slots__ = ("n", "_t")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self._t = {m: c for m, c in terms.items() if c}
        if any(m >> n for m in self._t):
            raise ValueError(f"blade outside ambient dimension {n}")

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n, {})

    @classmethod
    def blade(cls, n: int, indices, coeff=1) -> "Multivector":
        """Monomial c * e^{i1...ik} from strictly increasing 1-based indices."""
        if list(indices) != sorted(indices):
            raise ValueError("blade indices must be strictly increasing")
        return cls(n, {_indices_to_mask(indices): coeff})

    @classmethod
    def scalar(cls, n: int, value) -> "Multivector":
        return cls(n, {0: value})

    def terms(self):
        """Iterate (indices tuple, coefficient), blades sorted lexicographically."""
        for m in sorted(self._t, key=_mask_to_indices):
            yield _mask_to_indices(m), self._t[m]

    def mask_items(self):
        return self._t.items()

    def coefficient(self, indices):
        return self._t.get(_indices_to_mask(indices), 0)

    def __len__(self):
        return len(self._t)

    def __bool__(self):
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __eq__(self, other):
        return (
            isinstance(other, Multivector) and self.n == other.n and self._t == other._t
        )

    def __repr__(self):
        k = len(self._t)
        return f"Multivector(n={self.n}, {k} term{'s' if k != 1 else ''})"

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.n, _accumulate(dict(self._t), other._t.items()))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.n, {m: -c for m, c in self._t.items()})

    def __rmul__(self, s) -> "Multivector":
        if isinstance(s, Multivector):
            raise TypeError("use wedge() (or ^) for exterior products")
        if s == 0:
            return Multivector.zero(self.n)
        return Multivector(self.n, {m: s * c for m, c in self._t.items()})

    __mul__ = __rmul__

    def __xor__(self, other: "Multivector") -> "Multivector":
        return self.wedge(other)

    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")

    def grades(self) -> set:
        return {m.bit_count() for m in self._t}

    def grade(self) -> int:
        """Grade of a homogeneous multivector (0 for the zero form)."""
        gs = self.grades()
        if not gs:
            return 0
        if len(gs) > 1:
            raise ValueError("multivector is not homogeneous")
        return gs.pop()

    def is_homogeneous(self, grade: int | None = None) -> bool:
        gs = self.grades()
        if grade is None:
            return len(gs) <= 1
        return gs <= {grade}

    def wedge(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.n, wedge_sum([(self._t, other._t)], self.n))

    def coeff_gcd(self) -> int:
        g = 0
        for c in self._t.values():
            if isinstance(c, Fraction):
                raise ValueError("gcd is defined for integer coefficients only")
            g = gcd(g, abs(c))
        return g

    def exact_div(self, k: int) -> "Multivector":
        out = {}
        for m, c in self._t.items():
            q = _div_exact(c, k)
            out[m] = q
        return Multivector(self.n, out)

    def is_integer(self) -> bool:
        return all(not isinstance(c, Fraction) or c.denominator == 1 for c in self._t.values())


def _div_exact(c, k: int):
    if isinstance(c, int):
        q, r = divmod(c, k)
        if r == 0:
            return q
        return Fraction(c, k)
    v = c / k
    return int(v) if v.denominator == 1 else v


def wedge_dicts(a: dict, b: dict) -> dict:
    """Exact wedge of two {mask: coefficient} dicts: the reference engine."""
    out: dict = {}
    for ma, ca in a.items():
        odd = _odd_crossings_mask(ma)
        _accumulate(
            out,
            [
                (ma | mb, -ca * cb if (mb & odd).bit_count() & 1 else ca * cb)
                for mb, cb in b.items()
                if not ma & mb
            ],
        )
    return out


def _largest_int(x: dict, d: int):
    """max |c| over the coefficients of x, or None unless all are Python ints.

    The check must be explicit: numpy's int64 conversion truncates a Fraction.
    """
    vals = list(x.values()) if d == 1 else [v for c in x.values() for v in c]
    return max(map(abs, vals)) if set(map(type, vals)) == {int} else None


def _wedge_kernel(pairs, n: int, tensor):
    """Vectorized exact sum of a ^ b over pairs of {mask: coefficient} dicts.

    Coefficients are ints (d = 1) or d-tuples of ints, multiplied through the
    d x d x d structure tensor, whose entries lie in {-1, 0, 1}.  Every int64
    intermediate is bounded by d^2 * min(A, B) * max|a| * max|b| summed over
    the pairs, with A, B the pair's term counts: for fixed output blade and
    fixed term of a at most one term of b contributes.  Returns None, so the
    caller takes the reference engine, when n > 16, a coefficient is not an
    int, or that bound reaches _INT64_SAFE.
    """
    d = tensor.shape[0]
    if n > 16:
        return None
    bound = 0
    for a, b in pairs:
        top_a, top_b = _largest_int(a, d), _largest_int(b, d)
        if top_a is None or top_b is None:
            return None
        bound += d * d * min(len(a), len(b)) * top_a * top_b
        if bound >= _INT64_SAFE:
            return None
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    t_flat = tensor.reshape(d, d * d)
    # one flat buffer, entry blade * d + c: np.add.at is much slower on a 2-D
    # buffer, and adding one component per call needs no (pairs x d) index
    buf = np.zeros((1 << n) * d, dtype=np.int64)
    for a, b in pairs:
        ma = np.fromiter(a, dtype=np.int64, count=len(a))
        mb = np.fromiter(b, dtype=np.int64, count=len(b))
        ca = np.array(list(a.values()), dtype=np.int64).reshape(len(a), d)
        cb = np.array(list(b.values()), dtype=np.int64).reshape(len(b), d)
        # the _odd_crossings_mask of every A_p, then the sign rule for the block
        odd = np.bitwise_xor.reduce(np.where((ma[:, None] & bits) != 0, bits - 1, 0), axis=1)
        signs = 1 - 2 * _PARITY16[odd[:, None] & mb[None, :]]
        signs *= (ma[:, None] & mb[None, :]) == 0
        # prods[c, p, q] = sum_ab ca[p, a] cb[q, b] T[a, b, c], in two steps
        prods = np.einsum("qb,pbc->cpq", cb, (ca @ t_flat).reshape(len(a), d, d), order="C")
        prods *= signs
        idx = (ma[:, None] | mb[None, :]).ravel()
        idx *= d
        for c in range(d):
            np.add.at(buf, idx, prods[c].ravel())
            idx += 1
    buf = buf.reshape(1 << n, d)
    nz = np.flatnonzero(buf.any(axis=1))
    if d == 1:
        return dict(zip(nz.tolist(), buf[nz, 0].tolist()))
    return dict(zip(nz.tolist(), map(tuple, buf[nz].tolist())))


def _wedge_reference(pairs, tensor) -> dict:
    """Dict-engine sum of a ^ b over pairs, coefficients through the tensor.

    For d > 1 it is the componentwise sum
    out_c = sum_ij T[i, j, c] * wedge_dicts(a_i, b_j).
    """
    d = tensor.shape[0]
    if d == 1:
        out: dict = {}
        for a, b in pairs:
            _accumulate(out, wedge_dicts(a, b).items())
        return out
    parts = [{} for _ in range(d)]
    for a, b in pairs:
        a_i = [{m: c[i] for m, c in a.items() if c[i]} for i in range(d)]
        b_j = [{m: c[j] for m, c in b.items() if c[j]} for j in range(d)]
        for i, j in zip(*np.nonzero(tensor.any(axis=2))):
            w = wedge_dicts(a_i[i], b_j[j])
            for c in np.flatnonzero(tensor[i, j]):
                _accumulate(parts[c], w.items(), int(tensor[i, j, c]))
    return {m: tuple(p.get(m, 0) for p in parts) for m in set().union(*parts)}


def wedge_sum(pairs, n: int, tensor=_REAL) -> dict:
    """Exact sum of a ^ b over (a, b) pairs of {mask: coefficient} dicts.

    With the default tensor coefficients are rationals; with a d x d x d
    structure tensor they are d-tuples, multiplied in operand order.  The
    kernel runs when the call holds more than _KERNEL_MIN_WORK blade pairs
    and accepts them; the reference engine runs otherwise.
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    if sum(len(a) * len(b) for a, b in pairs) > _KERNEL_MIN_WORK:
        out = _wedge_kernel(pairs, n, tensor)
        if out is not None:
            return out
    return _wedge_reference(pairs, tensor)


def kahler_form(j, n: int | None = None) -> Multivector:
    """Kahler 2-form of a skew endomorphism: psi(X, Y) = <X, JY>.

    Accepts an exact Matrix or an integer numpy array; the coefficient on
    e^{pq} (p < q) is J[p-1, q-1].
    """
    if isinstance(j, Matrix):
        if not j.is_skew():
            raise ValueError("kahler_form needs a skew endomorphism")
        size = j.rows
        entry = lambda p, q: j[p, q]
    else:
        arr = np.asarray(j)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("square matrix required")
        if not np.array_equal(arr, -arr.T):
            raise ValueError("kahler_form needs a skew endomorphism")
        size = arr.shape[0]
        entry = lambda p, q: int(arr[p, q])
    if n is None:
        n = size
    t = {}
    for p in range(size):
        for q in range(p + 1, size):
            c = entry(p, q)
            if c:
                t[(1 << p) | (1 << q)] = c
    return Multivector(n, t)


class FormMatrix:
    """Skew k x k matrix of homogeneous 2-forms on R^n."""

    __slots__ = ("k", "n", "_upper")

    def __init__(self, k: int, n: int, upper: dict):
        """upper maps (a, b) with 0 <= a < b < k to the 2-form entry."""
        self.k = k
        self.n = n
        self._upper = {}
        for (a, b), mv in upper.items():
            if not (0 <= a < b < k):
                raise ValueError("upper entries need 0 <= a < b < k")
            if mv.n != n:
                raise ValueError("entry ambient dimension mismatch")
            if not mv.is_homogeneous(2):
                raise ValueError("entries must be homogeneous 2-forms")
            if mv:
                self._upper[(a, b)] = mv

    @classmethod
    def from_endomorphisms(cls, mats, n: int | None = None) -> "FormMatrix":
        """Kahler-form matrix psi_ab of the compositions J_ab = M_a M_b."""
        arrs = [m.to_int_array() if isinstance(m, Matrix) else np.asarray(m) for m in mats]
        size = arrs[0].shape[0]
        if n is None:
            n = size
        upper = {}
        for a in range(len(arrs)):
            for b in range(a + 1, len(arrs)):
                upper[(a, b)] = kahler_form(arrs[a] @ arrs[b], n)
        return cls(len(arrs), n, upper)

    def entry(self, a: int, b: int) -> Multivector:
        if a == b:
            return Multivector.zero(self.n)
        if a < b:
            return self._upper.get((a, b), Multivector.zero(self.n))
        mv = self._upper.get((b, a))
        return -mv if mv is not None else Multivector.zero(self.n)

    def entry_dict(self, a: int, b: int) -> dict:
        if a == b:
            return {}
        if a < b:
            mv = self._upper.get((a, b))
            return mv._t if mv is not None else {}
        mv = self._upper.get((b, a))
        return {m: -c for m, c in mv._t.items()} if mv is not None else {}


def charpoly_coeffs(f: FormMatrix) -> list:
    """Coefficients tau_1..tau_k of det(tI - f) over the even exterior algebra.

    Faddeev-LeVerrier recursion: M_1 = f, c_s = -tr(M_s)/s,
    M_{s+1} = f (M_s + c_s I).  Divisions by s are exact because the c_s are
    the characteristic coefficients themselves.  tau_s is a 2s-form.
    """
    k, n = f.k, f.n
    psi = [[f.entry_dict(i, j) for j in range(k)] for i in range(k)]
    cur = [row[:] for row in psi]
    taus = []
    for step in range(1, k + 1):
        tr: dict = {}
        for i in range(k):
            _accumulate(tr, cur[i][i].items())
        c_step = {m: _div_exact(-c, step) for m, c in tr.items()}
        taus.append(Multivector(n, c_step))
        if step == k:
            break
        for i in range(k):
            cur[i][i] = _accumulate(dict(cur[i][i]), c_step.items())
        cur = [
            [wedge_sum([(psi[i][t], cur[t][j]) for t in range(k)], n) for j in range(k)]
            for i in range(k)
        ]
    return taus


def tau2_direct(f: FormMatrix) -> Multivector:
    """Second characteristic coefficient via the direct sum of squares."""
    total: dict = {}
    for mv in f._upper.values():
        _accumulate(total, wedge_dicts(mv._t, mv._t).items())
    return Multivector(f.n, total)


def _sub_pfaffian(entry, a: int, b: int, c: int, d: int) -> dict:
    """entry(a,b) ^ entry(c,d) - entry(a,c) ^ entry(b,d) + entry(a,d) ^ entry(b,c)."""
    pf: dict = {}
    for sgn, (p, q, r, s) in ((1, (a, b, c, d)), (-1, (a, c, b, d)), (1, (a, d, b, c))):
        _accumulate(pf, wedge_dicts(entry(p, q), entry(r, s)).items(), sgn)
    return pf


def tau4_coefficient(f: FormMatrix, indices) -> "int | Fraction":
    """Coefficient of tau_4 on one blade, by restricting every entry to
    sub-blades of the target before wedging; avoids building the full form."""
    target = _indices_to_mask(indices)

    def restricted(a, b):
        return {m: c for m, c in f.entry_dict(a, b).items() if not (m & ~target)}

    total = 0
    for quad in combinations(range(f.k), 4):
        pf = _sub_pfaffian(restricted, *quad)
        total += wedge_dicts(pf, pf).get(target, 0)
    return total


def tau4_direct(f: FormMatrix) -> Multivector:
    """Fourth characteristic coefficient as the sum of squared sub-Pfaffians.

    For every a < b < c < d:  (f_ab ^ f_cd - f_ac ^ f_bd + f_ad ^ f_bc)^2.
    Uses the dict engine only, independently of the Faddeev-LeVerrier path.
    """
    if f.k < 4:
        raise ValueError("tau4 needs a matrix of size >= 4")
    total: dict = {}
    for quad in combinations(range(f.k), 4):
        pf = _sub_pfaffian(f.entry_dict, *quad)
        _accumulate(total, wedge_dicts(pf, pf).items())
    return Multivector(f.n, total)
