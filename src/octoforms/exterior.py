"""Sparse exact exterior algebra over R^n.

A multivector is a sparse map from basis blades to rational coefficients.
Blades are bitmasks: bit p set means index p+1 belongs to the blade (indices
are 1-based at the API surface).  The wedge sign is the parity of the number
of index crossings when merging two disjoint blades.

One exterior-product core serves real and octonion coefficients.  It is
parametrised by the coefficient structure tensor T[a, b, c], the coefficient
of unit c in the product of units a and b: 1x1x1 for R, the octonion table
for O (``octform``).  Every product of two units must be one signed unit or
zero, so T is read once as two d x d tables, ``unit_of`` and ``unit_sign``,
and both engines work on unit terms: a d-tuple coefficient is expanded into
one (blade, unit, scalar) term per nonzero component, and a pair of terms
lands on unit unit_of[u, v] with sign unit_sign[u, v].  For R the unit is
always 0 and the sign 1.  ``_wedge_kernel`` is a numpy kernel that
accumulates exactly in int64 for n <= 16 and ``int`` coefficients under the
bound ``linalg._INT64_SAFE``.  It has a group axis: every term of an operand
carries an output-entry offset, one call sums the products of many pairs
into many entries, and each entry's slots are the blades of the output
grades only.  ``_wedge_reference`` is the pure-Python engine, exact for any
n and any rational coefficients: one loop that adds the products of every
pair straight into one output dict, over blades for R and over unit terms
for d > 1.  ``wedge_sum``, the one public entry point, runs the kernel once
the call holds more than ``_KERNEL_MIN_WORK`` blade pairs and the kernel
accepts them, and the reference otherwise.  Tests compare the two engines
with each other and with ``CDElement`` products.

``charpoly_coeffs`` is one Faddeev-LeVerrier recursion over the k(k+1)/2
upper entries of each step matrix M_s, whose lower entries follow from
M_s^T = (-1)^s M_s.  A step is one grouped kernel call on kernel arrays; once
the kernel declines a step, that step and the later ones run on
``_wedge_reference``.  ``tau2_direct`` and ``tau4_direct`` square with
``wedge_square`` on the dict engine, a route independent of the kernel.
``tau4_direct`` deals its sub-Pfaffian squares out to workers, the caller
and forked children (``fanout``), once each has enough work, and adds their
partial sums exactly; it imports ``fanout`` only when called.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd
from typing import NamedTuple

import numpy as np

from .linalg import _INT64_SAFE, SignedPerm, _accumulate

# Structure tensor of the real coefficients: 1 * 1 = 1.
_REAL = np.ones((1, 1, 1), dtype=np.int64)

# wedge_sum runs the kernel only on calls that hold more blade pairs than
# this in all.  The kernel is faster from a few hundred pairs on, but the
# Spin(9) charpoly, Psi_8 and CGM routes ran no faster with 400 or 200 than
# with 2000.  CGM's inner sums, 448 or 512 blade pairs per entry, stay on
# the reference, which is faster there: the kernel pays a fixed set-up per
# operand pair.
_KERNEL_MIN_WORK = 2000

# tau4_direct runs a worker per this much _tau4_work, up to the usable CPUs;
# the caller is worker 0, so two workers fork once.  On a 2-vCPU VM, in 10
# alternating fresh-process pairs per size (tau4_direct on the leading k x k
# blocks of spin9_psi, timed inside the process), one fork against serial
# read +0.9 ms at 0.18 M of work (5.5 ms serial, slower in 8 of 10), -3.3
# and -1.5 ms at 0.55 M (15-17 ms, 2 and 4 of 10 in two series), -8.4 ms at
# 1.3 M (24 ms, 0 of 10), and 72 against 99 ms for the whole spin9 sum (4.6
# M, 0 of 10).  So two workers break even between 0.2 and 0.55 M, and start
# at 0.8 M, past it.
_FORK_MIN_WORK = 400_000


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
    """The mask of a blade given by strictly increasing 1-based indices."""
    mask, last = 0, 0
    for i in indices:
        if i <= last:
            raise ValueError("blade indices must be strictly increasing from 1")
        mask |= 1 << (i - 1)
        last = i
    return mask


def _mask_to_indices(mask: int) -> tuple:
    return tuple(p + 1 for p in range(mask.bit_length()) if mask >> p & 1)


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
        return cls(n, {_indices_to_mask(indices): coeff})

    @classmethod
    def scalar(cls, n: int, value) -> "Multivector":
        return cls(n, {0: value})

    def terms(self):
        """Iterate (indices tuple, coefficient), blades sorted lexicographically."""
        for indices, m in sorted((_mask_to_indices(m), m) for m in self._t):
            yield indices, self._t[m]

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
        return isinstance(other, Multivector) and self.n == other.n and self._t == other._t

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
        gs = self.grades() or {0}
        if len(gs) > 1:
            raise ValueError("multivector is not homogeneous")
        return gs.pop()

    def is_homogeneous(self, grade: int | None = None) -> bool:
        gs = self.grades()
        return len(gs) <= 1 if grade is None else gs <= {grade}

    def wedge(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.n, wedge_sum([(self._t, other._t)], self.n))

    def coeff_gcd(self) -> int:
        if any(isinstance(c, Fraction) for c in self._t.values()):
            raise ValueError("gcd is defined for integer coefficients only")
        return gcd(*self._t.values())

    def exact_div(self, k: int) -> "Multivector":
        return Multivector(self.n, {m: _div_exact(c, k) for m, c in self._t.items()})

    def is_integer(self) -> bool:
        return all(not isinstance(c, Fraction) or c.denominator == 1 for c in self._t.values())


def _div_exact(c, k: int):
    v = Fraction(c, k)
    return int(v) if v.denominator == 1 else v


def wedge_square(a: dict, out: dict) -> dict:
    """Add a ^ a into out and return out, for an even form a.

    Even blades commute and e_x ^ e_x = 0 unless x is the scalar blade 0, so
    a ^ a = c_0^2 + 2 sum_{x<y} c_x c_y e_x ^ e_y: half the products of
    _wedge_reference([(a, a)], _REAL), with no temporary.
    """
    items = list(a.items())
    if any(m.bit_count() & 1 for m, _ in items):
        raise ValueError("wedge_square needs an even form")
    if 0 in a:
        _accumulate(out, [(0, a[0] * a[0])])
    for i, (ma, ca) in enumerate(items):
        odd = _odd_crossings_mask(ma)
        c2 = 2 * ca
        for mb, cb in items[i + 1 :]:
            if not ma & mb:
                m = ma | mb
                v = out.get(m, 0) + (-c2 * cb if (mb & odd).bit_count() & 1 else c2 * cb)
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return out


def _popcounts(n: int):
    """popcount(i) for i < 2^n (int8), built by doubling in place: the upper
    half of each prefix is the lower half with one more bit set."""
    pop = np.zeros(1 << n, dtype=np.int8)
    for k in range(n):
        np.add(pop[: 1 << k], 1, out=pop[1 << k : 2 << k])
    return pop


# _POPCOUNT16[i] = popcount(i), _PARITY16[i] = popcount(i) mod 2
_POPCOUNT16 = _popcounts(16)
_PARITY16 = _POPCOUNT16 & 1


class _Terms(NamedTuple):
    """A kernel operand as int64 arrays, one row per unit term.

    The kernel's bound needs every (mask, group, unit) to occur once.
    """

    masks: np.ndarray  # blade masks, N
    coeffs: np.ndarray  # scalar coefficients, N
    groups: np.ndarray  # each term's offset on the output-entry axis, N
    grades: set  # the grades that may occur
    top: int  # max |coefficient|
    odd: np.ndarray | None = None  # _odd_masks(masks), for a left operand
    units: np.ndarray | None = None  # each term's unit, N; None for R
    blades: int = 0  # distinct (mask, group) pairs; 0: N, one unit each


def _terms(x: dict, d: int, group: int = 0):
    """x as a kernel operand with every term at offset group, or None.

    A d-tuple coefficient becomes one unit term per nonzero component.  None
    means the kernel must decline: a coefficient is not an int (numpy's
    int64 conversion truncates a Fraction), or one alone reaches
    _INT64_SAFE, which the kernel's bound refuses anyway.
    """
    vals = list(x.values()) if d == 1 else [v for c in x.values() for v in c]
    top = max(map(abs, vals), default=0)
    if not set(map(type, vals)) <= {int} or top >= _INT64_SAFE:
        return None
    masks = np.fromiter(x, dtype=np.int64, count=len(x))
    coeffs = np.array(vals, dtype=np.int64)
    units = None
    if d > 1:
        blade, units = np.nonzero(coeffs.reshape(len(x), d))
        masks, coeffs = masks[blade], coeffs[blade * d + units]
    groups = np.full(len(masks), group, dtype=np.int64)
    return _Terms(masks, coeffs, groups, {m.bit_count() for m in x}, top, _odd_masks(masks), units, len(x))


def _unit_tables(tensor):
    """(unit_of, unit_sign), flat over u * d + v: e_u e_v = unit_sign e_unit_of.

    Raises ValueError unless every product of two units is one signed unit
    or zero: a second nonzero component, or an entry outside {-1, 0, 1},
    would be dropped by the lookups.
    """
    nonzero = tensor != 0
    if (nonzero.sum(axis=2) > 1).any() or (np.abs(tensor) > 1).any():
        raise ValueError("each product of two units must be one signed unit or zero")
    unit_of = nonzero.argmax(axis=2).ravel()
    return unit_of, tensor.reshape(len(unit_of), -1)[np.arange(len(unit_of)), unit_of]


def _odd_masks(masks: np.ndarray) -> np.ndarray:
    """_odd_crossings_mask of every mask.  Bit k of it, the parity of the
    bits above k, is bit k of (m >> 1) ^ (m >> 2) ^ ...; the shifts by 1, 2,
    4, ... 32 form that xor in six steps."""
    odd = masks >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        odd ^= odd >> shift
    return odd


def _wedge_kernel(pairs, n: int, tensor, groups: int = 1):
    """Vectorized exact sum of a ^ b over pairs, into `groups` output entries.

    Operands are _Terms, or None where _terms declined; a left one carries
    its odd-crossings masks, which _terms computes once, so an operand reused
    over pairs or calls does not redo them.  A product of two terms lands in
    the entry that is the sum of their offsets.  Coefficients are ints
    (d = 1) or d-tuples of ints, expanded into unit terms; a pair of unit
    terms (u, v) lands on unit unit_of[u, v] with sign unit_sign[u, v], two
    gathers per kept pair.

    int64: every intermediate is bounded by d^2 * min(A, B) * max|a| * max|b|
    summed over the pairs, with A, B the pair's counts of blade terms (one per
    (mask, group)).  Fix an output slot (entry, blade, unit c) and a blade term
    of a: at most one blade term of b completes it, and at most d x d unit
    pairs of those two blade terms land on c; likewise from b's side.  The
    blade count is kept, not the unit-term count A' <= dA: with it the bound,
    and so which engine runs, does not depend on how many units a
    coefficient has.  Returns None, so the caller takes the reference engine,
    when n > 16, a coefficient is not an int, or that bound reaches
    _INT64_SAFE; raises ValueError for a tensor _unit_tables rejects.

    Otherwise returns (sums, masks): sums[g, s] is the d-vector coefficient of
    blade masks[s] in entry g.  The slots of an entry are the blades of the
    output grades in increasing mask order, so for one output grade the
    buffer holds groups x C(n, grade) slots, not groups x 2^n.
    """
    d = tensor.shape[0]
    if d > 1:
        unit_of, unit_sign = _unit_tables(tensor)
    if n > 16:
        return None
    bound = 0
    for a, b in pairs:
        if a is None or b is None:
            return None
        bound += d * d * min(a.blades or len(a.masks), b.blades or len(b.masks)) * a.top * b.top
        if bound >= _INT64_SAFE:
            return None
    # the blades of the output grades: comparing the popcount table is about
    # four times faster than a gather through it; slot_of is not cached, as
    # one 256 KB table per grade set would raise peak memory
    popcount = _POPCOUNT16[: 1 << n]
    wanted = np.zeros(1 << n, dtype=bool)
    for g in {i + j for a, b in pairs for i in a.grades for j in b.grades if i + j <= n}:
        wanted |= popcount == g
    slot_masks = np.flatnonzero(wanted)
    w = len(slot_masks)
    slot_of = np.zeros(1 << n, dtype=np.int32)
    slot_of[slot_masks] = np.arange(w)
    # one flat buffer, slot (entry * w + s) * d + c: np.add.at is much slower
    # on a 2-D buffer
    buf = np.zeros(groups * w * d, dtype=np.int64)
    for a, b in pairs:
        # the disjoint term pairs, as flat indices into the A x B block and as
        # (p, q); flatnonzero is much faster than a 2-D nonzero
        keep = np.flatnonzero((a.masks[:, None] & b.masks[None, :]) == 0)
        p = keep // len(b.masks)
        q = keep - p * len(b.masks)
        mb = b.masks[q]
        idx = slot_of[a.masks[p] | mb]
        if groups > 1:  # one entry: every offset is 0
            idx += (a.groups * w)[p]
            idx += (b.groups * w)[q]
        vals = a.coeffs[p] * b.coeffs[q]
        vals *= 1 - 2 * _PARITY16[a.odd[p] & mb]
        if d > 1:
            uv = a.units[p] * d + b.units[q]
            idx *= d
            idx += unit_of[uv]
            vals *= unit_sign[uv]
        np.add.at(buf, idx, vals)
    return buf.reshape(groups, w, d), slot_masks


def _sums_dicts(sums, masks) -> list:
    """The kernel's (sums, masks) as one {mask: coefficient} dict per entry."""
    d = sums.shape[2]
    out = []
    for entry in sums:
        nz = np.flatnonzero(entry.any(axis=1))
        keys = masks[nz].tolist()
        vals = entry[nz, 0].tolist() if d == 1 else map(tuple, entry[nz].tolist())
        out.append(dict(zip(keys, vals)))
    return out


def _wedge_reference(pairs, tensor) -> dict:
    """Dict-engine sum of a ^ b over pairs, coefficients through the tensor.

    One double loop per pair, over the blades of a and b for R and over
    their unit terms, with the kernel's unit_of and unit_sign lookups, for
    d > 1; every product is added straight into one output.  Exact for any
    rationals.
    """
    d = tensor.shape[0]
    out: dict = {}
    if d == 1:
        for a, b in pairs:
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
    unit_of, unit_sign = (t.tolist() for t in _unit_tables(tensor))
    parts: dict = {}  # blade mask * d + unit: coefficient
    for a, b in pairs:
        b_terms = _unit_terms(b)
        for ma, u, ca in _unit_terms(a):
            odd = _odd_crossings_mask(ma)
            row = u * d
            _accumulate(
                parts,
                [
                    ((ma | mb) * d + unit_of[row + v],
                     (-ca if (mb & odd).bit_count() & 1 else ca) * cb * unit_sign[row + v])
                    for mb, v, cb in b_terms
                    if not ma & mb
                ],
            )
    for key, v in parts.items():
        m, c = divmod(key, d)
        out.setdefault(m, [0] * d)[c] = v
    return {m: tuple(c) for m, c in out.items()}


def _unit_terms(x: dict) -> list:
    """(mask, unit, coefficient) for every nonzero component of x."""
    return [(m, u, v) for m, c in x.items() for u, v in enumerate(c) if v]


def wedge_sum(pairs, n: int, tensor=_REAL) -> dict:
    """Exact sum of a ^ b over (a, b) pairs of {mask: coefficient} dicts.

    With the default tensor coefficients are rationals; with a d x d x d
    structure tensor they are d-tuples, multiplied in operand order.  The
    kernel runs when the pairs hold more than _KERNEL_MIN_WORK blade pairs
    in all and it accepts them; the reference engine runs otherwise.
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    if sum(len(a) * len(b) for a, b in pairs) > _KERNEL_MIN_WORK:
        d = tensor.shape[0]
        out = _wedge_kernel([(_terms(a, d), _terms(b, d)) for a, b in pairs], n, tensor)
        if out is not None:
            return _sums_dicts(*out)[0]
    return _wedge_reference(pairs, tensor)


def kahler_form(j) -> Multivector:
    """Kahler 2-form of a skew endomorphism: psi(X, Y) = <X, JY>.

    Accepts any square array: a SignedPerm, an int64 array, or exact
    rationals as ``dtype=object``.  The coefficient on e^{pq} (p < q) is
    J[p-1, q-1], read as a Python number.
    """
    arr = np.asarray(j)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("square matrix required")
    if not np.array_equal(arr, -arr.T):
        raise ValueError("kahler_form needs a skew endomorphism")
    n = arr.shape[0]
    rows = arr.tolist()
    return Multivector(n, {(1 << p) | (1 << q): rows[p][q] for p, q in combinations(range(n), 2)})


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
    def from_endomorphisms(cls, mats) -> "FormMatrix":
        """Kahler-form matrix psi_ab of the compositions J_ab = M_a M_b.

        Signed permutations compose as SignedPerm products, exactly and in
        O(n); any other input is multiplied as ``dtype=object``, so large
        int64 entries do not wrap.
        """
        mats = list(mats)
        if all(isinstance(m, SignedPerm) for m in mats):
            n = mats[0].n
        else:
            mats = [np.asarray(m, dtype=object) for m in mats]
            n = mats[0].shape[0]
        upper = {}
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                upper[(a, b)] = kahler_form(mats[a] @ mats[b])
        return cls(len(mats), n, upper)

    def entry(self, a: int, b: int) -> Multivector:
        return Multivector(self.n, self.entry_dict(a, b))

    def entry_dict(self, a: int, b: int) -> dict:
        mv = self._upper.get((min(a, b), max(a, b)))  # None on the diagonal
        if mv is None:
            return {}
        return mv._t if a < b else {m: -c for m, c in mv._t.items()}


def charpoly_coeffs(f: FormMatrix) -> list:
    """Coefficients tau_1..tau_k of det(tI - f) over the even exterior algebra.

    Faddeev-LeVerrier recursion: M_1 = f, c_s = -tr(M_s)/s,
    M_{s+1} = f (M_s + c_s I).  Divisions by s are exact because the c_s are
    the characteristic coefficients themselves.  tau_s is a 2s-form.  The
    entries commute and M_s is a polynomial in f, so M_s^T = (-1)^s M_s: a
    step computes only the k(k+1)/2 entries i <= j, packed row by row.  Each
    step is one grouped kernel call; once the kernel declines a step, that
    step and the later ones run on _wedge_reference, entry by entry.
    """
    k, n = f.k, f.n
    base = np.array([i * k - i * (i + 1) // 2 for i in range(k)])  # packed (i, j) = base[i] + j
    diag = base + np.arange(k)
    fd = [[f.entry_dict(i, t) for t in range(k)] for i in range(k)]
    psi = [(_terms(fd[i][t], 1, base[i]), i, t) for i in range(k) for t in range(k) if fd[i][t]]
    x = (diag, np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64))  # X = M_0 + c_0 I = I
    ups = None  # X as one dict per packed entry, once the kernel has declined
    taus = []
    for step in range(1, k + 1):
        sign = (-1) ** (step - 1)  # X's lower entries are sign x its upper ones
        out = None if ups is not None else _charpoly_step(psi, x, base, n, sign, step)
        if out is not None:
            c, x = out
        else:
            if ups is None:
                cuts = np.searchsorted(x[0], np.arange(k * (k + 1) // 2 + 1))
                ups = [dict(zip(x[1][a:b].tolist(), x[2][a:b].tolist())) for a, b in zip(cuts, cuts[1:])]
            ups = [  # f_it X_tj; below the diagonal X_tj = sign X_jt, and -f_it = f_ti
                _wedge_reference([(fd[t][i] if t > j and sign < 0 else fd[i][t],
                                   ups[base[min(t, j)] + max(t, j)]) for t in range(k)], _REAL)
                for i in range(k) for j in range(i, k)
            ]
            tr = _accumulate({}, (term for p in diag for term in ups[p].items()))
            c = {m: _div_exact(-v, step) for m, v in tr.items()}
            for p in diag:
                _accumulate(ups[p], c.items())
        taus.append(Multivector(n, c))
    return taus


def _charpoly_step(psi, x, base, n, sign, step):
    """One step on the kernel: (c_s, X') from X = M_{s-1} + c_{s-1} I, or None.

    X, and X' = M_s + c_s I, are given as their nonzero packed terms (entry,
    blade mask, coefficient) sorted by entry; X's lower entries are sign times
    its upper ones.  Row t of X is rebuilt in column order, so its columns
    j >= i are one slice; the pair (f_it, that slice) puts f_it at offset
    base[i] and column j at offset j, which lands in packed entry (i, j).  The
    dense buffer of M_s lives only in this call.

    int64: the kernel runs only if S, the sum over the pairs of
    min(A, B) max|a| max|b| (each slice with its own max), is below
    _INT64_SAFE.  Entry (i, i) is filled by the pairs of row i of f alone, and
    each slice starts at its diagonal column, so the slots of M_ii are bounded
    by S_i, that row's part of S.  The S_i are disjoint parts, so every slot
    of tr(M_s) is at most S.  tr(M_1) = 0, f having a zero diagonal, so
    c_s != 0 needs s >= 2 and |M_ii + c_s| <= S + S/2: the trace and the
    diagonal update diag += c stay exact in int64.
    """
    ent, blade, coef = x
    k = len(base)
    cuts = np.searchsorted(ent, np.arange(k * (k + 1) // 2 + 1))  # entry P: terms cuts[P]:cuts[P + 1]
    t, j = np.divmod(np.arange(k * k), k)
    cell = base[np.minimum(t, j)] + np.maximum(t, j)  # the packed entry of X_tj
    lens = cuts[cell + 1] - cuts[cell]
    ends = np.cumsum(lens)
    take = np.arange(ends[-1]) + np.repeat(cuts[cell] - ends + lens, lens)
    coeffs = coef[take] * np.repeat(np.where(t > j, sign, 1), lens)
    slots, cols = blade[take], np.repeat(j, lens)
    top = np.zeros(len(cuts) - 1, dtype=np.int64)
    np.maximum.at(top, ent, np.abs(coef))
    top = np.maximum.accumulate(top[cell].reshape(k, k)[:, ::-1], axis=1)[:, ::-1]  # over columns >= i
    starts, stops = (ends - lens).reshape(k, k), ends[k - 1 :: k]  # cell (t, j) from starts[t, j]
    pairs = [(a, _Terms(*(v[starts[t, i] : stops[t]] for v in (slots, coeffs, cols)), {2 * step - 2},
                        int(top[t, i]))) for a, i, t in psi]
    out = _wedge_kernel(pairs, n, _REAL, len(cuts) - 1)
    if out is None:
        return None
    sums, masks = out
    sums, diag = sums[:, :, 0], base + np.arange(k)
    c = -sums[diag].sum(axis=0) // step
    sums[diag] += c
    nz, flat, w = np.flatnonzero(c), np.flatnonzero(sums), sums.shape[1]
    return dict(zip(masks[nz].tolist(), c[nz].tolist())), (flat // w, masks[flat % w], sums.ravel()[flat])


def tau2_direct(f: FormMatrix) -> Multivector:
    """Second characteristic coefficient via the direct sum of squares."""
    total: dict = {}
    for mv in f._upper.values():
        wedge_square(mv._t, total)
    return Multivector(f.n, total)


def _sub_pfaffian(entry, a: int, b: int, c: int, d: int) -> dict:
    """entry(a,b) ^ entry(c,d) - entry(a,c) ^ entry(b,d) + entry(a,d) ^ entry(b,c),
    as one reference sum: the skew entry(d,b) = -entry(b,d) carries the sign."""
    return _wedge_reference([(entry(a, b), entry(c, d)), (entry(a, c), entry(d, b)),
                             (entry(a, d), entry(b, c))], _REAL)


def _tau4_sum(entry, quads) -> dict:
    """The sum over quads of the squared sub-Pfaffians, as one dict."""
    total: dict = {}
    for quad in quads:
        wedge_square(_sub_pfaffian(entry, *quad), total)
    return total


def tau4_coefficient(f: FormMatrix, indices) -> "int | Fraction":
    """Coefficient of tau_4 on one blade, by restricting every entry to
    sub-blades of the target before wedging; avoids building the full form."""
    if f.k < 4:
        raise ValueError("tau4 needs a matrix of size >= 4")
    target = _indices_to_mask(indices)

    def restricted(a, b):
        return {m: c for m, c in f.entry_dict(a, b).items() if not (m & ~target)}

    return _tau4_sum(restricted, combinations(range(f.k), 4)).get(target, 0)


def _tau4_work(f: FormMatrix, quads) -> int:
    """Sum over quads of p^2, p = |f_ab| |f_cd| + |f_ac| |f_bd| + |f_ad| |f_bc|:
    p bounds the sub-Pfaffian's blades, so p^2 bounds twice the pairs its
    square visits."""

    def size(a, b):
        return len(f._upper.get((a, b), ()))

    return sum((size(a, b) * size(c, d) + size(a, c) * size(b, d) + size(a, d) * size(b, c)) ** 2
               for a, b, c, d in quads)


def tau4_direct(f: FormMatrix) -> Multivector:
    """Fourth characteristic coefficient as the sum of squared sub-Pfaffians.

    For every a < b < c < d:  (f_ab ^ f_cd - f_ac ^ f_bd + f_ad ^ f_bc)^2,
    each square added into a running total by wedge_square.  Uses the dict
    engine only, independently of the Faddeev-LeVerrier path.  The quads are
    dealt out in turn to one worker per _FORK_MIN_WORK of _tau4_work, one
    per usable CPU at most: the caller and forked children, whose partial
    sums are added exactly.  With one worker, or without os.fork, the caller
    runs every quad and forks nothing.
    """
    if f.k < 4:
        raise ValueError("tau4 needs a matrix of size >= 4")
    from .fanout import fan_out, worker_count

    quads = list(combinations(range(f.k), 4))
    workers = worker_count(_tau4_work(f, quads) // _FORK_MIN_WORK)
    total: dict = {}
    shares = [quads[w::workers] for w in range(workers)]
    for part in fan_out(partial(_tau4_sum, f.entry_dict), shares, workers, "quad share"):
        _accumulate(total, part.items())
    return Multivector(f.n, total)
