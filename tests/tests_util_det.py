"""Exact determinant helper for test oracles (fraction-free Bareiss)."""

import math
from fractions import Fraction


def exact_det(rows) -> Fraction:
    """The determinant of a square matrix of ints or Fractions, exactly.

    Each row is scaled by the lcm of its denominators to integers, and the
    integer matrix is reduced by Bareiss elimination with row pivoting, whose
    divisions are all exact; the result is divided back by the row scales.
    """
    scale, a = 1, []
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        scale *= d
        a.append([x.numerator * (d // x.denominator) for x in row])
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        ak = a[k]
        for ai in a[k + 1 :]:
            for j in range(k + 1, n):
                ai[j] = (ai[j] * ak[k] - ai[k] * ak[j]) // prev
        prev = ak[k]
    return Fraction(sign * prev, scale)
