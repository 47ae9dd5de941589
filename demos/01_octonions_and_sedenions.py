"""A walk up the Cayley-Dickson tower: R -> C -> H -> O -> S.

Each level doubles the previous one; multiplication follows
(a, b)(c, d) = (ac - conj(d) b, b conj(c) + d a).  Along the way the algebra
loses order, commutativity, associativity, and finally (at the sedenions)
freedom from zero divisors.
"""

import numpy as np

from octoforms.cayley_dickson import (
    CDElement,
    associator,
    conjugate,
    mult_table_json,
    norm2,
    octonion_unit,
    right_mult_matrix,
)

# --- octonion basics ---------------------------------------------------------
i, j, k = octonion_unit("i"), octonion_unit("j"), octonion_unit("k")
e, f, g, h = (octonion_unit(n) for n in "efgh")

print("The basis (1, i, j, k, e, f, g, h) is wired so that")
print("  i*e == f:", i * e == f)
print("  j*e == g:", j * e == g)
print("  k*e == h:", k * e == h)

print("\nQuaternions associate:", associator(
    CDElement.unit(2, 1), CDElement.unit(2, 2), CDElement.unit(2, 3)).is_zero())
print("Octonions do not:     [i, j, e] =", list(associator(i, j, e).coeffs))
print("...but an associator with a repeated slot dies:",
      associator(i, i, j).is_zero())

# --- the composition law and where it stops ---------------------------------
x = CDElement.from_real(3, 2) + i  # 2 + i
y = j - h
print("\n|xy|^2 == |x|^2 |y|^2 for octonions:",
      norm2(x * y) == norm2(x) * norm2(y))

s = lambda t: CDElement.unit(4, t)
zd1, zd2 = s(2) - s(11), s(7) + s(14)
print("Sedenion zero divisor: (e2 - e11)(e7 + e14) =",
      "0" if (zd1 * zd2).is_zero() else "nonzero",
      "with |x|^2 |y|^2 =", norm2(zd1) * norm2(zd2))

# --- multiplication as matrices ----------------------------------------------
ri = right_mult_matrix(i)  # an exact dtype=object array
print("\nRight multiplication by i is skew:", np.array_equal(ri, -ri.T),
      "and squares to -Id:", np.array_equal(ri @ ri, -right_mult_matrix(octonion_unit("1"))))

print("\nConjugation reverses products: conj(xy) == conj(y) conj(x):",
      conjugate(x * y) == conjugate(y) * conjugate(x))

rows = mult_table_json(2)
print("\nJSON multiplication table of H has", len(rows), "rows; i*j ->",
      rows[1 * 4 + 2]["product"])
