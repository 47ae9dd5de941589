"""The octonionic Hopf fibration S^15 -> S^8 in exact coordinates.

The lambda coefficients express the unit normal N through the nine sections
I_a N; they are constant along the octonionic lines and realize the Hopf map.
Everything below is exact rational arithmetic on exact sphere points.
"""

import random
from fractions import Fraction

import numpy as np

from octoforms.cayley_dickson import CDElement
from octoforms.hopf import (
    SpherePoint16,
    fiber_orthogonality_check,
    hopf_action,
    lambda_coeffs,
    lambda_coeffs_raw,
    rational_sphere_point,
    reconstruct,
)

rng = random.Random(0)
p = rational_sphere_point(rng)
lam = lambda_coeffs(p)
print("A rational point of S^15 has lambda =")
print("  ", [str(Fraction(v)) for v in lam])
print("sum lambda^2 == 1:", sum(v * v for v in lam) == 1)
print("N == sum lambda_a I_a N:", reconstruct(p) == list(p.coords()))

# --- fibers --------------------------------------------------------------------
i3 = CDElement.unit(3, 1)
print("\nTwo points of the line l_i = {(x, xi)}:")
vals = []
for x in (CDElement.unit(3, 0), CDElement.unit(3, 2)):
    y = x * i3
    raw = lambda_coeffs_raw(x, y)
    n = x.norm2() + y.norm2()
    vals.append(tuple(Fraction(v, 1) / n for v in raw))
print("  identical lambda:", vals[0] == vals[1])

zero = CDElement.zero(3)
p_inf = SpherePoint16(x=zero, y=CDElement.unit(3, 0))
print("l_infinity maps to:", lambda_coeffs(p_inf))

print("\nFiber tangents are orthogonal to every I_a N:")
w = CDElement.unit(3, 5)
tangent = list(zero.coeffs) + list(w.coeffs)
print("  at (0, 1) with tangent (0, f):", fiber_orthogonality_check(p_inf, tangent))

g = hopf_action(CDElement.unit(3, 3), 0)  # an involution of the action
moved = (g @ np.array(p_inf.coords(), dtype=object)).tolist()
q = SpherePoint16(x=CDElement(3, moved[:8]), y=CDElement(3, moved[8:]))
print("  after moving point and tangent by an action involution:",
      fiber_orthogonality_check(q, (g @ np.array(tangent, dtype=object)).tolist()))
