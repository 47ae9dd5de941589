"""The octonionic Hopf fibration S^15 -> S^8 in coordinates.

Points of R^16 = O^2 are octonion pairs (x, y).  The unit sphere S^8 in
O x R acts by the symmetric involutions [[r, R_conj(u)], [R_u, -r]]; the nine
standard involutions I_1..I_9 are this action at the basis vectors.  The Hopf
map is taken to be the vector of coefficients lambda with

    N = sum_a lambda_a I_a N,
    lambda_1 = 2 x.y,  lambda_{1+t} = -2 x.(y u_t)  (u_t = i..h),
    lambda_9 = |x|^2 - |y|^2,

which is constant on fibers and satisfies sum lambda^2 = 1 on the sphere.
Off the sphere each lambda is homogeneous of degree 2.  The line at infinity
l_inf = {(0, y)} maps to (0,...,0,-1) in this chart; the paper's prose places
it over the north pole, a sign convention documented here and not patched.

The nine I_a are signed permutations, held as ``linalg.SignedPerm``, so each
section I_a N is an exact O(16) gather, and so is each right multiplication
y -> y u_t in lambda; ``reconstruct`` runs over Z.  The action at a general
rational (u, r) is an exact ``dtype=object`` array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .cayley_dickson import CDElement, right_mult_matrix, unit_right_mults
from .clifford import standard_system
from .linalg import _clear_denominators, _dot


@dataclass(frozen=True)
class SpherePoint16:
    """A point (x, y) of O^2 with rational coordinates on the unit sphere.

    Membership is exact and checked over Z: with z = scale (x, y) integral
    (``linalg._clear_denominators``), the point is on the sphere when
    sum z^2 == scale^2.  A float coordinate is read as the dyadic rational it
    stores, so a float point counts only when it lies on the sphere exactly:
    (0.6, 0.8, 0, ...) is refused, (0.5, 0.5, 0.5, 0.5, 0, ...) is kept.
    """

    x: CDElement
    y: CDElement

    def __post_init__(self):
        if self.x.level != 3 or self.y.level != 3:
            raise ValueError("coordinates must be octonions (level 3)")
        z, scale = _clear_denominators(self.coords())
        if _dot(z, z) != scale * scale:
            raise ValueError("point is not on the unit sphere")

    def coords(self) -> tuple:
        return self.x.coeffs + self.y.coeffs


@lru_cache(maxsize=1)
def spin9_involutions() -> tuple:
    return standard_system("spin9").mats


def hopf_action(u: CDElement, r) -> np.ndarray:
    """The symmetric involution of the unit vector (u, r) in S^8 = O x R.

    Unit length is checked over Z, as in ``SpherePoint16``: a float
    coordinate is read as the dyadic rational it stores, so (0.6, 0.8, 0, ...)
    with r = 0 is refused, and a non-finite one is a ValueError.
    """
    if u.level != 3:
        raise ValueError("u must be an octonion")
    z, scale = _clear_denominators(u.coeffs + (r,))
    if _dot(z, z) != scale * scale:
        raise ValueError("(u, r) must be a unit vector")
    eye = np.eye(8, dtype=object)
    return np.block(
        [[r * eye, right_mult_matrix(u.conjugate())], [right_mult_matrix(u), -r * eye]]
    )


def lambda_coeffs_raw(x: CDElement, y: CDElement) -> tuple:
    """The nine lambda values without the sphere-membership check."""
    lam = [2 * _dot(x.coeffs, y.coeffs)]
    for r in unit_right_mults(3)[1:]:  # y -> y u_t, u_t = i..h
        lam.append(-2 * _dot(x.coeffs, r.apply(y.coeffs)))
    lam.append(x.norm2() - y.norm2())
    return tuple(lam)


def lambda_coeffs(p: SpherePoint16) -> tuple:
    """lambda with sum lambda^2 = 1 and N = sum lambda_a I_a N, both exact."""
    lam = lambda_coeffs_raw(p.x, p.y)
    if sum(v * v for v in lam) != 1:
        raise AssertionError("sum of squared lambda coefficients is not 1")
    return lam


def spin9_sections(p: SpherePoint16) -> list:
    """The nine vectors I_a N at N = p, as exact coordinate lists."""
    coords = p.coords()
    return [a.apply(coords) for a in spin9_involutions()]


def reconstruct(p: SpherePoint16) -> list:
    """sum_a lambda_a I_a N; equals N exactly on the sphere.

    z = scale N is integral and lambda is homogeneous of degree 2, so the
    sphere check reads sum lambda(z)^2 = scale^4 and the sum is scale^3 N.
    """
    z, scale = _clear_denominators(p.coords())
    lam = lambda_coeffs_raw(CDElement(3, z[:8]), CDElement(3, z[8:]))
    if sum(v * v for v in lam) != scale ** 4:
        raise AssertionError("sum of squared lambda coefficients is not 1")
    sections = [a.apply(z) for a in spin9_involutions()]
    return [Fraction(_dot(lam, col), scale ** 3) for col in zip(*sections)]


def fiber_orthogonality_check(p: SpherePoint16, fiber_tangent) -> bool:
    """True when the supplied fiber tangent is orthogonal to every I_a N."""
    tangent = list(fiber_tangent)
    if len(tangent) != 16:
        raise ValueError("tangent must have 16 coordinates")
    return all(_dot(tangent, s) == 0 for s in spin9_sections(p))


def rational_sphere_point(rng: random.Random) -> SpherePoint16:
    """Random rational point of S^15: stereographic image of a rational t.

    Over one integer denominator, t = u / q, the point is
    (2 q u, q^2 - |u|^2) / (q^2 + |u|^2).
    """
    t = [(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(15)]
    q = lcm(*(d for _, d in t))
    u = [n * (q // d) for n, d in t]
    s = sum(v * v for v in u)
    den = q * q + s
    coords = [Fraction(2 * q * v, den) for v in u] + [Fraction(q * q - s, den)]
    return SpherePoint16(
        x=CDElement(3, coords[:8]), y=CDElement(3, coords[8:])
    )
