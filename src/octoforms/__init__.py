"""Exact-arithmetic kernel for octonionic geometry.

Cayley-Dickson algebras, Clifford systems, the Spin(9) canonical 8-form and
its independent constructions, maximal vector-field systems on spheres, the
octonionic Hopf fibration, and even Clifford structures on model spaces.
"""

from .cayley_dickson import CDElement, cd_mul, right_mult_matrix, left_mult_matrix
from .clifford import CliffordSystem, delta, extend, standard_system, verify
from .exterior import FormMatrix, Multivector, charpoly_coeffs, kahler_form, tau4_direct
from .linalg import lie_closure_dim, rank

__all__ = [
    "CDElement",
    "CliffordSystem",
    "FormMatrix",
    "Multivector",
    "cd_mul",
    "charpoly_coeffs",
    "delta",
    "extend",
    "kahler_form",
    "left_mult_matrix",
    "lie_closure_dim",
    "rank",
    "right_mult_matrix",
    "standard_system",
    "tau4_direct",
    "verify",
]
