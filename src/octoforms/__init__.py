"""Exact-arithmetic kernel for octonionic geometry.

Cayley-Dickson algebras, Clifford systems, the Spin(9) canonical 8-form and
its independent constructions, maximal vector-field systems on spheres, the
octonionic Hopf fibration, and even Clifford structures on model spaces.
"""

# The int64 kernels (the wedge kernel, Berger's exact contractions, the
# sampled field checks) keep their products below this.  It lives here so
# that berger reads it without loading linalg.
_INT64_SAFE = 2**62
