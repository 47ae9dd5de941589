"""Exact-arithmetic kernel for octonionic geometry.

Cayley-Dickson algebras, Clifford systems, the Spin(9) canonical 8-form and
its independent constructions, maximal vector-field systems on spheres, the
octonionic Hopf fibration, and even Clifford structures on model spaces.
"""
