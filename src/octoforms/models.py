"""Even Clifford structures on model spaces.

The three Cayley-Rosenfeld planes beyond F II carry generator families on
K ox R^16 for K = C, H, O: the K-units act by right multiplication on the
K factor (kron(R_u, Id16)) and the nine octonionic involutions act on the
R^16 factor (kron(Id, I_a)).  Compositions J_ab = gen_a gen_b land in skew
endomorphisms; their spans and Lie closures realize spin(10), spin(12) and
spin(16) inside the respective orthogonal algebras.  Every generator is a
signed permutation, held as ``linalg.SignedPerm``; the Kahler forms read
them as dense arrays, the Lie closures bracket them as signed permutations.

The Grassmannian families use the Spin(8) generators m_u on O + O and the
m_{u,v} = m_u m_v compositions, applied diagonally to tangent vectors listed
as octonion pairs.

``exterior`` loads only inside the four E III form functions
(``eiii_kahler``, ``eiii_form_matrix``, ``eiii_tau2``,
``eiii_tau4_nonzero``), the only ones here that wedge forms.  Building a
model, its lambda^2 family and the census run on signed permutations alone,
so ``clifford-structure`` and the field, Clifford and Hopf work that imports
this module do not compile the wedge engine in every fresh process;
``tests/test_imports.py`` pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import matmul
from typing import TYPE_CHECKING

import numpy as np

from .cayley_dickson import CDElement, right_mult_matrix, unit_right_mults
from .clifford import independence_count, standard_system
from .linalg import SignedPerm, lie_closure_dim

if TYPE_CHECKING:
    from .exterior import FormMatrix, Multivector


@dataclass(frozen=True)
class EvenCliffordModel:
    name: str
    generators: tuple  # SignedPerm

    @property
    def ambient_dim(self) -> int:
        return self.generators[0].n

    @property
    def rank(self) -> int:
        return len(self.generators)


def _rosenfeld_generators(level: int) -> list:
    """kron(R_u, Id16) for the imaginary units, then kron(Id, I_a)."""
    eye16 = SignedPerm.identity(16)
    gens = [r.kron(eye16) for r in unit_right_mults(level)[1:]]
    gens.extend(SignedPerm.identity(1 << level).kron(i_a) for i_a in standard_system("spin9").mats)
    return gens


def _m_u(t: int) -> SignedPerm:
    """offdiag(R_u, -R_conj(u)) for u = e_t; R_conj(u) = -R_u unless t = 0."""
    return SignedPerm([1, 0], [1, -1 if t == 0 else 1]).kron(unit_right_mults(3)[t])


_GENERATORS = {
    "eiii": lambda: _rosenfeld_generators(1),
    "evi": lambda: _rosenfeld_generators(2),
    "eviii": lambda: _rosenfeld_generators(3),
    "gr8r": lambda: [_m_u(t) for t in range(8)],
    # units spanning F = <1, i, j, k, e, f> inside O
    "gr4c": lambda: [_m_u(t) for t in range(6)],
    "gr2h": lambda: standard_system("quaternionic_Sp2Sp1").mats,
}
MODEL_NAMES = tuple(_GENERATORS)


def build_model(name: str) -> EvenCliffordModel:
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return EvenCliffordModel(name, tuple(_GENERATORS[name]()))


def lambda2_generators(model: EvenCliffordModel) -> list:
    """All compositions J_ab = gen_a gen_b (a < b); each must be skew."""
    out = []
    for a, b in combinations(range(len(model.generators)), 2):
        j = model.generators[a] @ model.generators[b]
        if j.T != -j:
            raise AssertionError(f"J_{a}{b} is not skew-symmetric")
        out.append(j)
    return out


def spin_generators(model: EvenCliffordModel) -> list:
    """The J_{a,last} family generating the model's spin algebra."""
    last = len(model.generators) - 1
    return [model.generators[a] @ model.generators[last] for a in range(last)]


def eiii_kahler() -> Multivector:
    """Kahler 2-form of the complex structure of the E III model space."""
    from .exterior import kahler_form

    model = build_model("eiii")
    return kahler_form(model.generators[0])


@lru_cache(maxsize=1)
def eiii_form_matrix() -> FormMatrix:
    from .exterior import FormMatrix

    model = build_model("eiii")
    return FormMatrix.from_endomorphisms(list(model.generators))


def eiii_tau2() -> Multivector:
    """tau_2 of the 10x10 matrix of Kahler forms; equals -3 omega^2."""
    from .exterior import tau2_direct

    tau2 = tau2_direct(eiii_form_matrix())
    omega = eiii_kahler()
    if tau2 != -3 * omega.wedge(omega):
        raise AssertionError("tau_2 != -3 omega^2 on the E III model")
    return tau2


def eiii_tau4_nonzero() -> bool:
    """tau_4 of the E III form matrix is a nonzero 8-form.

    Witnessed by one coefficient: the full 8-form on R^32 is expensive, and a
    single nonzero blade already settles non-vanishing.
    """
    from .exterior import tau4_coefficient

    return tau4_coefficient(eiii_form_matrix(), (1, 2, 3, 4, 5, 6, 7, 8)) != 0


def m_uv(u: CDElement, v: CDElement) -> np.ndarray:
    """diag(-R_u R_conj(v), -R_conj(u) R_v): for orthonormal octonions u, v a
    complex structure with m_vu = -m_uv.  An exact ``dtype=object`` array."""
    if u.level != 3 or v.level != 3:
        raise ValueError("u and v must be octonions")
    ru = right_mult_matrix(u)
    rv = right_mult_matrix(v)
    ruc = right_mult_matrix(u.conjugate())
    rvc = right_mult_matrix(v.conjugate())
    z = np.zeros((8, 8), dtype=object)
    return np.block([[-(ru @ rvc), z], [z, -(ruc @ rv)]])


def grassmann_phi_apply(u: CDElement, v: CDElement, tangent) -> list:
    """Apply m_uv diagonally to a tangent vector listed as octonion pairs."""
    tangent = list(tangent)
    if len(tangent) % 2:
        raise ValueError("tangent must list an even number of octonions")
    mat = m_uv(u, v)
    out = []
    for a, b in zip(tangent[::2], tangent[1::2]):
        img = (mat @ np.array(a.coeffs + b.coeffs, dtype=object)).tolist()
        out.append(CDElement(3, img[:8]))
        out.append(CDElement(3, img[8:]))
    return out


def _products(mats, k: int) -> list:
    """The products M_a M_b ... of every k of mats, indices increasing."""
    return [reduce(matmul, combo) for combo in combinations(mats, k)]


def structure_census() -> dict:
    """Independence counts and Lie-closure dimensions of the model families.

    A Clifford system C_6 cannot exist on R^8 (it needs N = 2 delta(6) = 16),
    so the 35 triple products witnessing the Spin(7) obstruction are computed
    from a C_6 inside the standard spin9 system on R^16; 35 still exceeds the
    21-dimensional component of the Spin(7) 2-form decomposition.  The
    lambda^2 closures of evi (66) and eviii (120) are ``verify``'s
    ``model-closures`` check.
    """
    spin9 = standard_system("spin9").mats
    j_pairs = _products(spin9, 2)
    j_triples = _products(spin9, 3)
    quat = standard_system("quaternionic_Sp2Sp1").mats
    eiii = build_model("eiii")
    return {
        "spin9_pairs": independence_count(j_pairs),
        "spin9_triples": independence_count(j_triples),
        "c6_triples": independence_count(_products(spin9[:7], 3)),
        "quaternionic_pairs": independence_count(_products(quat, 2)),
        "so16_dim": independence_count(j_pairs + j_triples),
        "spin7_bound": 21,
        "lie_spin9": lie_closure_dim(j_pairs),
        "lie_eiii": lie_closure_dim(spin_generators(eiii), max_dim=200),
    }
