"""Vector fields on spheres: counts, constructions, the documented failure."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np
import pytest

import octoforms.spheres as spheres
from octoforms.cayley_dickson import CDElement, left_mult_matrix
from octoforms.clifford import VerifyReport
from octoforms.linalg import _INT64_SAFE, SignedPerm
from octoforms.spheres import (
    VectorFieldSystem,
    _base_16,
    _integer_sample_point,
    _matrix_conditions,
    build_fields,
    fixed_beta_variant,
    formal_left_mults,
    hr_decompose,
    naive_s511_extra,
    sigma,
    verify_system,
)

# the printed table row of S^{m-1} spheres with more than seven fields
TABLE_1 = {16: 8, 32: 9, 48: 8, 64: 11, 80: 8, 96: 9, 112: 8, 128: 15,
           144: 8, 160: 9, 176: 8, 192: 11, 256: 16, 512: 17}


def test_sigma_matches_printed_table():
    for m, s in TABLE_1.items():
        assert sigma(m) == s, m
    assert sigma(2) == 1 and sigma(4) == 3 and sigma(8) == 7
    assert sigma(1) == 0 and sigma(3) == 0


def test_hr_decomposition_unique_and_recomposes():
    for m in (1, 2, 12, 16, 48, 96, 256, 512, 768, 1024):
        d = hr_decompose(m)
        assert d.m == (2 * d.k + 1) * (1 << d.p) * 16**d.q == m
        assert 0 <= d.p <= 3
    with pytest.raises(ValueError):
        hr_decompose(0)


@pytest.mark.parametrize("m", [1024, 2048, 3072, 4096, 8192])
def test_out_of_scope_systems_are_refused(m):
    """q >= 3, and q = 2 with p >= 2, are refused before anything is built."""
    with pytest.raises(ValueError, match="out of scope"):
        build_fields(m)


def test_build_fields_counts_and_validity():
    for m in (2, 4, 8, 16, 32, 48, 64):
        v = build_fields(m)
        assert len(v.fields) == sigma(m)
        assert verify_system(v, samples=1, seed=0).ok, m


def test_j1_field_matches_printed_row():
    # J_1 N = (-y, x)
    v = build_fields(16)
    j1 = v.fields[0]
    want = np.block(
        [
            [np.zeros((8, 8), dtype=np.int64), -np.eye(8, dtype=np.int64)],
            [np.eye(8, dtype=np.int64), np.zeros((8, 8), dtype=np.int64)],
        ]
    )
    assert np.array_equal(j1, want)


def test_s31_ninth_field_row():
    # D(L_i N) = (-x^2, y^2, x^1, -y^1) on R^32 = two sedenion slots
    v = build_fields(32)
    ninth = v.fields[8]
    x = np.arange(1, 33, dtype=np.int64)
    out = ninth @ x
    x1, y1, x2, y2 = x[:8], x[8:16], x[16:24], x[24:32]
    want = np.concatenate([-x2, y2, x1, -y1])
    assert np.array_equal(out, want)


def test_printed_l8_table_fails_and_corrected_passes():
    # the printed L_e row sends two slots to s6: no signed permutation
    with pytest.raises(ValueError, match="not a signed permutation"):
        _base_16(3, printed=True)
    corrected = _base_16(3, printed=False)
    assert not _matrix_conditions(corrected)
    auto = build_fields(128)
    assert auto.notes and "L_e" in auto.notes[0]
    assert verify_system(auto, samples=1).ok


def test_printed_l_tables_match_left_mults_at_low_levels():
    # the printed p = 1, 2 tables equal the genuine left multiplications
    for l, level in ((2, 1), (4, 2)):
        printed = formal_left_mults(l, printed=True)
        derived = [
            left_mult_matrix(CDElement.unit(level, t))
            for t in range(1, l)
        ]
        for a, b in zip(printed, derived):
            assert np.array_equal(a, b)
    # at level 3 exactly one entry of one row differs (the L_e typo)
    printed = formal_left_mults(8, printed=True)
    derived = formal_left_mults(8, printed=False)
    diffs = sum(int((a != b).sum()) for a, b in zip(printed, derived))
    assert diffs == 2  # the k s6 entry sits where k s8 belongs


def test_s255_system():
    v = build_fields(256)
    assert len(v.fields) == 16
    assert verify_system(v, samples=1, seed=1).ok


def test_s511_system_and_documented_failure():
    v = build_fields(512)
    assert len(v.fields) == 17
    assert verify_system(v, samples=1, seed=1).ok
    naive = naive_s511_extra()
    # orthogonal to the level-1 fields
    assert not _matrix_conditions(list(v.fields[:8]) + [naive])
    # but not to the level-2 fields
    failures = _matrix_conditions(list(v.fields[8:16]) + [naive])
    assert failures


def test_diagonal_extension_preserves_invariants():
    for m in (48, 80):  # k = 1, 2 times the 16-dimensional base
        v = build_fields(m)
        assert len(v.fields) == 8
        assert verify_system(v, samples=1).ok


def test_fixed_beta_variants_all_pass():
    for beta in range(1, 10):
        v = fixed_beta_variant(beta)
        assert len(v.fields) == 8
        assert verify_system(v, samples=1).ok, beta
    with pytest.raises(ValueError):
        fixed_beta_variant(10)


def test_q3_unsupported():
    with pytest.raises(ValueError):
        build_fields(16**3)


def test_fields_past_the_size_bound_are_refused():
    """An m past spheres._MAX_FIELDS_DIM is refused before anything is built,
    even where its decomposition is in scope; the largest q = 2 system under
    the bound is accepted."""
    assert spheres.check_scope(65024) == hr_decompose(65024)
    for m in (65537, 66048):
        with pytest.raises(ValueError, match="out of scope: m <= 65536"):
            build_fields(m)


def test_broken_systems_fail():
    v = build_fields(16)
    dup = VectorFieldSystem(m=16, fields=(v.fields[0], v.fields[0]))
    assert not verify_system(dup, samples=0).ok
    eye = np.eye(16, dtype=np.int64)
    ident = VectorFieldSystem(m=16, fields=(eye,))
    rep = verify_system(ident, samples=0)
    assert not rep.ok and any("skew" in f for f in rep.failures)
    # the sampled-point check names exactly the broken condition: a field
    # paired with itself is not orthogonal, the identity is not tangent, and
    # every |A x|^2 still matches |x|^2
    at_point = [f for f in verify_system(dup, samples=1).failures if "sample point" in f]
    assert at_point == ["fields 0,1 not orthonormal at sample point"]
    at_point = [f for f in verify_system(ident, samples=1).failures if "sample point" in f]
    assert at_point == ["field 0 not tangent at sample point"]
    with pytest.raises(ValueError):
        VectorFieldSystem(m=2, fields=(np.array([[0, 2], [-2, 0]]),))


def _fraction_point(m, rng):
    """The rational unit point of S^(m-1) built from Fractions: the
    stereographic image of t, each t_i drawn with its own denominator."""
    t = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m - 1)]
    s = sum((c * c for c in t), Fraction(0))
    point = [2 * c / (1 + s) for c in t] + [(1 - s) / (1 + s)]
    assert sum(c * c for c in point) == 1
    return point


def test_integer_sample_point_is_on_the_fraction_points_ray():
    """The integer sample point is a positive multiple of the Fraction
    point from the same draws."""
    for m in (1, 2, 16, 48, 512):
        for seed in range(4):
            x = _integer_sample_point(m, random.Random(seed))
            point = _fraction_point(m, random.Random(seed))
            i = next(i for i, c in enumerate(point) if c)
            scale = Fraction(x[i]) / point[i]
            assert scale > 0 and [scale * c for c in point] == x, (m, seed)


def _fraction_point_report(v, samples, seed):
    """verify_system at the Fraction point scaled by the lcm of its
    denominators: the reference for the integer sample points."""
    failures = list(_matrix_conditions(list(v.fields)))
    rng = random.Random(seed)
    for _ in range(samples):
        point = _fraction_point(v.m, rng)
        scale = lcm(*(c.denominator for c in point))
        x = [int(c * scale) for c in point]
        images = [a.apply(x) for a in v.fields]
        for idx, ax in enumerate(images):
            if sum(p * q for p, q in zip(ax, x)) != 0:
                failures.append(f"field {idx} not tangent at sample point")
        norm2 = sum(c * c for c in x)
        for i in range(len(images)):
            for j in range(i, len(images)):
                dot = sum(p * q for p, q in zip(images[i], images[j]))
                if dot != (norm2 if i == j else 0):
                    failures.append(f"fields {i},{j} not orthonormal at sample point")
    return VerifyReport(ok=not failures, failures=tuple(failures))


def test_integer_sample_points_give_the_fraction_reports():
    """Every sphere's report, and those of broken systems, equal the reports
    at the Fraction sample points; the naive S^511 system still fails."""
    systems = [build_fields(m) for m in (1, 2, 4, 8, 16, 32, 48, 64, 128, 256, 512)]
    v16, v512 = systems[4], systems[-1]
    naive = VectorFieldSystem(m=512, fields=v512.fields[:16] + (naive_s511_extra(),))
    systems += [
        naive,
        VectorFieldSystem(m=16, fields=(v16.fields[0], v16.fields[0])),
        VectorFieldSystem(m=16, fields=(np.eye(16, dtype=np.int64),)),
    ]
    for v in systems:
        for seed in (0, 1):
            assert verify_system(v, samples=2, seed=seed) == _fraction_point_report(v, 2, seed), v.m
    rep = verify_system(naive, samples=1)
    assert not rep.ok and any("sample point" in f for f in rep.failures)


def _matrix_conditions_reference(fields):
    """The per-pair matrix conditions, one SignedPerm product and transpose
    per pair: the oracle for the stacked _matrix_conditions."""
    failures = [f"field {i} is not skew" for i, a in enumerate(fields) if a.T != -a]
    transposes = [a.T for a in fields]
    for i, j in combinations(range(len(fields)), 2):
        g = transposes[i] @ fields[j]
        if g.T != -g:
            failures.append(f"fields {i},{j} break A^T B + B^T A = 0")
    return failures


def _verify_system_reference(v, samples, seed):
    """verify_system with the matrix conditions and the sample points checked
    pair by pair in Python ints: the oracle for the stacked checks."""
    failures = _matrix_conditions_reference(list(v.fields))
    rng = random.Random(seed)
    for _ in range(samples):
        x = spheres._integer_sample_point(v.m, rng)
        norm2 = sum(c * c for c in x)
        images = []
        for idx, a in enumerate(v.fields):
            ax = a.apply(x)
            images.append(ax)
            if sum(p * q for p, q in zip(ax, x)) != 0:
                failures.append(f"field {idx} not tangent at sample point")
        for i in range(len(images)):
            for j in range(i, len(images)):
                want = norm2 if i == j else 0
                if sum(p * q for p, q in zip(images[i], images[j])) != want:
                    failures.append(f"fields {i},{j} not orthonormal at sample point")
    return VerifyReport(ok=not failures, failures=tuple(failures))


def _flip_one_sign(a, row):
    sign = a.sign.copy()
    sign[row] = -sign[row]
    return SignedPerm(a.perm, sign)


def _oracle_systems():
    """The ten acceptance systems, the naive S^511 mixes, and broken systems:
    a duplicated field, the identity field, one flipped sign."""
    systems = [build_fields(m) for m in (2, 4, 8, 16, 32, 48, 64, 128, 256, 512)]
    v16, v32, v512 = systems[3], systems[4], systems[-1]
    naive = naive_s511_extra()
    eye = SignedPerm.identity(16)
    flipped = list(v32.fields)
    flipped[4] = _flip_one_sign(flipped[4], 7)
    return systems + [
        VectorFieldSystem(m=512, fields=v512.fields[8:16] + (naive,)),
        VectorFieldSystem(m=512, fields=v512.fields[:16] + (naive,)),
        VectorFieldSystem(m=16, fields=(v16.fields[0], v16.fields[0])),
        VectorFieldSystem(m=16, fields=v16.fields[:3] + (v16.fields[1],) + v16.fields[3:]),
        VectorFieldSystem(m=16, fields=(eye,)),
        VectorFieldSystem(m=16, fields=v16.fields[:5] + (eye,) + v16.fields[5:]),
        VectorFieldSystem(m=32, fields=tuple(flipped)),
        VectorFieldSystem(m=16, fields=(_flip_one_sign(v16.fields[2], 0),)),
        VectorFieldSystem(m=3, fields=()),
    ]


def test_stacked_checks_give_the_per_pair_reports():
    """The stacked matrix conditions and sample-point checks report the same
    failures, in the same order, as the per-pair reference."""
    broken = 0
    for v in _oracle_systems():
        fields = list(v.fields)
        assert _matrix_conditions(fields) == _matrix_conditions_reference(fields), v.m
        for seed in (0, 1):
            rep = verify_system(v, samples=2, seed=seed)
            assert rep == _verify_system_reference(v, 2, seed), (v.m, seed)
        broken += not rep.ok
    assert broken == 8


def test_sample_point_int64_bound_edge(monkeypatch):
    """A sample point with |x|^2 = _INT64_SAFE - 1 is checked exactly; one
    with |x|^2 = _INT64_SAFE raises.  The points are patched in for
    _integer_sample_point; on the sphere S^3 the quaternion fields pass, and
    a duplicated field fails with Gram entries of |x|^2 itself."""
    below = [2**31 - 1, 65535, 362, 5]
    assert sum(c * c for c in below) == _INT64_SAFE - 1
    v4 = build_fields(4)
    dup = VectorFieldSystem(m=4, fields=(v4.fields[0], v4.fields[1], v4.fields[1]))
    monkeypatch.setattr(spheres, "_integer_sample_point", lambda m, rng: list(below))
    assert verify_system(v4, samples=1).ok
    rep = verify_system(dup, samples=1)
    assert rep == _verify_system_reference(dup, 1, 0)
    assert "fields 1,2 not orthonormal at sample point" in rep.failures
    at = [2**31, 0, 0, 0]
    assert sum(c * c for c in at) == _INT64_SAFE
    monkeypatch.setattr(spheres, "_integer_sample_point", lambda m, rng: list(at))
    with pytest.raises(ValueError, match="int64 bound"):
        verify_system(v4, samples=1)
    assert verify_system(v4, samples=0).ok
