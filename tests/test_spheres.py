"""Vector fields on spheres: counts, constructions, the documented failure."""

import numpy as np
import pytest

from octoforms.cayley_dickson import CDElement, left_mult_matrix
from octoforms.spheres import (
    VectorFieldSystem,
    _base_16,
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
            left_mult_matrix(CDElement.unit(level, t)).to_int_array()
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
