"""The canonical 8-form: all of its constructions agree, exactly."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from octoforms import canonical, exterior
from octoforms.canonical import (
    FPQReport,
    _fpq_values,
    _manifold_classes,
    cgm_form,
    fpq_identity_check,
    kotrbaty_psi8,
    pontrjagin_report,
    quaternionic_forms,
    render_pontrjagin_text,
    spin9_form,
    spin9_psi,
    spin9_taus,
    tau8_and_ratio,
)
from octoforms.exterior import _REAL, Multivector, _wedge_reference, tau2_direct, tau4_direct
from octoforms.linalg import _INT64_SAFE


def test_charpoly_shape():
    taus = spin9_taus()
    for j in (1, 2, 3, 5, 6, 7, 9):
        assert taus[j - 1].is_zero(), f"tau_{j} should vanish"
    assert not taus[3].is_zero() and not taus[7].is_zero()


def test_tau_grades():
    taus = spin9_taus()
    assert taus[3].is_homogeneous(8)
    assert taus[7].is_homogeneous(16)


def test_360_factor_and_gcd():
    tau4 = spin9_taus()[3]
    assert tau4.coeff_gcd() == 360
    phi = spin9_form()
    assert phi.coeff_gcd() == 1
    assert 360 * phi == tau4
    assert phi.is_integer()


def test_702_monomials():
    assert len(spin9_form()) == 702


def test_phi_wedge_phi_is_top():
    phi = spin9_form()
    sq = Multivector(16, _wedge_reference([(dict(phi.mask_items()), dict(phi.mask_items()))], _REAL))
    assert len(sq) == 1
    assert sq.coefficient(tuple(range(1, 17))) != 0


def test_cgm_equals_minus_4_tau4():
    assert cgm_form() == -4 * spin9_taus()[3]


def test_cgm_702_monomials():
    assert len(cgm_form()) == 702


def test_cgm_inner_sums_run_on_the_reference(monkeypatch):
    """Each of the 45 inner sums, 7 or 8 (a, b) pairs of 8 x 8 blades, is
    one reference call; the 45 squares are the one kernel call."""
    want, kernel, reference = cgm_form(), [], []
    real_kernel, real_reference = exterior._wedge_kernel, exterior._wedge_reference

    def spy_kernel(pairs, n, tensor, groups=1):
        out = real_kernel(pairs, n, tensor, groups)
        kernel.append((len(pairs), groups, out is not None))
        return out

    def spy_reference(pairs, tensor):
        reference.append([(len(a), len(b)) for a, b in pairs])
        return real_reference(pairs, tensor)

    monkeypatch.setattr(exterior, "_wedge_kernel", spy_kernel)
    monkeypatch.setattr(exterior, "_wedge_reference", spy_reference)
    assert cgm_form.__wrapped__() == want
    assert kernel == [(45, 1, True)]
    assert len(reference) == 45
    assert sorted(map(len, reference)) == [7] * 36 + [8] * 9
    assert {size for entry in reference for size in entry} == {(8, 8)}


def test_tau2_sum_of_squares_vanishes():
    assert tau2_direct(spin9_psi()).is_zero()


def test_tau4_dual_route():
    assert tau4_direct(spin9_psi()) == spin9_taus()[3]


def test_fpq_trivial_and_single_pair():
    zero = {(a, b): Fraction(0) for a in range(9) for b in range(a + 1, 9)}
    assert _fpq_values(zero) == (0, 0, 0)
    x = dict(zero)
    x[(0, 1)] = Fraction(1)
    f, p, q = _fpq_values(x)
    assert (f, p, q) == (2, 1, 0)
    assert f == 2 * p * p - 4 * q


def _fpq_reference(x: dict):
    """F, P, Q by Fraction arithmetic on the entries as given."""

    def ent(a, b):
        if a == b:
            return Fraction(0)
        if a < b:
            return x[(a, b)]
        return -x[(b, a)]

    f = Fraction(0)
    for a in range(9):
        for b in range(9):
            for a2 in range(9):
                for b2 in range(9):
                    f += ent(a, b) * ent(a, b2) * ent(a2, b) * ent(a2, b2)
    p = sum(x[k] * x[k] for k in x)
    q = Fraction(0)
    for a1, a2, a3, a4 in combinations(range(9), 4):
        pf = ent(a1, a2) * ent(a3, a4) - ent(a1, a3) * ent(a2, a4) + ent(a1, a4) * ent(a2, a3)
        q += pf * pf
    return f, p, q


def test_fpq_values_match_fraction_reference():
    for seed, dens in ((0, (1, 4)), (1, (5,)), (2, (1, 2, 3, 6))):
        rng = random.Random(seed)
        x = {
            (a, b): Fraction(rng.randint(-12, 12), rng.choice(dens))
            for a in range(9)
            for b in range(a + 1, 9)
        }
        assert _fpq_values(x) == _fpq_reference(x), seed


def _trials(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [canonical._random_skew_entries(rng) for _ in range(count)]


# trials 0, 5, the last of the first chunk and one in the third chunk are
# broken, each with a later trial broken too
@pytest.mark.parametrize("k", [0, 5, canonical._FPQ_CHUNK - 1, 2 * canonical._FPQ_CHUNK + 3])
def test_fpq_reports_the_first_broken_trial(monkeypatch, k):
    real, seen = canonical._fpq_ints, [0]

    def broken(ints):
        f, p, q = real(ints)
        start = seen[0]
        seen[0] += len(f)
        for t in (k, k + 2):
            if start <= t < seen[0]:
                f[t - start] += 1
        return f, p, q

    monkeypatch.setattr(canonical, "_fpq_ints", broken)
    rep = fpq_identity_check(3 * canonical._FPQ_CHUNK, seed=3)
    assert rep == FPQReport(trials=k + 1, all_exact=False, first_failure=_trials(3, k + 1)[k])


def test_fpq_chunks_match_a_per_trial_reference(monkeypatch):
    """Nine trials in chunks of 4, 4 and 1: every row of every chunk is its
    trial's F, P, Q over Z, and the report is the per-trial loop's."""
    monkeypatch.setattr(canonical, "_FPQ_CHUNK", 4)
    real, rows = canonical._fpq_ints, []

    def spy(ints):
        out = real(ints)
        rows.extend(zip(*out))
        return out

    monkeypatch.setattr(canonical, "_fpq_ints", spy)
    rep = fpq_identity_check(9, seed=5)
    xs = _trials(5, 9)
    refs = [_fpq_reference(x) for x in xs]
    want = FPQReport(trials=9, all_exact=True, first_failure=None)
    for t, (f, p, q) in enumerate(refs):
        if f != 2 * p * p - 4 * q:
            want = FPQReport(trials=t + 1, all_exact=False, first_failure=xs[t])
            break
    assert rep == want
    assert len(rows) == 9
    for (f, p, q), x, ref in zip(rows, xs, refs):
        s = lcm(*(v.denominator for v in x.values()))
        assert (Fraction(int(f), s**4), Fraction(int(p), s**2), Fraction(int(q), s**4)) == ref


def test_fpq_int64_guard_edge():
    """The largest top with 9^4 top^4 < 2^62 runs and matches the Fraction
    reference; top + 1 raises, also when it is reached only by clearing a
    denominator."""
    limit = canonical._FPQ_TOP_LIMIT
    assert 9**4 * (limit - 1) ** 4 < _INT64_SAFE <= 9**4 * limit**4
    rng = random.Random(9)
    x = {k: Fraction(rng.choice([-1, 1]) * rng.randint(limit // 2, limit - 1)) for k in canonical._UPPER}
    x[(0, 1)], x[(2, 3)] = Fraction(limit - 1), Fraction(1 - limit)
    assert _fpq_values(x) == _fpq_reference(x)
    x[(4, 5)] = Fraction(limit)
    with pytest.raises(ValueError):
        _fpq_values(x)
    half = {k: Fraction(limit // 2 + 1) for k in canonical._UPPER}
    half[(7, 8)] = Fraction(1, 2)  # every entry below the limit, 2 (limit // 2 + 1) past it
    with pytest.raises(ValueError):
        _fpq_values(half)


def test_fpq_random_trials():
    rep = fpq_identity_check(15, seed=7)
    assert rep.all_exact and rep.first_failure is None


def test_fpq_rejects_zero_trials():
    with pytest.raises(ValueError):
        fpq_identity_check(0)


def test_quaternionic_table_entries():
    theta, _ = quaternionic_forms()
    t12 = theta.entry(0, 1)
    assert t12.coefficient((1, 2)) == -1
    assert t12.coefficient((3, 4)) == 1
    assert t12.coefficient((5, 6)) == 1
    assert t12.coefficient((7, 8)) == -1
    assert len(t12) == 4


def test_quaternionic_tau2_identity():
    theta, omega_l = quaternionic_forms()
    t2 = tau2_direct(theta)
    assert t2.coefficient((1, 2, 3, 4)) == -12
    assert t2 == -2 * omega_l


def test_quaternionic_tau4_top_form():
    theta, _ = quaternionic_forms()
    t4 = tau4_direct(theta)
    assert not t4.is_zero()
    assert t4.is_homogeneous(8)  # a top form on R^8


def test_kotrbaty_identities():
    inter, psi8 = kotrbaty_psi8()
    assert inter["psi8"].imaginary_is_zero()
    assert psi8.exact_div(-2880) == spin9_form()
    assert spin9_form() + psi8.exact_div(2880) == Multivector.zero(16)


def test_kotrbaty_grades():
    inter, _ = kotrbaty_psi8()
    for name in ("psi40", "psi31", "psi13", "psi04"):
        assert inter[name].grades() == {4}, name


def test_tau8_and_ratio():
    c8, ratio = tau8_and_ratio()
    assert c8 != 0
    assert isinstance(ratio, Fraction) and ratio != 0
    # recorded: the pointwise ratio (tau4 ^ tau4) / tau8 on R^16
    assert ratio == Fraction(-12)


def test_tau6_and_tau2_vanish():
    taus = spin9_taus()
    assert taus[1].is_zero() and taus[5].is_zero()


def test_pontrjagin_report_rows():
    rep = pontrjagin_report()
    rows = {r["class"]: r for r in rep["manifold_classes"]}
    assert rows["p1(M)"]["coefficient"] == 0
    assert rows["p3(M)"]["coefficient"] == 0
    assert rows["p2(M)"]["coefficient"] == Fraction(-45, 2)
    assert rows["p2(M)"]["pi_power"] == -4
    assert rows["p4(M)"]["coefficient"] == Fraction(-13, 256)
    assert rows["p4(M)"]["pi_power"] == -8
    assert rep["normalizations"]["tau4_content"] == 360
    text = render_pontrjagin_text(rep)
    assert "-45/2" in text and "-13/256" in text and "p1(M) = 0" in text
    assert "gcd(tau4) = 360" in text


def test_pontrjagin_manifold_classes_are_derived():
    rep = pontrjagin_report()
    bundle = rep["bundle_classes"]
    assert _manifold_classes(bundle) == rep["manifold_classes"]
    derived = [r["coefficient"] for r in _manifold_classes(bundle)]
    assert derived == [0, Fraction(-45, 2), 0, Fraction(-13, 256)]

    changed = [dict(r) for r in bundle]
    changed[1]["coefficient"] = Fraction(7, 3)
    changed[3]["coefficient"] = Fraction(1, 13)
    rows = _manifold_classes(changed)
    assert [r["coefficient"] for r in rows] == [0, Fraction(-7, 3), 0, Fraction(-1, 1)]
    assert rows[3]["of"] == "[tau8(psi)]" and rows[3]["pi_power"] == -8

    changed[0].update(coefficient=Fraction(1), pi_power=-2, of="[p1]")
    with pytest.raises(ValueError):
        _manifold_classes(changed)


def test_fl_runs_under_10s():
    import time

    from octoforms.exterior import charpoly_coeffs

    t0 = time.time()
    charpoly_coeffs(spin9_psi())
    assert time.time() - t0 < 10.0


def test_quaternionic_charpoly_routes_agree():
    from octoforms.exterior import FormMatrix, charpoly_coeffs

    theta, _ = quaternionic_forms()
    taus = charpoly_coeffs(theta)
    assert taus[1] == tau2_direct(theta)
    assert taus[3] == tau4_direct(theta)
    for j in (1, 3, 5):  # odd coefficients vanish by skew-symmetry
        assert taus[j - 1].is_zero()


def test_charpoly_of_zero_matrix():
    from octoforms.exterior import FormMatrix, charpoly_coeffs

    f = FormMatrix(1, 4, {})
    taus = charpoly_coeffs(f)
    assert len(taus) == 1 and taus[0].is_zero()
