"""Monte-Carlo line integral: oracle checks, determinism, convergence."""

import json
import math
import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from octoforms import berger, fanout
from octoforms.berger import (
    _BLOCK,
    _CHUNK,
    _MIN_GROUPS_PER_WORKER,
    _eps,
    _group_tasks,
    _group_worker,
    _narrow,
    _plan,
    _process_block,
    _sample_sphere9,
    _slot_of_mask,
    _slot_sums,
    _squares,
    _stage,
    _subsets,
    berger_mc,
    exact_mean,
    exact_second_moment,
    phi_dense,
    slot_blade,
    slot_masks,
)
from octoforms.canonical import spin9_form
from octoforms.linalg import _INT64_SAFE
from conftest import deadline, fork_counter, subprocess_env
from tests_util_det import exact_det


def test_slot_ordering():
    masks = slot_masks()
    assert len(masks) == 12870
    assert slot_blade(0) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert slot_blade(12869) == (9, 10, 11, 12, 13, 14, 15, 16)


def test_slot_masks_are_the_lexicographic_combinations():
    """The masks read off a popcount and a sort are the masks of the
    lexicographic 8-subsets of range(16), in order and dtype."""
    want = _subsets(16, 8)[1]
    got = slot_masks()
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_eps_signs_against_exact_determinants():
    """eps(S) must satisfy det[E_S | A_T] = eps * det(A[S^c, T])."""
    rng = np.random.default_rng(0)
    a = rng.integers(-9, 9, size=(8, 8))
    from itertools import combinations

    for k in range(9):
        for s_bits in combinations(range(8), k):
            t_bits = tuple(range(8 - k))  # one T per S suffices: eps is T-free
            cols = []
            for s in s_bits:
                col = [0] * 8
                col[s] = 1
                cols.append(col)
            for t in t_bits:
                cols.append([int(a[i, t]) for i in range(8)])
            mat = [[cols[j][i] for j in range(8)] for i in range(8)]
            comp = [i for i in range(8) if i not in s_bits]
            minor = [[int(a[i, t]) for t in t_bits] for i in comp]
            want = exact_det(mat)
            got = _eps(s_bits) * (exact_det(minor) if minor else 1)
            assert want == got, (s_bits,)


def _block_slot_sums(seed, block, count):
    """The slot sums of one block: its monomial moments, contracted."""
    moments = np.zeros(_plan()["moments"])
    _process_block(seed, block, count, moments)
    return _slot_sums(moments)


def test_block_slot_values_against_determinant_oracle():
    """Recompute a handful of slot values of one tiny block directly."""
    count = 8
    sums = _block_slot_sums(123, 0, count)

    v = _sample_sphere9(123, 0, count)
    from octoforms.cayley_dickson import CDElement

    total = np.zeros(12870)
    for s in range(count):
        u8, r = v[s, :8], v[s, 8]
        m = u8 / (1.0 + r)
        mm = float(m @ m)
        rows = []
        for i in range(8):
            e = [0.0] * 8
            e[i] = 1.0
            prod = CDElement(3, [float(x) for x in e]) * CDElement(3, list(map(float, m)))
            rows.append(list(e) + [float(c) for c in prod.coeffs])
        b = np.array(rows) / np.sqrt(1.0 + mm)
        for slot in (0, 1, 5000, 12869):
            blade = [i - 1 for i in slot_blade(slot)]
            sub = b[:, blade]
            total[slot] += -np.linalg.det(sub)  # estimator orientation flip
    for slot in (0, 1, 5000, 12869):
        assert np.isclose(total[slot], sums[slot], rtol=1e-6, atol=1e-9), slot


def test_every_slot_against_float64_determinants():
    """All 12870 slot sums of a 16-sample block against float64 determinants.

    Each slot value is -det of the 8x8 submatrix of the orthonormal line
    basis [I | A] / sqrt(1 + |m|^2), summed over the samples; this pins the
    sign and the |m| power of every Jacobi complementary minor.  The
    tolerance is 8 float32 epsilons of each slot's Hadamard bound
    |m|^|T| / (1 + |m|^2)^4, summed over the samples; the float64 monomial
    moments meet it with a wide margin.
    """
    from octoforms.cayley_dickson import CDElement

    count = 16
    sums = _block_slot_sums(123, 0, count)

    masks = slot_masks()
    cols = np.array([[i for i in range(16) if int(m) >> i & 1] for m in masks])
    n_primed = (cols >= 8).sum(axis=1)
    want = np.zeros(12870)
    scale = np.zeros(12870)
    for v in _sample_sphere9(123, 0, count):
        m = v[:8] / (1.0 + v[8])
        mm = float(m @ m)
        m_oct = CDElement(3, [float(x) for x in m])
        a = np.array(
            [[float(c) for c in (CDElement.unit(3, i) * m_oct).coeffs] for i in range(8)]
        )
        basis = np.hstack([np.eye(8), a]) / np.sqrt(1.0 + mm)
        want -= np.linalg.det(np.transpose(basis[:, cols], (1, 0, 2)))  # orientation flip
        scale += np.sqrt(mm) ** n_primed / (1.0 + mm) ** 4

    tol = 8 * np.finfo(np.float32).eps
    # every slot is far from zero at this tolerance, so no sign can slip
    assert np.all(np.abs(want) > 2 * tol * scale)
    assert np.all(np.abs(sums - want) <= tol * scale)


def test_bit_reproducibility_across_workers():
    f1, r1 = berger_mc(3000, seed=42, workers=1)
    f2, r2 = berger_mc(3000, seed=42, workers=2)
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert np.array_equal(f1.sigma, f2.sigma)
    assert r1.fitted_scale == r2.fitted_scale
    f3, _ = berger_mc(3000, seed=43, workers=1)
    assert not np.array_equal(f1.coeffs, f3.coeffs)


def _skewed_group(args):
    """Stand-in group worker whose float64 fold depends on the order: group 0
    returns 2^53 in every monomial moment and finishes last, every other
    group returns 1."""
    _, blocks, _ = args
    if blocks.start:
        return np.ones(_plan()["moments"])
    time.sleep(0.2)
    return np.full(_plan()["moments"], 2.0**53)


def test_groups_fold_in_index_order(monkeypatch, no_child_left):
    """Both paths fold group results in group order, whatever order they
    finish in.  (The stand-in makes the order show in every moment, which
    real sums do only now and then.)"""
    samples = 64 * 1024
    values = [2.0**53] + [1.0] * (len(_group_tasks(samples, 0)) - 1)

    def fold(vs):
        total = 0.0
        for v in vs:
            total += v
        return total

    def coeffs(total):
        return _slot_sums(np.full(_plan()["moments"], total)) / samples

    in_order = fold(values)
    assert in_order != fold(values[::-1])
    assert not np.array_equal(coeffs(in_order), coeffs(fold(values[::-1])))
    monkeypatch.setattr(berger, "_group_worker", _skewed_group)
    for workers in (1, 2):
        form, _ = berger_mc(samples, seed=0, workers=workers)
        assert np.array_equal(form.coeffs, coeffs(in_order)), workers


def test_pool_capped_by_cpu_affinity(monkeypatch):
    """A process allowed one CPU forks nothing, with the same bits, at a
    size where two CPUs would fork a worker, and reports the one worker
    that ran."""
    samples = 2 * _MIN_GROUPS_PER_WORKER * _BLOCK
    want, _ = berger_mc(samples, seed=42, workers=1)

    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    forks = fork_counter(monkeypatch)
    got, rep = berger_mc(samples, seed=42, workers=2)
    assert forks == [], "workers were forked on a 1-CPU affinity"
    assert rep.workers == 1
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(got.sigma, want.sigma)


def test_pool_started_only_for_enough_groups(monkeypatch, no_child_left):
    """A second worker runs only when each gets _MIN_GROUPS_PER_WORKER
    groups, up to the usable CPUs, by default as under a cap: the caller is
    one worker and forks the other.  The report counts the workers that ran,
    and the bits do not depend on whether one was forked."""
    forks = fork_counter(monkeypatch)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    edge = 2 * _MIN_GROUPS_PER_WORKER * _BLOCK
    for samples, forked in ((2048, 0), (edge - _BLOCK, 0), (edge, 1), (65536, 1)):
        forks.clear()
        want, rep = berger_mc(samples, seed=2, workers=1)
        assert (len(forks), rep.workers) == (0, 1), samples
        for cap in ({}, {"workers": 2}, {"workers": 3}):
            got, rep = berger_mc(samples, seed=2, **cap)
            assert len(forks) == forked and rep.workers == forked + 1, (samples, cap)
            assert np.array_equal(got.coeffs, want.coeffs), (samples, cap)
            assert np.array_equal(got.sigma, want.sigma), (samples, cap)
            forks.clear()


def test_serial_without_fork(monkeypatch):
    """Where os.fork is missing the groups run in the caller, with the same
    bits, and nothing tries to fork."""
    samples = 2 * _MIN_GROUPS_PER_WORKER * _BLOCK
    want, _ = berger_mc(samples, seed=8, workers=1)

    forks = fork_counter(monkeypatch)
    monkeypatch.delattr(fanout.os, "fork")
    got, rep = berger_mc(samples, seed=8, workers=2)
    assert forks == [] and rep.workers == 1
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(got.sigma, want.sigma)


def test_failed_worker_raises_after_reaping(monkeypatch, no_child_left):
    """A forked group worker that raises makes berger_mc raise RuntimeError
    naming the group, without hanging, starting a thread or leaving a child;
    the other forked worker is killed in the 30 s group it has started, not
    waited for.  With three workers, groups 4 and 5 are the two children's."""

    def failing(args):
        if args[1].start == 4:
            raise ValueError("group 4 fails")
        if args[1].start == 5:
            time.sleep(30)
        return np.zeros(_plan()["moments"])

    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    monkeypatch.setattr(berger, "_group_worker", failing)
    threads = threading.active_count()
    with deadline(10), pytest.raises(RuntimeError, match="group 4 "):
        berger_mc(64 * _BLOCK, seed=0, workers=3)
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_workers_inherit_numpy_random():
    """numpy.random is loaded by berger_mc before it forks, so its workers
    inherit it, and not by importing the module, which mc setup_s times.
    The spy on os.fork records whether it was loaded at each fork."""
    import subprocess
    import sys

    code = ("import os, sys; from octoforms import berger, fanout; "
            "print('numpy.random' in sys.modules); berger._plan(); "
            "fanout.usable_cpus = lambda: 2; loaded = []; real = os.fork; "
            "os.fork = lambda: loaded.append('numpy.random' in sys.modules) or real(); "
            "berger.berger_mc(8192, workers=2); print(loaded)")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n[True]\n"


def test_phi_dense_is_the_charpoly_form():
    """The Monte-Carlo target (the exact line average over its content)
    equals Phi from the charpoly route."""
    phi = phi_dense()
    assert not phi.flags.writeable
    assert phi.dtype == np.int64
    assert np.count_nonzero(phi) == 702
    want = np.zeros(12870, dtype=np.int64)
    for m, c in spin9_form().mask_items():
        want[_slot_of_mask()[m]] = c
    assert np.array_equal(phi, want)


def test_exact_mean_is_phi_over_132():
    """The exact line average is Phi / 132 slot by slot, with six values.
    The all-plain and the all-primed blade have weights -((1 + r) / 2)^4 and
    -((1 - r) / 2)^4, so both average to -(1 + 6/9 + 3/99) / 16 = -7/66."""
    num, den = exact_mean()
    assert num.dtype == np.int64 and type(den) is int
    assert np.array_equal(num * 132, phi_dense() * den)
    means = {Fraction(n, den) for n in num.tolist()}
    assert means == {Fraction(n, 132) for n in (0, 1, -1, 2, -2, -14)}
    assert Fraction(int(num[0]), den) == Fraction(int(num[12869]), den) == Fraction(-7, 66)


def test_verify_berger_exact_check():
    from octoforms.verifysuite import CHECKS, _check_berger_exact

    ok, detail = _check_berger_exact()
    assert ok, detail
    assert detail == ("exact line average == Phi * 1/132; second moments sum to 1, squared "
                      "means to 7/66; least variance 1/51480")
    assert len(CHECKS) == 15 and dict(CHECKS)["berger-exact"] is _check_berger_exact


def test_exact_mean_int64_bound_edge(monkeypatch):
    """exact_mean refuses a moment table whose largest numerator times the
    largest sum of |coefficients| of a state (20) reaches linalg._INT64_SAFE,
    and is exact just below it.  The table gives every level-4 monomial the
    sign of its coefficient in the state with that sum, so a slot reaches
    20 times the table's largest value."""
    cols, vals = _plan()["levels"][4]["poly"]
    state = np.abs(vals).sum(axis=1).argmax()
    coef_sum = int(np.abs(vals[state]).sum())
    assert coef_sum == max(int(np.abs(lv["poly"][1]).sum(axis=1).max())
                           for lv in _plan()["levels"]) == 20
    sign = np.full(math.comb(11, 4), -1, dtype=object)
    sign[cols[state][vals[state] > 0]] = 1

    def table(scale):
        def moments(keys, p=1):
            return scale * sign if len(keys) == len(sign) else np.full(len(keys), scale, object)

        return moments

    top = (_INT64_SAFE - 1) // coef_sum
    monkeypatch.setattr(berger, "_line_moments", table(1))
    unit, _ = exact_mean()
    assert np.abs(unit).max() == coef_sum
    monkeypatch.setattr(berger, "_line_moments", table(top))
    edge, _ = exact_mean()
    assert edge.tolist() == [top * n for n in unit.tolist()]

    def negative(keys, p=1):  # the bound reads |moments|: the real ones are mostly negative
        return np.full(len(keys), -(top + 1), dtype=object)

    for moments in (table(top + 1), negative):
        monkeypatch.setattr(berger, "_line_moments", moments)
        with pytest.raises(ValueError, match="past the int64 bound"):
            exact_mean()


def _gram_second_moment():
    """E[c_slot^2] numerators over _SECOND_DEN without ``_squares``: per
    level k, the Gram matrix of exact moments E[w^2 m^(alpha + beta)] over
    the pairs of ``_monomials(k)``, read by each state's coefficient vector
    on both sides."""
    out = np.zeros(12870, dtype=np.int64)
    for k, lv in enumerate(_plan()["levels"]):
        keys = berger._monomials(k)
        pair_keys, inverse = np.unique(keys[:, None] + keys[None, :], return_inverse=True)
        gram = berger._line_moments(pair_keys, 2)[inverse.reshape(len(keys), len(keys))]
        cols, vals = lv["poly"]
        vals = vals.astype(np.int64)
        block = gram.astype(np.int64)[cols[:, :, None], cols[:, None, :]]
        value = np.einsum("sa,sab,sb->s", vals, block, vals)
        out[lv["slot"]] = value[lv["state"]]
    return out


def test_exact_second_moment_matches_gram_oracle():
    """The square contraction equals the Gram-matrix route slot by slot."""
    num, den = exact_second_moment()
    assert num.dtype == np.int64 and den == berger._SECOND_DEN == 4942080
    assert np.array_equal(num, _gram_second_moment())


def test_exact_variance_facts():
    """The second moments sum to exactly 1: each line's 8-form is a unit
    simple 8-vector, so its squared coordinates sum to 1 at every sample
    (Cauchy-Binet).  The squared means sum to |Phi / 132|^2 = 1848 / 132^2
    = 7/66.  Ten distinct variances occur, all positive, over the one
    denominator 163088640 = 33 * 4942080 = 65 * 1584^2."""
    second, sden = exact_second_moment()
    mean, mden = exact_mean()
    assert Fraction(int(second.sum()), sden) == 1
    assert Fraction(sum(n * n for n in mean.tolist()), mden * mden) == Fraction(7, 66)
    var = berger._line_variance()
    assert berger._VAR_DEN == 163088640 == 33 * sden == 65 * mden**2
    assert var.tolist() == [33 * s - 65 * n * n for s, n in zip(second.tolist(), mean.tolist())]
    classes = sorted({Fraction(v, berger._VAR_DEN) for v in var.tolist()})
    assert len(classes) == 10 and var.min() > 0 and var.max() == 2347200
    assert (classes[0], classes[-1]) == (Fraction(1, 51480), Fraction(815, 56628))


def test_sigma_is_the_exact_standard_deviation_of_the_mean():
    """sigma is sqrt(exact variance / samples), the same for every seed."""
    for samples, seed in ((1, 0), (3000, 42)):
        form, _ = berger_mc(samples, seed=seed, workers=1)
        want = np.sqrt(berger._line_variance() / berger._VAR_DEN / samples)
        assert np.array_equal(form.sigma, want), samples


def test_sigma_does_not_collapse_at_tiny_sample_counts():
    """With one or two samples, the sampled variance was rounding noise,
    and the zero-slot ratios read 9.49e7 and 4.51e4; the exact sigma keeps
    them at the size of a few standard deviations (4.68 and 4.40)."""
    for samples in (1, 2):
        _, rep = berger_mc(samples, seed=0)
        assert rep.max_zero_sigma_ratio < 10, samples


def test_exact_second_moment_int64_bound_edge(monkeypatch):
    """exact_second_moment refuses a level whose largest sum of |pair
    coefficients| of a state (400 = 20^2, at level 4) times its largest
    |moment| reaches linalg._INT64_SAFE, and is exact just below it.  The
    table gives every degree-8 monomial the sign of its merged coefficient
    in one state with that sum.  Pairs of opposite sign meet on a few of its
    monomials, so the state reaches 384 times the table's value, not 400:
    the bound is the partial sums', which the contraction meets pair by
    pair."""
    lv = _plan()["levels"][4]
    support, at, coef, touched = _squares(4, *lv["poly"])
    sums = np.abs(coef).sum(axis=1, dtype=np.int64)
    state = sums.argmax()
    coef_sum = int(sums[state])
    assert coef_sum == 400
    merged = np.zeros(len(touched), dtype=np.int64)
    np.add.at(merged, at[support[state]], coef[state])
    sign = np.where(merged < 0, -1, 1).astype(object)

    def table(scale):
        def moments(keys, p=1):
            return scale * sign if len(keys) == len(touched) else np.full(len(keys), scale, object)

        return moments

    top = (_INT64_SAFE - 1) // coef_sum
    monkeypatch.setattr(berger, "_line_moments", table(1))
    unit, _ = exact_second_moment()
    slot = lv["slot"][lv["state"] == state]
    assert np.abs(unit[slot]).tolist() == [int(np.abs(merged).sum())] * len(slot) == [384] * 2
    monkeypatch.setattr(berger, "_line_moments", table(top))
    edge, _ = exact_second_moment()
    assert edge.tolist() == [top * n for n in unit.tolist()]

    def negative(keys, p=1):
        return np.full(len(keys), -(top + 1), dtype=object)

    for moments in (table(top + 1), negative):
        monkeypatch.setattr(berger, "_line_moments", moments)
        with pytest.raises(ValueError, match="past the int64 bound"):
            exact_second_moment()


def test_exact_second_moment_working_memory_is_bounded():
    """exact_second_moment allocates no more at its peak than building the
    plan does (about 2.3 against 4.2 MB measured): it casts the level-4 pair
    coefficients to int64 _STATE_BLOCK states at a time, where the whole
    table would be 4.1 MB."""
    import tracemalloc

    _plan.cache_clear()
    tracemalloc.start()
    try:
        _plan()
        plan_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        exact_second_moment()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan_peak, (peak, plan_peak)


def test_slot_z_scores_against_exact_targets():
    """At a pinned seed every slot lies within 5 exact sigmas of its exact
    mean.  By the union bound, which holds for correlated slots too, 12870
    slots of a normal mean exceed 5 sigmas with probability at most
    12870 * 5.7e-7 = 0.007; the largest |z| here is about 3.5."""
    form, _ = berger_mc(65536, seed=7, workers=2)
    num, den = exact_mean()
    z = (form.coeffs - num / den) / form.sigma
    assert np.abs(z).max() < 5.0, np.abs(z).max()


def test_sample_variance_against_exact_variance():
    """Per-sample line values, from float64 determinants of the line basis
    [I | A] / sqrt(1 + |m|^2) at 16384 sampled points, have a sample
    variance within 10 % of the exact variance, for three slots of each of
    the ten variance classes.  The standard error of that ratio is
    sqrt((kurtosis - 1) / 16384); the kurtosis of these slots is below 8, so
    the error is below 0.021 and 10 % is about five of them."""
    from octoforms.cayley_dickson import unit_signs

    var = berger._line_variance()
    classes = {}
    for slot, v in enumerate(var.tolist()):
        classes.setdefault(v, []).append(slot)
    assert len(classes) == 10
    slots = [c[i] for c in classes.values() for i in (0, len(c) // 2, -1)]
    blades = np.array([[i - 1 for i in slot_blade(s)] for s in slots])
    signs = unit_signs(3).astype(np.float64)
    # A[i, c] = S[i, i xor c] m_(i xor c), the coordinates of e_i m
    row, col = np.arange(8)[:, None], np.arange(8)[:, None] ^ np.arange(8)[None, :]
    values = []
    for block in range(16):
        v = _sample_sphere9(11, block, _BLOCK)
        m = v[:, :8] / (1.0 + v[:, 8:])
        a = signs[row, col] * m[:, col]
        basis = np.concatenate([np.broadcast_to(np.eye(8), a.shape), a], axis=2)
        basis /= np.sqrt(1.0 + (m * m).sum(axis=1))[:, None, None]
        minors = np.moveaxis(basis[:, :, blades], 2, 1)  # (sample, slot, 8, 8)
        values.append(-np.linalg.det(minors))  # estimator orientation flip
    values = np.concatenate(values)
    sample_var = values.var(axis=0, ddof=1)
    kurtosis = ((values - values.mean(axis=0)) ** 4).mean(axis=0) / sample_var**2
    assert kurtosis.max() < 8
    ratio = sample_var / (var[slots] / berger._VAR_DEN)
    assert np.abs(ratio - 1).max() < 0.1, ratio


def test_cli_output_independent_of_blas_threads():
    """`berger --json --full` stdout is byte-identical under one BLAS thread
    and under the default thread count."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import octoforms

    src = str(Path(octoforms.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "octoforms.cli", "berger", "--samples", "2048",
            "--workers", "2", "--json", "--full"]
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["coefficients"]) == 12870


def test_cosine_alignment_small_run():
    _, rep = berger_mc(20000, seed=0, workers=1)
    assert rep.cosine_similarity > 0.995
    assert rep.fitted_scale > 0


def test_convergence_two_point():
    """RMS distance to the fitted multiple of Phi scales like 1/sqrt(N)."""
    phi = phi_dense().astype(np.float64)

    def rms(n):
        form, rep = berger_mc(n, seed=3, workers=1)
        resid = form.coeffs - rep.fitted_scale * phi
        return float(np.sqrt(np.mean(resid * resid)))

    r1 = rms(8000)
    r2 = rms(32000)
    ratio = r1 / r2
    assert 1.5 < ratio < 2.7  # fourfold samples should halve the RMS


def test_zero_slot_noise_band_small_run():
    form, rep = berger_mc(20000, seed=0, workers=1)
    phi = phi_dense()
    zero = phi == 0
    assert rep.zero_slots == int(zero.sum()) == 12870 - 702
    # overwhelmingly within 3 sigma; deterministic for the pinned seed
    assert rep.zero_slots_within_3sigma / rep.zero_slots > 0.99


def test_input_validation():
    with pytest.raises(ValueError):
        berger_mc(0)
    with pytest.raises(ValueError):
        berger_mc(10, workers=0)
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            berger_mc(10, seed=seed)


def _exponents(keys):
    """Exponent vectors of monomial keys (base-9 digits, m_0 lowest)."""
    return np.asarray(keys)[:, None] // 9 ** np.arange(8) % 9


def test_state_polynomials_and_squares_are_exact():
    """Every state polynomial of levels 0-4 equals the exact integer minor
    det A[R, T] at integer points m, and every square row equals its square.

    A[i, c] is the e_c coordinate of e_i m, read off the multiplication
    table ``unit_signs(3)``; states are numbered R-major, R holding row 0 at
    level 4.
    """
    from itertools import combinations

    from octoforms.cayley_dickson import unit_signs

    signs = unit_signs(3)
    # no coordinate is 0, so a wrong coefficient of any monomial shows
    rng = np.random.default_rng(7)
    points = [np.arange(1, 9), rng.choice([-3, -2, -1, 1, 2, 3], size=8)]
    for k, lv in enumerate(_plan()["levels"]):
        cols, vals = lv["poly"]
        support, at, coef, touched = _squares(k, cols, vals)
        rows = [r for r in combinations(range(8), k) if k < 4 or 0 in r]
        t_sets = list(combinations(range(8), k))
        assert cols.shape[0] == len(rows) * len(t_sets)
        for m in points:
            a = [[int(signs[i, i ^ c] * m[i ^ c]) for c in range(8)] for i in range(8)]
            mono = np.prod(m.astype(np.int64) ** _exponents(berger._monomials(k)), axis=1)
            sq_mono = np.prod(m.astype(np.int64) ** _exponents(touched), axis=1)
            got = (vals * mono[cols]).sum(axis=1)
            got_sq = (coef * sq_mono[at[support]]).sum(axis=1)
            want = [
                exact_det([[a[i][t] for t in ts] for i in r]) if k else 1
                for r in rows
                for ts in t_sets
            ]
            assert got.tolist() == want, (k, m)
            assert got_sq.tolist() == [d * d for d in want], (k, m)


def test_all_plain_slot_mean_against_exact_value():
    """The blade e_1..8 has weight -((1 + r) / 2)^4, so its mean over S^8 is
    -(1 + 6 E[r^2] + E[r^4]) / 16 = -(1 + 6/9 + 3/99) / 16 = -7/66, which is
    Phi(e_1..8) / 132 = -14/132.  The pinned 65536-sample run lies within
    4 sigma of it."""
    form, _ = berger_mc(65536, seed=5, workers=2)
    assert slot_blade(0) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert phi_dense()[0] == -14
    assert abs(form.coeffs[0] + 7 / 66) <= 4 * form.sigma[0]


def test_every_line_pairs_with_phi_to_fourteen():
    """Phi calibrates the octonionic lines: the pullback of each line's
    volume form pairs with Phi to Phi(e_1..8) = 14 (in the estimator's
    orientation), and |Phi|^2 = 1848, so the fitted scale is 14/1848 = 1/132
    to float64 rounding from any number of samples; candidate_scale, the
    exact line average's scale, is 1/132 exactly."""
    assert int(phi_dense() @ phi_dense()) == 1848
    for samples, seed in ((1, 0), (1, 1), (7, 2), (3000, 3)):
        _, rep = berger_mc(samples, seed=seed)
        assert abs(rep.fitted_scale * 132 - 1) < 1e-12, (samples, seed)
        assert rep.candidate_scale == 1 / 132
        assert abs(rep.fitted_scale / rep.candidate_scale - 1) < 1e-12, (samples, seed)


def test_candidate_scale_is_the_content_of_the_exact_mean(monkeypatch):
    """candidate_scale is gcd(exact_mean numerators) / _MEAN_DEN, read off
    the computation phi_dense caches: a cold berger_mc and phi_dense share
    one exact_mean."""
    num, den = exact_mean()
    calls = []
    monkeypatch.setattr(berger, "exact_mean", lambda: calls.append(1) or (num, den))
    berger._line_average.cache_clear()
    _, rep = berger_mc(1, seed=0)
    phi_dense()
    assert len(calls) == 1
    assert rep.candidate_scale == int(np.gcd.reduce(num)) / den == 1 / 132


def _reference_layout():
    """The monomial rows of a block as one array: x[0] = 1, x[1:9] = m and
    the monomials of degrees 2-4, each row the product of two earlier ones;
    and the reductions (weight column, rows) with the offset of their
    moments.  Built from the plan's monomials alone, not from its stages."""
    keys = [berger._monomials(d) for d in range(5)]
    start = np.cumsum([0] + [len(x) for x in keys])
    stages = []
    for d in (2, 3, 4):
        low, high = berger._split(keys[d], d - 1)
        stages.append((start[d], start[d - 1] + np.searchsorted(keys[d - 1], low),
                       1 + np.searchsorted(keys[1], high)))
    reductions = [(0, 0, start[5])] + [(4 - k, start[k], start[k + 1]) for k in range(4)]
    offsets = np.cumsum([0] + [hi - lo for _, lo, hi in reductions])
    return start[5], stages, list(zip(reductions, offsets))


def _reference_block(seed, block, count, moments):
    """One block through a fresh all-rows array per chunk."""
    rows, stages, reductions = _reference_layout()
    v = _sample_sphere9(seed, block, count)
    u8, r = v[:, :8], v[:, 8]
    valid = 1.0 + r > 1e-9
    m8 = u8 / np.where(valid, 1.0 + r, 1.0)[:, None]
    mm = np.sum(m8 * m8, axis=1)
    w = np.where(valid, -((1.0 + mm) ** -4), 0.0)
    cols = w * mm[None, :] ** np.arange(5)[:, None]
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        x = np.empty((rows, n))
        x[0] = 1.0
        x[1:9] = m8[lo : lo + n].T
        for first, a, b in stages:
            np.multiply(x[a], x[b], out=x[first : first + len(a)])
        for (c, r0, r1), at in reductions:
            moments[at : at + r1 - r0] += np.einsum("c,rc->r", cols[c, lo : lo + n], x[r0:r1])


# (seed, block, count) of single blocks
_BLOCK_CASES = ((1, 0, 1024), (5, 3, 1000), (7, 0, 1), (9, 2, 16), (11, 1, 129), (0, 63, 1024))


def test_block_moments_match_reference_chunk_loop():
    """The block's slab loop gives the very bits of the all-rows loop: every
    moment is still one row's einsum over one chunk, added chunk by chunk.
    The counts cover one sample, short last chunks (16, 129, 1000) and a
    last block; the group mixes full blocks with a partial one."""
    size = _plan()["moments"]
    for seed, block, count in _BLOCK_CASES:
        got, want = np.zeros(size), np.zeros(size)
        _process_block(seed, block, count, got)
        _reference_block(seed, block, count, want)
        assert np.array_equal(got, want), (seed, block, count)
    samples = 3 * _BLOCK + 129
    want = np.zeros(size)
    for b in (1, 2, 3):
        _reference_block(4, b, min(_BLOCK, samples - b * _BLOCK), want)
    assert np.array_equal(_group_worker((4, range(1, 4), samples)), want)


def test_plan_index_types_are_narrow():
    """The plan's index tables are int16 and its signs int8, and narrowing
    raises where a value does not fit instead of wrapping it."""
    edges = _narrow(np.array([-32768, 32767]))
    assert edges.dtype == np.int16 and edges.tolist() == [-32768, 32767]
    for bad in (32768, -32769):
        with pytest.raises(ValueError, match="do not fit"):
            _narrow(np.array([0, bad]))
    assert _slot_of_mask().dtype == np.int16
    for lv in _plan()["levels"]:
        arrays = [lv[name] for name in ("state", "slot", "col", "sum_at")] + [lv["poly"][0]]
        assert all(a.dtype == np.int16 for a in arrays)
        assert lv["eps"].dtype == np.int8 and set(lv["eps"].tolist()) <= {-1, 1}


def test_plan_gathers_are_checked():
    """Every factor row of a product stage precedes it: the block gathers
    with np.take(mode="clip"), which would clamp a bad index silently."""
    for first, a, b in _plan()["stages"]:
        assert a.max() < first and b.max() < first
    first, a, b = _stage(9, np.array([0, 8]), np.array([1, 2]))
    assert (first, a.tolist(), b.tolist()) == (9, [0, 8], [1, 2])
    for a, b in (([0, 9], [1, 2]), ([0, 1], [9, 2]), ([-1, 1], [1, 2])):
        with pytest.raises(ValueError):
            _stage(9, np.array(a), np.array(b))


def _twelve_normal_sphere9(seed, block, count):
    """The sampler as all 12 Box-Muller normals a sample's uniforms give,
    of which the first 9 are kept."""
    u = berger._block_uniforms(seed, block, count).reshape(count, 12)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    z = np.empty((count, 12), dtype=np.float64)
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    v = z[:, :9]
    norm = np.maximum(np.sqrt(np.sum(v * v, axis=1)), 1e-300)
    return v / norm[:, None]


def test_sampler_matches_twelve_normal_reference():
    """Computing only the 9 kept normals gives the very bits of all 12."""
    for seed, block, count in _BLOCK_CASES + ((2, 5, 777), (123, 17, 1024)):
        got = _sample_sphere9(seed, block, count)
        assert np.array_equal(got, _twelve_normal_sphere9(seed, block, count)), (seed, block)
