"""Exterior engine: signs, the wedge kernel and its reference, Kahler forms,
charpoly routes."""

import random
import threading
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, fork_counter
from octoforms import exterior, fanout
from octoforms.canonical import spin9_psi, spin9_taus
from octoforms.clifford import standard_system
from octoforms.exterior import (
    _REAL,
    FormMatrix,
    Multivector,
    _sums_dicts,
    _terms,
    _wedge_kernel,
    _wedge_reference,
    charpoly_coeffs,
    kahler_form,
    merge_sign,
    tau4_coefficient,
    tau4_direct,
    wedge_square,
    wedge_sum,
)
from octoforms.linalg import _INT64_SAFE, SignedPerm
from octoforms.octform import _OCT_TENSOR


def _kernel_pairs(pairs, d):
    """(a, b) pairs of {mask: coefficient} dicts as the kernel's _Terms."""
    return [(_terms(a, d), _terms(b, d)) for a, b in pairs]


def sort_parity_sign(a_indices, b_indices):
    """Independent sign oracle: parity of a bubble sort of the concatenation."""
    seq = list(a_indices) + list(b_indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 11), max_size=6), st.sets(st.integers(0, 11), max_size=6))
def test_merge_sign_matches_sort_oracle(a, b):
    if a & b:
        return
    mask_a = sum(1 << i for i in a)
    mask_b = sum(1 << i for i in b)
    assert merge_sign(mask_a, mask_b) == sort_parity_sign(sorted(a), sorted(b))


def test_wedge_basics():
    e1 = Multivector.blade(4, [1])
    e2 = Multivector.blade(4, [2])
    assert e1.wedge(e2) == Multivector.blade(4, [1, 2])
    assert e2.wedge(e1) == -Multivector.blade(4, [1, 2])
    e12 = Multivector.blade(4, [1, 2])
    assert e12.wedge(e12).is_zero()
    assert (e1 ^ e2) == e1.wedge(e2)


def rand_mv(n, grade, terms, rng):
    mv = Multivector.zero(n)
    from itertools import combinations

    blades = list(combinations(range(1, n + 1), grade))
    for blade in rng.sample(blades, min(terms, len(blades))):
        mv = mv + Multivector.blade(n, blade, rng.randint(-5, 5))
    return mv


def test_graded_commutativity_and_associativity():
    rng = random.Random(0)
    for _ in range(20):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_mv(8, ka, 4, rng)
        b = rand_mv(8, kb, 4, rng)
        sign = (-1) ** (ka * kb)
        assert a.wedge(b) == sign * b.wedge(a)
        c = rand_mv(8, rng.randint(1, 2), 3, rng)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_kernel_agrees_with_dict_engine():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_mv(16, 2, 30, rng)
        b = rand_mv(16, rng.choice([2, 4]), 60, rng)
        pairs = [(dict(a.mask_items()), dict(b.mask_items()))]
        (got,) = _sums_dicts(*_wedge_kernel(_kernel_pairs(pairs, 1), 16, _REAL))
        want = _wedge_reference(pairs, _REAL)
        assert got == want


def even_form(n, grades, terms, rng, scale=1):
    """A seeded random sum of rand_mv's, one per grade, as a dict."""
    out = Multivector.zero(n)
    for g in grades:
        out = out + rand_mv(n, g, terms, rng)
    return {m: scale * c for m, c in out.mask_items()}


@pytest.mark.parametrize(
    "n, grades, scale",
    [(8, [2], 1), (10, [4], 1), (10, [0, 2, 4, 6], 1), (9, [2, 4], Fraction(3, 7)), (20, [2, 4], 1)],
    ids=["grade2", "grade4", "mixed", "fraction", "n20"],
)
def test_wedge_square_matches_wedge_dicts(n, grades, scale):
    rng = random.Random(31 + n)
    for _ in range(5):
        a = even_form(n, grades, 25, rng, scale)
        want = _wedge_reference([(a, a)], _REAL)
        assert any(want)
        assert wedge_square(a, {}) == want
        # it adds into the caller's total, dropping what cancels; a square
        # has no odd blade, so e_1 keeps its coefficient
        total = {m: -c for m, c in want.items()}
        total[1] = 5
        assert wedge_square(a, total) is total
        assert total == {1: 5}


def test_wedge_square_zero_and_odd():
    assert wedge_square({}, {}) == {}
    assert wedge_square({0b1010: 7}, {}) == {}
    assert wedge_square({0b1111: Fraction(1, 3)}, {}) == {}
    assert wedge_square({0: 3}, {}) == {0: 9}  # the scalar blade is the exception
    with pytest.raises(ValueError):
        wedge_square({0b11: 1, 0b111: 2}, {})


def spy_kernel(monkeypatch):
    """Record what every _wedge_kernel call returns (None: it declined)."""
    calls = []
    real = exterior._wedge_kernel

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(exterior, "_wedge_kernel", spy)
    return calls


def coeff(tensor, slot, c):
    """c as a real coefficient, or c times unit `slot` as a d-tuple."""
    d = tensor.shape[0]
    return c if d == 1 else tuple(c if i == slot else 0 for i in range(d))


# a = top_a e^1 and b = 2048 blades above index 1, one of them with
# coefficient top_b: a single pair with min(A, B) = 1, so the int64 bound
# d^2 * top_a * top_b sits at its edge when top_a = top_b = 2**31 / d.
@pytest.mark.parametrize("tensor", [_REAL, _OCT_TENSOR], ids=["R", "O"])
@pytest.mark.parametrize("excess, kernel_runs", [(-1, True), (0, False)])
def test_int64_bound_edge(monkeypatch, tensor, excess, kernel_runs):
    d = tensor.shape[0]
    top = 2**31 // d
    assert d * d * top * top == _INT64_SAFE
    a = {0b1: coeff(tensor, 0, top)}
    b = {m << 1: coeff(tensor, 3, 1) for m in range(1, 2049)}
    b[0b110] = coeff(tensor, 3, top + excess)
    calls = spy_kernel(monkeypatch)
    out = wedge_sum([(a, b)], 16, tensor)
    assert len(calls) == 1 and (calls[0] is not None) == kernel_runs
    assert out[0b111] == coeff(tensor, 3, top * (top + excess))
    assert out == _wedge_reference([(a, b)], tensor)


@pytest.mark.parametrize("tensor", [_REAL, _OCT_TENSOR], ids=["R", "O"])
@pytest.mark.parametrize("case", ["fraction", "n17"])
def test_kernel_declines_fraction_and_wide_forms(monkeypatch, tensor, case):
    rng = random.Random(7)
    n = 17 if case == "n17" else 16
    masks = rng.sample(range(1, 1 << n), 120)
    a = {m: coeff(tensor, rng.randrange(tensor.shape[0]), rng.randint(1, 5)) for m in masks[:60]}
    b = {m: coeff(tensor, rng.randrange(tensor.shape[0]), rng.randint(1, 5)) for m in masks[60:]}
    if case == "fraction":
        a[masks[0]] = coeff(tensor, 0, Fraction(1, 3))
    calls = spy_kernel(monkeypatch)
    out = wedge_sum([(a, b)], n, tensor)
    assert calls == [None]
    assert out == _wedge_reference([(a, b)], tensor)
    if tensor is _REAL:
        assert out == blade_by_blade(a, b)


def blade_by_blade(a, b):
    """Independent real wedge oracle: every blade pair signed by
    sort_parity_sign of its index lists."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma & mb:
                sign = sort_parity_sign(exterior._mask_to_indices(ma), exterior._mask_to_indices(mb))
                out[ma | mb] = out.get(ma | mb, 0) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def rand_dict(n, grades, terms, d, rng):
    """{mask: coefficient} with blades of the given grades and small int
    coefficients (d-tuples when d > 1); may come out empty."""
    out = {}
    for _ in range(terms):
        mask = sum(1 << i for i in rng.sample(range(n), rng.choice(grades)))
        c = rng.randint(-4, 4) if d == 1 else tuple(rng.randint(-2, 2) for _ in range(d))
        if c if d == 1 else any(c):
            out[mask] = c
    return out


def negate(x):
    return {m: -c if isinstance(c, int) else tuple(-v for v in c) for m, c in x.items()}


GROUP_KINDS = ("empty", "cancel", "mixed", "plain")


@pytest.mark.parametrize("tensor", [_REAL, _OCT_TENSOR], ids=["R", "O"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), groups=st.integers(1, 6), start=st.integers(0, 3))
def test_grouped_kernel_matches_reference(tensor, seed, groups, start):
    """Each entry of one grouped call equals the reference sum of its own
    pairs: empty entries, entries whose pairs cancel to zero, and entries of
    mixed output grade; the entry offset is split between a and b."""
    rng = random.Random(seed)
    d, n = tensor.shape[0], 10
    entries = []
    for g in range(groups):
        kind = GROUP_KINDS[(start + g) % len(GROUP_KINDS)]
        pairs = [
            (rand_dict(n, [1, 2], rng.randint(1, 8), d, rng),
             rand_dict(n, [2, 3] if kind == "mixed" else [2], rng.randint(1, 12), d, rng))
            for _ in range(0 if kind == "empty" else rng.randint(1, 3))
        ]
        if kind == "cancel":
            pairs += [(a, negate(b)) for a, b in pairs]
        entries.append(pairs)
    grouped = []
    for g, pairs in enumerate(entries):
        for a, b in pairs:
            h = rng.randint(0, g)
            grouped.append((_terms(a, d, g - h), _terms(b, d, h)))
    sums, masks = _wedge_kernel(grouped, n, tensor, groups)
    got = _sums_dicts(sums, masks)
    assert len(got) == groups
    for g, pairs in enumerate(entries):
        assert got[g] == _wedge_reference(pairs, tensor), (g, GROUP_KINDS[(start + g) % 4])
        if GROUP_KINDS[(start + g) % 4] in ("empty", "cancel"):
            assert got[g] == {}


def spy_groups(monkeypatch):
    """Record (groups, ran) for every _wedge_kernel call; ran is False when
    the kernel declined."""
    calls = []
    real = exterior._wedge_kernel

    def spy(pairs, n, tensor, groups=1):
        out = real(pairs, n, tensor, groups)
        calls.append((groups, out is not None))
        return out

    monkeypatch.setattr(exterior, "_wedge_kernel", spy)
    return calls


# the int64 bound summed over a grouped call: the single-pair edge of
# test_int64_bound_edge split over two entries, top * (top // 2) each
@pytest.mark.parametrize("tensor", [_REAL, _OCT_TENSOR], ids=["R", "O"])
@pytest.mark.parametrize("excess, kernel_runs", [(-1, True), (0, False)])
def test_int64_bound_edge_grouped(tensor, excess, kernel_runs):
    d = tensor.shape[0]
    top = 2**31 // d
    assert d * d * top * (top // 2 + top // 2) == _INT64_SAFE
    a = {0b1: coeff(tensor, 0, top)}
    entries = []
    for b_top in (top // 2, top // 2 + excess):
        b = {m << 1: coeff(tensor, 3, 1) for m in range(1, 2049)}
        b[0b110] = coeff(tensor, 3, b_top)
        entries.append([(a, b)])
    want = [_wedge_reference(pairs, tensor) for pairs in entries]
    assert want[0][0b111] == coeff(tensor, 3, top * (top // 2))
    assert want[1][0b111] == coeff(tensor, 3, top * (top // 2 + excess))
    grouped = [(_terms(a, d, g), _terms(b, d)) for g, pairs in enumerate(entries) for a, b in pairs]
    out = _wedge_kernel(grouped, 16, tensor, 2)
    assert (out is not None) == kernel_runs
    if kernel_runs:
        assert _sums_dicts(*out) == want


def test_parity_table_matches_popcount():
    table = exterior._PARITY16
    assert len(table) == 1 << 16
    assert table.tolist() == [bin(i).count("1") & 1 for i in range(1 << 16)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), max_size=20))
def test_odd_masks_match_odd_crossings_mask(masks):
    got = exterior._odd_masks(np.array(masks, dtype=np.int64))
    assert got.tolist() == [exterior._odd_crossings_mask(m) for m in masks]


def test_charpoly_computes_odd_masks_once_per_operand(monkeypatch):
    """The 72 nonzero f_it are the left operands of all 9 steps."""
    want, psi, sizes = spin9_taus(), spin9_psi(), []
    real = exterior._odd_masks
    monkeypatch.setattr(exterior, "_odd_masks", lambda masks: sizes.append(len(masks)) or real(masks))
    assert tuple(charpoly_coeffs(psi)) == want
    assert len(sizes) == 72


def test_tau4_direct_does_not_use_the_kernel(monkeypatch):
    want = spin9_taus()[3]

    def refuse(*args):
        raise AssertionError("tau4_direct must stay on the dict engine")

    monkeypatch.setattr(exterior, "_wedge_kernel", refuse)
    assert tau4_direct(spin9_psi()) == want


def two_form(rng, terms):
    """A 2-form on R^16 with `terms` distinct blades and coefficients in 1..3."""
    blades = rng.sample(list(combinations(range(16), 2)), terms)
    return {(1 << i) | (1 << j): rng.randint(1, 3) for i, j in blades}


# two (a, b) pairs of 40 x 25 blades (2000 blade pairs, _KERNEL_MIN_WORK),
# or the second 77 x 13 (2001): only the second call is past the edge
@pytest.mark.parametrize("last, engine", [((40, 25), "reference"), ((77, 13), "kernel")],
                         ids=["2000", "2001"])
def test_wedge_sum_kernel_edge(monkeypatch, last, engine):
    assert exterior._KERNEL_MIN_WORK == 2000
    rng = random.Random(11)
    pairs = [(two_form(rng, i), two_form(rng, j)) for i, j in [(40, 25), last]]
    want = _wedge_reference(pairs, _REAL)
    ran = []
    real_kernel, real_reference = exterior._wedge_kernel, exterior._wedge_reference

    def on_kernel(*args):
        ran.append("kernel")
        return real_kernel(*args)

    def on_reference(*args):
        ran.append("reference")
        return real_reference(*args)

    monkeypatch.setattr(exterior, "_wedge_kernel", on_kernel)
    monkeypatch.setattr(exterior, "_wedge_reference", on_reference)
    assert wedge_sum(pairs, 16) == want
    assert ran == [engine]


def test_psi78_squared_coefficient():
    f = spin9_psi()
    psi78 = f.entry(6, 7)
    sq = psi78.wedge(psi78)
    assert sq.coefficient((1, 2, 3, 4)) == 2
    assert len(sq) == 28


def test_kahler_form_examples():
    mats = standard_system("spin9").mats
    psi12 = kahler_form(mats[0] @ mats[1])
    assert psi12.coefficient((1, 2)) == -1
    assert psi12.coefficient((3, 4)) == 1
    assert psi12.coefficient((9, 10)) == 1
    psi19 = kahler_form(mats[0] @ mats[8])
    assert all(psi19.coefficient((p, p + 8)) == -1 for p in range(1, 9))
    assert kahler_form(Matrix_zero16()).is_zero()


def Matrix_zero16():
    import numpy as np

    return np.zeros((16, 16), dtype=np.int64)


def test_kahler_rejects_non_skew():
    import numpy as np

    with pytest.raises(ValueError):
        kahler_form(np.eye(4, dtype=np.int64))


def leibniz_charpoly(entries, k, n):
    """Independent char-poly oracle: permutation expansion of det(tI - psi).

    entries[(a, b)] are commuting even forms; returns tau_1..tau_k as dicts.
    Coefficient of t^{k-j} collects permutations with exactly k-j fixed points.
    """

    def ent(a, b):
        if a < b:
            return entries.get((a, b), {})
        if a > b:
            return {m: -c for m, c in entries.get((b, a), {}).items()}
        return {}

    taus = [dict() for _ in range(k + 1)]  # taus[j]: coefficient of t^{k-j}
    for perm in permutations(range(k)):
        moved = [a for a in range(k) if perm[a] != a]
        if not moved:
            continue
        # sign of permutation
        seen, sign = set(), 1
        for start in range(k):
            if start in seen or perm[start] == start:
                continue
            length, cur = 0, start
            while cur not in seen:
                seen.add(cur)
                cur = perm[cur]
                length += 1
            sign *= (-1) ** (length - 1)
        term = {0: sign * (-1) ** len(moved)}
        for a in moved:
            term = _wedge_reference([(term, ent(a, perm[a]))], _REAL)
            if not term:
                break
        j = len(moved)
        acc = taus[j]
        for m, c in term.items():
            v = acc.get(m, 0) + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    return taus[1:]


def test_charpoly_against_leibniz_oracle():
    rng = random.Random(9)
    for k in (3, 4):
        entries = {}
        for a in range(k):
            for b in range(a + 1, k):
                entries[(a, b)] = dict(rand_mv(8, 2, 3, rng).mask_items())
        f = FormMatrix(k, 8, {ab: Multivector(8, d) for ab, d in entries.items()})
        got = charpoly_coeffs(f)
        want = leibniz_charpoly(entries, k, 8)
        for j in range(k):
            assert dict(got[j].mask_items()) == want[j], f"tau_{j+1} (k={k})"


def test_tau4_direct_matches_charpoly_on_random():
    rng = random.Random(21)
    k = 5
    upper = {}
    for a in range(k):
        for b in range(a + 1, k):
            upper[(a, b)] = rand_mv(10, 2, 4, rng)
    f = FormMatrix(k, 10, upper)
    assert tau4_direct(f) == charpoly_coeffs(f)[3]


def test_tau4_coefficient_restriction_agrees():
    f = spin9_psi()
    full = tau4_direct(f)
    for blade in [(1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 9, 10, 11, 12), (2, 4, 6, 8, 10, 12, 14, 16)]:
        assert tau4_coefficient(f, blade) == full.coefficient(blade)


def _random_fraction_matrix(seed, k=6, n=10):
    """A k x k form matrix of random 2-forms on R^n with Fraction coefficients."""
    rng = random.Random(seed)
    pairs = [(1 << i) | (1 << j) for i, j in combinations(range(n), 2)]
    return FormMatrix(k, n, {
        (a, b): Multivector(n, {m: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                                for m in rng.sample(pairs, rng.randint(2, 9))})
        for a in range(k) for b in range(a + 1, k)})


def test_tau4_coefficient_matches_charpoly():
    """tau4_coefficient against the Faddeev-LeVerrier tau_4, a route that
    shares no code with the sub-Pfaffians: on spin9 blades, zero ones
    included, and on a random Fraction matrix."""
    f, tau4 = spin9_psi(), spin9_taus()[3]
    nonzero = [blade for blade, _ in list(tau4.terms())[::175]]
    zero = [(1, 2, 3, 4, 5, 6, 7, 9), (1, 4, 6, 7, 10, 12, 13, 15), (5, 8, 9, 11, 12, 14, 15, 16)]
    assert all(tau4.coefficient(b) for b in nonzero) and not any(tau4.coefficient(b) for b in zero)
    for blade in nonzero + zero:
        assert tau4_coefficient(f, blade) == tau4.coefficient(blade), blade

    f = _random_fraction_matrix(44, k=5, n=8)
    tau4 = charpoly_coeffs(f)[3]
    assert any(isinstance(c, Fraction) and c.denominator > 1 for _, c in tau4.terms())
    blades = list(combinations(range(1, 9), 4))
    assert any(tau4.coefficient(b) == 0 for b in blades)
    for blade in blades:
        assert tau4_coefficient(f, blade) == tau4.coefficient(blade), blade


def test_tau4_direct_forked_equals_serial(monkeypatch, no_child_left):
    """On two CPUs spin9 runs two workers, the caller and one forked child,
    and gives the charpoly tau_4; a random Fraction matrix, below the
    threshold unless it is lowered, gives the same exact form over 2 or 3
    workers as serially."""
    forks = fork_counter(monkeypatch)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    assert tau4_direct(spin9_psi()) == spin9_taus()[3]
    assert len(forks) == 1
    f = _random_fraction_matrix(5)
    forks.clear()
    serial = tau4_direct(f)
    assert forks == []
    assert serial == charpoly_coeffs(f)[3]
    assert any(isinstance(c, Fraction) and c.denominator > 1 for _, c in serial.terms())
    monkeypatch.setattr(exterior, "_FORK_MIN_WORK", 1)
    for cpus in (2, 3):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
        forks.clear()
        assert tau4_direct(f) == serial
        assert len(forks) == cpus - 1


def test_tau4_direct_serial_on_one_cpu_or_without_fork(monkeypatch):
    """A 1-CPU affinity, or a platform without os.fork, runs the quads
    serially in the caller, with the same form, and forks nothing."""
    want = spin9_taus()[3]
    forks = fork_counter(monkeypatch)
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert tau4_direct(spin9_psi()) == want
    assert forks == [], "tau4_direct forked on a 1-CPU affinity"
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(fanout.os, "fork")
    assert tau4_direct(spin9_psi()) == want
    assert forks == []


def test_tau4_direct_fork_threshold_edge(monkeypatch, no_child_left):
    """Workers are work // _FORK_MIN_WORK, capped at the CPUs, and the
    caller is one of them: exactly twice the threshold forks one child, one
    unit less runs serially."""
    f, want = spin9_psi(), spin9_taus()[3]
    work = exterior._tau4_work(f, list(combinations(range(9), 4)))
    assert work == 126 * (3 * 8 * 8) ** 2  # every spin9 entry has 8 blades
    forks = fork_counter(monkeypatch)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 4)
    for threshold, workers in ((work // 2 + 1, 1), (work // 2, 2), (work // 3, 3), (1, 4)):
        monkeypatch.setattr(exterior, "_FORK_MIN_WORK", threshold)
        forks.clear()
        assert tau4_direct(f) == want
        assert len(forks) == workers - 1, threshold


def test_tau4_direct_failed_worker_names_its_share(monkeypatch, no_child_left):
    """A worker that raises makes tau4_direct raise RuntimeError naming its
    share, without hanging or starting a thread."""
    real = exterior._sub_pfaffian

    def failing(entry, *quad):
        if quad == (0, 1, 2, 4):  # the second quad, so the second share
            raise ValueError("this quad fails")
        return real(entry, *quad)

    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    monkeypatch.setattr(exterior, "_sub_pfaffian", failing)
    threads = threading.active_count()
    with deadline(30), pytest.raises(RuntimeError, match="quad share 1 exited"):
        tau4_direct(spin9_psi())
    assert threading.active_count() == threads


def test_tau4_coefficient_needs_size_4():
    f = FormMatrix(3, 4, {(0, 1): Multivector.blade(4, [1, 2]), (1, 2): Multivector.blade(4, [3, 4])})
    with pytest.raises(ValueError, match="size >= 4"):
        tau4_direct(f)
    with pytest.raises(ValueError, match="size >= 4"):
        tau4_coefficient(f, (1, 2, 3, 4))


# e^21 = -e^12, so an unsorted blade would read a wrong sign, and index 0
# would be a negative shift: every way in rejects both
@pytest.mark.parametrize("indices", [(2, 1), (1, 1), (0, 1)], ids=["unsorted", "repeated", "zero"])
@pytest.mark.parametrize("reader", ["blade", "coefficient", "tau4_coefficient", "multivector_from_json"])
def test_blade_indices_must_increase_from_1(reader, indices):
    from octoforms.serialize import multivector_from_json

    calls = {
        "blade": lambda: Multivector.blade(4, indices, 5),
        "coefficient": lambda: Multivector.blade(4, [1, 2], 5).coefficient(indices),
        "tau4_coefficient": lambda: tau4_coefficient(spin9_psi(), indices),
        "multivector_from_json": lambda: multivector_from_json(
            {"n": 4, "grade": 2, "terms": [{"blade": list(indices), "coeff": "5"}]}),
    }
    with pytest.raises(ValueError, match="strictly increasing"):
        calls[reader]()


def test_scalar_pfaffian_squared_is_determinant():
    """tau_4's quadruple summand on scalars: (x12 x34 - x13 x24 + x14 x23)^2
    equals det for a 4x4 skew matrix."""
    from tests_util_det import exact_det

    rng = random.Random(2)
    for _ in range(20):
        x = {(a, b): Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for a in range(4) for b in range(a + 1, 4)}
        pf = x[(0, 1)] * x[(2, 3)] - x[(0, 2)] * x[(1, 3)] + x[(0, 3)] * x[(1, 2)]
        mat = [[Fraction(0)] * 4 for _ in range(4)]
        for (a, b), v in x.items():
            mat[a][b] = v
            mat[b][a] = -v
        assert pf * pf == exact_det(mat)


def test_formmatrix_validates():
    with pytest.raises(ValueError):
        FormMatrix(2, 8, {(0, 1): Multivector.blade(8, [1])})  # grade 1
    with pytest.raises(ValueError):
        FormMatrix(2, 8, {(1, 0): Multivector.blade(8, [1, 2])})


def test_homogeneity_helpers():
    mv = Multivector.blade(6, [1, 2]) + Multivector.blade(6, [3, 4])
    assert mv.is_homogeneous(2)
    assert mv.grade() == 2
    mixed = mv + Multivector.scalar(6, 1)
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.grade()


def test_exact_div_and_gcd():
    mv = 6 * Multivector.blade(4, [1, 2]) + 9 * Multivector.blade(4, [3, 4])
    assert mv.coeff_gcd() == 3
    half = mv.exact_div(3)
    assert half.coefficient((1, 2)) == 2
    frac = mv.exact_div(4)
    assert frac.coefficient((1, 2)) == Fraction(3, 2)


def faddeev_leverrier_dicts(entries, k):
    """Independent Faddeev-LeVerrier on _wedge_reference alone: tau_1..tau_k as
    dicts, divisions by s as Fractions (ints when exact)."""

    def add(acc, x, scale=1):
        for m, c in x.items():
            v = acc.get(m, 0) + scale * c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return acc

    def ent(a, b):
        if a < b:
            return entries.get((a, b), {})
        return {m: -c for m, c in entries.get((b, a), {}).items()} if a > b else {}

    psi = [[ent(a, b) for b in range(k)] for a in range(k)]
    cur = [row[:] for row in psi]
    taus = []
    for step in range(1, k + 1):
        tr = {}
        for i in range(k):
            add(tr, cur[i][i])
        c = {m: Fraction(-v, step) for m, v in tr.items()}
        c = {m: int(v) if v.denominator == 1 else v for m, v in c.items()}
        taus.append(c)
        if step == k:
            break
        for i in range(k):
            cur[i][i] = add(dict(cur[i][i]), c)
        nxt = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = {}
                for t in range(k):
                    add(acc, _wedge_reference([(psi[i][t], cur[t][j])], _REAL))
                row.append(acc)
            nxt.append(row)
        cur = nxt
    return taus


def random_form_entries(k, n, terms, rng, top=3):
    """Upper entries {(a, b): 2-form dict} with integer coefficients."""
    entries = {}
    for a in range(k):
        for b in range(a + 1, k):
            entry = {}
            for _ in range(terms):
                p, q = rng.sample(range(n), 2)
                entry[(1 << p) | (1 << q)] = rng.choice((-1, 1)) * rng.randint(1, top)
            entries[(a, b)] = entry
    return entries


def as_form_matrix(entries, k, n):
    return FormMatrix(k, n, {ab: Multivector(n, x) for ab, x in entries.items()})


# k x k random integer matrices whose steps hold well over _KERNEL_MIN_WORK
# blade pairs; k = 5 against the permutation expansion, the rest against the
# dict-only recursion (n = 8 at k = 9: from step 5 on the grade exceeds n)
@pytest.mark.parametrize("k, n, terms", [(5, 16, 8), (6, 14, 5), (7, 12, 4), (8, 10, 4), (9, 8, 3)])
def test_charpoly_grouped_path_against_oracles(monkeypatch, k, n, terms):
    rng = random.Random(100 + k)
    entries = random_form_entries(k, n, terms, rng)
    f = as_form_matrix(entries, k, n)
    psi = [[f.entry_dict(i, j) for j in range(k)] for i in range(k)]
    step2 = sum(len(psi[i][t]) * len(psi[t][j]) for i in range(k) for t in range(k) for j in range(k))
    assert step2 > exterior._KERNEL_MIN_WORK
    calls = spy_groups(monkeypatch)
    got = [dict(t.mask_items()) for t in charpoly_coeffs(f)]
    assert calls == [(k * (k + 1) // 2, True)] * k  # the upper entries i <= j only
    want = leibniz_charpoly(entries, k, n) if k <= 5 else faddeev_leverrier_dicts(entries, k)
    assert got == want
    assert any(got)


# the int64 bound reads each operand's top, so every row slice the charpoly
# passes must carry the max |coefficient| of its own columns, not of one cell
def test_charpoly_slices_carry_their_own_max(monkeypatch):
    rng = random.Random(3)
    k, n = 6, 12
    f = as_form_matrix(random_form_entries(k, n, 5, rng, top=50), k, n)
    slices = []
    real = exterior._wedge_kernel

    def spy(pairs, n, tensor, groups=1):
        slices.extend(b for _, b in pairs)
        return real(pairs, n, tensor, groups)

    monkeypatch.setattr(exterior, "_wedge_kernel", spy)
    charpoly_coeffs(f)
    assert len(slices) > k * k
    assert all(b.top == max(map(abs, b.coeffs.tolist()), default=0) for b in slices)


# the kernel declines the first step (a Fraction entry, n = 17) or a later
# one (coefficients that push a step's bound past _INT64_SAFE); that step and
# the later ones run on _wedge_reference, so the spy shows kernel steps up to
# the declined one and no call after it
@pytest.mark.parametrize("case", ["fraction", "n17", "bound"])
def test_charpoly_falls_back_per_step(monkeypatch, case):
    rng = random.Random(7)
    k, n = 5, 17 if case == "n17" else 12
    entries = random_form_entries(k, n, 6, rng, top=2**24 if case == "bound" else 3)
    if case == "fraction":
        entries[(1, 3)] = {m: Fraction(c, 2) for m, c in entries[(1, 3)].items()}
    f = as_form_matrix(entries, k, n)
    calls = spy_groups(monkeypatch)
    got = charpoly_coeffs(f)
    step = len(calls)
    assert calls == [(k * (k + 1) // 2, True)] * (step - 1) + [(k * (k + 1) // 2, False)]
    assert 1 < step < k if case == "bound" else step == 1
    assert [dict(t.mask_items()) for t in got] == faddeev_leverrier_dicts(entries, k)


def bad_tensor(kind):
    """A 2x2x2 tensor that is the complex one except for T[1, 1]."""
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1
    t[1, 1] = (1, 1) if kind == "two-units" else (-2, 0)
    return t


ENGINES = {
    "kernel": lambda pairs, tensor: _wedge_kernel(_kernel_pairs(pairs, tensor.shape[0]), 2, tensor),
    "reference": _wedge_reference,
    "wedge_sum": lambda pairs, tensor: wedge_sum(pairs, 2, tensor),
}


# the engines read a tensor as one signed unit per product of units; one
# that is not must be refused, not read at its first nonzero component
@pytest.mark.parametrize("kind", ["two-units", "entry-2"])
@pytest.mark.parametrize("engine", ENGINES)
def test_engines_reject_non_unit_tensors(kind, engine):
    with pytest.raises(ValueError, match="one signed unit"):
        ENGINES[engine]([({0b1: (1, 1)}, {0b10: (0, 1)})], bad_tensor(kind))


def test_from_endomorphisms_does_not_wrap_int64():
    big = 2**32
    m0 = np.array([[0, big], [big, 0]], dtype=np.int64)
    m1 = np.array([[big, 0], [0, -big]], dtype=np.int64)
    assert (m0 @ m1)[0, 1] == 0  # what int64 matmul gives
    f = FormMatrix.from_endomorphisms([m0, m1])
    assert f.entry(0, 1) == Multivector(2, {0b11: -(2**64)})
    # a signed permutation mixed with dense input takes the exact dense path
    f = FormMatrix.from_endomorphisms([SignedPerm([1, 0], [1, 1]), m1])
    assert f.entry(0, 1) == Multivector(2, {0b11: -big})


def test_from_endomorphisms_composes_signed_perms(monkeypatch):
    """The Spin(9) system's 36 products stay SignedPerm products."""
    want, seen = spin9_psi(), []
    real = exterior.kahler_form
    monkeypatch.setattr(exterior, "kahler_form", lambda j: seen.append(type(j)) or real(j))
    f = FormMatrix.from_endomorphisms(standard_system("spin9").mats)
    assert seen == [SignedPerm] * 36
    assert all(f.entry_dict(a, b) == want.entry_dict(a, b) for a in range(9) for b in range(9))


def tensor_sum_wedge(pairs, tensor):
    """sum_ijc T[i, j, c] a_i b_j e_c over disjoint blade pairs, read off the
    dense tensor: an oracle for any structure tensor, no unit tables."""
    d, out = tensor.shape[0], {}
    for a, b in pairs:
        for ma, ca in a.items():
            for mb, cb in b.items():
                if not ma & mb:
                    s = merge_sign(ma, mb)
                    prod = [sum(int(tensor[i, j, c]) * ca[i] * cb[j] for i in range(d) for j in range(d)) for c in range(d)]
                    out[ma | mb] = tuple(x + s * y for x, y in zip(out.get(ma | mb, (0,) * d), prod))
    return {m: c for m, c in out.items() if any(c)}


# a random signed-unit table with unit_of[u, v] != unit_of[v, u], unlike the
# Cayley-Dickson ones (u xor v), so reading either lookup in the wrong operand
# order shows
@pytest.mark.parametrize("seed", range(3))
def test_engines_match_tensor_sum_on_asymmetric_tables(seed):
    rng = random.Random(seed)
    d, n = 4, 8
    tensor = np.zeros((d, d, d), dtype=np.int64)
    for u in range(d):
        for v in range(d):
            tensor[u, v, rng.randrange(d)] = rng.choice((-1, 0, 1, 1))
    of = tensor.any(axis=2) * np.abs(tensor).argmax(axis=2)
    assert (of != of.T).any()
    pairs = [(rand_dict(n, [1, 2], 30, d, rng), rand_dict(n, [1, 2], 30, d, rng)) for _ in range(2)]
    want = tensor_sum_wedge(pairs, tensor)
    assert want
    assert _wedge_reference(pairs, tensor) == want
    assert _sums_dicts(*_wedge_kernel(_kernel_pairs(pairs, d), n, tensor)) == [want]
