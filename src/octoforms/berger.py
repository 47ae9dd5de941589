"""Monte-Carlo reconstruction of the canonical 8-form from octonionic lines.

A point of S^8, split as (u, r) with u in O and |u|^2 + r^2 = 1, determines
the octonionic line through the +1 eigenspace of the corresponding involution:
in the affine chart m = u / (1 + r) the line is spanned by the orthonormal
rows (e_i, e_i m) / sqrt(1 + |m|^2).  The pullback of the line's volume form
under orthogonal projection is the 8-form whose blade coefficients are the
maximal minors of that 8x16 row matrix; averaging over uniformly sampled
lines recovers a multiple of the canonical 8-form.

Coefficient bookkeeping: a blade picks |S| plain coordinates (columns of the
identity block) and |T| = 8 - |S| primed coordinates (columns of A, where
A[i, :] holds the coordinates of e_i m), so

    coeff(S, T) = eps(S) * det(A[rows not in S, T]) / (1 + |m|^2)^4,

with eps(S) the Laplace sign of eliminating the identity columns.  A is a
right octonion multiplication matrix, so A A^T = |m|^2 I and det A = |m|^8,
and Jacobi's complementary-minor theorem gives, with 0-based indices,

    det A[R, T] = (-1)^(sum(R) + sum(T)) * |m|^(2k - 8) * det A[R^c, T^c]

for |R| = |T| = k.  The plan therefore keeps only the minors of sizes 0-4
(size 4 only for row sets holding row 0); every other slot reads its
complementary minor, its sign folded into the slot's eps and its power of
|m|^2 into the sample weight the minor is summed against.

Monomial moments: every entry of A is +-m_j, so each of these minors is an
integer polynomial of degree <= 4 in the eight coordinates of m (at most 20
monomials, coefficients at most 2 in size).  The plan expands the minors into
monomials once, over the integers.  A block then sums only monomials against
the weight columns, in float64: the 495 of degree <= 4, each the product of
two lower ones.  It works through its samples in chunks of 128 with three
arrays allocated once per block: the 495 rows and two buffers into which
each product stage gathers its factor rows.  The groups return these
monomial sums, and a call contracts their total to the 12870 slot sums once.
The plan keeps its index tables as int16 and its signs as int8.

Exact moments: on the chart, the weight and each Jacobi factor are
polynomials in (u, r), so every moment of a slot value and of its square has
an exact mean over S^8: a rational over 16 * 9 * 11 for the slot values,
whose monomials have degree <= 4, and over 256 * 9 * 11 * 13 * 15 for their
squares, of degree <= 8.  ``exact_mean`` puts the first through the slot-sum
contraction, the code the sampled moments go through, in int64; the result is
Phi / 132 slot by slot, and ``phi_dense``, the target the samples are fitted
to, reads Phi off it.  ``exact_second_moment`` puts the second through the
squares of the state polynomials (``_squares``), also in int64, so the
standard deviation a call reports is exact, and the samples are never
squared.

Workers: the samples are cut into 64 fixed block groups, and a call runs
one worker per _MIN_GROUPS_PER_WORKER groups, up to the usable CPUs
(``fanout.worker_count``) and to the caller's cap.  The caller is worker 0:
``fanout.fan_out`` forks the others after the plan is built, so they
inherit it, and runs the caller's own groups between reads of theirs.  The
caller folds each group's moments in group order as they arrive.  With one
worker nothing is forked and the groups run in the caller.

Determinism: samples are generated by the counter-based Philox generator, 12
uniforms per sample (so every fixed-size block starts on a counter boundary),
converted by Box-Muller; blocks and their chunks have a fixed size, block
groups are fixed in number, per-chunk sums go through einsum's fixed-order
loops rather than BLAS, the fit uses correctly rounded sums, and reduction
folds group results in index order.  Each moment is one monomial row's sum
over one chunk, added chunk by chunk, whether or not workers are forked.  The
output is therefore bit-identical per seed, independent of the worker count
and of the BLAS thread count, for a given numpy build and CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations

import numpy as np

from . import _INT64_SAFE, fanout
from .cayley_dickson import unit_signs

_BLOCK = 1024
_GROUPS = 64
# A second worker pays only when it saves more block times than its fork
# costs; the caller is worker 0, so two workers fork once.  On a 2-vCPU VM,
# the first berger_mc(N, seed=1) call of a fresh process, the default (two
# workers) against workers=1, timed inside the process in two series of 10
# alternating pairs, was slower in 3 and 5 of 10 pairs at 8192 samples
# (median -2.7 and -0.2 ms), in 1 and 2 of 10 at 16384 (-6.8 and -5.7 ms)
# and in 1 of 10 at 32768 (-20.6 ms).  Whole `octoforms berger --samples N
# --seed 1` runs, start-up included, read within their noise (default slower
# in 6 and 6, 6 and 4, 7 and 2 of 10).  So two workers break even at 8
# one-block groups and win from 16 on: a worker needs 4 groups.
_MIN_GROUPS_PER_WORKER = 4
_CHUNK = 128  # samples per monomial pass, so the monomial rows stay cache-sized
# states whose squares exact_second_moment contracts at a time: the level-4
# block is 256 x 210 int64, 0.43 MB, and the whole level would be 4.1 MB
_STATE_BLOCK = 256
_DRAWS_PER_SAMPLE = 12  # multiple of 4: Philox counter units hold 4 doubles
# The exact means of w^p m^alpha read sphere moments of degree <= 4p in (u, r):
# integers over 16^p (the weight's 2^-4, to the p) times 9 * 11 * ... * (7 + 4p).
_MEAN_DEN = 16 * 9 * 11  # p = 1, the slot values: 1584
_SECOND_DEN = 16**2 * 9 * 11 * 13 * 15  # p = 2, their squares: 4942080
# the variance E[c^2] - E[c]^2 over lcm(_SECOND_DEN, _MEAN_DEN^2) = 33 * 4942080
_VAR_DEN = math.lcm(_SECOND_DEN, _MEAN_DEN**2)
# (2j - 1)!! for j = 0..4: the factors of the even sphere moments of degree <= 8
_DOUBLE_FACTORIAL = [math.prod(range(1, 2 * j, 2)) for j in range(5)]


def _subsets(n: int, k: int) -> tuple:
    """(elements, masks) of the k-subsets of range(n), in lexicographic order."""
    count = math.comb(n, k)
    el = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.int64, count * k)
    el = el.reshape(count, k)
    return el, (1 << el).sum(axis=1)


@lru_cache(maxsize=1)
def slot_masks() -> np.ndarray:
    """Bitmasks of all C(16,8) grade-8 blades, ordered lexicographically.

    Among subsets of one size, lexicographic order of the sorted index tuples
    is descending order of the masks with their 16 bits reversed, so the
    masks come from a popcount and one sort, not from 12870 combinations.
    """
    masks = np.arange(1 << 16)
    masks = masks[np.bitwise_count(masks) == 8]
    reversed_masks = np.zeros_like(masks)
    for i in range(16):
        reversed_masks |= (masks >> i & 1) << (15 - i)
    return masks[np.argsort(-reversed_masks)]


def _narrow(a: np.ndarray) -> np.ndarray:
    """The integer array `a` as int16, which must hold all of its values: a
    table that outgrows the type raises ValueError instead of wrapping."""
    info = np.iinfo(np.int16)
    if a.size and (a.min() < info.min or a.max() > info.max):
        raise ValueError(f"values {a.min()}..{a.max()} do not fit int16")
    return a.astype(np.int16)


@lru_cache(maxsize=1)
def _slot_of_mask() -> np.ndarray:
    """The slot of each grade-8 blade mask, indexed by mask (-1 off grade 8)."""
    out = np.full(1 << 16, -1)
    out[slot_masks()] = np.arange(12870)
    return _narrow(out)


def slot_blade(slot: int) -> tuple:
    """1-based indices of the blade stored at a slot."""
    m = int(slot_masks()[slot])
    return tuple(i + 1 for i in range(16) if m >> i & 1)


def _eps(s_bits: tuple) -> int:
    """Laplace sign of eliminating identity columns at 0-based rows s_bits."""
    k = len(s_bits)
    return -1 if (sum(s_bits) + k + k * (k + 1) // 2) % 2 else 1


def _is_direct(k: int, rows: np.ndarray) -> np.ndarray:
    """Per row-set mask R: True if det A[R, T], |T| = k, is a plan state;
    False if it is read from its Jacobi partner det A[R^c, T^c].

    Levels 0-3 are expanded whole; level 4 only for row sets holding row 0,
    since the other half are the complementary minors of the first.
    """
    if k == 4:
        return rows & 1 == 1
    return np.full(len(rows), k < 4)


def _monomials(d: int) -> np.ndarray:
    """Sorted keys of the degree-d monomials in the coordinates m_0..m_7.

    A key reads a monomial's exponent vector in base 9, so up to total degree
    8 the key of a product is the sum of its factors' keys.
    """
    count = math.comb(d + 7, d)
    el = np.fromiter(chain.from_iterable(combinations_with_replacement(range(8), d)), np.int64,
                     count * d)
    return np.sort((9 ** el.reshape(count, d)).sum(axis=1))


def _split(keys: np.ndarray, k: int) -> tuple:
    """Each monomial as the keys of (its k lowest variables, the others)."""
    digits = keys[:, None] // 9 ** np.arange(8) % 9
    before = np.cumsum(digits, axis=1) - digits
    low = (np.clip(k - before, 0, digits) * 9 ** np.arange(8)).sum(axis=1)
    return low, keys - low


def _minor_polys(k: int) -> tuple:
    """The level-k states as exact polynomials in m: rows of monomials (into
    ``_monomials(k)``, ascending) and int8 coefficients, left-aligned and
    zero-padded; states numbered as in ``_plan``.

    A[i, c] = S[i, j] m_j with j = i xor c and S = ``unit_signs(3)``, so each
    of the k! Leibniz terms of det A[R, T] is a signed monomial; the terms
    are merged per state, and no merged coefficient exceeds 2 in size.
    """
    keys = _monomials(k)
    if k == 0:
        return np.zeros((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int8)
    t_el, t_masks = _subsets(8, k)
    t_el = t_el.astype(np.int8)
    r_el = t_el[_is_direct(k, t_masks)][:, None, None, :]
    perms = np.array(list(permutations(range(k))))
    parity = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2)) % 2
    var = r_el ^ t_el[:, perms][None]  # (R, T, term, factor)
    signs = unit_signs(3).astype(np.int8)[r_el, var].prod(axis=-1, dtype=np.int8)
    # each term's monomial, one variable at a time: times[j, i] is the index
    # of m_j times monomial i of the degree below
    mono = np.zeros(var.shape[:-1], dtype=np.int64)
    for d in range(1, k + 1):
        below = _monomials(d - 1)
        times = np.searchsorted(_monomials(d), below[None, :] + 9 ** np.arange(8)[:, None])
        mono = times[var[..., d - 1], mono]
    n = len(r_el) * len(t_el)
    flat = np.arange(n).reshape(len(r_el), len(t_el), 1) * len(keys) + mono
    merged = np.zeros(n * len(keys), dtype=np.int8)
    np.add.at(merged, flat.ravel(), (signs * (1 - 2 * parity).astype(np.int8)).ravel())
    nonzero = np.flatnonzero(merged != 0)
    state, mono = np.divmod(nonzero, len(keys))
    count = np.bincount(state, minlength=n)
    pos = np.arange(len(state)) - (np.cumsum(count) - count)[state]
    cols = np.zeros((n, count.max()), dtype=np.int64)
    vals = np.zeros((n, count.max()), dtype=np.int8)
    cols[state, pos] = mono
    vals[state, pos] = merged[nonzero]
    return cols, vals


def _squares(k: int, cols: np.ndarray, vals: np.ndarray) -> tuple:
    """The squares of the level-k state polynomials, as pair products over
    the upper triangle of each row of ``_minor_polys(k)``.

    Returns (support, at, coef, touched): touched holds the sorted keys of
    the degree-2k monomials the squares touch; state s has the pair products
    coef[s] (int8) on the monomials touched[at[support[s]]].  Which monomial
    a pair touches depends only on the state's support, and the 2450 level-4
    states have 252 supports.
    """
    # equal rows sort together as raw bytes (np.unique with axis=0 is slower)
    order = np.argsort(cols.view(f"V{cols.itemsize * cols.shape[1]}").ravel(), kind="stable")
    new = np.r_[True, (cols[order[1:]] != cols[order[:-1]]).any(axis=1)]
    first = order[new]
    support = np.empty(len(cols), dtype=np.int64)
    support[order] = np.cumsum(new) - 1
    # padding follows the first entry and the monomials ascend, so it reads 0
    real = vals[first] != 0
    a, b = np.triu_indices(cols.shape[1])
    keys = _monomials(k)[cols[first]]
    prod = keys[:, a] + keys[:, b]
    real = real[:, a] & real[:, b]
    touched = np.sort(prod[real])  # np.unique would import numpy.ma (~35 ms)
    touched = touched[np.diff(touched, prepend=-1) != 0]
    at = np.searchsorted(touched, np.where(real, prod, touched[0]))
    # the triangle row by row: a column gather is several times slower
    coef = np.concatenate([vals[:, i : i + 1] * vals[:, i:] for i in range(cols.shape[1])], axis=1)
    coef *= np.where(a == b, 1, 2).astype(np.int8)
    return support, at, coef, touched


def _stage(first: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """A product stage x[first + i] = x[a[i]] x[b[i]] as (first, a, b).
    Every factor row must precede the stage: the block gathers with
    np.take(mode="clip"), which would clamp a bad index where x[a] raised."""
    if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= first:
        raise ValueError(f"a factor row of the stage at row {first} is not below it")
    return first, a, b


@lru_cache(maxsize=1)
def _plan() -> dict:
    """Static plan: per level 0-4 the exact state polynomials and the slot
    hooks; the per-sample monomial rows; the moment layout.

    Level k holds det A[R, T] for pairs of k-subsets, R and T sorted (at
    level 4, only R holding row 0); level 0 is the empty minor 1.  States are
    numbered R-major in lexicographic order, so the state of (R, T) is
    rank(R) C(8, k) + rank(T), with rank the lexicographic position of a
    subset among those of its size: the row sets holding row 0 come first.
    A slot (S, T) with a direct minor hooks to the state (S^c, T).  Every
    other slot hooks, by Jacobi's theorem, to the state (S, T^c) at level
    8 - |T|: the sign (-1)^(sum(S^c) + sum(T)) is folded into eps, and
    |m|^(2(|T|-4)) into the weight column (col 1) the level's monomials are
    reduced against.

    A block fills the `rows` rows x of its monomials: x[0] = 1, x[1:9] = m,
    then the monomials of degrees 2, 3 and 4, each the product x[a] x[b] of
    two earlier rows; `stages` holds these products as (first, a, b), one
    per degree.  A reduction (c, lo, hi, at) sums weight column c, w
    |m|^(2c), against rows lo:hi of x into moments at:at + hi - lo.

    Every index table of a level (state, slot, col, sum_at and the monomial
    columns of poly) is int16 and eps is int8 (+-1); ``_narrow`` raises if a
    table outgrows int16.  The block's gather indices in stages stay intp,
    which np.take would otherwise convert on every call.
    """
    subsets = [_subsets(8, k) for k in range(9)]
    rank = np.zeros(256, dtype=np.int64)
    for _, masks in subsets:
        rank[masks] = np.arange(len(masks))

    def states(k, r_masks, t_masks):
        return (rank[r_masks] * math.comb(8, k))[:, None] + rank[t_masks][None, :]

    slot_of = _slot_of_mask()
    parts = [[] for _ in range(5)]
    for k in range(9):
        s_el, s_masks = subsets[8 - k]
        t_el, t_masks = subsets[k]
        comp = 255 ^ s_masks
        direct = _is_direct(k, comp)[:, None]
        eps = np.array([_eps(s) for s in s_el.tolist()], dtype=np.int8)[:, None]
        flip = (28 - s_el.sum(axis=1))[:, None] + t_el.sum(axis=1)[None, :]
        eps = np.where(direct | (flip % 2 == 0), eps, -eps)
        state = np.where(direct, states(k, comp, t_masks), states(8 - k, s_masks, 255 ^ t_masks))
        slot = slot_of[s_masks[:, None] | t_masks[None, :] << 8]
        level = np.broadcast_to(np.where(direct, k, 8 - k), state.shape)
        for lv in {k, 8 - k}:
            sel = level == lv
            if sel.any():
                parts[lv].append((state[sel], slot[sel], eps[sel], np.full(sel.sum(), int(k > 4))))

    keys = [_monomials(d) for d in range(5)]
    start = np.cumsum([0] + [len(x) for x in keys])  # first row of each degree
    stages = []
    for d in (2, 3, 4):
        low, high = _split(keys[d], d - 1)
        stages.append(_stage(start[d], start[d - 1] + np.searchsorted(keys[d - 1], low),
                             1 + np.searchsorted(keys[1], high)))
    # moment layout: column 0 against every row, then column 4 - k against
    # the degree-k rows, k = 0..3 (level 4's Jacobi slots are its own states)
    spans = [(0, 0, start[5])] + [(4 - k, start[k], start[k + 1]) for k in range(4)]
    offsets = np.cumsum([0] + [hi - lo for _, lo, hi in spans])
    levels = []
    for k, part in enumerate(parts):
        state, slot, eps, col = map(np.concatenate, zip(*part))
        cols, vals = _minor_polys(k)
        # moment indices of the level's monomials: col 0, then col 1
        sum_at = np.array([offsets[0] + start[k]] + [offsets[1 + k]] * (k < 4))
        levels.append({"state": _narrow(state), "slot": _narrow(slot), "eps": eps,
                       "col": _narrow(col), "poly": (_narrow(cols), vals),
                       "sum_at": _narrow(sum_at[:, None, None] + cols)})
    reductions = [(c, lo, hi, at) for (c, lo, hi), at in zip(spans, offsets)]
    return {"levels": levels, "rows": start[5], "stages": stages, "reductions": reductions,
            "moments": offsets[-1]}


def _block_uniforms(seed: int, block: int, count: int) -> np.ndarray:
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(block * _BLOCK * _DRAWS_PER_SAMPLE // 4)
    return np.random.Generator(bitgen).random(count * _DRAWS_PER_SAMPLE)


def _sample_sphere9(seed: int, block: int, count: int) -> np.ndarray:
    """`count` unit 9-vectors for one block, via Box-Muller normals.

    Of the 12 uniforms a sample owns, the first 10 are 5 (radius, angle)
    pairs; normal 2i is radius_i cos(angle_i) and normal 2i + 1 is
    radius_i sin(angle_i), and only the first 9 normals are drawn.
    """
    u = _block_uniforms(seed, block, count).reshape(count, _DRAWS_PER_SAMPLE)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0:10:2]))
    angle = 2.0 * np.pi * u[:, 1:10:2]
    v = np.empty((count, 9), dtype=np.float64)
    v[:, 0::2] = radius * np.cos(angle)
    v[:, 1::2] = radius[:, :4] * np.sin(angle[:, :4])
    norm = np.sqrt(np.sum(v * v, axis=1))
    norm = np.maximum(norm, 1e-300)
    return v / norm[:, None]


def _process_block(seed: int, block: int, count: int, moments: np.ndarray):
    """Add one block's weighted monomial sums to `moments`."""
    v = _sample_sphere9(seed, block, count)
    u8 = v[:, :8]
    r = v[:, 8]
    denom = 1.0 + r
    valid = denom > 1e-9
    safe = np.where(valid, denom, 1.0)
    m8 = u8 / safe[:, None]
    mm = np.sum(m8 * m8, axis=1)
    # orientation of every line basis chosen so the estimator aligns with +Phi
    w = np.where(valid, -((1.0 + mm) ** -4), 0.0)
    # weight columns w |m|^(2e), e = 0..4: the Jacobi factors
    cols = w * mm[None, :] ** np.arange(5)[:, None]

    plan = _plan()
    # reused for every chunk: fresh arrays of this size would be page-faulted
    # in chunk by chunk
    x = np.empty((plan["rows"], _CHUNK))
    width = max(len(a) for _, a, _ in plan["stages"])
    fa = np.empty((width, _CHUNK))
    fb = np.empty((width, _CHUNK))
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        xs, ga, gb = x[:, :n], fa[:, :n], fb[:, :n]
        weights = cols[:, lo : lo + n]
        xs[0] = 1.0
        xs[1:9] = m8[lo : lo + n].T
        # "clip" lets take write straight into out; _stage checked the indices
        for first, a, b in plan["stages"]:
            np.take(xs, a, axis=0, out=ga[: len(a)], mode="clip")
            np.take(xs, b, axis=0, out=gb[: len(b)], mode="clip")
            np.multiply(ga[: len(a)], gb[: len(b)], out=xs[first : first + len(a)])
        # reductions run through einsum's fixed summation order, not BLAS
        for c, r0, r1, at in plan["reductions"]:
            moments[at : at + r1 - r0] += np.einsum("c,rc->r", weights[c], xs[r0:r1])


def _slot_sums(moments: np.ndarray) -> np.ndarray:
    """The 12870 slot sums from monomial moments, in the moments' dtype:
    float64 sums of samples in ``berger_mc``, int64 exact means in
    ``exact_mean``.  Each slot reads one (level, column, state) value, the
    einsum of the state's polynomial coefficients against its moments, times
    the slot's eps."""
    sums = np.zeros(12870, dtype=moments.dtype)
    # per level, slot positions are distinct, so fancy += is safe
    for lv in _plan()["levels"]:
        value = np.einsum("csw,sw->cs", moments[lv["sum_at"]], lv["poly"][1])
        sums[lv["slot"]] += lv["eps"] * value[lv["col"], lv["state"]]
    return sums


def _line_moments(keys: np.ndarray, p: int = 1) -> np.ndarray:
    """_MEAN_DEN (p = 1) or _SECOND_DEN (p = 2) times the exact means over
    S^8 of w^p m^alpha, for the monomials with the given keys (as in
    ``_monomials``), all of one degree d, as Python ints (dtype object).

    On the chart, 1 + |m|^2 = 2 / (1 + r), so the weight w = -(1 + |m|^2)^-4
    of ``_process_block`` gives w^p m^alpha = (-1)^p (1 + r)^(4p - d) u^alpha
    / 16^p.  Expanded binomially, each term is a sphere moment: for beta =
    (alpha, j) all even, E[u^alpha r^j] = prod (beta_i - 1)!! / (9 * 11 * ...
    * (7 + |beta|)), and 0 otherwise (Folland, Amer. Math. Monthly 108,
    2001).  |beta| <= 4p, so the denominator for p clears every one.

    One row serves both weight columns: with |m|^2 = (1 - r) / (1 + r), the
    Jacobi column's w^p |m|^(2p(4 - k)) m^alpha, d = pk, is the same
    expression with 1 - r for 1 + r.  r -> -r preserves the measure and
    changes only the odd powers of r, whose moments vanish.
    """
    alpha = keys[:, None] // 9 ** np.arange(8) % 9
    d = int(alpha[0].sum())
    table = np.array(_DOUBLE_FACTORIAL, dtype=object)
    den = (_MEAN_DEN, _SECOND_DEN)[p - 1]
    out = np.zeros(len(alpha), dtype=object)
    for j in range(4 * p - d + 1):
        beta = np.c_[alpha, np.full(len(alpha), j)]
        moment = table[beta // 2].prod(axis=1) * (beta % 2 == 0).all(axis=1)
        # den / (16^p * 9 * 11 * ... * (7 + |beta|)), with |beta| = d + j
        out += math.comb(4 * p - d, j) * den // (16**p * math.prod(range(9, 8 + d + j, 2))) * moment
    return (-1) ** p * out


def _int64_bound(coef_sum: int, moments: np.ndarray) -> None:
    """Refuse an int64 contraction whose terms could wrap: a state's value
    is at most its sum of |coefficients| times the largest |moment|, and
    every slot reads one state."""
    top = coef_sum * max(abs(x) for x in moments.tolist())
    if top >= _INT64_SAFE:
        raise ValueError(f"exact slot sums reach {top}, past the int64 bound {_INT64_SAFE}")


def exact_mean() -> tuple:
    """(numerators, denominator): the exact mean over uniform lines of every
    slot's line value, int64 numerators of the 12870 slots over the int
    _MEAN_DEN, in the orientation of ``berger_mc``'s estimator.

    Each monomial moment the slot sums read is replaced by its exact mean
    (``_line_moments``), and the moments go through ``_slot_sums`` in int64.
    The largest sum of |coefficients| of a state is 20 and the largest
    moment numerator 168 (the 7/66 of level 0), so no int64 sum wraps while
    their product is below _INT64_SAFE; past it, ValueError.
    """
    plan = _plan()
    moments = np.zeros(plan["moments"], dtype=object)
    coef_sum = 0
    for k, lv in enumerate(plan["levels"]):
        cols, vals = lv["poly"]
        moments[lv["sum_at"]] = _line_moments(_monomials(k))[cols]
        coef_sum = max(coef_sum, int(np.abs(vals).sum(axis=1, dtype=np.int64).max()))
    _int64_bound(coef_sum, moments)
    return _slot_sums(moments.astype(np.int64)), _MEAN_DEN


def exact_second_moment() -> tuple:
    """(numerators, denominator): the exact mean over uniform lines of the
    square of every slot's line value, int64 numerators of the 12870 slots
    over the int _SECOND_DEN.

    A slot's square is w^2 P^2 times its Jacobi factor squared, for the
    state polynomial P it reads; ``_squares`` expands P^2 into pair products
    on degree-2k monomials, whose exact means ``_line_moments`` gives.
    The pair products of _STATE_BLOCK states are cast to int64 and
    contracted at a time, so the level-4 table is never held in int64 whole.
    Each level is bounded on its own: no int64 sum wraps while the level's
    largest sum of |pair coefficients| of a state times its largest |moment|
    is below _INT64_SAFE; past it, ValueError.
    """
    out = np.zeros(12870, dtype=np.int64)
    for k, lv in enumerate(_plan()["levels"]):
        support, at, coef, touched = _squares(k, *lv["poly"])
        moments = _line_moments(touched, 2)
        _int64_bound(int(np.abs(coef).sum(axis=1, dtype=np.int64).max()), moments)
        moments = moments.astype(np.int64)
        value = np.empty(len(support), dtype=np.int64)
        for lo in range(0, len(support), _STATE_BLOCK):
            hi = lo + _STATE_BLOCK
            value[lo:hi] = np.einsum("sp,sp->s", moments[at[support[lo:hi]]],
                                     coef[lo:hi].astype(np.int64))
        # both columns of a state have equal moments, and eps^2 = 1
        out[lv["slot"]] = value[lv["state"]]
    return out, _SECOND_DEN


def _group_worker(args):
    seed, blocks, n_samples = args
    moments = np.zeros(_plan()["moments"], dtype=np.float64)
    for b in blocks:
        count = min(_BLOCK, n_samples - b * _BLOCK)
        _process_block(seed, b, count, moments)
    return moments


@dataclass(frozen=True)
class SampledForm:
    n: int
    grade: int
    coeffs: np.ndarray  # per-slot Monte-Carlo means, lexicographic blades
    sigma: np.ndarray  # per-slot standard deviation of the mean, exact up to rounding
    samples: int
    seed: int


@dataclass(frozen=True)
class FitReport:
    samples: int
    seed: int
    workers: int  # the processes that ran groups, the caller included
    fitted_scale: float
    cosine_similarity: float
    # the exact line average over Phi, slot by slot: the content of
    # exact_mean's numerators over its denominator, 1/132 (each line pairs
    # with Phi to 14, and |Phi|^2 = 1848); fitted_scale estimates it
    candidate_scale: float
    zero_slots: int
    zero_slots_within_3sigma: int
    max_zero_sigma_ratio: float


@lru_cache(maxsize=1)
def _line_average() -> tuple:
    """(Phi, content): ``exact_mean`` is content * Phi / _MEAN_DEN slot by
    slot, with Phi its numerators divided by their content (read-only
    int64)."""
    num, _ = exact_mean()
    content = int(np.gcd.reduce(num))
    phi = num // content
    phi.flags.writeable = False
    return phi, content


@lru_cache(maxsize=1)
def _line_variance() -> np.ndarray:
    """The exact variance E[c^2] - E[c]^2 of every slot's line value c, as
    int64 numerators over _VAR_DEN (all positive, at most 2347200)."""
    phi, content = _line_average()
    second, _ = exact_second_moment()
    return _VAR_DEN // _SECOND_DEN * second - _VAR_DEN // _MEAN_DEN**2 * (content * phi) ** 2


def phi_dense() -> np.ndarray:
    """The canonical 8-form as a dense, read-only 12870-slot integer vector.

    Berger's line average, read off exactly: the numerators of
    ``exact_mean`` divided by their content, in the mean's orientation.  The
    tests and ``verify`` tie the result to the charpoly route slot by slot,
    and the content to 1/132.
    """
    return _line_average()[0]


def _group_tasks(samples: int, seed: int) -> list:
    """The non-empty block groups, in the order their results are folded."""
    nblocks = -(-samples // _BLOCK)
    group_bounds = np.linspace(0, nblocks, _GROUPS + 1).astype(int)
    return [
        (seed, range(group_bounds[g], group_bounds[g + 1]), samples)
        for g in range(_GROUPS)
        if group_bounds[g] < group_bounds[g + 1]
    ]


def berger_mc(samples: int, seed: int = 0, workers: int | None = None):
    """Average the line-volume pullbacks over `samples` uniform lines, with
    as many workers as the work pays for, at most `workers` if given.

    Returns (SampledForm, FitReport).  Bit-reproducible for fixed seed and
    sample count, independent of the worker count and of BLAS threads, for a
    given numpy build and CPU.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if not 0 <= seed < 1 << 128:
        raise ValueError("seed must be in [0, 2**128), the range of Philox keys")
    tasks = _group_tasks(samples, seed)
    # the task list and the reduction order are fixed, so the worker count is
    # pure execution detail: capped at the usable CPUs to avoid thrash, and
    # at the workers that the groups keep busy long enough to pay the fork
    limit = len(tasks) // _MIN_GROUPS_PER_WORKER
    procs = fanout.worker_count(limit if workers is None else min(workers, limit))
    # built before any fork, so that the workers inherit the plan
    moments = np.zeros(_plan()["moments"], dtype=np.float64)
    # loaded here rather than at import, which mc setup_s times, and before
    # the fan-out, so that forked workers inherit it instead of each
    # importing it (15-18 ms)
    import numpy.random  # noqa: F401

    # group results are folded in group order as they arrive: a fixed,
    # deterministic reduction that does not hold every group's sums at once
    for part in fanout.fan_out(_group_worker, tasks, procs, "block group"):
        moments += part
    mean = _slot_sums(moments) / samples
    # the standard deviation of the mean from the exact variance of one line
    sigma_mean = np.sqrt(_line_variance() / _VAR_DEN / samples)

    # correctly rounded sums, so the fit does not depend on BLAS threads
    phi, content = _line_average()
    phi_sq = int(phi @ phi)  # exact: int64
    dot = math.fsum(mean * phi)
    fitted = dot / phi_sq
    cos = dot / (math.sqrt(math.fsum(mean * mean)) * math.sqrt(phi_sq))
    zero = phi == 0
    ratios = np.abs(mean[zero]) / sigma_mean[zero]
    report = FitReport(
        samples=samples,
        seed=seed,
        workers=procs,
        fitted_scale=fitted,
        cosine_similarity=cos,
        candidate_scale=content / _MEAN_DEN,
        zero_slots=int(zero.sum()),
        zero_slots_within_3sigma=int((ratios <= 3.0).sum()),
        max_zero_sigma_ratio=float(ratios.max()),
    )
    form = SampledForm(
        n=16, grade=8, coeffs=mean, sigma=sigma_mean, samples=samples, seed=seed
    )
    return form, report
