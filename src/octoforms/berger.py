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
monomials, coefficients at most 2 in size) and its square one of degree <= 8.
The plan expands the minors and their squares into monomials once, over the
integers.  A block then sums only monomials against the weight columns, in
float64: the 495 of degree <= 4 for the slot sums and the 1126 the squares
touch for the sums of squares, each monomial the product of two lower ones.
It works through its samples in chunks of 128 with three arrays allocated
once per block: the 495 rows of degree <= 4 and two gather buffers of 512
rows.  Each product stage gathers its factor rows slab by slab into the
buffers; the square monomials are never stored, and each slab of them is
reduced against its weight columns while it is still in cache.  The groups
return these monomial sums, and a call contracts their total to the 12870
slot sums and sums of squares once.

Workers: the samples are cut into 64 fixed block groups.  With more than one
worker and enough groups, the call forks its workers through
``fanout.fan_out`` after the plan is built, so they inherit it.  Worker w
runs groups w, w + P, w + 2P, ... (P workers) and pickles each group's
moments into its own pipe; the parent reads group g from pipe g % P, which
gives the groups in index order, and folds each as it arrives.  The parent
starts no thread and sends the workers nothing.  Without os.fork, or with
too few groups to pay for it, the groups run serially.

Determinism: samples are generated by the counter-based Philox generator, 12
uniforms per sample (so every fixed-size block starts on a counter boundary),
converted by Box-Muller; blocks and their chunks have a fixed size, block
groups are fixed in number, per-chunk sums go through einsum's fixed-order
loops rather than BLAS, the fit uses correctly rounded sums, and reduction
folds group results in index order.  Each moment is one monomial row's sum
over one chunk, added chunk by chunk, however the rows are split into slabs
and whether or not workers are forked.  The output is therefore bit-identical
per seed, independent of the worker count and of the BLAS thread count, for a
given numpy build and CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations

import numpy as np

from . import fanout
from .canonical import cgm_form
from .cayley_dickson import unit_signs

_BLOCK = 1024
_GROUPS = 64
# Forked workers pay only when each saves more block times than the fan-out
# costs.  On a 2-vCPU VM a warm block took about 6.3 ms, two forked workers
# returned their first one-block group after 11-15 ms, and berger_mc at 2
# workers took 23-29 ms longer than half the 1-worker time at 6-14 blocks.
# So a worker needs 25 / 6.3, rounded up, groups: two workers start at 8192
# samples, where they saved about 3 ms of 55, and not at 6144, where they
# would lose 4 ms.
_MIN_GROUPS_PER_WORKER = 4
_CHUNK = 128  # samples per monomial pass, so the monomial rows stay cache-sized
_SLAB = 512  # product rows gathered and reduced at a time
_DRAWS_PER_SAMPLE = 12  # multiple of 4: Philox counter units hold 4 doubles


def _subsets(n: int, k: int) -> tuple:
    """(elements, masks) of the k-subsets of range(n), in lexicographic order."""
    count = math.comb(n, k)
    el = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.int64, count * k)
    el = el.reshape(count, k)
    return el, (1 << el).sum(axis=1)


@lru_cache(maxsize=1)
def slot_masks() -> np.ndarray:
    """Bitmasks of all C(16,8) grade-8 blades, ordered lexicographically."""
    return _subsets(16, 8)[1]


@lru_cache(maxsize=1)
def _slot_of_mask() -> np.ndarray:
    """The slot of each grade-8 blade mask, indexed by mask (-1 off grade 8)."""
    out = np.full(1 << 16, -1, dtype=np.int64)
    out[slot_masks()] = np.arange(12870)
    return out


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


def _slabs(first: int, a: np.ndarray, b: np.ndarray) -> list:
    """A product stage x[first + i] = x[a[i]] x[b[i]] as (first, a, b) slabs
    of at most _SLAB rows.  Every factor row must precede the stage: the
    block gathers with np.take(mode="clip"), which would clamp a bad index
    where x[a] raised."""
    if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= first:
        raise ValueError(f"a factor row of the stage at row {first} is not below it")
    return [(first + i, a[i : i + _SLAB], b[i : i + _SLAB]) for i in range(0, len(a), _SLAB)]


@lru_cache(maxsize=1)
def _plan() -> dict:
    """Static plan: per level 0-4 the exact state polynomials, their squares
    and the slot hooks; the per-sample monomial rows; the moment layout.

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
    two earlier rows; `stages` holds these products as (first, a, b) slabs.
    The squares' monomials of levels 0-4 are products of two rows of x too,
    numbered on after x's rows; `squares` holds them as (a, b, sums) slabs.
    A reduction (c, lo, hi, at) sums weight column c against rows lo:hi, of
    x in `reductions` and of its slab in `sums`, into moments at:at + hi -
    lo; columns 0-4 are w |m|^(2e), 5-9 are w^2 |m|^(4e).
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
        eps = np.array([_eps(s) for s in s_el.tolist()], dtype=np.float64)[:, None]
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
        stages += _slabs(start[d], start[d - 1] + np.searchsorted(keys[d - 1], low),
                         1 + np.searchsorted(keys[1], high))
    levels, sq_start, pairs = [], [start[5]], []
    for k, part in enumerate(parts):
        state, slot, eps, col = map(np.concatenate, zip(*part))
        poly = _minor_polys(k)
        square = _squares(k, *poly)
        touched = square[3]
        low, high = _split(touched, k)
        pairs.append((start[k] + np.searchsorted(keys[k], low),
                      start[k] + np.searchsorted(keys[k], high)))
        sq_start.append(sq_start[-1] + len(touched))
        levels.append({"state": state, "slot": slot, "eps": eps, "col": col,
                       "poly": poly, "square": square})

    # moment layout over the rows of x followed by the squares' rows
    spans = [(0, 0, start[5]), (5, start[5], sq_start[5])]
    spans += [(4 - k, start[k], start[k + 1]) for k in range(4)]
    spans += [(9 - k, sq_start[k], sq_start[k + 1]) for k in range(4)]
    offsets = np.cumsum([0] + [hi - lo for _, lo, hi in spans])
    reductions = [(c, lo, hi, at) for (c, lo, hi), at in zip(spans, offsets) if hi <= start[5]]
    squares = []
    for first, a, b in _slabs(start[5], *map(np.concatenate, zip(*pairs))):
        end = first + len(a)
        sums = [(c, max(lo, first) - first, min(hi, end) - first, at + max(lo, first) - lo)
                for (c, lo, hi), at in zip(spans, offsets)
                if lo >= start[5] and lo < end and hi > first]
        squares.append((a, b, sums))
    for k, lv in enumerate(levels):
        # moment indices of each level's monomials: col 0, then col 1
        sums = [offsets[0] + start[k]] + [offsets[2 + k]] * (k < 4)
        sq = [offsets[1] + sq_start[k] - start[5]] + [offsets[6 + k]] * (k < 4)
        lv["sum_at"] = np.array(sums)[:, None, None] + lv["poly"][0]
        lv["sq_at"] = np.array(sq)[:, None, None] + lv["square"][1]
    return {"levels": levels, "rows": start[5], "stages": stages, "reductions": reductions,
            "squares": squares, "moments": offsets[-1]}


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
    # weight columns w |m|^(2e) and w^2 |m|^(4e), e = 0..4: the Jacobi factors
    mm_pow = mm[None, :] ** np.arange(5)[:, None]
    cols = np.concatenate([w * mm_pow, (w * mm_pow) ** 2])

    plan = _plan()
    # reused for every chunk: fresh arrays of this size would be page-faulted
    # in chunk by chunk
    x = np.empty((plan["rows"], _CHUNK))
    fa = np.empty((_SLAB, _CHUNK))
    fb = np.empty((_SLAB, _CHUNK))
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        xs, ga, gb = x[:, :n], fa[:, :n], fb[:, :n]
        weights = cols[:, lo : lo + n]
        xs[0] = 1.0
        xs[1:9] = m8[lo : lo + n].T
        # "clip" lets take write straight into out; _slabs checked the indices
        for first, a, b in plan["stages"]:
            np.take(xs, a, axis=0, out=ga[: len(a)], mode="clip")
            np.take(xs, b, axis=0, out=gb[: len(b)], mode="clip")
            np.multiply(ga[: len(a)], gb[: len(b)], out=xs[first : first + len(a)])
        # reductions run through einsum's fixed summation order, not BLAS
        for c, r0, r1, at in plan["reductions"]:
            moments[at : at + r1 - r0] += np.einsum("c,rc->r", weights[c], xs[r0:r1])
        # the squares are never stored: each slab is reduced while in cache
        for a, b, sums in plan["squares"]:
            sq = ga[: len(a)]
            np.take(xs, a, axis=0, out=sq, mode="clip")
            np.take(xs, b, axis=0, out=gb[: len(b)], mode="clip")
            np.multiply(sq, gb[: len(b)], out=sq)
            for c, r0, r1, at in sums:
                moments[at : at + r1 - r0] += np.einsum("c,rc->r", weights[c], sq[r0:r1])


def _contract(moments: np.ndarray) -> tuple:
    """(sums, sumsq) over the 12870 slots from summed monomial moments."""
    sums = np.zeros(12870, dtype=np.float64)
    sumsq = np.zeros(12870, dtype=np.float64)
    # per level, slot positions are distinct, so fancy += is safe
    for lv in _plan()["levels"]:
        support, _, coef, _ = lv["square"]
        value = np.einsum("csw,sw->cs", moments[lv["sum_at"]], lv["poly"][1])
        square = np.einsum("csp,sp->cs", moments[lv["sq_at"]][:, support], coef)
        sums[lv["slot"]] += lv["eps"] * value[lv["col"], lv["state"]]
        sumsq[lv["slot"]] += square[lv["col"], lv["state"]]
    return sums, sumsq


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
    sigma: np.ndarray  # per-slot standard deviation of the mean
    samples: int
    seed: int


@dataclass(frozen=True)
class FitReport:
    samples: int
    seed: int
    workers: int
    fitted_scale: float
    cosine_similarity: float
    # 1/33792, a guess read off the unnormalized round S^8 measure; not
    # derived.  The fit reads 1/132 = 256/33792 (each line pairs with Phi to
    # 14, and |Phi|^2 = 1848); that the mean is Phi/132 slot by slot is the
    # exact-Berger-mean item of ROADMAP.md
    candidate_scale: float
    zero_slots: int
    zero_slots_within_3sigma: int
    max_zero_sigma_ratio: float


@lru_cache(maxsize=1)
def phi_dense() -> np.ndarray:
    """The canonical 8-form as a dense, read-only 12870-slot integer vector.

    Read from the CGM route: Omega_CGM = -4 tau_4, so Phi is -Omega_CGM
    divided by its content (1440).  ``cgm_form`` squares its 45 inner sums
    on the int64 wedge kernel and takes about 0.03 s cold on a 2-vCPU VM,
    against about 0.12 s for the dict-engine sub-Pfaffian ``tau4_direct``
    forked on both CPUs (about 0.18 s serially); the tests tie the result
    to the charpoly route slot by slot.
    """
    cgm = cgm_form()
    phi = cgm.exact_div(-cgm.coeff_gcd())
    out = np.zeros(12870, dtype=np.int64)
    slot_of = _slot_of_mask()
    for m, c in phi.mask_items():
        out[slot_of[m]] = c
    out.flags.writeable = False
    return out


def _group_tasks(samples: int, seed: int) -> list:
    """The non-empty block groups, in the order their results are folded."""
    nblocks = -(-samples // _BLOCK)
    group_bounds = np.linspace(0, nblocks, _GROUPS + 1).astype(int)
    return [
        (seed, range(group_bounds[g], group_bounds[g + 1]), samples)
        for g in range(_GROUPS)
        if group_bounds[g] < group_bounds[g + 1]
    ]


def berger_mc(samples: int, seed: int = 0, workers: int = 1):
    """Average the line-volume pullbacks over `samples` uniform lines.

    Returns (SampledForm, FitReport).  Bit-reproducible for fixed seed and
    sample count, independent of the worker count and of BLAS threads, for a
    given numpy build and CPU.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = _group_tasks(samples, seed)
    # the task list and the reduction order are fixed, so the worker count is
    # pure execution detail: capped at the usable CPUs to avoid thrash, and
    # at the workers that the groups keep busy long enough to pay the fork
    procs = fanout.worker_count(min(workers, len(tasks) // _MIN_GROUPS_PER_WORKER))
    # built before any fork, so that the workers inherit the plan
    moments = np.zeros(_plan()["moments"], dtype=np.float64)
    # group results are folded in group order as they arrive: a fixed,
    # deterministic reduction that does not hold every group's sums at once
    if procs > 1:
        # loaded here rather than at import, which mc setup_s times, so that
        # the workers inherit it instead of each importing it (15-18 ms)
        import numpy.random  # noqa: F401

        parts = fanout.fan_out(_group_worker, tasks, procs, "block group")
    else:
        parts = map(_group_worker, tasks)
    for part in parts:
        moments += part
    sums, sumsq = _contract(moments)

    mean = sums / samples
    var = np.maximum(sumsq / samples - mean * mean, 0.0)
    if samples > 1:
        var *= samples / (samples - 1)
    sigma_mean = np.sqrt(var / samples)

    # correctly rounded sums, so the fit does not depend on BLAS threads
    phi = phi_dense()
    phi_sq = int(phi @ phi)  # exact: int64
    dot = math.fsum(mean * phi)
    fitted = dot / phi_sq
    cos = dot / (math.sqrt(math.fsum(mean * mean)) * math.sqrt(phi_sq))
    zero = phi == 0
    ratios = np.abs(mean[zero]) / np.where(sigma_mean[zero] > 0, sigma_mean[zero], np.inf)
    report = FitReport(
        samples=samples,
        seed=seed,
        workers=workers,
        fitted_scale=fitted,
        cosine_similarity=cos,
        candidate_scale=1.0 / 33792.0,
        zero_slots=int(zero.sum()),
        zero_slots_within_3sigma=int((ratios <= 3.0).sum()),
        max_zero_sigma_ratio=float(ratios.max()),
    )
    form = SampledForm(
        n=16, grade=8, coeffs=mean, sigma=sigma_mean, samples=samples, seed=seed
    )
    return form, report
