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

for |R| = |T| = k.  One dynamic program over column-deleted subminors,
vectorized across 128-sample chunks of a block, therefore builds only the
minors of sizes 1-4 (size 4 only for row sets holding row 0).  Every other
slot reads its complementary minor, its sign folded into the slot's eps and
its power of |m|^2 into the sample weight the minors are summed against.

Determinism: samples are generated by the counter-based Philox generator, 12
uniforms per sample (so every fixed-size block starts on a counter boundary),
converted by Box-Muller; blocks and their chunks have a fixed size, block
groups are fixed in number, per-chunk sums go through einsum's fixed-order
loops rather than BLAS, the fit uses correctly rounded sums, and reduction
folds group results in index order.  The output is therefore bit-identical
per seed, independent of the worker count and of the BLAS thread count, for
a given numpy build and CPU.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .canonical import cgm_form
from .cayley_dickson import unit_signs

_BLOCK = 1024
_GROUPS = 64
_CHUNK = 128  # samples per DP pass, so a level's minors stay cache-sized
_DRAWS_PER_SAMPLE = 12  # multiple of 4: Philox counter units hold 4 doubles


@lru_cache(maxsize=1)
def _signed_picks() -> tuple:
    """Row q of the table [A; -A] as sign[q] * m[pick[q]], q = 8 i + c.

    A[i, c] is the e_c coordinate of e_i m; left multiplication by e_i is a
    signed permutation, so exactly one m_j feeds it: j = i xor c, with the
    sign S[i, j] of ``cayley_dickson.unit_signs(3)``.
    """
    i, c = np.divmod(np.arange(64), 8)
    pick = i ^ c
    sign = unit_signs(3)[i, pick].astype(np.float64)
    return np.concatenate([pick, pick]), np.concatenate([sign, -sign])


def _subsets(n: int, k: int) -> tuple:
    """(elements, masks) of the k-subsets of range(n), in lexicographic order."""
    el = np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(math.comb(n, k), k)
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
    """Per row-set mask R: True if det A[R, T], |T| = k, is a DP state; False
    if it is read from its Jacobi partner det A[R^c, T^c].

    Levels 0-3 are computed whole; level 4 only for row sets holding row 0,
    since the other half are the complementary minors of the first.
    """
    if k == 4:
        return rows & 1 == 1
    return np.full(len(rows), k < 4)


@lru_cache(maxsize=1)
def _plan():
    """Static DP plan: per level 1-4 the state tables, per level 0-4 the hooks.

    Level k holds det A[R, T] for pairs of k-subsets, R and T sorted (at
    level 4, only R holding row 0); level 0 is the empty minor 1.  States are
    numbered R-major in lexicographic order, so the state of (R, T) is
    rank(R) C(8, k) + rank(T), with rank the lexicographic position of a
    subset among those of its size: the row sets holding row 0 come first.
    A slot (S, T) with a direct minor hooks to the state (S^c, T).  Every
    other slot hooks, by Jacobi's theorem, to the state (S, T^c) at level
    8 - |T|: the sign (-1)^(sum(S^c) + sum(T)) is folded into eps, and
    |m|^(2(|T|-4)) into the weight column the level's minors are reduced
    against.
    """
    subsets = [_subsets(8, k) for k in range(9)]
    rank = np.zeros(256, dtype=np.int64)
    for _, masks in subsets:
        rank[masks] = np.arange(len(masks))

    def states(k, r_masks, t_masks):
        return (rank[r_masks] * math.comb(8, k))[:, None] + rank[t_masks][None, :]

    levels = []
    for k in range(1, 5):
        t_el, t_masks = subsets[k]
        keep = _is_direct(k, t_masks)  # the row sets: the same subsets, filtered
        r_el, r_masks = t_el[keep], t_masks[keep]
        t_rest = t_masks ^ (1 << t_el[:, -1])
        # Laplace expansion along the last column, one row per expansion term
        # p: the level-(k-1) states, and the flat indices into [A; -A], with A
        # in its row-major (64,) layout; a negative cofactor sign reads the
        # negated half of the table
        prev = [states(k - 1, r_masks ^ (1 << r_el[:, p]), t_rest).ravel() for p in range(k)]
        gather = [
            ((8 * r_el[:, p])[:, None] + t_el[None, :, -1]).ravel() + 64 * ((p + 1 + k) % 2)
            for p in range(k)
        ]
        levels.append({"prev": np.array(prev), "gather": np.array(gather)})

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
    hooks = []
    for level, part in enumerate(parts):
        state, slot, eps, col = map(np.concatenate, zip(*part))
        # powers of |m|^2 in the weight columns: |T| = level, then |T| = 8 - level
        powers = [0] if level == 4 else [0, 4 - level]
        hooks.append({"state": state, "slot": slot, "eps": eps, "col": col, "powers": powers})
    return levels, hooks


def _block_uniforms(seed: int, block: int, count: int) -> np.ndarray:
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(block * _BLOCK * _DRAWS_PER_SAMPLE // 4)
    return np.random.Generator(bitgen).random(count * _DRAWS_PER_SAMPLE)


def _sample_sphere9(seed: int, block: int, count: int) -> np.ndarray:
    """`count` unit 9-vectors for one block, via Box-Muller normals."""
    u = _block_uniforms(seed, block, count).reshape(count, _DRAWS_PER_SAMPLE)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    z = np.empty((count, 12), dtype=np.float64)
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    v = z[:, :9]
    norm = np.sqrt(np.sum(v * v, axis=1))
    norm = np.maximum(norm, 1e-300)
    return v / norm[:, None]


def _process_block(seed: int, block: int, count: int, sums, sumsq):
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
    ww = w * w
    # weight columns w |m|^(2e) and w^2 |m|^(4e), e = 0..4: the Jacobi factors
    mm_pow = mm[None, :] ** np.arange(5)[:, None]
    w_cols = (w * mm_pow).astype(np.float32)
    ww_cols = (ww * mm_pow * mm_pow).astype(np.float32)

    # the minor recursion runs in float32: its rounding (~1e-7 relative) is
    # far below the Monte-Carlo noise, and it is equally deterministic
    pick, sign = _signed_picks()
    table = (sign[:, None] * m8.T[pick]).astype(np.float32)
    levels, hooks = _plan()
    sizes = [1] + [lv["gather"].shape[1] for lv in levels]
    acc = [np.zeros((len(h["powers"]), size)) for h, size in zip(hooks, sizes)]
    acc2 = [np.zeros_like(x) for x in acc]

    # flat scratch, viewed as contiguous (rows, n) arrays chunk by chunk, so
    # the hot loop allocates nothing; np.take writes unbuffered with
    # mode="clip", and the plan's indices are in range by construction
    width = min(_CHUNK, count)
    store = [np.empty(size * width, dtype=np.float32) for size in sizes]
    term = np.empty(max(sizes) * width, dtype=np.float32)
    factor = np.empty_like(term)
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        views = [buf[: size * n].reshape(size, n) for buf, size in zip(store, sizes)]
        a_pm = np.ascontiguousarray(table[:, lo : lo + n])
        minors = views[:1]
        minors[0].fill(1.0)
        for lv, size, d in zip(levels, sizes[1:], views[1:]):
            d_prev = minors[-1]
            t = term[: size * n].reshape(size, n)
            f = factor[: size * n].reshape(size, n)
            for p, (g, pv) in enumerate(zip(lv["gather"], lv["prev"])):
                np.take(a_pm, g, axis=0, out=d if p == 0 else t, mode="clip")
                np.take(d_prev, pv, axis=0, out=f, mode="clip")
                if p == 0:
                    d *= f
                else:
                    t *= f
                    d += t
            minors.append(d)
        # reductions run through einsum's fixed summation order, not BLAS
        for j, (hook, d) in enumerate(zip(hooks, minors)):
            cols = hook["powers"]
            acc[j] += np.einsum("ec,sc->es", w_cols[cols, lo : lo + n], d)
            sq = np.multiply(d, d, out=term[: d.size].reshape(d.shape))
            acc2[j] += np.einsum("ec,sc->es", ww_cols[cols, lo : lo + n], sq)

    # per level, slot positions are distinct, so fancy += is safe
    for j, hook in enumerate(hooks):
        sums[hook["slot"]] += hook["eps"] * acc[j][hook["col"], hook["state"]]
        sumsq[hook["slot"]] += acc2[j][hook["col"], hook["state"]]


def _group_worker(args):
    seed, blocks, n_samples = args
    sums = np.zeros(12870, dtype=np.float64)
    sumsq = np.zeros(12870, dtype=np.float64)
    for b in blocks:
        count = min(_BLOCK, n_samples - b * _BLOCK)
        _process_block(seed, b, count, sums, sumsq)
    return sums, sumsq


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
    # expected scale if dl is the unnormalized round S^8 measure:
    # (pi^4 / 110880) / Vol(S^8) with Vol(S^8) = 32 pi^4 / 105, i.e. 1/33792
    candidate_scale: float
    zero_slots: int
    zero_slots_within_3sigma: int
    max_zero_sigma_ratio: float


@lru_cache(maxsize=1)
def phi_dense() -> np.ndarray:
    """The canonical 8-form as a dense, read-only 12870-slot integer vector.

    Read from the CGM route: Omega_CGM = -4 tau_4, so Phi is -Omega_CGM
    divided by its content (1440).  ``cgm_form`` runs on the int64 wedge
    kernel and takes about 0.07 s cold, against about 0.4 s for the
    dict-engine sub-Pfaffian ``tau4_direct``; the tests tie the result to
    the charpoly route slot by slot.
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    # the task list and the reduction order are fixed, so the pool size is
    # pure execution detail; capping it at the usable CPUs avoids thrash
    pool_size = min(workers, _usable_cpus(), len(tasks))
    # built before any fork, so that the workers inherit the plan
    _plan()
    _signed_picks()
    sums = np.zeros(12870, dtype=np.float64)
    sumsq = np.zeros(12870, dtype=np.float64)
    # group results are folded in group order as they arrive: a fixed,
    # deterministic reduction that does not hold every group's sums at once
    with multiprocessing.Pool(pool_size) if pool_size > 1 else nullcontext() as pool:
        for s, q in pool.imap(_group_worker, tasks) if pool else map(_group_worker, tasks):
            sums += s
            sumsq += q

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
