"""Geometric constants of projection families and vector systems.

Everything here returns either a ConstantEstimate (value plus method
tag plus witness) or a structured report, so that sampled lower bounds
are never mistaken for exact values.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .decomposition import SELFADJOINT_TOLERANCE, ProjectionFamily, _check_pair, selfadjoint_defect
from .errors import BudgetError, ConvergenceError
from .kernel import (
    EXACT_ENUMERATION,
    REL_TOL,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    SPECTRAL_EXACT,
    ConstantEstimate,
    _check_samples,
    _sampled_search,
    _span_rows,
    unit_sphere_sampler,
)
from .orlicz import (
    _BLOCK,
    _EPS,
    _NORMAL_MIN,
    _PRUNE_ABS,
    _PRUNE_REL,
    NormSpec,
    OrliczFunction,
    _extreme_rows,
    _size_bound,
    _size_exponent,
    luxemburg_norm,
    rowwise_norm,
)

SIGN_BUDGET = 24
COEFFICIENT_BUDGET = 20

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Rademacher sign enumeration

# patterns per chunk of an enumeration
_CHUNK = 1 << 13


def _bit_chunks(k: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Rows of bit j of each index lo..hi-1 in column j, as floats, in
    chunks of _CHUNK consecutive indices from lo.

    The bits are unpacked from the little-endian bytes of each index, so
    indices must lie below 2^32; both enumeration budgets keep them below
    2^24.
    """
    for start in range(lo, hi, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, hi), dtype="<u4")
        yield np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1, count=k, bitorder="little").astype(float)


def _sign_chunks(n: int) -> Iterator[np.ndarray]:
    """The 2^(n-1) sign patterns whose last sign is +1.

    Norms are symmetric, so ||sum_j eps_j x_j|| = ||sum_j -eps_j x_j||
    and these patterns, one from each pair +-eps, carry every value.
    """
    half = 1 << (n - 1)
    for bits in _bit_chunks(n, half, 2 * half):
        bits *= 2.0
        bits -= 1.0
        yield bits


def _pattern_signs(n: int, j: int) -> np.ndarray:
    """Row j of the concatenated _sign_chunks(n), built from its index:
    sign i is +1 where bit i of 2^(n-1) + j is set and -1 elsewhere, so
    the last sign is +1."""
    bits = (((1 << (n - 1)) + j) >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def _sign_norms(x: np.ndarray, norm: NormSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each chunk of _sign_chunks(len(x)) with the norms of its sums of signed rows of x."""
    for signs in _sign_chunks(x.shape[0]):
        yield signs, rowwise_norm(signs @ x, norm)


def _stack_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    x = np.stack([np.asarray(v) for v in vectors])
    if x.ndim != 2:
        raise ValueError("vectors must be one-dimensional and of equal length")
    if len(vectors) > SIGN_BUDGET:
        raise BudgetError(f"{len(vectors)} vectors exceed the sign enumeration budget ({SIGN_BUDGET})")
    # a NaN or infinite entry makes every pattern's norm meaningless, which
    # an exact-enumeration tag would certify
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"vector {bad[0]} has a non-finite entry")
    return x


def _sign_stats(
    vectors: Sequence[np.ndarray], norm: NormSpec
) -> tuple[float, float, ConstantEstimate, ConstantEstimate]:
    """Mean, quadratic mean, min and max of ||sum_j eps_j x_j||, all from
    one pass over the sign patterns.

    The means run over all 2^n patterns and the extremes are exact over
    them, with ``trials`` = 2^n.  By the symmetry eps -> -eps only the
    2^(n-1) patterns with a last sign of +1 are evaluated; an extreme's
    witness is the first of those reaching it.  When the mean square
    overflows, or falls below the normal range, while a norm is positive,
    a second pass sums the squares relative to the largest norm.
    """
    x = _stack_vectors(vectors)
    n = x.shape[0]
    sum1 = sum2 = 0.0
    lo, hi = (math.inf, None), (-math.inf, None)
    for signs, norms in _sign_norms(x, norm):
        sum1 += float(np.sum(norms))
        with np.errstate(over="ignore"):  # an overflow takes the rescaled route below
            sum2 += float(np.sum(norms**2))
        i, k = int(np.argmin(norms)), int(np.argmax(norms))
        if norms[i] < lo[0]:
            lo = (float(norms[i]), signs[i].copy())
        if norms[k] > hi[0]:
            hi = (float(norms[k]), signs[k].copy())
    half = 1 << (n - 1)
    quad = math.sqrt(sum2 / half)
    if not _NORMAL_MIN <= sum2 / half < math.inf and hi[0] > 0.0:
        top = hi[0]
        quad = top * math.sqrt(sum(float(np.sum((norms / top) ** 2)) for _, norms in _sign_norms(x, norm)) / half)
    lo_est, hi_est = (
        ConstantEstimate(value=v, method=EXACT_ENUMERATION, witness={"signs": w}, trials=1 << n) for v, w in (lo, hi)
    )
    return sum1 / half, quad, lo_est, hi_est


def rademacher_average(vectors: Sequence[np.ndarray], norm: NormSpec, power: int = 1) -> float:
    """Average of ||sum_j eps_j x_j|| over all sign choices, exactly.

    power=1 gives the plain mean, power=2 the quadratic mean.  The
    average runs over all 2^n sign patterns; by the symmetry eps -> -eps
    only the 2^(n-1) patterns with a last sign of +1 are evaluated.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    return _sign_stats(vectors, norm)[power - 1]


def min_max_sign_norm(vectors: Sequence[np.ndarray], norm: NormSpec, mode: str) -> ConstantEstimate:
    """Extreme of ||sum_j eps_j x_j|| over all sign patterns.

    ``trials`` counts the 2^n patterns covered; by the symmetry
    eps -> -eps half of them, those with a last sign of +1, are
    enumerated, and the witness is the first of those reaching the
    extreme.  Of each chunk of patterns only those whose convexity bounds
    can reach its extreme are solved (orlicz._extreme_rows), in a Luxemburg
    ambient those of every chunk in one row call; the value and the witness
    are those of a full evaluation.  The patterns are made in one pass,
    each chunk only while its matrix is formed, and the witness is rebuilt
    from its pattern index (_pattern_signs).
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    x = _stack_vectors(vectors)
    n = x.shape[0]
    maximize = mode == "max"
    best, at = (-math.inf if maximize else math.inf), None
    extremes = _extreme_rows((signs @ x for signs in _sign_chunks(n)), norm, maximize)
    for c, (idx, norms) in enumerate(extremes):
        i = int(np.argmax(norms) if maximize else np.argmin(norms))
        if (norms[i] > best) if maximize else (norms[i] < best):
            best, at = float(norms[i]), c * _CHUNK + int(idx[i])
    witness = None if at is None else _pattern_signs(n, at)
    return ConstantEstimate(value=best, method=EXACT_ENUMERATION, witness={"signs": witness}, trials=1 << n)


# ---------------------------------------------------------------------------
# Branch and bound over blocks of patterns

# a block is 2^_LOW_BITS consecutive patterns of a chunk, which share their
# high coefficients
_LOW_BITS = 3
# a sample that keeps more than this share of its blocks keeps every row:
# gathering them would cost more than the rows it leaves out
_DENSE = 0.5


def _take(m: np.ndarray, blocks: np.ndarray | None) -> np.ndarray:
    """The rows of the given blocks of a chunk's row matrix, or all of them for None."""
    if blocks is None:
        return m
    return m.reshape(-1, m.shape[1] << _LOW_BITS)[blocks].reshape(-1, m.shape[1])


def _pattern(blocks: np.ndarray | None, i: int) -> int:
    """The index in its chunk of row i of _take(m, blocks)."""
    if blocks is None:
        return i
    return int(blocks[i >> _LOW_BITS]) << _LOW_BITS | i & ((1 << _LOW_BITS) - 1)


def _kept_blocks(
    coeffs: np.ndarray, ys: np.ndarray, scale: np.ndarray, norm: NormSpec, certified: float
) -> tuple[float, list[tuple[int, np.ndarray | None]]]:
    """Branch and bound over the blocks of a chunk of patterns: the blocks
    of the rows of coeffs @ ys[j] that can attain the largest
    ||row|| / scale[j] over every sample j and every chunk so far.

    ``certified`` is a lower bound on that largest ratio that a row of an
    earlier chunk reaches within rounding.  Returned are the raised bound
    and, for each sample that keeps a row, (j, its kept blocks ascending),
    or (j, None) when it keeps every row.

    Block h holds the patterns h 2^L + l, l < 2^L, L = _LOW_BITS, of a
    chunk whose first 2^L rows run through the low patterns, so its rows
    are U_h + V_l: U_h made of the high coefficients, V_l of the low ones.
    Entrywise, with V_l in [lo, hi], centre c = (hi + lo) / 2 and
    half-width w = (hi - lo) / 2,
    |U_h + V_l| <= max(|U_h + hi|, |U_h + lo|) = |U_h + c| + w; for complex
    data c = 0 and w = max_l |V_l|.  w is widened by the rounding of these
    sums and of coeffs @ ys.  Every norm is a lattice norm, so the
    closed-form upper bound (orlicz._size_bound) of that one row bounds
    every row of the block; U_h + c comes from one product for all the
    samples, taken by row blocks.  The rows of each sample's highest block
    give it a certified lower bound, by their closed-form lower bounds,
    and a block is dropped when its bound misses the best certified ratio
    by more than the _PRUNE_REL / _PRUNE_ABS guard of orlicz._extreme_rows,
    so no dropped row reaches or ties the largest ratio.  A chunk of fewer
    than 2^L patterns, or a norm with no closed-form bound, keeps every row.
    """
    samples, k, n = ys.shape
    every = [(j, None) for j in range(samples)]
    low, q = 1 << _LOW_BITS, _size_exponent(norm)
    if coeffs.shape[0] < low or q is None:
        return certified, every
    v = coeffs[:low, :_LOW_BITS] @ ys[:, :_LOW_BITS]
    # each entry of these sums, and of coeffs @ ys, is a sum of at most
    # k + 1 terms and rounds by less than 2 (k + 2) eps sum_i |y_ij|, a
    # complex one by less than twice that
    slack = (8.0 * (k + 2) * _EPS) * np.abs(ys).sum(axis=1)
    if np.iscomplexobj(v):
        centre, width = np.zeros_like(v[:, 0]), np.abs(v).max(axis=1)
    else:
        hi, lo = v.max(axis=1), v.min(axis=1)
        centre, width = 0.5 * (hi + lo), 0.5 * (hi - lo)
    # [high coefficients, 1] @ [y_high; c]: U_h + c, the samples side by side
    high = np.ones((coeffs.shape[0] >> _LOW_BITS, k - _LOW_BITS + 1))
    high[:, :-1] = coeffs[::low, _LOW_BITS:]
    hy = np.concatenate([ys[:, _LOW_BITS:], centre[:, None]], axis=1).transpose(1, 0, 2).reshape(-1, samples * n)
    width = (width + slack).reshape(-1)
    step = max(1, _BLOCK // hy.shape[1])
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, high.shape[0], step):
            a = np.abs(high[i : i + step] @ hy)
            a += width
            parts.append(_size_bound(a.reshape(-1, n), norm, above=True))
        reach = np.concatenate(parts).reshape(-1, samples)
        # each sample's highest block certifies a lower bound from its own rows
        top = np.argmax(reach, axis=0)
        rows = np.abs(np.einsum("si,sin->sn", coeffs[top << _LOW_BITS, _LOW_BITS:], ys[:, _LOW_BITS:])[:, None] + v)
        rows -= slack[:, None]
        np.maximum(rows, 0.0, out=rows)
        ends = _size_bound(rows.reshape(-1, n), norm, above=False).reshape(samples, low).max(axis=1)
        certified = max(certified, float(np.max(ends ** (1.0 / q) / scale)))
        if not math.isfinite(certified):
            return certified, every
        edge = certified * scale
        keep = reach >= np.maximum(edge - _PRUNE_REL * edge - _PRUNE_ABS * (1.0 + edge), 0.0) ** q
    kept = []
    for j in range(samples):
        blocks = np.flatnonzero(keep[:, j])
        if blocks.size:
            kept.append((j, None if blocks.size > _DENSE * keep.shape[0] else blocks))
    return certified, kept


# ---------------------------------------------------------------------------
# Unconditionality


def _coefficient_chunks(mode: str, k: int) -> Iterator[np.ndarray]:
    """Coefficient patterns for the three enumeration modes.

    zero-one enumerates its 2^k patterns exactly.  signs covers its 2^k
    patterns through the 2^(k-1) with a last sign of +1: the norm is
    symmetric, so c and -c give the same ratio.  unit-disc-grid ranges
    over the cube [-1, 1]^k, where c -> ||sum_i c_i y_i|| is convex and so
    peaks at a vertex: it enumerates the sign patterns.
    """
    if mode == "zero-one":
        return _bit_chunks(k, 0, 1 << k)
    if mode in ("signs", "unit-disc-grid"):
        return _sign_chunks(k)
    raise ValueError(f"unknown coefficient set {mode!r}")


def unconditional_constant(
    family: ProjectionFamily,
    coefficient_set: str = "zero-one",
    samples: int = 64,
    seed: int = 0,
) -> ConstantEstimate:
    """Smallest M with ||sum_i c_i y_i|| <= M ||sum_i y_i|| over the
    chosen coefficient patterns and sampled block tuples y_i = P_i x.

    Exact over coefficients, a lower bound over vectors; euclidean blocks
    selfadjoint within SELFADJOINT_TOLERANCE = 1e-10, the orthogonality test
    of kato_check, give the exact value 1 directly.
    The signs mode evaluates one pattern of each pair +-c; the witness is
    then one with c_k = +1.  unit-disc-grid ranges over real c_i in
    [-1, 1]; by convexity the sign patterns carry its maximum, so it
    returns exactly what signs returns.  For a complex family that is a
    lower bound on the constant over the complex unit disc.  Blocks of
    patterns whose lattice bound cannot reach the largest ratio are
    dropped first (_kept_blocks); of the rest only those whose convexity
    bounds can reach a sample's largest norm are solved
    (orlicz._extreme_rows), in a Luxemburg
    ambient those of every sample in one row call; the value and the
    witness are those of a full evaluation, and ``trials`` counts samples.
    A sample whose blocks sum to 0 has no ratio; ConvergenceError when no
    sample has one.
    """
    k = family.block_count
    if k > COEFFICIENT_BUDGET:
        raise BudgetError(f"{k} blocks exceed the coefficient enumeration budget ({COEFFICIENT_BUDGET})")
    _check_samples(samples, 1)
    norm = family.space.norm

    if norm.power_exponent() == 2.0 and selfadjoint_defect(family) <= SELFADJOINT_TOLERANCE:
        u, _, _ = np.linalg.svd(family.blocks[0])
        witness = {"coefficients": np.ones(k), "x": u[:, 0]}
        return ConstantEstimate(value=1.0, method=SPECTRAL_EXACT, witness=witness, trials=0)

    xs = list(itertools.islice(unit_sphere_sampler(norm, family.dim, seed), samples))
    tuples = [family.blocks @ x for x in xs]
    denoms = rowwise_norm(np.array([t.sum(axis=0) for t in tuples]), norm)
    live = np.flatnonzero(denoms > 0).tolist()
    if not live:
        raise ConvergenceError(f"the blocks of no sampled vector sum to a nonzero vector in {samples} samples")
    # each chunk is made once and scanned for every sample; a sample that
    # can reach the largest ratio keeps its first largest one (blocks below
    # the certified ratio are dropped), and the first sample with the
    # largest one then gives what scanning every chunk for one sample
    # after another gives
    best = [(-math.inf, None)] * samples
    ys, certified = np.stack([tuples[s] for s in live]), -math.inf
    for coeffs in _coefficient_chunks(coefficient_set, k):
        certified, kept = _kept_blocks(coeffs, ys, denoms[live], norm, certified)
        extremes = _extreme_rows((_take(coeffs @ tuples[live[j]], blocks) for j, blocks in kept), norm, maximize=True)
        for (j, blocks), (idx, norms) in zip(kept, extremes):
            s = live[j]
            ratios = norms / denoms[s]
            i = int(np.argmax(ratios))
            if ratios[i] > best[s][0]:
                best[s] = (float(ratios[i]), coeffs[_pattern(blocks, int(idx[i]))].copy())
    s = max(range(samples), key=lambda j: best[j][0])
    value, coeffs = best[s]
    return ConstantEstimate(
        value=value,
        method=SAMPLED_LOWER_BOUND,
        witness={"coefficients": coeffs, "x": xs[s].copy()},
        trials=samples,
    )


# ---------------------------------------------------------------------------
# Frame-style constants and the perturbation size


def _gram_ends(blocks: np.ndarray) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """((lambda_min, x_min), (lambda_max, x_max)): both ends of the spectrum
    of sum_k A_k^* A_k, the products summed in stack order, with unit
    eigenvectors.  On the unit sphere the l2 aggregate of the ||A_k x||
    runs from sqrt(lambda_min) to sqrt(lambda_max), each end at its vector."""
    vals, vecs = np.linalg.eigh((np.swapaxes(blocks.conj(), 1, 2) @ blocks).sum(axis=0))
    return (float(vals[0]), vecs[:, 0]), (float(vals[-1]), vecs[:, -1])


def riesz_constant(family: ProjectionFamily) -> ConstantEstimate:
    """Smallest C with (1/C)||x||^2 <= sum ||P_n x||^2 <= C ||x||^2.

    Euclidean ambient only; both extremes come from the spectrum of
    sum P_n* P_n, so the result is exact.
    """
    if family.space.norm.power_exponent() != 2.0:
        raise ValueError("riesz_constant requires the euclidean ambient norm")
    (lo, x_lo), (hi, x_hi) = _gram_ends(family.blocks)
    if lo <= 0:
        return ConstantEstimate(value=math.inf, method=SPECTRAL_EXACT, witness=x_lo, trials=0)
    value = max(hi, 1.0 / lo)
    witness = x_hi if hi >= 1.0 / lo else x_lo
    return ConstantEstimate(value=value, method=SPECTRAL_EXACT, witness=witness, trials=0)


def _psi_score(images: np.ndarray, y: np.ndarray, norm: NormSpec, psi: NormSpec, *, ratio: bool) -> np.ndarray:
    """psi-aggregate of the block norms ||images[i, k]|| for every row i, or
    with ``ratio`` ||y_i|| over it, inf where the aggregate is 0; row i
    does not depend on the other rows."""
    m, k, n = images.shape
    agg = rowwise_norm(rowwise_norm(images.reshape(-1, n), norm).reshape(m, k), psi)
    if not ratio:
        return agg
    return np.divide(rowwise_norm(y, norm), agg, out=np.full(agg.shape, math.inf), where=agg != 0.0)


def _block_images(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(rows, K, n) stack of the images B_k x_i, summed column by column
    (kernel._span_rows), so row i does not depend on the other rows."""
    k, n, _ = blocks.shape
    return _span_rows(x, blocks.reshape(k * n, n)).reshape(-1, k, n)


def _block_aggregate(
    blocks: np.ndarray, x: np.ndarray, norm: NormSpec, psi: NormSpec, *, ratio: bool = False
) -> np.ndarray:
    """psi-aggregate of the block norms ||B_k x_i|| for every row x_i, or
    with ``ratio`` ||x_i|| over it, inf where the aggregate is 0
    (_psi_score of _block_images): the direct objective of sigma (plain)
    and of C and c (ratio)."""
    return _psi_score(_block_images(blocks, x), x, norm, psi, ratio=ratio)


# a refinement moves on a relative gain above _REL_GAIN and stops once its
# step falls to _MIN_STEP or after _MAX_ROUNDS rounds
_REL_GAIN = 1e-8
_MIN_STEP = 1e-9
_MAX_ROUNDS = 200


def _coordinate_refine(
    blocks: np.ndarray, x0: np.ndarray, norm: NormSpec, psi: NormSpec, *, ratio: bool, maximize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise perturbation climb of _block_aggregate(blocks, .,
    norm, psi, ratio=ratio) on the unit sphere of ``norm``, from each row
    of the stack ``x0`` at once; returns each start's point and value.

    A start's round scans x + h e_c, then x - h e_c, for c = 0, 1, ...,
    normalised, and moves to each candidate that beats its best score by
    more than _REL_GAIN * |best|; h halves after a round without a move.
    The starts run in lockstep: each step forms the candidates left in
    every running start's scan (after a move only those behind it, from
    the new point), normalises them all by one rowwise_norm call (norms
    <= 0 are skipped) and scores them all by one _psi_score call.

    Each start keeps the block images of its point.  A candidate's images
    are the rank-one update (B x + s h B e_c) / nu, with nu the candidate's
    norm, instead of its own product with every block; a start that moves
    keeps the images of the candidate it moved to.  Those images differ
    from the products of the normalised candidate only by rounding, so
    each start follows the one-candidate-at-a-time trajectory of the
    direct objective unless a gain falls within rounding of the move
    threshold.  The values returned are not those of the climb: the final
    points are scored once more by one _block_aggregate call, so a value
    replays from its point bit for bit.  _psi_score is called once for the
    starts, once per step of the start that takes the most and once in
    that final call, a start's steps being its rounds plus its moves that
    leave candidates behind them.
    """
    x = x0 / rowwise_norm(x0, norm)[:, None]
    images = _block_images(blocks, x)
    best = _psi_score(images, x, norm, psi, ratio=ratio)
    m, n = x.shape
    columns = np.moveaxis(blocks, -1, 0)  # columns[c]: the images B_k e_c of every block
    signs = np.tile([1.0, -1.0], n)  # scan position c moves coordinate c // 2
    h, rounds, moved, start = [0.25] * m, [0] * m, [True] * m, [2 * n] * m  # a start of 2n: the round is over
    live = list(range(m))
    while True:
        for i in [i for i in live if start[i] == 2 * n]:
            if not moved[i]:
                h[i] *= 0.5
            if h[i] > _MIN_STEP and rounds[i] < _MAX_ROUNDS:
                rounds[i], moved[i], start[i] = rounds[i] + 1, False, 0
            else:
                live.remove(i)
        if not live:
            return x, _block_aggregate(blocks, x, norm, psi, ratio=ratio)
        owner = np.repeat(live, [2 * n - start[i] for i in live])
        scan = np.concatenate([np.arange(start[i], 2 * n) for i in live])
        step = signs[scan] * np.array(h)[owner]
        cand = x[owner]
        cand[np.arange(owner.size), scan // 2] += step
        nrm = rowwise_norm(cand, norm)
        ok = np.flatnonzero(nrm > 0)
        cand, owner, scan, step, nrm = cand[ok] / nrm[ok, None], owner[ok], scan[ok], step[ok], nrm[ok]
        cand_images = images[owner] + step[:, None, None] * columns[scan // 2]
        cand_images /= nrm[:, None, None]
        vals = _psi_score(cand_images, cand, norm, psi, ratio=ratio)
        with np.errstate(invalid="ignore"):  # inf - inf never counts as a gain
            gain = vals - best[owner] if maximize else best[owner] - vals
        hit = np.flatnonzero(gain > _REL_GAIN * np.maximum(np.abs(best[owner]), 1e-300))
        first = {}  # each start's first candidate with a gain
        for j, i in zip(hit.tolist(), owner[hit].tolist()):
            first.setdefault(i, j)
        for i in live:
            start[i] = 2 * n  # a scan without a gain ends its round
        for i, j in first.items():
            x[i], images[i], best[i] = cand[j], cand_images[j], vals[j]
            moved[i], start[i] = True, int(scan[j]) + 1


def _sampled_extremum(
    blocks: np.ndarray, norm: NormSpec, psi: NormSpec, samples: int, seed: int, *, ratio: bool, maximize: bool
) -> ConstantEstimate:
    """Extreme of _block_aggregate(blocks, ., norm, psi, ratio=ratio) over
    a seeded unit-sphere sample (kernel._sampled_search), its three best
    refined by one lockstep coordinate search, each along its own
    sequential trajectory (_coordinate_refine).  Returns the best value
    seen and its vector, a tie keeping the best sample, then the earlier
    refined start; every value is the direct objective at its vector.
    ``trials`` counts the samples kept.  A sampled supremum is a lower
    bound and a sampled infimum an upper bound, and the tag says which.
    """
    direct = functools.partial(_block_aggregate, blocks, norm=norm, psi=psi, ratio=ratio)
    ranked = _sampled_search(direct, norm, blocks.shape[-1], samples, seed, maximize=maximize)
    starts = np.array([x for _, x in ranked[:3]])
    points, values = _coordinate_refine(blocks, starts, norm, psi, ratio=ratio, maximize=maximize)
    # max and min return the first of equal values
    best_val, best_x = (max if maximize else min)([ranked[0], *zip(values.tolist(), points)], key=lambda t: t[0])
    method = SAMPLED_LOWER_BOUND if maximize else SAMPLED_UPPER_BOUND
    return ConstantEstimate(value=best_val, method=method, witness=best_x, trials=len(ranked))


def _ratio_constant(
    family: ProjectionFamily, psi: NormSpec, samples: int, seed: int, *, maximize: bool
) -> ConstantEstimate:
    """Supremum (maximize) or infimum of ||x|| / psi-aggregate of ||P_n x||.

    With a euclidean ambient and aggregate these are 1/sqrt(lambda_min)
    (inf for a singular Gram matrix) and 1/sqrt(lambda_max), at their
    eigenvectors (_gram_ends); otherwise the sampled extremum.
    """
    _check_samples(samples, 1)
    if family.space.norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        lo, hi = _gram_ends(family.blocks)
        lam, x = lo if maximize else hi
        value = 1.0 / math.sqrt(lam) if lam > 0 else math.inf
        return ConstantEstimate(value=value, method=SPECTRAL_EXACT, witness=x, trials=0)
    return _sampled_extremum(family.blocks, family.space.norm, psi, samples, seed, ratio=True, maximize=maximize)


def hilbertian_constant(
    family: ProjectionFamily, psi: NormSpec, samples: int = 256, seed: int = 0
) -> ConstantEstimate:
    """Smallest C with ||x|| <= C * psi-aggregate of the block norms: the
    supremum of their ratio (_ratio_constant).

    Exact via the spectrum when both the ambient and the aggregate are
    euclidean.  Otherwise a sampled lower bound polished by coordinate
    ascent from the three best samples (_sampled_extremum); the witness is
    a unit vector whose ratio vector_norm replays.
    """
    return _ratio_constant(family, psi, samples, seed, maximize=True)


def besselian_constant(
    family: ProjectionFamily, psi: NormSpec, samples: int = 256, seed: int = 0
) -> ConstantEstimate:
    """Largest c with c * psi-aggregate of the block norms <= ||x||: the
    infimum of the ratio hilbertian_constant maximises (_ratio_constant).

    Exact via the spectrum in the euclidean case.  Otherwise the same
    search minimises the ratio, so the tag marks an upper bound on the
    true constant.
    """
    return _ratio_constant(family, psi, samples, seed, maximize=False)


def perturbation_sigma(
    p_family: ProjectionFamily, j_family: ProjectionFamily, psi: NormSpec, samples: int = 256, seed: int = 0
) -> ConstantEstimate:
    """Smallest bound s with psi-aggregate of ||P_n (J_n - P_n) x|| over
    n >= 1 at most s * ||x||; the first block is deliberately excluded.

    Exact via the spectrum when everything is euclidean, s being
    sqrt(lambda_max) for the blocks P_n (J_n - P_n) (_gram_ends); otherwise
    a sampled lower bound polished by coordinate ascent, as in
    hilbertian_constant.
    """
    _check_pair(p_family, j_family)
    _check_samples(samples, 1)
    norm = p_family.space.norm
    n = p_family.dim
    if p_family.block_count == 1:
        return ConstantEstimate(value=0.0, method=SPECTRAL_EXACT, witness=np.eye(n)[0], trials=0)
    p, j = p_family.blocks[1:], j_family.blocks[1:]
    parts = p @ (j - p)
    if norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        _, (lam, x) = _gram_ends(parts)
        return ConstantEstimate(value=math.sqrt(max(lam, 0.0)), method=SPECTRAL_EXACT, witness=x, trials=0)
    return _sampled_extremum(parts, norm, psi, samples, seed, ratio=False, maximize=True)


# ---------------------------------------------------------------------------
# Sign-average comparison constants


@functools.lru_cache(maxsize=1)
def khintchine_crossover() -> float:
    """The exponent in (1, 2) where gamma((p+1)/2) falls to sqrt(pi)/2.

    gamma((p+1)/2) - sqrt(pi)/2 decreases from a positive value at p = 1
    and vanishes again at p = 2, so the bisection bracket stops at 1.95
    to isolate the interior root.  The upper end, where the difference
    is <= 0, is returned once the bracket is narrower than
    1e-11 * (1 + hi).
    """
    lo, hi = 1.0, 1.95
    while hi - lo > 1e-11 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if math.gamma((mid + 1.0) / 2.0) > _SQRT_PI / 2.0:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class KhintchineConstants:
    p: float
    lower: float  # best constant A_p in A_p ||x||_2 <= (E|sum eps_j x_j|^p)^(1/p)
    upper: float  # best constant B_p on the other side
    crossover: float


def khintchine_constants(p: float) -> KhintchineConstants:
    """Best constants for comparing p-th sign averages with the l2 norm."""
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p}")
    p0 = khintchine_crossover()
    # p0 lies just past the root, where the gamma formula is the smaller one
    if p < p0:
        lower = 2.0 ** (0.5 - 1.0 / p)
    elif p < 2.0:
        lower = math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / _SQRT_PI) ** (1.0 / p)
    else:
        # the gamma formula equals 1 exactly at p = 2; evaluating it there
        # overshoots by one ulp, so route the endpoint into this branch
        lower = 1.0
    if p <= 2.0:
        upper = 1.0
    else:
        upper = math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / _SQRT_PI) ** (1.0 / p)
    return KhintchineConstants(p=float(p), lower=lower, upper=upper, crossover=p0)


# ---------------------------------------------------------------------------
# Two-sided block-norm sandwich


@dataclass(frozen=True)
class SandwichViolation:
    side: str  # "lower" | "upper"
    label: str
    margin: float


@dataclass(frozen=True)
class SandwichReport:
    tested: int
    min_lower_margin: float
    min_upper_margin: float
    violations: tuple[SandwichViolation, ...]

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


@dataclass(frozen=True)
class SandwichConstants:
    """Constants for the two-sided estimate
    lower_constant * psi-aggregate <= ||x|| <= upper_constant * phi-aggregate."""

    p: float
    unconditional: float
    psi: NormSpec
    lower_constant: float
    phi: NormSpec
    upper_constant: float


def lp_sandwich_constants(p: float, unconditional: float = 1.0) -> SandwichConstants:
    """Sandwich constants for p-th power ambient norms, from the
    Khintchine constants A_p, B_p and the unconditional constant M:
    lower A_p / (2M) and upper 2 B_p M.  The aggregates swap roles at
    p = 2: (l2, lp) below it, (lp, l2) from it on.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be in [1, inf), got {p}")
    m = float(unconditional)
    if not m >= 1.0:
        raise ValueError(f"the unconditional constant is never below 1, got {m}")
    k = khintchine_constants(p)
    l2, lp = NormSpec.power(2.0), NormSpec.power(p)
    psi, phi = (l2, lp) if p < 2.0 else (lp, l2)
    return SandwichConstants(
        p=p, unconditional=m,
        psi=psi, lower_constant=k.lower / (2.0 * m),
        phi=phi, upper_constant=2.0 * k.upper * m,
    )


def _battery_matrix(family: ProjectionFamily, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Coordinate vectors, one block-aligned vector per block, then samples."""
    n = family.dim
    rng = np.random.default_rng(seed ^ 0x5AB5)
    block_rows = family.blocks @ rng.standard_normal(n)
    kept = np.flatnonzero(np.any(block_rows != 0, axis=1))
    sampler = unit_sphere_sampler(family.space.norm, n, seed)
    sampled = list(itertools.islice(sampler, samples))
    labels = (
        [f"coordinate-{i}" for i in range(n)]
        + [f"block-{j}" for j in kept]
        + [f"sample-{t}" for t in range(samples)]
    )
    return labels, np.vstack([np.eye(n), block_rows[kept], *sampled])


def type_cotype_check(
    family: ProjectionFamily,
    psi: NormSpec,
    lower_constant: float,
    phi: NormSpec,
    upper_constant: float,
    samples: int = 512,
    seed: int = 0,
) -> SandwichReport:
    """Verify lower * psi-agg <= ||x|| <= upper * phi-agg on a battery of
    coordinate, block-aligned and sampled vectors.

    Margins are recorded per side; a violation is a margin below
    -1e-9 * (1 + ||x||).  A NaN constant is refused.
    """
    # a negative lower or an infinite upper constant stays: a true claim
    # whose side has nothing to violate
    if math.isnan(lower_constant) or math.isnan(upper_constant):
        raise ValueError("the sandwich constants must not be NaN")
    _check_samples(samples, 0)
    norm = family.space.norm
    labels, batch = _battery_matrix(family, samples, seed)
    ambient = rowwise_norm(batch, norm)
    # y[j, i] = P_j x_i, so row i of profiles holds ||P_j x_i|| for every block j
    y = batch @ np.swapaxes(family.blocks, 1, 2)
    profiles = rowwise_norm(y.reshape(-1, family.dim), norm).reshape(family.block_count, -1).T
    psi_agg = rowwise_norm(profiles, psi)
    phi_agg = rowwise_norm(profiles, phi)
    lo_margin = ambient - lower_constant * psi_agg
    hi_margin = upper_constant * phi_agg - ambient
    tol = REL_TOL * (1.0 + ambient)
    violations = [
        SandwichViolation(side="lower", label=labels[i], margin=float(lo_margin[i]))
        for i in np.nonzero(lo_margin < -tol)[0]
    ] + [
        SandwichViolation(side="upper", label=labels[i], margin=float(hi_margin[i]))
        for i in np.nonzero(hi_margin < -tol)[0]
    ]
    return SandwichReport(
        tested=len(labels),
        min_lower_margin=float(lo_margin.min()),
        min_upper_margin=float(hi_margin.min()),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Sign-average probes against a gauge aggregate


@dataclass(frozen=True)
class ProbeLine:
    ratio: float
    set_index: int


@dataclass(frozen=True)
class ProbeReport:
    """Extremal ratios of sign averages to the gauge aggregate.

    quad_over_agg_max bounds the two-sided comparison constant from
    below; quad_over_agg_min bounds the opposite-direction constant from
    above; the min/max lines do the same for the min- and max-sign
    variants.
    """

    sets_tested: int
    quad_over_agg_max: ProbeLine
    quad_over_agg_min: ProbeLine
    min_sign_over_agg_max: ProbeLine
    max_sign_over_agg_min: ProbeLine
    candidate_violations: tuple[int, ...] = ()


def or_type_probe(
    vector_sets: Iterable[Sequence[np.ndarray]],
    phi: OrliczFunction,
    norm: NormSpec,
    candidate_upper: float | None = None,
) -> ProbeReport:
    """Probe the sign-average inequalities on finite vector sets.

    For each set the quadratic sign mean, the minimal and the maximal
    sign norms are compared with the Luxemburg aggregate of the
    individual norms.  With ``candidate_upper`` given (not NaN), sets where
    the quadratic mean exceeds candidate * aggregate are flagged.
    """
    if candidate_upper is not None and math.isnan(candidate_upper):
        raise ValueError("candidate_upper must not be NaN")
    q_max = ProbeLine(-math.inf, -1)
    q_min = ProbeLine(math.inf, -1)
    i_max = ProbeLine(-math.inf, -1)
    m_min = ProbeLine(math.inf, -1)
    flagged: list[int] = []
    count = 0
    for idx, vectors in enumerate(vector_sets):
        count += 1
        x = _stack_vectors(vectors)
        agg = luxemburg_norm(phi, rowwise_norm(x, norm))
        if agg <= 0:
            raise ValueError(f"set {idx} has a vanishing norm aggregate")
        _, quad, lo, hi = _sign_stats(x, norm)
        quad /= agg
        mn = lo.value / agg
        mx = hi.value / agg
        if quad > q_max.ratio:
            q_max = ProbeLine(quad, idx)
        if quad < q_min.ratio:
            q_min = ProbeLine(quad, idx)
        if mn > i_max.ratio:
            i_max = ProbeLine(mn, idx)
        if mx < m_min.ratio:
            m_min = ProbeLine(mx, idx)
        if candidate_upper is not None and quad > candidate_upper * (1.0 + REL_TOL):
            flagged.append(idx)
    if count == 0:
        raise ValueError("no vector sets supplied")
    return ProbeReport(
        sets_tested=count,
        quad_over_agg_max=q_max,
        quad_over_agg_min=q_min,
        min_sign_over_agg_max=i_max,
        max_sign_over_agg_min=m_min,
        candidate_violations=tuple(flagged),
    )
