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

from .decomposition import ProjectionFamily, selfadjoint_defect
from .errors import BudgetError
from .kernel import (
    EXACT_ENUMERATION,
    REL_TOL,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    SPECTRAL_EXACT,
    ConstantEstimate,
    _check_samples,
    _span_rows,
    unit_sphere_sampler,
)
# vector_norm is bound here, though no function calls it, so that a spy on
# geometry.vector_norm catches any call a later change brings back
from .orlicz import _NORMAL_MIN, NormSpec, OrliczFunction, _extreme_rows, luxemburg_norm, rowwise_norm, vector_norm

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
    can reach its extreme are solved (orlicz._extreme_rows); the value and
    the witness are those of a full evaluation.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    x = _stack_vectors(vectors)
    n = x.shape[0]
    maximize = mode == "max"
    best, witness = (-math.inf if maximize else math.inf), None
    for signs in _sign_chunks(n):
        idx, norms = _extreme_rows(signs @ x, norm, maximize)
        i = int(np.argmax(norms) if maximize else np.argmin(norms))
        if (norms[i] > best) if maximize else (norms[i] < best):
            best, witness = float(norms[i]), signs[idx[i]].copy()
    return ConstantEstimate(value=best, method=EXACT_ENUMERATION, witness={"signs": witness}, trials=1 << n)


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

    Exact over coefficients, a lower bound over vectors; orthogonal
    blocks in the euclidean ambient give the exact value 1 directly.
    The signs mode evaluates one pattern of each pair +-c; the witness is
    then one with c_k = +1.  unit-disc-grid ranges over real c_i in
    [-1, 1]; by convexity the sign patterns carry its maximum, so it
    returns exactly what signs returns.  For a complex family that is a
    lower bound on the constant over the complex unit disc.  Of each
    sample's chunk of patterns only those whose convexity bounds can reach
    its largest norm are solved (orlicz._extreme_rows); the value and the
    witness are those of a full evaluation, and ``trials`` counts samples.
    """
    k = family.block_count
    if k > COEFFICIENT_BUDGET:
        raise BudgetError(f"{k} blocks exceed the coefficient enumeration budget ({COEFFICIENT_BUDGET})")
    _check_samples(samples, 1)
    norm = family.space.norm

    if norm.power_exponent() == 2.0 and selfadjoint_defect(family) <= family.default_tolerance():
        u, _, _ = np.linalg.svd(family.blocks[0])
        witness = {"coefficients": np.ones(k), "x": u[:, 0]}
        return ConstantEstimate(value=1.0, method=SPECTRAL_EXACT, witness=witness, trials=0)

    chunks = list(_coefficient_chunks(coefficient_set, k))
    xs = list(itertools.islice(unit_sphere_sampler(norm, family.dim, seed), samples))
    tuples = [family.blocks @ x for x in xs]
    denoms = rowwise_norm(np.array([t.sum(axis=0) for t in tuples]), norm)
    best = -math.inf
    best_witness = None
    for x, tuple_rows, denom in zip(xs, tuples, denoms):
        if denom <= 0:
            continue
        for coeffs in chunks:
            idx, norms = _extreme_rows(coeffs @ tuple_rows, norm, maximize=True)
            ratios = norms / denom
            i = int(np.argmax(ratios))
            if ratios[i] > best:
                best = float(ratios[i])
                best_witness = {"coefficients": coeffs[idx[i]].copy(), "x": x.copy()}
    return ConstantEstimate(
        value=best,
        method=SAMPLED_LOWER_BOUND,
        witness=best_witness,
        trials=samples,
    )


# ---------------------------------------------------------------------------
# Frame-style constants in the euclidean ambient


def _gram_eigh(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of sum_k B_k^* B_k, the products summed in stack order."""
    return np.linalg.eigh((np.swapaxes(blocks.conj(), 1, 2) @ blocks).sum(axis=0))


def riesz_constant(family: ProjectionFamily) -> ConstantEstimate:
    """Smallest C with (1/C)||x||^2 <= sum ||P_n x||^2 <= C ||x||^2.

    Euclidean ambient only; both extremes come from the spectrum of
    sum P_n* P_n, so the result is exact.
    """
    if family.space.norm.power_exponent() != 2.0:
        raise ValueError("riesz_constant requires the euclidean ambient norm")
    vals, vecs = _gram_eigh(family.blocks)
    lo = float(vals[0])
    hi = float(vals[-1])
    if lo <= 0:
        return ConstantEstimate(value=math.inf, method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0)
    value = max(hi, 1.0 / lo)
    witness = vecs[:, -1] if hi >= 1.0 / lo else vecs[:, 0]
    return ConstantEstimate(value=value, method=SPECTRAL_EXACT, witness=witness, trials=0)


def _block_profiles(blocks: np.ndarray, x: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Row i holds ||B_k x_i|| for every block k, from one rowwise_norm call.

    The block images are summed column by column (kernel._span_rows), so
    row i does not depend on the other rows of x.
    """
    k, n, _ = blocks.shape
    images = _span_rows(x, blocks.reshape(k * n, n)).reshape(-1, n)
    return rowwise_norm(images, norm).reshape(-1, k)


def _profile_ratio(family: ProjectionFamily, psi: NormSpec, x: np.ndarray) -> np.ndarray:
    """||x_i|| / psi-aggregate of the block norms, for every row x_i; inf
    where the aggregate is 0."""
    norm = family.space.norm
    agg = rowwise_norm(_block_profiles(family.blocks, x, norm), psi)
    return np.divide(rowwise_norm(x, norm), agg, out=np.full(agg.shape, math.inf), where=agg != 0.0)


# a refinement moves on a relative gain above _REL_GAIN and stops once its
# step falls to _MIN_STEP or after _MAX_ROUNDS rounds
_REL_GAIN = 1e-8
_MIN_STEP = 1e-9
_MAX_ROUNDS = 200


def _coordinate_refine(fn, x0: np.ndarray, norm: NormSpec, *, maximize: bool) -> tuple[np.ndarray, float]:
    """Coordinate-wise perturbation climb on the unit sphere of ``norm``.

    ``fn`` maps a stack of vectors to one value per row.  A round scans
    x + h e_i, then x - h e_i, for i = 0, 1, ..., normalised, and moves to
    each candidate that beats the best value by more than _REL_GAIN * |best|;
    h halves after a round without a move.  The candidates left in the scan
    are normalised by one rowwise_norm call (norms <= 0 are skipped) and
    scored by one ``fn`` call; after a move only those behind it are formed
    again, from the new point.  For an ``fn`` whose row i equals its value
    on that row alone, this is the one-candidate-at-a-time trajectory, at
    no more than 1 + rounds + moves ``fn`` calls.
    """
    x = x0 / rowwise_norm(x0[None, :], norm)[0]
    best = fn(x[None, :])[0]
    n = x.size
    signs = np.tile([1.0, -1.0], n)  # scan position c moves coordinate c // 2
    h = 0.25
    rounds = 0
    while h > _MIN_STEP and rounds < _MAX_ROUNDS:
        rounds += 1
        improved = False
        start = 0
        while start < 2 * n:
            scan = np.arange(start, 2 * n)
            cand = np.tile(x, (scan.size, 1))
            cand[np.arange(scan.size), scan // 2] += signs[scan] * h
            nrm = rowwise_norm(cand, norm)
            ok = np.flatnonzero(nrm > 0)
            cand = cand[ok] / nrm[ok, None]
            vals = fn(cand)
            with np.errstate(invalid="ignore"):  # inf - inf never counts as a gain
                gain = vals - best if maximize else best - vals
            hit = np.flatnonzero(gain > _REL_GAIN * max(abs(best), 1e-300))
            if not hit.size:
                break
            x, best, improved = cand[hit[0]], vals[hit[0]], True
            start = scan[ok[hit[0]]] + 1
        if not improved:
            h *= 0.5
    return x, float(best)


def _sampled_extremum(
    ratio, norm: NormSpec, dim: int, samples: int, seed: int, *, maximize: bool
) -> tuple[float, np.ndarray]:
    """Extreme of the row objective ``ratio`` over a seeded unit-sphere sample.

    The samples are scored by one ``ratio`` call and stably sorted; the
    three best are each refined by coordinate search, and the best value
    seen and its vector are returned.
    """
    xs = np.array(list(itertools.islice(unit_sphere_sampler(norm, dim, seed), samples)))
    scored = sorted(zip(ratio(xs).tolist(), xs), key=lambda t: t[0], reverse=maximize)
    best_val, best_x = scored[0]
    for _, x in scored[:3]:
        xr, vr = _coordinate_refine(ratio, x, norm, maximize=maximize)
        if (vr > best_val) if maximize else (vr < best_val):
            best_val, best_x = vr, xr
    return best_val, best_x


def hilbertian_constant(
    family: ProjectionFamily, psi: NormSpec, samples: int = 256, seed: int = 0
) -> ConstantEstimate:
    """Smallest C with ||x|| <= C * psi-aggregate of the block norms.

    Exact via the spectrum when both the ambient and the aggregate are
    euclidean.  Otherwise a sampled lower bound polished by coordinate
    ascent, the samples and each batch of ascent candidates scored by one
    row-wise ratio call (see _coordinate_refine); ``trials`` is the sample
    count and the witness a unit vector whose ratio vector_norm replays.
    """
    _check_samples(samples, 1)
    if family.space.norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        vals, vecs = _gram_eigh(family.blocks)
        value = 1.0 / math.sqrt(vals[0]) if vals[0] > 0 else math.inf
        return ConstantEstimate(value=value, method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0)
    val, x = _sampled_extremum(
        lambda y: _profile_ratio(family, psi, y), family.space.norm, family.dim, samples, seed, maximize=True
    )
    return ConstantEstimate(value=val, method=SAMPLED_LOWER_BOUND, witness=x, trials=samples)


def besselian_constant(
    family: ProjectionFamily, psi: NormSpec, samples: int = 256, seed: int = 0
) -> ConstantEstimate:
    """Largest c with c * psi-aggregate of the block norms <= ||x||.

    Exact via the spectrum in the euclidean case.  Otherwise the batched
    search of hilbertian_constant minimises the ratio it maximises, so the
    tag marks an upper bound on the true constant.
    """
    _check_samples(samples, 1)
    if family.space.norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        vals, vecs = _gram_eigh(family.blocks)
        value = math.sqrt(max(float(vals[0]), 0.0))
        return ConstantEstimate(value=value, method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0)
    val, x = _sampled_extremum(
        lambda y: _profile_ratio(family, psi, y), family.space.norm, family.dim, samples, seed, maximize=False
    )
    return ConstantEstimate(value=val, method=SAMPLED_UPPER_BOUND, witness=x, trials=samples)


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
    if p <= p0:
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
    """Sandwich constants for p-th power ambient norms.

    Three regimes: below the crossover exponent, between it and 2, and
    above 2; the aggregates swap roles at p = 2.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be in [1, inf), got {p}")
    m = float(unconditional)
    if m < 1.0:
        raise ValueError("the unconditional constant is never below 1")
    p0 = khintchine_crossover()
    if p < p0:
        lower = 2.0 ** (-0.5 - 1.0 / p) / m
        return SandwichConstants(
            p=p, unconditional=m,
            psi=NormSpec.power(2.0), lower_constant=lower,
            phi=NormSpec.power(p), upper_constant=2.0 * m,
        )
    if p < 2.0:
        lower = (math.gamma((p + 1.0) / 2.0) / _SQRT_PI) ** (1.0 / p) / (math.sqrt(2.0) * m)
        return SandwichConstants(
            p=p, unconditional=m,
            psi=NormSpec.power(2.0), lower_constant=lower,
            phi=NormSpec.power(p), upper_constant=2.0 * m,
        )
    upper = math.sqrt(8.0) * (math.gamma((p + 1.0) / 2.0) / _SQRT_PI) ** (1.0 / p) * m
    return SandwichConstants(
        p=p, unconditional=m,
        psi=NormSpec.power(p), lower_constant=1.0 / (2.0 * m),
        phi=NormSpec.power(2.0), upper_constant=upper,
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
    -1e-9 * (1 + ||x||).
    """
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
    individual norms.  With ``candidate_upper`` given, sets where the
    quadratic mean exceeds candidate * aggregate are flagged.
    """
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
