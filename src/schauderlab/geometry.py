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
    solve_monotone,
    unit_sphere_sampler,
)
from .orlicz import NormSpec, OrliczFunction, block_psi_norm, luxemburg_norm, rowwise_norm, vector_norm

SIGN_BUDGET = 24
COEFFICIENT_BUDGET = 20
GRID_POINTS_PER_AXIS = 17
GRID_PATTERN_BUDGET = 1 << 24

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Rademacher sign enumeration


def _sign_chunks(n: int, chunk: int = 1 << 13) -> Iterator[np.ndarray]:
    """The 2^(n-1) sign patterns whose last sign is +1.

    Norms are symmetric, so ||sum_j eps_j x_j|| = ||sum_j -eps_j x_j||
    and these patterns, one from each pair +-eps, carry every value.
    """
    half = 1 << (n - 1)
    cols = np.arange(n, dtype=np.int64)
    for start in range(0, half, chunk):
        idx = np.arange(start, min(start + chunk, half), dtype=np.int64) | half
        yield ((idx[:, None] >> cols) & 1).astype(float) * 2.0 - 1.0


def _stack_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    x = np.stack([np.asarray(v) for v in vectors])
    if x.ndim != 2:
        raise ValueError("vectors must be one-dimensional and of equal length")
    if len(vectors) > SIGN_BUDGET:
        raise BudgetError(f"{len(vectors)} vectors exceed the sign enumeration budget ({SIGN_BUDGET})")
    return x


def rademacher_average(vectors: Sequence[np.ndarray], norm: NormSpec, power: int = 1) -> float:
    """Average of ||sum_j eps_j x_j|| over all sign choices, exactly.

    power=1 gives the plain mean, power=2 the quadratic mean.  The
    average runs over all 2^n sign patterns; by the symmetry eps -> -eps
    only the 2^(n-1) patterns with a last sign of +1 are evaluated.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    x = _stack_vectors(vectors)
    n = x.shape[0]
    acc = 0.0
    for signs in _sign_chunks(n):
        norms = rowwise_norm(signs @ x, norm)
        acc += float(np.sum(norms**power))
    mean = acc / (1 << (n - 1))
    return mean if power == 1 else math.sqrt(mean)


def min_max_sign_norm(vectors: Sequence[np.ndarray], norm: NormSpec, mode: str) -> ConstantEstimate:
    """Extreme of ||sum_j eps_j x_j|| over all sign patterns.

    ``trials`` counts the 2^n patterns covered; by the symmetry
    eps -> -eps half of them, those with a last sign of +1, are
    evaluated, and the witness is one of those.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    x = _stack_vectors(vectors)
    n = x.shape[0]
    best_val = math.inf if mode == "min" else -math.inf
    best_signs: np.ndarray | None = None
    for signs in _sign_chunks(n):
        norms = rowwise_norm(signs @ x, norm)
        i = int(np.argmin(norms) if mode == "min" else np.argmax(norms))
        v = float(norms[i])
        if (mode == "min" and v < best_val) or (mode == "max" and v > best_val):
            best_val = v
            best_signs = signs[i].copy()
    return ConstantEstimate(
        value=best_val,
        method=EXACT_ENUMERATION,
        witness={"signs": best_signs},
        trials=1 << n,
    )


# ---------------------------------------------------------------------------
# Unconditionality


def _coefficient_chunks(mode: str, k: int, chunk: int = 1 << 13) -> Iterator[np.ndarray]:
    """Coefficient patterns for the three enumeration modes.

    zero-one enumerates its 2^k patterns exactly.  signs covers its 2^k
    patterns through the 2^(k-1) with a last sign of +1: the norm is
    symmetric, so c and -c give the same ratio.  The unit-interval grid
    uses 17 points per axis when the full product is affordable; beyond
    that the cube's extreme points together with the zero-one masks are
    enumerated instead, which convexity shows carry the maximum of any
    norm over the cube.
    """
    if mode == "signs":
        yield from _sign_chunks(k, chunk)
        return
    if mode == "zero-one":
        cols = np.arange(k, dtype=np.int64)
        total = 1 << k
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            yield ((idx[:, None] >> cols) & 1).astype(float)
        return
    if mode == "unit-disc-grid":
        if GRID_POINTS_PER_AXIS**k <= GRID_PATTERN_BUDGET:
            axis = np.linspace(-1.0, 1.0, GRID_POINTS_PER_AXIS)
            buf = []
            for combo in itertools.product(axis, repeat=k):
                buf.append(combo)
                if len(buf) == chunk:
                    yield np.array(buf)
                    buf = []
            if buf:
                yield np.array(buf)
        else:
            yield from _coefficient_chunks("signs", k, chunk)
            yield from _coefficient_chunks("zero-one", k, chunk)
        return
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
    The signs mode, and the grid mode's fallback for k > 5, evaluate one
    pattern of each pair +-c; the witness is then one with c_k = +1.
    """
    k = family.block_count
    if k > COEFFICIENT_BUDGET:
        raise BudgetError(f"{k} blocks exceed the coefficient enumeration budget ({COEFFICIENT_BUDGET})")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    norm = family.space.norm

    if norm.power_exponent() == 2.0 and selfadjoint_defect(family) <= family.default_tolerance():
        u, _, _ = np.linalg.svd(family.blocks[0])
        witness = {"coefficients": np.ones(k), "x": u[:, 0]}
        return ConstantEstimate(value=1.0, method=SPECTRAL_EXACT, witness=witness, trials=0)

    chunks = list(_coefficient_chunks(coefficient_set, k))
    sampler = unit_sphere_sampler(norm, family.dim, seed)
    best = -math.inf
    best_witness = None
    for _ in range(samples):
        x = next(sampler)
        tuple_rows = family.blocks @ x
        denom = vector_norm(tuple_rows.sum(axis=0), norm)
        if denom <= 0:
            continue
        for coeffs in chunks:
            ratios = rowwise_norm(coeffs @ tuple_rows, norm) / denom
            i = int(np.argmax(ratios))
            if ratios[i] > best:
                best = float(ratios[i])
                best_witness = {"coefficients": coeffs[i].copy(), "x": x.copy()}
    return ConstantEstimate(
        value=best,
        method=SAMPLED_LOWER_BOUND,
        witness=best_witness,
        trials=samples,
    )


# ---------------------------------------------------------------------------
# Frame-style constants in the euclidean ambient


def riesz_constant(family: ProjectionFamily) -> ConstantEstimate:
    """Smallest C with (1/C)||x||^2 <= sum ||P_n x||^2 <= C ||x||^2.

    Euclidean ambient only; both extremes come from the spectrum of
    sum P_n* P_n, so the result is exact.
    """
    if family.space.norm.power_exponent() != 2.0:
        raise ValueError("riesz_constant requires the euclidean ambient norm")
    b = family.blocks
    g = (np.swapaxes(b.conj(), 1, 2) @ b).sum(axis=0)  # sum_k B_k^* B_k
    vals, vecs = np.linalg.eigh(g)
    lo = float(vals[0])
    hi = float(vals[-1])
    if lo <= 0:
        return ConstantEstimate(value=math.inf, method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0)
    value = max(hi, 1.0 / lo)
    witness = vecs[:, -1] if hi >= 1.0 / lo else vecs[:, 0]
    return ConstantEstimate(value=value, method=SPECTRAL_EXACT, witness=witness, trials=0)


def _profile_ratio(family: ProjectionFamily, psi: NormSpec, x: np.ndarray) -> float:
    norm = family.space.norm
    agg = block_psi_norm(rowwise_norm(family.blocks @ x, norm), psi)
    if agg == 0.0:
        return math.inf
    return vector_norm(x, norm) / agg


def _coordinate_refine(
    fn,
    x0: np.ndarray,
    norm: NormSpec,
    *,
    maximize: bool,
    rel_gain: float = 1e-8,
    min_step: float = 1e-9,
    max_rounds: int = 200,
) -> tuple[np.ndarray, float]:
    """Coordinate-wise perturbation climb on the unit sphere of ``norm``."""
    x = x0 / vector_norm(x0, norm)
    best = fn(x)
    h = 0.25
    rounds = 0
    while h > min_step and rounds < max_rounds:
        rounds += 1
        improved = False
        for i in range(x.size):
            for s in (h, -h):
                cand = x.copy()
                cand[i] += s
                nrm = vector_norm(cand, norm)
                if nrm <= 0:
                    continue
                cand /= nrm
                v = fn(cand)
                gain = (v - best) if maximize else (best - v)
                if gain > rel_gain * max(abs(best), 1e-300):
                    x, best, improved = cand, v, True
        if not improved:
            h *= 0.5
    return x, best


def _sampled_extremum(
    ratio, norm: NormSpec, dim: int, samples: int, seed: int, *, maximize: bool
) -> tuple[float, np.ndarray]:
    """Extreme of ``ratio`` over a seeded unit-sphere sample.

    The three best samples are each refined by coordinate search; the
    best value seen and its vector are returned.
    """
    sampler = unit_sphere_sampler(norm, dim, seed)
    scored = [(ratio(x), x) for x in itertools.islice(sampler, samples)]
    scored.sort(key=lambda t: t[0], reverse=maximize)
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
    euclidean; otherwise a sampled lower bound polished by coordinate
    ascent.
    """
    if family.space.norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        b = family.blocks
        g = (np.swapaxes(b.conj(), 1, 2) @ b).sum(axis=0)
        vals, vecs = np.linalg.eigh(g)
        lo = float(vals[0])
        if lo <= 0:
            return ConstantEstimate(value=math.inf, method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0)
        return ConstantEstimate(
            value=1.0 / math.sqrt(lo), method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0
        )
    val, x = _sampled_extremum(
        lambda y: _profile_ratio(family, psi, y), family.space.norm, family.dim, samples, seed, maximize=True
    )
    return ConstantEstimate(value=val, method=SAMPLED_LOWER_BOUND, witness=x, trials=samples)


def besselian_constant(
    family: ProjectionFamily, psi: NormSpec, samples: int = 256, seed: int = 0
) -> ConstantEstimate:
    """Largest c with c * psi-aggregate of the block norms <= ||x||.

    The sampled route minimises the same ratio hilbertian_constant
    maximises, so its tag marks an upper bound on the true constant.
    """
    if family.space.norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        b = family.blocks
        g = (np.swapaxes(b.conj(), 1, 2) @ b).sum(axis=0)
        vals, vecs = np.linalg.eigh(g)
        lo = max(float(vals[0]), 0.0)
        return ConstantEstimate(
            value=math.sqrt(lo), method=SPECTRAL_EXACT, witness=vecs[:, 0], trials=0
        )
    val, x = _sampled_extremum(
        lambda y: _profile_ratio(family, psi, y), family.space.norm, family.dim, samples, seed, maximize=False
    )
    return ConstantEstimate(value=val, method=SAMPLED_UPPER_BOUND, witness=x, trials=samples)


# ---------------------------------------------------------------------------
# Sign-average comparison constants


@functools.lru_cache(maxsize=1)
def khintchine_crossover() -> float:
    """The exponent in (1, 2) where gamma((p+1)/2) falls to sqrt(pi)/2.

    gamma((p+1)/2) - sqrt(pi)/2 also vanishes at p = 2, so the bisection
    bracket stops at 1.95 to isolate the interior root.
    """

    def f(p: float) -> float:
        return math.gamma((p + 1.0) / 2.0) - _SQRT_PI / 2.0

    return solve_monotone(f, 0.0, (1.0, 1.95), tol_abs=1e-11)


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
        profile = np.array([vector_norm(v, norm) for v in vectors])
        agg = luxemburg_norm(phi, profile)
        if agg <= 0:
            raise ValueError(f"set {idx} has a vanishing norm aggregate")
        quad = rademacher_average(vectors, norm, power=2) / agg
        mn = min_max_sign_norm(vectors, norm, "min").value / agg
        mx = min_max_sign_norm(vectors, norm, "max").value / agg
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
