"""Stability of decompositions under perturbation: subspace openings,
smallness thresholds, and the explicit similarity construction.

The central object is the mixing operator S built from two families P
and J as sum_n P_n J_n.  When the perturbation is small in the right
aggregated sense, S is invertible and conjugates each P_n into J_n;
build_similarity performs the construction and measures how well the
conjugation identities hold instead of assuming them.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import ProjectionFamily, Subspace, family_rank, range_subspace, selfadjoint_defect
from .errors import ConvergenceError
from .geometry import _sampled_extremum, hilbertian_constant
from .kernel import (
    EXACT_ENUMERATION,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    SPECTRAL_EXACT,
    ConstantEstimate,
    invert_with_condition,
    operator_norm,
    spectral_norm,
    unit_sphere_sampler,
)
from .orlicz import NormSpec, block_psi_norm, rowwise_norm, vector_norm

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_RANK_TOL = 1e-10
RESIDUAL_TOLERANCE = 1e-8
MARGINAL_BAND = 1e-6


# ---------------------------------------------------------------------------
# Distance to a subspace in an arbitrary ambient norm


def _line_min(f, t0: float, step: float, tol: float = 1e-10) -> float:
    """Minimiser of a convex one-variable function near t0."""
    a, m, c = t0 - step, t0, t0 + step
    fa, fm, fc = f(a), f(m), f(c)
    guard = 0
    while fa < fm and guard < 120:
        a, m, c, fm, fc = a - 2.0 * (m - a), a, m, fa, fm
        fa = f(a)
        guard += 1
    while fc < fm and guard < 120:
        a, m, c, fa, fm = m, c, c + 2.0 * (c - m), fm, fc
        fc = f(c)
        guard += 1
    x1 = c - _GOLDEN * (c - a)
    x2 = a + _GOLDEN * (c - a)
    f1, f2 = f(x1), f(x2)
    while c - a > tol * (1.0 + abs(a) + abs(c)):
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _GOLDEN * (c - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (c - a)
            f2 = f(x2)
    return 0.5 * (a + c)


def nearest_in_span(
    x: np.ndarray, basis: np.ndarray, norm: NormSpec, *, tol: float = 1e-10, max_sweeps: int = 60
) -> tuple[float, np.ndarray]:
    """Distance from x to the column span of ``basis`` in ``norm``.

    Convex minimisation over the coefficients by coordinate descent with
    an exact line search per coordinate; the euclidean projection is the
    warm start.  Returns the distance and the nearest point.
    """
    q = np.asarray(basis)
    d = q.conj().T @ x
    complex_coeffs = np.iscomplexobj(q) or np.iscomplexobj(x)
    if complex_coeffs:
        d = d.astype(complex)

    def resid(coeffs: np.ndarray) -> float:
        return vector_norm(x - q @ coeffs, norm)

    parts = (1.0, 1.0j) if complex_coeffs else (1.0,)
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(d.size):
            for unit in parts:
                base = d.copy()

                def f(t: float) -> float:
                    trial = base.copy()
                    trial[j] = base[j] + unit * t
                    return resid(trial)

                t_best = _line_min(f, 0.0, max(0.25, 0.25 * abs(d[j])), tol=tol)
                if t_best != 0.0:
                    d[j] = d[j] + unit * t_best
                    moved = max(moved, abs(t_best))
        if moved <= tol * (1.0 + float(np.abs(d).max(initial=0.0))):
            break
    nearest = q @ d
    return resid(d), nearest


# ---------------------------------------------------------------------------
# Opening between subspaces


@dataclass(frozen=True)
class OpeningReport:
    theta: float
    direction_ab: float
    direction_ba: float
    method: str
    witness_ab: dict | None = None
    witness_ba: dict | None = None


def _directional_gap_exact(qa: np.ndarray, qb: np.ndarray) -> tuple[float, dict]:
    gap_matrix = qa - qb @ (qb.conj().T @ qa)
    u, s, vh = np.linalg.svd(gap_matrix)
    v = vh[0].conj()
    x = qa @ v
    nearest = qb @ (qb.conj().T @ x)
    return float(s[0]), {"x": x, "nearest": nearest}


def _directional_gap_sampled(
    qa: np.ndarray, qb: np.ndarray, norm: NormSpec, samples: int, seed: int
) -> tuple[float, dict]:
    n, r = qa.shape
    rng = np.random.default_rng(seed)
    best = -math.inf
    best_witness: dict = {}
    starts = [qa[:, j] for j in range(r)]
    for _ in range(samples):
        starts.append(qa @ rng.standard_normal(r))
    for raw in starts:
        nrm = vector_norm(raw, norm)
        if nrm <= 0:
            continue
        x = raw / nrm
        dist, nearest = nearest_in_span(x, qb, norm)
        if dist > best:
            best = dist
            best_witness = {"x": x, "nearest": nearest}
    return best, best_witness


def opening(a: Subspace, b: Subspace, norm: NormSpec | None = None, samples: int = 64, seed: int = 0) -> OpeningReport:
    """Two-sided opening: the larger of the two directional gaps
    sup_{x in A, ||x||=1} dist(x, B) and the same with roles swapped.

    Equal spans short-circuit to exactly zero by a rank test.  In the
    euclidean ambient both directions are exact via principal angles;
    any other norm gets a sampled lower bound with the inner distance
    solved as a convex minimisation.
    """
    if a.space.dim != b.space.dim:
        raise ValueError("subspaces live in different ambient dimensions")
    ambient = norm if norm is not None else a.space.norm
    qa = a.orthonormal_basis
    qb = b.orthonormal_basis

    stacked = np.hstack([qa, qb])
    s = np.linalg.svd(stacked, compute_uv=False)
    joint_rank = int(np.sum(s > _RANK_TOL * s[0]))
    if a.dim == b.dim == joint_rank:
        return OpeningReport(theta=0.0, direction_ab=0.0, direction_ba=0.0, method="equal-span-exact")

    if ambient.power_exponent() == 2.0:
        dab, wab = _directional_gap_exact(qa, qb)
        dba, wba = _directional_gap_exact(qb, qa)
        method = "principal-angles-exact"
    else:
        dab, wab = _directional_gap_sampled(qa, qb, ambient, samples, seed)
        dba, wba = _directional_gap_sampled(qb, qa, ambient, samples, seed + 1)
        method = SAMPLED_LOWER_BOUND
    return OpeningReport(
        theta=max(dab, dba),
        direction_ab=dab,
        direction_ba=dba,
        method=method,
        witness_ab=wab,
        witness_ba=wba,
    )


# ---------------------------------------------------------------------------
# Smallness threshold and the aggregated opening condition


@dataclass(frozen=True)
class ThresholdReport:
    value: float
    sup_partial_sum_norm: float
    sup_block_norm: float
    method: str  # "exact" | "certified-lower-bound"


def lambda_threshold(family: ProjectionFamily, norm: NormSpec | None = None) -> ThresholdReport:
    """Perturbation budget 1 / (4 * sup_n ||sum_{j<=n} P_j|| * (1 + sup_n ||P_n||)^2).

    Operator norms are exact in the euclidean, sum and max ambients;
    elsewhere their certified upper bounds make the threshold a
    certified lower bound, which is the safe direction.
    """
    ambient = norm if norm is not None else family.space.norm
    partial = [operator_norm(m, ambient) for m in np.cumsum(family.blocks, axis=0)]
    single = [operator_norm(b, ambient) for b in family.blocks]
    exact = all(est.method in (SPECTRAL_EXACT, EXACT_ENUMERATION) for est in partial + single)
    sup_partial = max(est.value for est in partial)
    sup_block = max(est.value for est in single)
    value = 1.0 / (4.0 * sup_partial * (1.0 + sup_block) ** 2)
    return ThresholdReport(
        value=value,
        sup_partial_sum_norm=sup_partial,
        sup_block_norm=sup_block,
        method="exact" if exact else "certified-lower-bound",
    )


@dataclass(frozen=True)
class OpeningConditionReport:
    openings: tuple[OpeningReport, ...]
    aggregate: float
    exponent: float
    threshold: ThresholdReport
    satisfied: bool


def check_opening_condition(
    family: ProjectionFamily,
    candidates: Sequence[Subspace],
    p: float,
    norm: NormSpec | None = None,
    samples: int = 64,
    seed: int = 0,
) -> OpeningConditionReport:
    """Aggregate the blockwise openings in the p-th power mean and
    compare against the family's perturbation budget."""
    if not (p >= 1.0):
        raise ValueError("aggregation exponent must be >= 1")
    if len(candidates) != family.block_count:
        raise ValueError(
            f"{len(candidates)} candidate subspaces for {family.block_count} blocks"
        )
    reports = []
    for b, cand in zip(family.blocks, candidates):
        rng = range_subspace(b, family.space)
        reports.append(opening(rng, cand, norm, samples=samples, seed=seed))
    aggregate = float(np.sum(np.array([r.theta for r in reports]) ** p) ** (1.0 / p))
    thr = lambda_threshold(family, norm)
    return OpeningConditionReport(
        openings=tuple(reports),
        aggregate=aggregate,
        exponent=float(p),
        threshold=thr,
        satisfied=bool(aggregate <= thr.value),
    )


# ---------------------------------------------------------------------------
# Perturbation size in the aggregated sense


def perturbation_sigma(
    p_family: ProjectionFamily,
    j_family: ProjectionFamily,
    psi: NormSpec,
    samples: int = 256,
    seed: int = 0,
) -> ConstantEstimate:
    """Smallest bound s with psi-aggregate of ||P_n (J_n - P_n) x|| over
    n >= 1 at most s * ||x||; the first block is deliberately excluded.

    Exact via the spectrum of the summed products when everything is
    euclidean; otherwise a sampled lower bound polished by coordinate
    ascent.
    """
    if p_family.dim != j_family.dim or p_family.block_count != j_family.block_count:
        raise ValueError("families must share dimension and block count")
    norm = p_family.space.norm
    n = p_family.dim
    if p_family.block_count == 1:
        e = np.zeros(n)
        e[0] = 1.0
        return ConstantEstimate(value=0.0, method=SPECTRAL_EXACT, witness=e, trials=0)
    p, j = p_family.blocks[1:], j_family.blocks[1:]
    parts = p @ (j - p)

    if norm.power_exponent() == 2.0 and psi.power_exponent() == 2.0:
        h = (np.swapaxes(parts.conj(), 1, 2) @ parts).sum(axis=0)
        vals, vecs = np.linalg.eigh(h)
        sigma = math.sqrt(max(float(vals[-1]), 0.0))
        return ConstantEstimate(value=sigma, method=SPECTRAL_EXACT, witness=vecs[:, -1], trials=0)

    best_val, best_x = _sampled_extremum(
        lambda x: block_psi_norm(rowwise_norm(parts @ x, norm), psi), norm, n, samples, seed, maximize=True
    )
    return ConstantEstimate(value=best_val, method=SAMPLED_LOWER_BOUND, witness=best_x, trials=samples)


# ---------------------------------------------------------------------------
# The similarity construction


@dataclass(frozen=True)
class StabilityReport:
    verdict: str  # "similar" | "residual too large" | "not invertible"
    s_matrix: np.ndarray
    s_condition: float
    r_norm: float
    r_norm_method: str
    similarity_residual: float | None
    residual_tolerance: float | None
    sigma: float | None = None
    sigma_method: str | None = None
    c_hilbertian: float | None = None
    c_method: str | None = None
    threshold: float | None = None
    hypothesis_met: bool | None = None
    marginal: bool = False
    rank_first_block: tuple[int, int] | None = None


def build_similarity(p_family: ProjectionFamily, j_family: ProjectionFamily) -> StabilityReport:
    """Form S = sum_n P_n J_n and test it as a similarity.

    The remainder R = I - P_0 - sum_{n>=1} P_n J_n measures how far S
    is from the complemented identity.  When S is invertible the report
    carries max_n || J_n - S^{-1} P_n S ||; the verdict is "similar"
    exactly when that residual is below 1e-8 * (1 + cond(S)).  A
    singular S is a verdict, not an exception.
    """
    if p_family.dim != j_family.dim or p_family.block_count != j_family.block_count:
        raise ValueError("families must share dimension and block count")
    n = p_family.dim
    ambient = p_family.space.norm
    p, j = p_family.blocks, j_family.blocks
    products = p @ j
    s_matrix = products.sum(axis=0)
    remainder = np.eye(n) - p[0] - (s_matrix - products[0])
    r_est = operator_norm(remainder, ambient)

    inv = invert_with_condition(s_matrix)
    if inv.singular:
        return StabilityReport(
            verdict="not invertible",
            s_matrix=s_matrix,
            s_condition=inv.condition,
            r_norm=r_est.value,
            r_norm_method=r_est.method,
            similarity_residual=None,
            residual_tolerance=None,
        )
    residual = spectral_norm(j - inv.inverse @ p @ s_matrix)
    tol = RESIDUAL_TOLERANCE * (1.0 + inv.condition)
    return StabilityReport(
        verdict="similar" if residual <= tol else "residual too large",
        s_matrix=s_matrix,
        s_condition=inv.condition,
        r_norm=r_est.value,
        r_norm_method=r_est.method,
        similarity_residual=float(residual),
        residual_tolerance=tol,
    )


def _with_hypothesis(
    base: StabilityReport,
    sigma: ConstantEstimate,
    c_value: float,
    c_method: str,
    threshold: float,
    ranks: tuple[int, int],
) -> StabilityReport:
    marginal = abs(sigma.value - threshold) <= MARGINAL_BAND * threshold
    met = sigma.value < threshold and ranks[0] == ranks[1]
    return dataclasses.replace(
        base,
        sigma=sigma.value,
        sigma_method=sigma.method,
        c_hilbertian=c_value,
        c_method=c_method,
        threshold=threshold,
        hypothesis_met=bool(met),
        marginal=bool(marginal),
        rank_first_block=ranks,
    )


def kato_check(p_family: ProjectionFamily, j_family: ProjectionFamily) -> StabilityReport:
    """Selfadjoint-base stability test in the euclidean ambient.

    Requires the base blocks selfadjoint within 1e-10.  The hypothesis
    is: perturbation size below 1 and equal first-block ranks.  The
    similarity is always built so the residual is reported either way.
    """
    if p_family.space.norm.power_exponent() != 2.0:
        raise ValueError("kato_check requires the euclidean ambient norm")
    defect = selfadjoint_defect(p_family)
    if defect > 1e-10:
        raise ValueError(f"base family is not selfadjoint (defect {defect:.3e})")
    sigma = perturbation_sigma(p_family, j_family, NormSpec.power(2.0))
    c_est = hilbertian_constant(p_family, NormSpec.power(2.0))
    ranks = (family_rank(p_family.blocks[0]), family_rank(j_family.blocks[0]))
    base = build_similarity(p_family, j_family)
    return _with_hypothesis(base, sigma, c_est.value, c_est.method, 1.0, ranks)


def orlicz_stability_check(
    p_family: ProjectionFamily,
    j_family: ProjectionFamily,
    psi: NormSpec,
    hilbertian: float | None = None,
    samples: int = 256,
    seed: int = 0,
) -> StabilityReport:
    """General stability test: perturbation size against 1/C where C is
    the family's psi-aggregate bound from hilbertian_constant (or a
    supplied value)."""
    if hilbertian is None:
        c_est = hilbertian_constant(p_family, psi, samples=samples, seed=seed)
        c_value, c_method = c_est.value, c_est.method
    else:
        c_value, c_method = float(hilbertian), "supplied"
    if not (c_value > 0):
        raise ValueError("the aggregate bound C must be positive")
    sigma = perturbation_sigma(p_family, j_family, psi, samples=samples, seed=seed)
    ranks = (family_rank(p_family.blocks[0]), family_rank(j_family.blocks[0]))
    base = build_similarity(p_family, j_family)
    threshold = 0.0 if math.isinf(c_value) else 1.0 / c_value
    return _with_hypothesis(base, sigma, c_value, c_method, threshold, ranks)


def c0_stability_check(
    p_family: ProjectionFamily,
    j_family: ProjectionFamily,
    sup_bound: float,
    samples: int = 256,
    seed: int = 0,
) -> StabilityReport:
    """Stability test in the max-norm ambient with the sup aggregate.

    ``sup_bound`` is the constant C in ||x|| <= C * sup_n ||P_n x||;
    the hypothesis is a perturbation size below 1/C.
    """
    if p_family.space.norm.variant != "max":
        raise ValueError("c0_stability_check requires the max-norm ambient")
    return orlicz_stability_check(
        p_family,
        j_family,
        NormSpec.max_norm(),
        hilbertian=float(sup_bound),
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Reduced minimum modulus


def reduced_minimum_modulus(
    matrix: np.ndarray, norm: NormSpec, samples: int = 64, seed: int = 0
) -> ConstantEstimate | None:
    """gamma(T): the largest g with ||Tx|| >= g * dist(x, ker T).

    Exact in the euclidean ambient (the smallest nonzero singular
    value).  In other norms the infimum of ||Tx|| / dist(x, ker T) is
    sampled, which can only overestimate, and the tag says so.  The zero
    matrix has no reduced modulus; None is returned rather than raising.
    """
    t = np.asarray(matrix)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("expected a square matrix")
    u, s, vh = np.linalg.svd(t)
    if s[0] == 0:
        return None
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    kernel = vh[rank:].conj().T  # shape (n, n - rank)

    if norm.power_exponent() == 2.0:
        gamma = float(s[rank - 1])
        witness = vh[rank - 1].conj()
        return ConstantEstimate(value=gamma, method=SPECTRAL_EXACT, witness=witness, trials=0)

    sampler = unit_sphere_sampler(norm, t.shape[0], seed)
    best = math.inf
    best_x = None
    tried = 0
    for _ in range(20 * samples):
        if tried >= samples:
            break
        x = next(sampler)
        if kernel.shape[1] > 0:
            dist, _ = nearest_in_span(x, kernel, norm)
        else:
            dist = 1.0
        if dist <= 1e-8:
            continue
        tried += 1
        val = vector_norm(t @ x, norm) / dist
        if val < best:
            best, best_x = val, x
    if best_x is None:
        raise ConvergenceError("no sample stayed clear of the kernel")
    return ConstantEstimate(value=best, method=SAMPLED_UPPER_BOUND, witness=best_x, trials=tried)
