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
from .geometry import _block_profiles, _gram_eigh, _sampled_extremum, hilbertian_constant
from .kernel import (
    EXACT_ENUMERATION,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    SPECTRAL_EXACT,
    ConstantEstimate,
    _span_rows,
    invert_with_condition,
    operator_norm,
    spectral_norm,
    unit_sphere_sampler,
)
from .orlicz import NormSpec, rowwise_norm, vector_norm

_RANK_TOL = 1e-10
RESIDUAL_TOLERANCE = 1e-8
MARGINAL_BAND = 1e-6


# ---------------------------------------------------------------------------
# Distance to a subspace in an arbitrary ambient norm


# probe grids of the line search: geometric around 0 to bracket the
# minimum, then the 15 inner points of a 16-interval split of the bracket
_BRACKET_GRID = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
_SHRINK_GRID = np.arange(1.0, 16.0) / 16.0


def _line_search(r: np.ndarray, c: np.ndarray, step: np.ndarray, norm: NormSpec, tol: float) -> np.ndarray:
    """Minimiser of the convex t -> ||r_i - t c|| for every row r_i.

    The probes step_i * _BRACKET_GRID bracket the minimum between the
    neighbours of the best one, the grid growing 16-fold while that is an
    end.  Each round then probes the bracket [a, b] at _SHRINK_GRID and
    keeps the neighbours of the best probe, until b - a <= tol * (1 + |a|
    + |b|); the best probe is returned.  A round is one rowwise_norm call.
    """

    def probe(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        trial = rows[:, None, :] - t[:, :, None] * c
        return rowwise_norm(trial.reshape(-1, c.size), norm).reshape(t.shape)

    t = step[:, None] * _BRACKET_GRID
    f = probe(r, t)
    end = _BRACKET_GRID.size - 1
    while True:
        k = f.argmin(axis=1)
        # by convexity the minimum lies beyond the grid only where an end
        # probe is strictly below its neighbour
        grow = np.flatnonzero(((k == 0) & (f[:, 0] < f[:, 1])) | ((k == end) & (f[:, end] < f[:, end - 1])))
        if not grow.size:
            break
        t[grow] *= 16.0
        f[grow] = probe(r[grow], t[grow])
    rows = np.arange(r.shape[0])
    best, a, b = t[rows, k], t[rows, np.maximum(k - 1, 0)], t[rows, np.minimum(k + 1, end)]
    live = rows
    while True:
        live = live[b[live] - a[live] > tol * (1.0 + np.abs(a[live]) + np.abs(b[live]))]
        if not live.size:
            return best
        t = np.hstack([a[live, None], a[live, None] + (b - a)[live, None] * _SHRINK_GRID, b[live, None]])
        k = probe(r[live], t[:, 1:-1]).argmin(axis=1) + 1
        rows = np.arange(live.size)
        best[live], a[live], b[live] = t[rows, k], t[rows, k - 1], t[rows, k + 1]


def _nearest_rows(
    x: np.ndarray, basis: np.ndarray, norm: NormSpec, tol: float = 1e-10, max_sweeps: int = 60
) -> tuple[list[float], np.ndarray]:
    """nearest_in_span of every row of x: the distances and the nearest points.

    Each row stops on its own and every step is elementwise or rowwise,
    so a row's result does not depend on the other rows.
    """
    q = np.asarray(basis)
    x = np.asarray(x)
    d = _span_rows(x, q.conj().T)  # the euclidean warm start q^H x
    parts = (1.0, 1.0j) if np.iscomplexobj(d) else (1.0,)
    live = np.arange(x.shape[0])
    for _ in range(max_sweeps):
        moved = np.zeros(live.size)
        for j in range(d.shape[1]):
            for unit in parts:
                resid = x[live] - _span_rows(d[live], q)
                step = np.maximum(0.25, 0.25 * np.abs(d[live, j]))
                t = _line_search(resid, unit * q[:, j], step, norm, tol)
                d[live, j] += unit * t
                moved = np.maximum(moved, np.abs(t))
        live = live[moved > tol * (1.0 + np.abs(d[live]).max(axis=1, initial=0.0))]
        if not live.size:
            break
    nearest = _span_rows(d, q)
    return [vector_norm(xi - ni, norm) for xi, ni in zip(x, nearest)], nearest


def nearest_in_span(
    x: np.ndarray, basis: np.ndarray, norm: NormSpec, *, tol: float = 1e-10, max_sweeps: int = 60
) -> tuple[float, np.ndarray]:
    """Distance from x to the column span of ``basis`` in ``norm``.

    Coordinate descent over the coefficients from the euclidean warm
    start, each coordinate (in complex data its real and imaginary parts
    in turn) with a line search from the step max(0.25, 0.25 |d_j|): a
    geometric probe grid brackets the minimum, and 17-point grids shrink
    the bracket [a, b] 8-fold per round until b - a <= tol * (1 + |a| +
    |b|).  Sweeps repeat, at most ``max_sweeps`` times, until no
    coordinate moves by more than tol * (1 + max |d_j|).  Returns the
    distance, as vector_norm(x - nearest), and the nearest point.

    A one-row call into the batch solver behind openings and reduced
    moduli; each row of a batch gets exactly the result it gets here.
    """
    dist, nearest = _nearest_rows(np.asarray(x)[None, :], basis, norm, tol, max_sweeps)
    return dist[0], nearest[0]


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
    units = [raw / nrm for raw in starts if (nrm := vector_norm(raw, norm)) > 0]
    dists, nearest = _nearest_rows(np.array(units), qb, norm)
    for x, dist, point in zip(units, dists, nearest):
        if dist > best:
            best = dist
            best_witness = {"x": x, "nearest": point}
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
    ascent, as in hilbertian_constant, with one rowwise_norm(profiles,
    psi) call scoring each batch of samples or candidates.
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
        vals, vecs = _gram_eigh(parts)
        sigma = math.sqrt(max(float(vals[-1]), 0.0))
        return ConstantEstimate(value=sigma, method=SPECTRAL_EXACT, witness=vecs[:, -1], trials=0)

    best_val, best_x = _sampled_extremum(
        lambda x: rowwise_norm(_block_profiles(parts, x, norm), psi), norm, n, samples, seed, maximize=True
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
    drawn = 0
    # draw only as many as are still needed, so the stream is consumed
    # exactly as one draw at a time would consume it
    while tried < samples and drawn < 20 * samples:
        batch = [next(sampler) for _ in range(min(samples - tried, 20 * samples - drawn))]
        drawn += len(batch)
        xs = np.array(batch)
        dists = _nearest_rows(xs, kernel, norm)[0] if kernel.shape[1] > 0 else [1.0] * len(batch)
        for x, image, dist in zip(batch, rowwise_norm(xs @ t.T, norm), dists):
            if dist <= 1e-8:
                continue
            tried += 1
            val = float(image) / dist
            if val < best:
                best, best_x = val, x
    if best_x is None:
        raise ConvergenceError("no sample stayed clear of the kernel")
    return ConstantEstimate(value=best, method=SAMPLED_UPPER_BOUND, witness=best_x, trials=tried)
