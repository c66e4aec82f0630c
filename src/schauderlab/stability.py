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
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import SELFADJOINT_TOLERANCE, ProjectionFamily, Subspace, _check_pair, _rank, family_rank
from .decomposition import range_subspace, selfadjoint_defect
from .geometry import hilbertian_constant, perturbation_sigma
from .kernel import (
    CERTIFIED_LOWER_BOUND,
    EXACT,
    EXACT_METHODS,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    SPECTRAL_EXACT,
    SUPPLIED,
    ConstantEstimate,
    _check_samples,
    _operator_norms,
    _sampled_search,
    _span_rows,
    invert_with_condition,
    operator_norm,
    spectral_norm,
)
from .orlicz import NormSpec, rowwise_norm

RESIDUAL_TOLERANCE = 1e-8
MARGINAL_BAND = 1e-6


# ---------------------------------------------------------------------------
# Distance to a subspace in an arbitrary ambient norm


# the descent stops its line searches and its sweeps at this relative
# width, and after _MAX_SWEEPS sweeps at most
_DESCENT_TOL = 1e-10
_MAX_SWEEPS = 60
# probe grids of the line search: geometric around 0 to bracket the
# minimum, then the 15 inner points of a 16-interval split of the bracket
_BRACKET_GRID = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
_SHRINK_GRID = np.arange(1.0, 16.0) / 16.0


def _line_search(r: np.ndarray, c: np.ndarray, step: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Minimiser of the convex t -> ||r_i - t c|| for every row r_i.

    The probes step_i * _BRACKET_GRID bracket the minimum between the
    neighbours of the best one, the grid growing 16-fold while that is an
    end.  Each round then probes the bracket [a, b] at _SHRINK_GRID and
    keeps the neighbours of the best probe, until the width b - a is at
    most _DESCENT_TOL (1 + |a| + |b|); the best probe is returned.  A
    round is one rowwise_norm call.
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
        live = live[b[live] - a[live] > _DESCENT_TOL * (1.0 + np.abs(a[live]) + np.abs(b[live]))]
        if not live.size:
            return best
        t = np.hstack([a[live, None], a[live, None] + (b - a)[live, None] * _SHRINK_GRID, b[live, None]])
        k = probe(r[live], t[:, 1:-1]).argmin(axis=1) + 1
        rows = np.arange(live.size)
        best[live], a[live], b[live] = t[rows, k], t[rows, k - 1], t[rows, k + 1]


def _descent(x: np.ndarray, q: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Coefficients of the coordinate descent behind nearest_in_span.

    Each row stops on its own and every step is elementwise or rowwise,
    so a row's result does not depend on the other rows.
    """
    d = _span_rows(x, q.conj().T)  # the euclidean warm start q^H x
    parts = (1.0, 1.0j) if np.iscomplexobj(d) else (1.0,)
    live = np.arange(x.shape[0])
    for _ in range(_MAX_SWEEPS):
        moved = np.zeros(live.size)
        for j in range(d.shape[1]):
            for unit in parts:
                resid = x[live] - _span_rows(d[live], q)
                step = np.maximum(0.25, 0.25 * np.abs(d[live, j]))
                t = _line_search(resid, unit * q[:, j], step, norm)
                d[live, j] += unit * t
                moved = np.maximum(moved, np.abs(t))
        live = live[moved > _DESCENT_TOL * (1.0 + np.abs(d[live]).max(axis=1, initial=0.0))]
        if not live.size:
            break
    return d


# Real l1 and l-inf distances are linear programs, solved exactly by
# enumerating their basic solutions while that holds at most this many
# floats for a batch of 16 rows: per subset its r x r minors (l-inf) or its
# n x r fit rows (l1), and r + 1 entries per row.  Within it, on batches of
# 66 rows, the enumeration took at most about twice as long as the descent
# (lines at the edge of the budget), and for r >= 2 less time on every
# measured shape
BASIC_SOLUTION_BUDGET = 1_000_000
# r x r minors below this share of the largest are taken as zero
_MINOR_TOL = 1e-12
# a row whose primal exceeds its dual by more than this relative gap, plus
# a rounding allowance of _ROUNDING * ||x||_1, is handed to the descent
_GAP_TOL = 1e-12
_ROUNDING = 16.0 * float(np.finfo(float).eps)


@functools.lru_cache(maxsize=64)
def _subsets(n: int, r: int) -> np.ndarray:
    """The r-subsets of range(n) in lexicographic order, one per row."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    out = np.fromiter(flat, dtype=np.intp).reshape(math.comb(n, r), r)
    out.flags.writeable = False  # cached: every caller gets this array
    return out


def _minors(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, those below _MINOR_TOL
    of the largest set to zero."""
    dets = np.linalg.det(m)
    dets[np.abs(dets) <= _MINOR_TOL * np.abs(dets).max()] = 0.0
    return dets


def _chebyshev(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Coefficients and dual values of min_d ||x - q d||_inf for every row.

    By Hahn-Banach the distance is max |l.x| over l with q^T l = 0 and
    ||l||_1 <= 1, and the extreme such l live on r+1 coordinates S: l_S
    spans the null space of q_S^T, given by the signed r x r minors of
    q_S.  At the best S the nearest point levels the residual to
    h sign(l_S), so [q_S, sign l_S] [d; h] = x_S.  None when q has rank
    below r.
    """
    n, r = q.shape
    large = _subsets(n, r + 1)
    # lam[:, k] is the minor of q_S without its k-th row, signed below
    drop = np.array([np.delete(np.arange(r + 1), k) for k in range(r + 1)]).reshape(r + 1, r)
    lam = _minors(q[large[:, drop]])
    lam[:, 1::2] *= -1.0
    weight = np.abs(lam).sum(axis=1)
    keep = weight > 0
    if not keep.any():
        return None
    large, lam, weight = large[keep], lam[keep], weight[keep]
    dot = np.zeros((x.shape[0], large.shape[0]))
    for k in range(r + 1):
        dot = dot + lam[:, k] * x[:, large[:, k]]
    score = np.abs(dot) / weight
    best = score.argmax(axis=1)
    rows = np.arange(x.shape[0])
    s = large[best]
    system = np.concatenate([q[s], np.sign(lam[best])[:, :, None]], axis=2)
    coeffs = np.linalg.solve(system, x[rows[:, None], s][:, :, None])[:, :r, 0]
    return coeffs, score[rows, best]


def _interpolation(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Coefficients and dual values of min_d ||x - q d||_1 for every row.

    Some minimiser interpolates x on r coordinates T with q_T invertible,
    so the distance is the least ||x - q q_T^-1 x_T||_1 over such T.  The
    dual value is |l.x| / ||l||_inf for the l with q^T l = 0 that is
    sign(x - q d) off the best T.  With n == r the span is everything and
    l = 0, in any norm.  None when q has rank below r.
    """
    n, r = q.shape
    t = _subsets(n, r)
    square = q[t]
    keep = _minors(square) != 0.0
    if not keep.any():
        return None
    t = t[keep]
    inv = np.linalg.inv(square[keep])
    fit_rows = q @ inv  # (subsets, n, r): row i is q_i q_T^-1
    picked = [x[:, t[:, k]] for k in range(r)]
    total = np.zeros((x.shape[0], t.shape[0]))
    for i in range(n):
        fit = np.zeros_like(total)
        for k in range(r):
            fit = fit + fit_rows[:, i, k] * picked[k]
        total = total + np.abs(x[:, i, None] - fit)
    best = total.argmin(axis=1)
    rows = np.arange(x.shape[0])[:, None]
    tb, invb = t[best], inv[best]
    coeffs = np.zeros((x.shape[0], r))
    for k in range(r):
        coeffs = coeffs + invb[:, :, k] * x[rows, tb[:, k, None]]
    lam = np.sign(x - _span_rows(coeffs, q))
    lam[rows, tb] = 0.0
    g = _span_rows(lam, q.T)  # q^T l so far
    lam_t = np.zeros((x.shape[0], r))
    for j in range(r):
        lam_t = lam_t - invb[:, j, :] * g[:, j, None]
    lam[rows, tb] = lam_t
    top = np.abs(lam).max(axis=1, initial=0.0)
    return coeffs, np.abs((lam * x).sum(axis=1)) / np.where(top > 0, top, 1.0)


def _hyperplane(x: np.ndarray, q: np.ndarray, linf: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """Coefficients and dual values of the l-inf or l1 distance from every
    row to a hyperplane span (r = n - 1), in closed form.

    The span is the orthogonal complement of a normal a, so by duality the
    distance is |a.x| / ||a||_1 in l-inf and |a.x| / ||a||_inf in l1.  The
    nearest point is x - (a.x / ||a||_1) sign(a) in l-inf, which levels
    the residual, and x - (a.x / a_k) e_k at the largest |a_k| in l1.
    None when q has rank below r.
    """
    n, r = q.shape
    u, s, vh = np.linalg.svd(q)
    if _rank(s) < s.size:
        return None
    a = u[:, r]
    dot = x @ a
    nearest = x.copy()
    if linf:
        weight = np.abs(a).sum()
        nearest -= (dot / weight)[:, None] * np.sign(a)
    else:
        k = int(np.argmax(np.abs(a)))
        weight = abs(a[k])
        nearest[:, k] -= dot / a[k]
    return (nearest @ u[:, :r] / s) @ vh, np.abs(dot) / weight


def _basic_solutions(x: np.ndarray, q: np.ndarray, norm: NormSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact coefficients and dual values for real data in l1 or l-inf, or
    None where the descent must serve: other norms, complex data, an
    enumeration over BASIC_SOLUTION_BUDGET that is not onto a hyperplane,
    or a basis of deficient rank."""
    n, r = q.shape
    linf = norm.variant == "max"
    if not (linf or norm.power_exponent() == 1.0) or np.iscomplexobj(x) or np.iscomplexobj(q) or n < r:
        return None
    x = x.astype(float, copy=False)
    chebyshev = linf and n > r
    per_subset = (r + 1) * r * r if chebyshev else n * r
    if math.comb(n, r + chebyshev) * (per_subset + 16 * (r + 1)) > BASIC_SOLUTION_BUDGET:
        return _hyperplane(x, q, linf) if r == n - 1 else None
    return _chebyshev(x, q) if chebyshev else _interpolation(x, q)


def _nearest_rows(x: np.ndarray, basis: np.ndarray, norm: NormSpec) -> tuple[list[float], np.ndarray]:
    """nearest_in_span of every row of x: the distances and the nearest points.

    Every step is elementwise or rowwise, or a solve per row, so a row's
    result does not depend on the other rows.
    """
    q = np.asarray(basis)
    x = np.asarray(x)
    exact = _basic_solutions(x, q, norm)
    d = _descent(x, q, norm) if exact is None else exact[0]
    nearest = _span_rows(d, q)
    dists = rowwise_norm(x - nearest, norm)
    if exact is not None:
        dual = exact[1]
        loose = np.flatnonzero(dists - dual > _GAP_TOL * dual + _ROUNDING * np.abs(x).sum(axis=1))
        if loose.size:
            # such a row keeps whichever of its two primal values is smaller
            points = _span_rows(_descent(x[loose], q, norm), q)
            alt = rowwise_norm(x[loose] - points, norm)
            better = alt < dists[loose]
            dists[loose[better]], nearest[loose[better]] = alt[better], points[better]
    return dists.tolist(), nearest


def nearest_in_span(x: np.ndarray, basis: np.ndarray, norm: NormSpec) -> tuple[float, np.ndarray]:
    """Distance from x to the column span of ``basis`` in ``norm``.

    For real data in the l1 and l-inf ambients the distance is a linear
    program, solved exactly by enumerating its basic solutions (Watson,
    Approximation Theory and Numerical Methods, 1980): in l-inf the dual
    functionals on r+1 coordinates, in l1 the interpolants on r
    coordinates, while that holds at most BASIC_SOLUTION_BUDGET floats
    (in l-inf up to about 240 coordinates for a line, 100 for a
    hyperplane).  A hyperplane past that budget, the orthogonal complement
    of a normal a, has the closed form |a.x| / ||a||_1 in l-inf and
    |a.x| / ||a||_inf in l1.  Every other case, and any row whose primal value
    exceeds its dual one by more than 1e-12 relative, gets a coordinate
    descent over the coefficients from the euclidean warm start (where a
    row had both, it keeps the smaller distance).  The descent takes each
    coordinate (in complex data its real and imaginary parts in turn)
    with a line search from the step max(0.25, 0.25 |d_j|): a geometric
    probe grid brackets the minimum, and 17-point grids shrink the
    bracket [a, b] 8-fold per round until b - a <= tol * (1 + |a| + |b|),
    with tol = _DESCENT_TOL = 1e-10.  Sweeps repeat, at most _MAX_SWEEPS =
    60 times, until no coordinate moves by more than tol * (1 + max |d_j|).
    Returns the distance, as vector_norm(x - nearest), and the nearest point.

    A one-row call into the batch solver behind openings and reduced
    moduli; each row of a batch gets exactly the result it gets here.
    """
    dist, nearest = _nearest_rows(np.asarray(x)[None, :], basis, norm)
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
    starts = [qa[:, j] for j in range(r)]
    for _ in range(samples):
        starts.append(qa @ rng.standard_normal(r))
    raw = np.array(starts)
    nrm = rowwise_norm(raw, norm)
    units = raw[nrm > 0] / nrm[nrm > 0, None]
    dists, nearest = _nearest_rows(units, qb, norm)
    i = int(np.argmax(dists))
    return dists[i], {"x": units[i], "nearest": nearest[i]}


def opening(a: Subspace, b: Subspace, norm: NormSpec | None = None, samples: int = 64, seed: int = 0) -> OpeningReport:
    """Two-sided opening: the larger of the two directional gaps
    sup_{x in A, ||x||=1} dist(x, B) and the same with roles swapped.

    Equal spans short-circuit to exactly zero by a rank test.  In the
    euclidean ambient both directions are exact via principal angles;
    any other norm gets a sampled lower bound over unit vectors of the
    one span, their distances to the other from nearest_in_span: exact
    for real data in l1 and l-inf, a coordinate descent elsewhere.
    """
    if a.space.dim != b.space.dim:
        raise ValueError("subspaces live in different ambient dimensions")
    _check_samples(samples, 0)
    ambient = norm if norm is not None else a.space.norm
    qa = a.orthonormal_basis
    qb = b.orthonormal_basis

    stacked = np.hstack([qa, qb])
    s = np.linalg.svd(stacked, compute_uv=False)
    joint_rank = int(_rank(s))
    if a.dim == b.dim == joint_rank:
        return OpeningReport(theta=0.0, direction_ab=0.0, direction_ba=0.0, method=EXACT)

    if ambient.power_exponent() == 2.0:
        dab, wab = _directional_gap_exact(qa, qb)
        dba, wba = _directional_gap_exact(qb, qa)
        method = SPECTRAL_EXACT
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
    method: str  # EXACT | CERTIFIED_LOWER_BOUND


def lambda_threshold(family: ProjectionFamily) -> ThresholdReport:
    """Perturbation budget 1 / (4 * sup_n ||sum_{j<=n} P_j|| * (1 + sup_n ||P_n||)^2).

    Operator norms, in the family's ambient, are exact in the euclidean,
    sum and max ambients; elsewhere their certified upper bounds make the
    threshold a certified lower bound, which is the safe direction.
    """
    k = family.block_count
    # one sampled search for all 2K operator norms, where they need one
    ests = _operator_norms(np.concatenate([np.cumsum(family.blocks, axis=0), family.blocks]), family.space.norm)
    partial, single = ests[:k], ests[k:]
    exact = all(est.method in EXACT_METHODS for est in ests)
    sup_partial = max(est.value for est in partial)
    sup_block = max(est.value for est in single)
    value = 1.0 / (4.0 * sup_partial * (1.0 + sup_block) ** 2)
    return ThresholdReport(
        value=value,
        sup_partial_sum_norm=sup_partial,
        sup_block_norm=sup_block,
        method=EXACT if exact else CERTIFIED_LOWER_BOUND,
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
    samples: int = 64,
    seed: int = 0,
) -> OpeningConditionReport:
    """Aggregate the blockwise openings in the lp norm, the sup for
    p = inf, and compare against the family's perturbation budget."""
    if not (p >= 1.0):
        raise ValueError("aggregation exponent must be >= 1")
    if len(candidates) != family.block_count:
        raise ValueError(
            f"{len(candidates)} candidate subspaces for {family.block_count} blocks"
        )
    reports = []
    for b, cand in zip(family.blocks, candidates):
        rng = range_subspace(b, family.space)
        reports.append(opening(rng, cand, samples=samples, seed=seed))
    psi = NormSpec.max_norm() if math.isinf(p) else NormSpec.power(p)
    aggregate = float(rowwise_norm(np.array([[r.theta for r in reports]]), psi)[0])
    thr = lambda_threshold(family)
    return OpeningConditionReport(
        openings=tuple(reports),
        aggregate=aggregate,
        exponent=float(p),
        threshold=thr,
        satisfied=bool(aggregate <= thr.value),
    )


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
    _check_pair(p_family, j_family)
    p, j = p_family.blocks, j_family.blocks
    products = p @ j
    s_matrix = products.sum(axis=0)
    r_est = operator_norm(np.eye(p_family.dim) - p[0] - (s_matrix - products[0]), p_family.space.norm)

    inv = invert_with_condition(s_matrix)
    verdict, residual, tol = "not invertible", None, None
    if not inv.singular:
        residual = spectral_norm(j - inv.inverse @ p @ s_matrix)
        tol = RESIDUAL_TOLERANCE * (1.0 + inv.condition)
        verdict = "similar" if residual <= tol else "residual too large"
    return StabilityReport(
        verdict=verdict,
        s_matrix=s_matrix,
        s_condition=inv.condition,
        r_norm=r_est.value,
        r_norm_method=r_est.method,
        similarity_residual=residual,
        residual_tolerance=tol,
    )


def kato_check(p_family: ProjectionFamily, j_family: ProjectionFamily) -> StabilityReport:
    """Kato's test: orlicz_stability_check(P, J, l2) on a base in the
    euclidean ambient whose blocks are selfadjoint within SELFADJOINT_TOLERANCE
    = 1e-10, the one orthogonality test, which unconditional_constant shares.

    There C is the spectral hilbertian constant, which is 1 up to rounding,
    so the hypothesis is Kato's: a perturbation size below 1/C and equal
    first-block ranks.
    """
    if p_family.space.norm.power_exponent() != 2.0:
        raise ValueError("kato_check requires the euclidean ambient norm")
    defect = selfadjoint_defect(p_family)
    if defect > SELFADJOINT_TOLERANCE:
        raise ValueError(f"base family is not selfadjoint (defect {defect:.3e})")
    return orlicz_stability_check(p_family, j_family, NormSpec.power(2.0))


def orlicz_stability_check(
    p_family: ProjectionFamily,
    j_family: ProjectionFamily,
    psi: NormSpec,
    hilbertian: float | None = None,
    samples: int = 256,
    seed: int = 0,
) -> StabilityReport:
    """The stability test: the hypothesis is a perturbation size below 1/C
    (0 for C = inf) and equal first-block ranks, C the family's psi-aggregate
    bound from hilbertian_constant or the supplied value, tagged SUPPLIED."""
    if hilbertian is None:
        c_est = hilbertian_constant(p_family, psi, samples=samples, seed=seed)
    else:
        c_est = ConstantEstimate(value=float(hilbertian), method=SUPPLIED)
    if not (c_est.value > 0):
        raise ValueError("the aggregate bound C must be positive")
    sigma = perturbation_sigma(p_family, j_family, psi, samples=samples, seed=seed)
    ranks = (family_rank(p_family.blocks[0]), family_rank(j_family.blocks[0]))
    threshold = 0.0 if math.isinf(c_est.value) else 1.0 / c_est.value
    return dataclasses.replace(
        build_similarity(p_family, j_family),
        sigma=sigma.value,
        sigma_method=sigma.method,
        c_hilbertian=c_est.value,
        c_method=c_est.method,
        threshold=threshold,
        hypothesis_met=bool(sigma.value < threshold and ranks[0] == ranks[1]),
        marginal=bool(abs(sigma.value - threshold) <= MARGINAL_BAND * threshold),
        rank_first_block=ranks,
    )


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
    sampled (kernel._sampled_search), which can only overestimate, and the
    tag says so; draws within 1e-8 of the kernel are replaced by later ones,
    and ``trials`` counts the draws kept.  The zero matrix has no reduced
    modulus; None is returned rather than raising.
    """
    t = np.asarray(matrix)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("expected a square matrix")
    _check_samples(samples, 1)
    u, s, vh = np.linalg.svd(t)
    if s[0] == 0:
        return None
    rank = int(_rank(s))
    kernel = vh[rank:].conj().T  # shape (n, n - rank)

    if norm.power_exponent() == 2.0:
        gamma = float(s[rank - 1])
        witness = vh[rank - 1].conj()
        return ConstantEstimate(value=gamma, method=SPECTRAL_EXACT, witness=witness, trials=0)

    # ||Tx|| / dist(x, ker T) for every row, NaN within 1e-8 of the kernel
    def ratio(xs: np.ndarray) -> np.ndarray:
        dists = np.array(_nearest_rows(xs, kernel, norm)[0]) if kernel.shape[1] > 0 else np.ones(len(xs))
        images = rowwise_norm(xs @ t.T, norm)
        return np.divide(images, dists, out=np.full(images.shape, math.nan), where=dists > 1e-8)

    ranked = _sampled_search(ratio, norm, t.shape[0], samples, seed, maximize=False)
    best, best_x = ranked[0]
    return ConstantEstimate(value=best, method=SAMPLED_UPPER_BOUND, witness=best_x, trials=len(ranked))
