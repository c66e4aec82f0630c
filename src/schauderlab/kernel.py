"""Shared numerical services: inversion, operator norms,
unit-sphere sampling and the one sampled search over the sphere, and the
estimate container used by every constant computed in this package.

Tolerance policy: relative 1e-9 (REL_TOL) unless an operation states a
tighter bound.  The absolute 1e-12 bracket of the Luxemburg solver is
orlicz.ABS_TOL: this module builds on orlicz, never the other way round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .errors import ConvergenceError
from .orlicz import NormSpec, rowwise_norm, vector_norm

REL_TOL = 1e-9
# invert_with_condition calls a matrix singular from this condition number on
COND_LIMIT = 1e12
# operator_norm's sampled lower bound, where no exact formula applies
OPERATOR_NORM_SAMPLES = 64
OPERATOR_NORM_SEED = 0
# a sampled search stops drawing after this many draws per sample
_DRAWS_PER_SAMPLE = 20

# Every method tag a report carries.  Reports must never claim more than
# the computation delivered, so the tag is part of the result.
EXACT_ENUMERATION = "exact-enumeration"
SPECTRAL_EXACT = "spectral-exact"
SAMPLED_LOWER_BOUND = "sampled-lower-bound"
SAMPLED_UPPER_BOUND = "sampled-upper-bound"
CERTIFIED_UPPER_BOUND = "certified-upper-bound"
# a value with no sampling or bounding behind it, such as a threshold built
# only from exact operator norms, or an opening of two equal spans
EXACT = "exact"
# a provable lower bound, such as a threshold built from certified upper bounds
CERTIFIED_LOWER_BOUND = "certified-lower-bound"
# a constant given by the caller, not computed
SUPPLIED = "supplied"

METHODS = (
    EXACT_ENUMERATION,
    SPECTRAL_EXACT,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    CERTIFIED_UPPER_BOUND,
    EXACT,
    CERTIFIED_LOWER_BOUND,
    SUPPLIED,
)
# the tags whose values are exact, up to linear algebra roundoff
EXACT_METHODS = (EXACT_ENUMERATION, SPECTRAL_EXACT, EXACT)


@dataclass(frozen=True)
class ConstantEstimate:
    """A numeric constant together with how it was obtained.

    ``witness`` holds whatever data re-evaluates to ``value`` (a vector,
    a sign pattern, a coefficient/vector pair).  When the method is a
    certified upper bound the witness realises ``lower_bound`` instead.
    """

    value: float
    method: str
    witness: Any = None
    trials: int = 0
    lower_bound: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class InversionResult:
    inverse: np.ndarray | None
    condition: float
    singular: bool


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value; of a stack (..., n, n), the largest over the stack.

    A float64 or complex128 stack is pruned by ||A||_2 <= ||A||_F: members are
    factorised in falling Frobenius order (stable sort) until the next Frobenius
    norm, widened by 1e-10 relative for the rounding of both norms, cannot beat
    the best 2-norm.  Members take the full stack's LAPACK call, so the result
    equals ``np.linalg.norm(m, 2, axis=(-2, -1)).max()`` bit for bit.  Members
    are scaled by their largest entry so squares cannot underflow; single
    matrices, other dtypes and stacks with a non-finite or subnormal largest
    entry take the full path (NaN raises LinAlgError, inf gives nan).
    """
    m = np.asarray(matrix)
    if m.size == 0:
        return 0.0
    if m.ndim > 2 and m.dtype in (np.float64, np.complex128):
        flat = m.reshape(-1, *m.shape[-2:])
        mag = np.abs(flat)
        scale = mag.max(axis=(-2, -1))
        # zero or normal scales only, so both norms carry relative rounding alone
        if np.all((scale == 0.0) | ((scale >= np.finfo(np.float64).tiny) & (scale < np.inf))):
            scale = np.where(scale > 0.0, scale, 1.0)
            mag /= scale[:, None, None]  # in place: fresh temporaries cost more than the sums
            fro = scale * np.sqrt(np.einsum("kij,kij->k", mag, mag))
            best = 0.0
            for i in np.argsort(-fro, kind="stable"):
                if fro[i] * (1.0 + 1e-10) <= best:
                    break
                best = max(best, float(np.linalg.svd(flat[i], compute_uv=False)[0]))
            return best
    return float(np.linalg.norm(m, 2, axis=(-2, -1)).max())


def invert_with_condition(matrix: np.ndarray) -> InversionResult:
    """Inverse plus a spectral condition estimate.

    A matrix whose condition number reaches COND_LIMIT = 1e12 (or that is
    exactly singular) yields an explicit singular result instead of an
    exception; callers decide whether that is an error.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("invert_with_condition expects a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    if smax == 0.0 or smin <= 0.0:
        return InversionResult(inverse=None, condition=math.inf, singular=True)
    condition = smax / smin
    if condition >= COND_LIMIT:
        return InversionResult(inverse=None, condition=condition, singular=True)
    inv = np.linalg.solve(m, np.eye(m.shape[0], dtype=m.dtype))
    return InversionResult(inverse=inv, condition=condition, singular=False)


def _check_samples(samples: int, least: int) -> None:
    """Refuse a sample count below ``least``: 1 where the samples are the
    only candidates, 0 where the result stands without them."""
    if samples < least:
        raise ValueError(f"samples must be >= {least}, got {samples}")


def _span_rows(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row i is q @ coeffs[i], summed column by column: a matmul's
    rounding may depend on how many rows there are.  Each column's
    products go into one reused buffer and are added in place."""
    out = np.zeros((coeffs.shape[0], q.shape[0]), dtype=np.result_type(coeffs, q))
    tmp = np.empty_like(out)
    for j in range(q.shape[1]):
        np.multiply(coeffs[:, j, None], q[:, j], out=tmp)
        out += tmp
    return out


def unit_sphere_sampler(norm: NormSpec, dim: int, seed: int) -> Iterator[np.ndarray]:
    """Deterministic stream of vectors with unit ambient norm.

    Gaussian directions, drawn in blocks of 8, 16, ... 256 rows, each block
    normalised by one rowwise_norm call: every draw is g / vector_norm(g)
    for g drawn one at a time, and the same seed gives the same stream.
    Draws of zero or non-finite norm are skipped.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    rows = 8
    while True:
        x = rng.standard_normal((rows, dim))
        nrm = rowwise_norm(x, norm)
        keep = (nrm > 0) & np.isfinite(nrm)
        yield from x[keep] / nrm[keep, None]
        rows = min(2 * rows, 256)


def _sampled_search(objective, norm: NormSpec, dim: int, samples: int, seed: int, *, maximize: bool) -> list:
    """The (value, vector) pairs of a seeded unit-sphere sample, ranked best
    first by a stable sort; ``objective`` maps a stack of vectors to one
    value per row.  A draw scored NaN is replaced by the next draws of the
    same stream, one call per refill, until ``samples`` are kept or
    _DRAWS_PER_SAMPLE * samples are drawn (ConvergenceError if none is kept).

    An objective that gives one row of values per member of a stack of
    objectives gets one ranking per member, each the one it gets searched
    alone: a member keeps its first ``samples`` draws not scored NaN among
    the first _DRAWS_PER_SAMPLE * samples, and refills go on while any
    member is short."""
    sampler, kept, drawn, cap = unit_sphere_sampler(norm, dim, seed), None, 0, _DRAWS_PER_SAMPLE * samples
    # each refill draws only as many as are still missing, so the stream is
    # read exactly as far as drawing one vector at a time reads it
    missing = samples
    while missing and drawn < cap:
        batch = [next(sampler) for _ in range(min(missing, cap - drawn))]
        drawn += len(batch)
        scores = objective(np.array(batch))
        rows = scores.reshape(-1, len(batch)).tolist()
        if kept is None:
            kept = [[] for _ in rows]
        for member, values in zip(kept, rows):
            member += [(v, x) for v, x in zip(values, batch) if not math.isnan(v)][: samples - len(member)]
        missing = samples - min(map(len, kept))
    if not (kept and all(kept)):
        raise ConvergenceError(f"no sampled vector got a value in {drawn} draws")
    ranked = [sorted(member, key=lambda t: t[0], reverse=maximize) for member in kept]
    return ranked if scores.ndim == 2 else ranked[0]


def operator_norm(matrix: np.ndarray, norm: NormSpec) -> ConstantEstimate:
    """Operator norm of a matrix acting on the given ambient norm.

    Exact for the spectral, sum and max norms.  For any other ambient the
    result is a certified upper bound obtained from norm equivalence,
    with a sampled lower bound and its witness reported alongside.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operator_norm expects a square matrix")
    if not isinstance(norm, NormSpec):
        raise TypeError("norm must be a NormSpec")
    return _operator_norms(m[None], norm)[0]


def _exact_operator_norm(m: np.ndarray, p: float | None) -> ConstantEstimate:
    """The spectral norm (p = 2), the largest column sum (p = 1) or else the
    largest row sum (max), each with a vector that attains it."""
    if p == 2.0:
        u, s, vh = np.linalg.svd(m)
        witness = vh[0].conj()
        return ConstantEstimate(value=float(s[0]), method=SPECTRAL_EXACT, witness=witness)
    n = m.shape[0]
    if p == 1.0:
        sums = np.abs(m).sum(axis=0)
        j = int(np.argmax(sums))
        e = np.zeros(n, dtype=m.dtype)
        e[j] = 1.0
        return ConstantEstimate(value=float(sums[j]), method=EXACT_ENUMERATION, witness=e, trials=n)
    sums = np.abs(m).sum(axis=1)
    i = int(np.argmax(sums))
    row = m[i]
    witness = np.where(np.abs(row) > 0, np.sign(np.conj(row)), 1.0)
    return ConstantEstimate(value=float(sums[i]), method=EXACT_ENUMERATION, witness=witness, trials=n)


def _operator_norms(stack: np.ndarray, norm: NormSpec) -> list[ConstantEstimate]:
    """operator_norm of every matrix of a (K, n, n) stack, each equal to its
    own call bit for bit.  Outside the exact ambients every member is
    scored against one sampled search, one row call per refill for all."""
    n = stack.shape[-1]
    p = norm.power_exponent()
    if p in (1.0, 2.0) or norm.variant == "max":
        return [_exact_operator_norm(m, p) for m in stack]

    # Remaining ambients: sampled lower bound plus an equivalence-factor
    # certified upper bound.  The first largest sampled image norm is the
    # lower bound, its vector the witness.
    rankings = _sampled_search(
        lambda xs: rowwise_norm(np.concatenate([xs @ m.T for m in stack]), norm).reshape(len(stack), -1),
        norm, n, OPERATOR_NORM_SAMPLES, OPERATOR_NORM_SEED, maximize=True,
    )
    if p is not None:
        # ||T||_p <= N^{|1/2-1/p|} ||T||_2 via the lp <-> l2 comparison.
        factor = float(n) ** abs(0.5 - 1.0 / p)
        uppers = [factor * float(np.linalg.svd(m, compute_uv=False)[0]) for m in stack]
    else:
        # Monotone gauge norms sit between multiples of the max norm:
        # b*||x||_inf <= ||x|| <= B*||x||_inf with b, B as below, hence
        # ||T|| <= (B/b) * ||T||_inf.
        e = np.zeros(n)
        e[0] = 1.0
        ratio = vector_norm(np.ones(n), norm) / vector_norm(e, norm)
        uppers = [ratio * float(np.abs(m).sum(axis=1).max()) for m in stack]
    return [
        ConstantEstimate(
            value=float(max(upper, ranked[0][0])),
            method=CERTIFIED_UPPER_BOUND,
            witness=ranked[0][1],
            trials=len(ranked),
            lower_bound=ranked[0][0],
        )
        for upper, ranked in zip(uppers, rankings)
    ]
