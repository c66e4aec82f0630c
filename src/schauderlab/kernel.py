"""Shared numerical services: root finding, inversion, operator norms,
unit-sphere sampling, and the estimate container used by every constant
computed in this package.

Tolerance policy: absolute 1e-12 and relative 1e-9 unless an operation
states a tighter bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .errors import ConvergenceError

ABS_TOL = 1e-12
REL_TOL = 1e-9

# Method tags carried by ConstantEstimate.  Reports must never claim more
# than the computation delivered, so the tag is part of the result.
EXACT_ENUMERATION = "exact-enumeration"
SPECTRAL_EXACT = "spectral-exact"
SAMPLED_LOWER_BOUND = "sampled-lower-bound"
SAMPLED_UPPER_BOUND = "sampled-upper-bound"
CERTIFIED_UPPER_BOUND = "certified-upper-bound"

_METHODS = (
    EXACT_ENUMERATION,
    SPECTRAL_EXACT,
    SAMPLED_LOWER_BOUND,
    SAMPLED_UPPER_BOUND,
    CERTIFIED_UPPER_BOUND,
)


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
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class InversionResult:
    inverse: np.ndarray | None
    condition: float
    singular: bool
    residual: float = 0.0


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
    *,
    tol_abs: float = ABS_TOL,
    max_expansions: int = 200,
) -> float:
    """Leftmost point where a nonincreasing ``f`` drops to ``target``.

    The bracket endpoints are hints; they are expanded geometrically
    (at most ``max_expansions`` doublings or halvings per side) until
    f(lo) > target >= f(hi), then bisected until the bracket width is
    below tol_abs * (1 + hi).  The feasible (hi) end is returned, so the
    result always satisfies f(result) <= target.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo <= hi) or not math.isfinite(hi):
        raise ValueError(f"bad bracket ({lo}, {hi})")

    steps = 0
    while f(hi) > target:
        lo = hi
        hi *= 2.0
        steps += 1
        if steps > max_expansions or not math.isfinite(hi):
            raise ConvergenceError("failed to bracket from above")
    steps = 0
    while f(lo) <= target:
        hi = lo
        lo *= 0.5
        steps += 1
        if steps > max_expansions:
            raise ConvergenceError("failed to bracket from below")

    while hi - lo > tol_abs * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted in floats
            break
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value; of a stack (..., n, n), the largest over the stack."""
    m = np.asarray(matrix)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2, axis=(-2, -1)).max())


def invert_with_condition(matrix: np.ndarray, *, cond_limit: float = 1e12) -> InversionResult:
    """Inverse plus a spectral condition estimate.

    A matrix whose condition number reaches ``cond_limit`` (or that is
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
    if condition >= cond_limit:
        return InversionResult(inverse=None, condition=condition, singular=True)
    inv = np.linalg.solve(m, np.eye(m.shape[0], dtype=m.dtype))
    residual = spectral_norm(m @ inv - np.eye(m.shape[0]))
    return InversionResult(inverse=inv, condition=condition, singular=False, residual=residual)


def unit_sphere_sampler(norm: Any, dim: int, seed: int) -> Iterator[np.ndarray]:
    """Deterministic stream of vectors with unit ambient norm.

    Gaussian directions normalised in the requested norm; the same seed
    always reproduces the same stream.
    """
    from .orlicz import vector_norm  # deferred: avoids an import cycle

    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    while True:
        x = rng.standard_normal(dim)
        nrm = vector_norm(x, norm)
        if nrm <= 0 or not math.isfinite(nrm):
            continue
        yield x / nrm


def operator_norm(matrix: np.ndarray, norm: Any, *, samples: int = 64, seed: int = 0) -> ConstantEstimate:
    """Operator norm of a matrix acting on the given ambient norm.

    Exact for the spectral, sum and max norms.  For any other ambient the
    result is a certified upper bound obtained from norm equivalence,
    with a sampled lower bound and its witness reported alongside.
    """
    from .orlicz import NormSpec, vector_norm  # deferred: avoids an import cycle

    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operator_norm expects a square matrix")
    n = m.shape[0]
    if not isinstance(norm, NormSpec):
        raise TypeError("norm must be a NormSpec")

    p = norm.power_exponent()
    if p == 2.0:
        u, s, vh = np.linalg.svd(m)
        witness = vh[0].conj()
        return ConstantEstimate(value=float(s[0]), method=SPECTRAL_EXACT, witness=witness)
    if p == 1.0:
        sums = np.abs(m).sum(axis=0)
        j = int(np.argmax(sums))
        e = np.zeros(n, dtype=m.dtype)
        e[j] = 1.0
        return ConstantEstimate(value=float(sums[j]), method=EXACT_ENUMERATION, witness=e, trials=n)
    if norm.variant == "max":
        sums = np.abs(m).sum(axis=1)
        i = int(np.argmax(sums))
        row = m[i]
        witness = np.where(np.abs(row) > 0, np.sign(np.conj(row)), 1.0)
        return ConstantEstimate(value=float(sums[i]), method=EXACT_ENUMERATION, witness=witness, trials=n)

    # Remaining ambients: sampled lower bound plus an equivalence-factor
    # certified upper bound.
    sampler = unit_sphere_sampler(norm, n, seed)
    best_val = -math.inf
    best_x = None
    for _ in range(samples):
        x = next(sampler)
        v = vector_norm(m @ x, norm)
        if v > best_val:
            best_val, best_x = v, x
    if p is not None:
        # ||T||_p <= N^{|1/2-1/p|} ||T||_2 via the lp <-> l2 comparison.
        factor = float(n) ** abs(0.5 - 1.0 / p)
        upper = factor * float(np.linalg.svd(m, compute_uv=False)[0])
    else:
        # Monotone gauge norms sit between multiples of the max norm:
        # b*||x||_inf <= ||x|| <= B*||x||_inf with b, B as below, hence
        # ||T|| <= (B/b) * ||T||_inf.
        e = np.zeros(n)
        e[0] = 1.0
        b = vector_norm(e, norm)
        big = vector_norm(np.ones(n), norm)
        upper = (big / b) * float(np.abs(m).sum(axis=1).max())
    upper = max(upper, best_val)
    return ConstantEstimate(
        value=float(upper),
        method=CERTIFIED_UPPER_BOUND,
        witness=best_x,
        trials=samples,
        lower_bound=float(best_val),
    )
