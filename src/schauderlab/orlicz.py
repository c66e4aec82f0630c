"""Orlicz gauges and the norms they induce on finite sequence spaces.

A gauge is a convex nondecreasing function with value 0 at 0 that grows
without bound.  Three concrete families are supported: integer powers
t**p, the scaled exponential exp(alpha*t) - 1, and piecewise-linear
interpolants through user-supplied knots.  The induced (Luxemburg) norm
of a finite sequence a is the smallest rho > 0 such that
sum(phi(|a_n| / rho)) <= 1.

One solver computes it, for a single sequence and for every row of a
matrix alike: a bracketed, safeguarded Newton iteration in 1/rho that
returns the feasible end of a bracket no wider than 1e-12 * (1 + rho).
Norms that are exactly lp norms, power gauges included, also have a
closed form, which vector_norm and rowwise_norm use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError
from .kernel import ABS_TOL

_KINDS = ("power", "exp", "pwl")


@dataclass(frozen=True)
class OrliczFunction:
    kind: str
    p: float | None = None
    alpha: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def power(cls, p: float) -> "OrliczFunction":
        if not (p >= 1.0 and math.isfinite(p)):
            raise ValueError(f"power gauge needs finite p >= 1, got {p}")
        return cls(kind="power", p=float(p))

    @classmethod
    def scaled_exp(cls, alpha: float) -> "OrliczFunction":
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ValueError(f"scaled_exp gauge needs alpha > 0, got {alpha}")
        return cls(kind="exp", alpha=float(alpha))

    @classmethod
    def piecewise_linear(cls, knots: Sequence[Sequence[float]]) -> "OrliczFunction":
        pts = tuple((float(t), float(v)) for t, v in knots)
        if len(pts) < 2:
            raise ValueError("piecewise_linear needs at least two knots")
        if pts[0] != (0.0, 0.0):
            raise ValueError("first knot must be (0, 0)")
        ts = np.array([t for t, _ in pts])
        vs = np.array([v for _, v in pts])
        if np.any(np.diff(ts) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        if np.any(vs < 0) or np.any(np.diff(vs) < 0):
            raise ValueError("knot values must be nonnegative and nondecreasing")
        slopes = np.diff(vs) / np.diff(ts)
        if np.any(np.diff(slopes) < -1e-12 * max(1.0, slopes.max())):
            raise ValueError("knots must describe a convex gauge")
        if slopes[-1] <= 0:
            raise ValueError("final slope must be positive so the gauge grows without bound")
        return cls(kind="pwl", knots=pts)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "pwl":
            # knot arrays built once per gauge, not on every evaluation
            ts = np.array([k[0] for k in self.knots])
            vs = np.array([k[1] for k in self.knots])
            object.__setattr__(self, "_ts", ts)
            object.__setattr__(self, "_vs", vs)
            object.__setattr__(self, "_slopes", np.diff(vs) / np.diff(ts))

    def values(self, t: np.ndarray) -> np.ndarray:
        """Gauge values at nonnegative points; vectorised, overflow-safe."""
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            with np.errstate(over="ignore"):
                return t ** self.p
        if self.kind == "exp":
            with np.errstate(over="ignore"):
                return np.expm1(self.alpha * t)
        ts, vs = self._ts, self._vs
        out = np.interp(t, ts, vs)
        beyond = t > ts[-1]
        if np.any(beyond):
            out = np.where(beyond, vs[-1] + self._slopes[-1] * (t - ts[-1]), out)
        return out

    def _slope_moment(self, t: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Row sums of t * phi'(t), given v = self.values(t) and its row sums g.

        The derivative comes from the values already computed: the
        exponential has phi' = alpha (phi + 1), a power has phi' = p phi / t,
        and a piecewise-linear gauge takes the slope of the knot segment to
        the right of t.
        """
        if self.kind == "power":
            return self.p * g
        if self.kind == "exp":
            return self.alpha * (np.einsum("...i,...i->...", t, v) + t.sum(axis=-1))
        # the count of interior knots <= t is the index of t's segment,
        # the last one extended past the final knot
        seg = np.searchsorted(self._ts[1:-1], t, side="right")
        return np.einsum("...i,...i->...", t, self._slopes[seg])


@dataclass(frozen=True)
class NormSpec:
    """Which norm a space carries: a power norm, an Orlicz norm, or max."""

    variant: str
    p: float | None = None
    phi: OrliczFunction | None = None

    @classmethod
    def power(cls, p: float) -> "NormSpec":
        if not (p >= 1.0 and math.isfinite(p)):
            raise ValueError(f"power norm needs finite p >= 1, got {p}")
        return cls(variant="power", p=float(p))

    @classmethod
    def orlicz(cls, phi: OrliczFunction) -> "NormSpec":
        return cls(variant="orlicz", phi=phi)

    @classmethod
    def max_norm(cls) -> "NormSpec":
        return cls(variant="max")

    def __post_init__(self) -> None:
        if self.variant not in ("power", "orlicz", "max"):
            raise ValueError(f"unknown norm variant {self.variant!r}")
        if self.variant == "power" and self.p is None:
            raise ValueError("power norm needs p")
        if self.variant == "orlicz" and self.phi is None:
            raise ValueError("orlicz norm needs a gauge")

    def power_exponent(self) -> float | None:
        """The exponent when this norm is exactly an lp norm, else None.

        The Luxemburg norm of a pure power gauge coincides with the lp
        norm, so that case is folded in.
        """
        if self.variant == "power":
            return self.p
        if self.variant == "orlicz" and self.phi.kind == "power":
            return self.phi.p
        return None


def luxemburg_norm(phi: OrliczFunction, x: Sequence[float] | np.ndarray) -> float:
    """Norm induced by the gauge: inf{rho > 0 : sum phi(|a|/rho) <= 1}.

    A one-row call into the row kernel of :func:`rowwise_norm`, without
    its closed-form shortcut for power gauges: the returned value is on
    the feasible side of a bracket of width <= 1e-12 * (1 + result).
    """
    a = np.asarray(x)
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    return float(_luxemburg_rows(phi, a[None, :])[0])


_NORMAL_MIN = float(np.finfo(float).tiny)


def _lp_norms(m: np.ndarray, p: float) -> np.ndarray:
    """lp norm of every row of a matrix, in closed form.

    A row whose sum of p-th powers overflows, or underflows below the
    normal range, is divided by its largest entry first.
    """
    if p == 1.0:
        return np.abs(m).sum(axis=1)
    with np.errstate(over="ignore", under="ignore"):
        if p == 2.0:
            s = np.abs(m * m.conj()).sum(axis=1).real
            out = np.sqrt(s)
        else:
            s = (np.abs(m) ** p).sum(axis=1)
            out = s ** (1.0 / p)
        bad = ~((s >= _NORMAL_MIN) & (s < np.inf))
        if np.count_nonzero(bad):
            a = np.abs(m[bad])
            top = a.max(axis=1, initial=0.0)
            top[top == 0.0] = 1.0  # zero rows stay zero
            out[bad] = top * ((a / top[:, None]) ** p).sum(axis=1) ** (1.0 / p)
    return out


def vector_norm(x: Sequence[float] | np.ndarray, spec: NormSpec) -> float:
    """Ambient norm of a vector under the given specification."""
    v = np.asarray(x)
    if spec.variant == "max":
        return float(np.abs(v).max()) if v.size else 0.0
    p = spec.power_exponent()
    if p == 1.0:
        return float(np.abs(v).sum())
    if p is None:
        return luxemburg_norm(spec.phi, v)
    # _lp_norms for one vector, inline because this path runs hot.  It has
    # no errstate guard, which would cost as much as the norm itself: an
    # overflow warns here, and the rescaled fallback then corrects it.
    s = float(np.abs(v * v.conj()).sum().real if p == 2.0 else (np.abs(v) ** p).sum())
    if _NORMAL_MIN <= s < math.inf:
        return math.sqrt(s) if p == 2.0 else s ** (1.0 / p)
    return float(_lp_norms(v.reshape(1, -1), p)[0])


_MAX_PASSES = 400
_EPS = float(np.finfo(float).eps)


def _luxemburg_rows(phi: OrliczFunction, rows: np.ndarray) -> np.ndarray:
    """Luxemburg norm of every row: the one solver behind both entry points.

    Each pass evaluates the gauge once per live row at a trial rho and
    sorts it to the infeasible end ``lo`` (sum > 1) or the feasible end
    ``hi`` of that row's bracket.  The bracket starts at max|a| and is
    doubled or halved until both ends are known.  Inside it the trial
    point is a Newton step in s = 1/rho on F(s) = sum phi(|a| s) - 1,
    taken from ``lo``.  F is convex and increasing, so such a step never
    passes the root, and the ``lo`` iterates rise to it monotonically.
    Once a step falls below 2.5e-13 relative, the next trial point lies
    just past the root, on the feasible side.  A step that is not finite
    or leaves the bracket is replaced by the bisection midpoint; one that
    lands within rounding of ``hi`` (a piecewise-linear gauge can land
    on the root exactly) by a point just below ``hi``.  A row is done
    when hi - lo <= 1e-12 * (1 + hi); the feasible ``hi``, as
    ``phi.values`` evaluated it, is returned.
    """
    a = np.abs(np.asarray(rows))
    if not np.all(np.isfinite(a)):
        raise ValueError("rows must be finite")
    a = a.astype(float, copy=False)
    out = np.zeros(a.shape[0])
    amax = a.max(axis=1, initial=0.0)
    live = np.flatnonzero(amax > 0)
    if live.size == 0:
        return out
    body = a[live]
    rho = amax[live]
    lo = np.zeros(live.size)  # infeasible end; 0 until one is seen
    hi = np.full(live.size, np.inf)  # feasible end; inf until one is seen
    newton = np.zeros(live.size)  # Newton point from lo
    margin = 4.0 * _EPS * body.shape[1]  # relative rounding of a row sum
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_PASSES):
            t = body / rho[:, None]
            v = phi.values(t)
            g = v.sum(axis=1)
            over = g > 1.0
            np.copyto(lo, rho, where=over)
            np.copyto(hi, rho, where=~over)
            # Newton in s = 1/rho: s_new = s (1 - F / (s F'(s))), s F'(s) = sum t phi'(t)
            np.copyto(newton, rho / (1.0 - (g - 1.0) / phi._slope_moment(t, v, g)), where=over)
            width = ABS_TOL * (1.0 + hi)
            done = hi - width <= lo
            if np.count_nonzero(done):
                out[live[done]] = hi[done]
                keep = ~done
                if not np.count_nonzero(keep):
                    return out
                live, body, lo, hi, newton, width = (z[keep] for z in (live, body, lo, hi, newton, width))
            step = newton - lo
            # a converged step moves on past the root, to the feasible side
            rho = newton + (step <= 0.25 * ABS_TOL * lo) * np.maximum(step, margin * newton)
            np.copyto(rho, 0.5 * (lo + hi), where=~((lo < rho) & (rho < hi + width)))
            # a trial within half a width of hi, or past it, means the root
            # is within rounding of hi: probe just below hi instead
            np.minimum(rho, hi - 0.5 * width, out=rho)
            np.copyto(rho, 2.0 * lo, where=np.isinf(hi))
    raise ConvergenceError(f"gauge never reaches the unit level within {_MAX_PASSES} passes")


def rowwise_norm(rows: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Ambient norm of every row of a matrix, vectorised over the rows."""
    m = np.asarray(rows)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    p = spec.power_exponent()
    if p is not None:
        return _lp_norms(m, p)
    if spec.variant == "max":
        return np.abs(m).max(axis=1)
    return _luxemburg_rows(spec.phi, m)


def block_psi_norm(block_norms: Sequence[float] | np.ndarray, spec: NormSpec) -> float:
    """Aggregate a profile of per-block norms with a second norm.

    The profile must be elementwise nonnegative.  Power aggregation, by a
    power norm or a power gauge, uses the closed form; other gauges go
    through the Luxemburg solver.
    """
    t = np.asarray(block_norms, dtype=float)
    if t.ndim != 1:
        raise ValueError("block norm profile must be one-dimensional")
    if np.any(t < 0):
        raise ValueError("block norm profile must be nonnegative")
    return vector_norm(t, spec)


@dataclass(frozen=True)
class Delta2Report:
    grid: tuple[float, ...]
    ratios: tuple[float, ...]
    verdict: str  # bounded | diverging | inconclusive
    degenerate: bool


def delta2_margin(phi: OrliczFunction, grid: Sequence[float] | np.ndarray) -> Delta2Report:
    """Doubling behaviour of a gauge near zero.

    Evaluates phi(2t)/phi(t) on a decreasing grid.  The gauge is called
    bounded when the ratios on the smallest quarter of the grid sit
    within 5% of their median, diverging when the ratios increase
    monotonically and at least double overall, and inconclusive
    otherwise.  A vanishing gauge value at a positive grid point marks
    the gauge degenerate; that is reported, not raised.
    """
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ValueError("grid must contain at least two points")
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("grid must be strictly decreasing and positive")

    vals = phi.values(ts)
    vals2 = phi.values(2.0 * ts)
    degenerate = bool(np.any(vals == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(vals > 0, vals2 / vals, np.where(vals2 > 0, np.inf, np.nan))

    verdict = "inconclusive"
    finite = np.isfinite(ratios)
    if np.all(finite):
        quarter = ratios[-max(1, (ts.size + 3) // 4):]
        med = float(np.median(quarter))
        if med > 0 and np.all(np.abs(quarter - med) <= 0.05 * med):
            verdict = "bounded"
    if verdict == "inconclusive" and not np.any(np.isnan(ratios)):
        nondecreasing = np.all(np.diff(ratios) >= -1e-12 * np.maximum(ratios[:-1], 1.0))
        if nondecreasing and ratios[-1] >= 2.0 * ratios[0]:
            verdict = "diverging"

    return Delta2Report(
        grid=tuple(float(t) for t in ts),
        ratios=tuple(float(r) for r in ratios),
        verdict=verdict,
        degenerate=degenerate,
    )


def divergence_witness(phi: OrliczFunction, threshold: float, *, max_doublings: int = 200) -> float:
    """Smallest dyadic t = 2**k with phi(t) > threshold; checks growth."""
    t = 1.0
    for _ in range(max_doublings):
        if float(phi.values(t)) > threshold:
            return t
        t *= 2.0
    raise ConvergenceError(f"gauge did not exceed {threshold} below t = {t}")
