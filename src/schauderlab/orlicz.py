"""Orlicz gauges and the norms they induce on finite sequence spaces.

A gauge is a convex nondecreasing function with value 0 at 0 that grows
without bound.  Three concrete families are supported: integer powers
t**p, the scaled exponential exp(alpha*t) - 1, and piecewise-linear
interpolants through user-supplied knots.  The induced (Luxemburg) norm
of a finite sequence a is the smallest rho > 0 such that
sum(phi(|a_n| / rho)) <= 1.

One row kernel (_row_norms) computes every ambient norm in the package:
the closed form for norms that are exactly lp norms, power gauges
included, evaluated over cache-sized row blocks, the largest entry for
max, and otherwise one Luxemburg solver, a bracketed, safeguarded Newton
iteration in 1/rho that returns the feasible end of a bracket no wider
than 1e-12 * (1 + rho).  Rows are independent, so a vector's norm equals
its row's in any batch bit for bit.

The extremes over many rows that the enumerations in geometry take
(unconditional constants, extreme sign norms) solve only the rows that
can reach the extreme (_extreme_rows): for a Luxemburg norm those whose
closed-form convexity bounds reach it, for an lp norm with an integer
p >= 3 those whose p-th power sums, taken by products, come near it.
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

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        """The largest t with phi(t) <= y, at every y >= 0; vectorised.

        log1p(y) / alpha for the exponential and y**(1/p) for a power.  A
        piecewise-linear gauge inverts the segment holding y, the last one
        extended past the final knot; a flat first segment gives its right
        end at y = 0.
        """
        y = np.asarray(y, dtype=float)
        if self.kind == "power":
            return y ** (1.0 / self.p)
        if self.kind == "exp":
            return np.log1p(y) / self.alpha
        vs = self._vs
        # y's segment starts at the last knot with a value <= y, so it
        # rises (or is the last one, whose slope is positive)
        seg = np.minimum(np.searchsorted(vs, y, side="right") - 1, vs.size - 2)
        return self._ts[seg] + (y - vs[seg]) / self._slopes[seg]

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

# entries per row block of the closed forms.  A block's 64 KiB temporaries
# stay in cache and below glibc's default 128 KiB mmap threshold; blocks of
# 2^15 entries took thousands of page faults per enumeration op, and whole
# stacks of 2^K rows are larger still
_BLOCK = 1 << 13


def _by_blocks(fn, m: np.ndarray) -> np.ndarray:
    """fn applied to consecutive row blocks of a matrix, concatenated.

    fn must treat rows independently, so the result is fn(m) bit for bit.
    """
    step = max(1, _BLOCK // max(1, m.shape[1]))
    if m.shape[0] <= step:
        return fn(m)
    return np.concatenate([fn(m[i:i + step]) for i in range(0, m.shape[0], step)])


def _lp_norms(m: np.ndarray, p: float) -> np.ndarray:
    """lp norm of every row of a matrix, in closed form, by row blocks.

    A row whose sum of p-th powers overflows, or underflows below the
    normal range, is divided by its largest entry first.
    """
    return _by_blocks(lambda b: _lp_block(b, p), m)


def _lp_block(m: np.ndarray, p: float) -> np.ndarray:
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


def _power_sums(m: np.ndarray, k: int) -> np.ndarray:
    """Sum of |a|^k over every row of a matrix, for an integer k >= 1, by
    products instead of pow, in row blocks and in any order of summation.

    Where nothing overflows or underflows its relative error is at most
    (k - 1 + n) eps for n entries per row, which covers the rounding of |a|,
    of the k - 1 products and of the n - 1 additions.
    """
    ones = np.ones(m.shape[1])

    def block(b: np.ndarray) -> np.ndarray:
        a, power, e = np.abs(b).astype(float, copy=False), None, k
        while True:  # square and multiply
            if e & 1:
                power = a if power is None else power * a
            e >>= 1
            if not e:
                return power @ ones
            a = a * a

    with np.errstate(over="ignore", under="ignore"):
        return _by_blocks(block, m)


def vector_norm(x: Sequence[float] | np.ndarray, spec: NormSpec) -> float:
    """Ambient norm of a vector: its one-row :func:`rowwise_norm`, bit for bit."""
    v = np.asarray(x)
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    return float(_row_norms(v[None, :], spec)[0])


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


def _row_norms(m: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Ambient norm of every row of a matrix: the one row kernel."""
    p = spec.power_exponent()
    if p is not None:
        return _lp_norms(m, p)
    if spec.variant == "max":
        return np.abs(m).max(axis=1, initial=0.0)
    return _luxemburg_rows(spec.phi, m)


def rowwise_norm(rows: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Ambient norm of every row of a matrix, through the one row kernel."""
    m = np.asarray(rows)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return _row_norms(m, spec)


def _luxemburg_bounds(phi: OrliczFunction, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the Luxemburg norm rho of every row of a
    nonnegative matrix, in closed form.

    With n entries per row and phi^-1(y) the largest t with phi(t) <= y,
    convexity and phi(0) = 0 give (Rao & Ren, Theory of Orlicz Spaces, 1991):
    rho >= max a / phi^-1(1), from the largest term alone;
    rho >= sum a / (n phi^-1(1/n)), from Jensen's inequality;
    rho <= max a / phi^-1(max a / sum a), from phi(l t) <= l phi(t) for
    l in [0, 1].  Zero rows get 0 and 0.  A row whose sum overflows gets
    the lower bound inf, which bounds nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax, total = a.max(axis=1, initial=0.0), a.sum(axis=1)
        lower = np.maximum(amax / phi._inverse(1.0), total / (a.shape[1] * phi._inverse(1.0 / a.shape[1])))
        upper = np.where(amax > 0.0, amax / phi._inverse(amax / total), 0.0)
    return lower, upper


# A row is left out of an extreme only when its bound misses the extreme by
# more than _PRUNE_REL of it plus _PRUNE_ABS * (1 + extreme): twice the
# solver's bracket, which is absolute for tiny norms, and a relative margin
# above the rounding of the bounds and of long row sums (about n * eps).
# Either keeps a pruned row's quotient by a shared denominator below the
# extreme's, so no tie is lost.  Closed-form lp norms are relative to the
# last bits, so their power sums need only the relative margin
_PRUNE_REL = 1e-9
_PRUNE_ABS = 2.0 * ABS_TOL


def _extreme_rows(rows: np.ndarray, spec: NormSpec, maximize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every row that can attain the largest (or smallest) norm: their
    indices, ascending, and their norms, equal to rowwise_norm(rows)[idx].

    Only the rows that can reach the extreme, within the _PRUNE_REL guard,
    are solved, through rowwise_norm.  For a Luxemburg norm these are the
    rows whose _luxemburg_bounds reach the best opposite bound.  For an lp
    norm with an integer p >= 3 they are the rows whose _power_sums lie
    within the guard of the extreme sum (_power_candidates).  Every
    other closed form (p in {1, 2}, p not an integer, max) returns every
    row.  Rows are solved independently of each other, so the first
    extreme of the returned norms is the first extreme of all rows.
    """
    m = np.asarray(rows)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    p = spec.power_exponent()
    if p is not None and p >= 3.0 and p.is_integer() and m.size:
        idx = _power_candidates(_power_sums(m, int(p)), maximize)
        return idx, rowwise_norm(m[idx], spec)
    if spec.variant != "orlicz" or p is not None or m.size == 0:
        return np.arange(m.shape[0]), rowwise_norm(m, spec)
    a = np.abs(m)
    if not np.all(np.isfinite(a)):
        raise ValueError("rows must be finite")
    lower, upper = _luxemburg_bounds(spec.phi, a)
    if not np.all(np.isfinite(lower)):  # a row sum overflowed
        return np.arange(m.shape[0]), rowwise_norm(m, spec)
    edge = float(lower.max() if maximize else upper.min())
    guard = _PRUNE_REL * edge + _PRUNE_ABS * (1.0 + edge)
    idx = np.flatnonzero(upper >= edge - guard if maximize else lower <= edge + guard)
    return idx, rowwise_norm(m[idx], spec)


def _power_candidates(s: np.ndarray, maximize: bool) -> np.ndarray:
    """Indices, ascending, of the rows whose power sum s can reach the extreme.

    A normal sum is within far less than _PRUNE_REL of the exact one.  A
    zero sum means every term underflowed, so the exact sum lies below
    any normal one; as the extreme it is 0, which keeps every zero sum
    (and, as the largest, every row).  A sum that is not finite, or
    positive but below the normal range, says nothing: its row is kept.
    """
    sure = (s < np.inf) & ((s >= _NORMAL_MIN) | (s == 0.0))
    if not np.count_nonzero(sure):
        return np.arange(s.size)
    edge = float(s[sure].max() if maximize else s[sure].min())
    with np.errstate(over="ignore"):
        near = s >= edge * (1.0 - _PRUNE_REL) if maximize else s <= edge * (1.0 + _PRUNE_REL)
    return np.flatnonzero(near | ~sure)


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


_MAX_DOUBLINGS = 200


def divergence_witness(phi: OrliczFunction, threshold: float) -> float:
    """Smallest dyadic t = 2**k, k < _MAX_DOUBLINGS, with phi(t) > threshold."""
    t = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if float(phi.values(t)) > threshold:
            return t
        t *= 2.0
    raise ConvergenceError(f"gauge did not exceed {threshold} below t = {t}")
