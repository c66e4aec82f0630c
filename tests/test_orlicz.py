"""Gauges, Luxemburg norms and the doubling diagnostics."""
import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from schauderlab import orlicz
from schauderlab.errors import ConvergenceError
from schauderlab.orlicz import (
    ABS_TOL,
    Delta2Report,
    NormSpec,
    OrliczFunction,
    _extreme_rows,
    _luxemburg_bounds,
    _luxemburg_candidates,
    _luxemburg_rows,
    _lp_norms,
    _power_sums,
    delta2_margin,
    divergence_witness,
    luxemburg_norm,
    rowwise_norm,
    vector_norm,
)


# ---------------------------------------------------------------------------
# gauge construction and evaluation


def test_power_gauge_values():
    phi = OrliczFunction.power(2.0)
    t = np.array([0.0, 0.5, 1.0, 3.0])
    np.testing.assert_allclose(phi.values(t), t**2)


def test_scaled_exp_gauge_values():
    phi = OrliczFunction.scaled_exp(2.0)
    assert float(phi.values(0.0)) == 0.0
    assert float(phi.values(1.0)) == pytest.approx(math.expm1(2.0), rel=1e-14)


def test_power_gauge_rejects_p_below_one():
    with pytest.raises(ValueError):
        OrliczFunction.power(0.5)


def test_scaled_exp_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        OrliczFunction.scaled_exp(0.0)


def test_pwl_gauge_interpolates_and_extrapolates():
    phi = OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    assert float(phi.values(0.5)) == pytest.approx(0.5)
    assert float(phi.values(1.5)) == pytest.approx(2.0)
    # beyond the last knot the final slope continues
    assert float(phi.values(4.0)) == pytest.approx(3.0 + 2.0 * 2.0)


@pytest.mark.parametrize(
    "knots",
    [
        [(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)],
        [(0.0, 0.0), (0.3, 0.0), (1.0, 0.7), (1.5, 1.5), (3.0, 6.0)],
        [(0.0, 0.0), (1.0, 1.0)],
    ],
)
def test_pwl_gauge_values_are_interpolation_bit_for_bit(knots):
    # one segment lookup gives what np.interp gives inside the knots, the
    # final segment's extension past them, 0 below 0, and NaN for NaN, at
    # the knots, one ulp either side of them and on random points of five scales
    phi = OrliczFunction.piecewise_linear(knots)
    ts, vs = np.array(knots).T
    rng = np.random.default_rng(2)
    t = np.concatenate(
        [ts, np.nextafter(ts, np.inf), np.nextafter(ts, -np.inf), [math.nan, math.inf, -math.inf, -1.0, -0.0, 1e300]]
        + [scale * rng.uniform(0.0, 4.0, 500) for scale in (1e-3, 0.1, 1.0, 10.0, 1e3)]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.where(t > ts[-1], vs[-1] + (vs[-1] - vs[-2]) / (ts[-1] - ts[-2]) * (t - ts[-1]), np.interp(t, ts, vs))
    got = phi.values(t)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert [float(phi.values(k)) for k in ts] == list(vs)


def test_pwl_gauge_must_start_at_origin():
    with pytest.raises(ValueError):
        OrliczFunction.piecewise_linear([(0.1, 0.0), (1.0, 1.0)])


def test_pwl_gauge_rejects_concave_knots():
    with pytest.raises(ValueError):
        OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 2.0), (2.0, 2.5)])


@pytest.mark.parametrize(
    "knots",
    [
        [(0.0, 0.0), (1.0, math.nan), (2.0, 3.0)],
        [(0.0, 0.0), (math.nan, 1.0), (2.0, 3.0)],
        [(0.0, 0.0), (1.0, 1.0), (math.inf, math.inf)],
    ],
)
def test_pwl_gauge_rejects_non_finite_knots(knots):
    # each shape check is "any(bad)", which a NaN never trips
    with pytest.raises(ValueError, match="knots must be finite"):
        OrliczFunction.piecewise_linear(knots)


def test_pwl_gauge_rejects_an_overflowing_slope():
    # finite knots across a subnormal abscissa gap: the slope overflows,
    # which is refused without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="knot slopes must be finite"):
            OrliczFunction.piecewise_linear([(0.0, 0.0), (1e-320, 1.0), (1.0, 3.0)])


def test_pwl_gauge_rejects_flat_tail():
    with pytest.raises(ValueError):
        OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])


# ---------------------------------------------------------------------------
# Luxemburg norm against closed forms


def test_luxemburg_power2_345():
    assert luxemburg_norm(OrliczFunction.power(2.0), np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0])
def test_luxemburg_matches_lp(p):
    rng = np.random.default_rng(int(p * 10))
    phi = OrliczFunction.power(p)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        expected = float(np.sum(np.abs(x) ** p) ** (1.0 / p))
        got = luxemburg_norm(phi, x)
        assert got == pytest.approx(expected, rel=1e-9)


def test_luxemburg_scaled_exp_single_entry():
    # for one entry: exp(|a|/rho) - 1 = 1  =>  rho = |a| / ln 2
    phi = OrliczFunction.scaled_exp(1.0)
    a = 0.7
    assert luxemburg_norm(phi, np.array([a])) == pytest.approx(a / math.log(2.0), rel=1e-10)


def test_luxemburg_zero_vector():
    assert luxemburg_norm(OrliczFunction.scaled_exp(1.0), np.zeros(4)) == 0.0


def test_luxemburg_rejects_nonfinite():
    with pytest.raises(ValueError):
        luxemburg_norm(OrliczFunction.power(2.0), np.array([1.0, np.inf]))


def test_luxemburg_feasibility_invariants():
    # at the returned rho the constraint holds, and slightly below it fails
    rng = np.random.default_rng(99)
    phi = OrliczFunction.scaled_exp(1.3)
    for _ in range(30):
        x = np.abs(rng.standard_normal(6)) + 0.05
        rho = luxemburg_norm(phi, x)
        g_at = float(np.sum(phi.values(x / rho)))
        g_below = float(np.sum(phi.values(x / (rho * (1.0 - 1e-6)))))
        assert g_at <= 1.0 + 1e-9
        assert g_below >= 1.0 - 1e-6


def test_luxemburg_homogeneity_and_triangle():
    rng = np.random.default_rng(5)
    phi = OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)])
    for _ in range(30):
        x = rng.standard_normal(7)
        y = rng.standard_normal(7)
        c = float(rng.uniform(0.1, 5.0))
        nx = luxemburg_norm(phi, x)
        assert luxemburg_norm(phi, c * x) == pytest.approx(c * nx, rel=1e-8)
        assert luxemburg_norm(phi, x + y) <= nx + luxemburg_norm(phi, y) + 1e-8


def test_luxemburg_monotone_in_coordinates():
    phi = OrliczFunction.scaled_exp(0.8)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = np.abs(rng.standard_normal(5))
        y = x.copy()
        y[int(rng.integers(0, 5))] *= 1.5
        assert luxemburg_norm(phi, y) >= luxemburg_norm(phi, x) - 1e-12


# ---------------------------------------------------------------------------
# norm specs


def test_vector_norm_variants():
    x = np.array([3.0, -4.0])
    assert vector_norm(x, NormSpec.power(1.0)) == pytest.approx(7.0)
    assert vector_norm(x, NormSpec.power(2.0)) == pytest.approx(5.0)
    assert vector_norm(x, NormSpec.max_norm()) == pytest.approx(4.0)
    assert vector_norm(x, NormSpec.orlicz(OrliczFunction.power(2.0))) == pytest.approx(5.0, rel=1e-10)


def test_power_exponent_folds_power_gauge():
    assert NormSpec.power(3.0).power_exponent() == 3.0
    assert NormSpec.orlicz(OrliczFunction.power(2.0)).power_exponent() == 2.0
    assert NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)).power_exponent() is None
    assert NormSpec.max_norm().power_exponent() is None


def test_norm_spec_rejects_bad_power():
    with pytest.raises(ValueError):
        NormSpec.power(0.99)


def test_rowwise_matches_per_row():
    # the scalar norm is a one-row call into the row kernel, so the batch
    # and the single-row results agree exactly
    rng = np.random.default_rng(8)
    phi = OrliczFunction.scaled_exp(1.0)
    spec = NormSpec.orlicz(phi)
    rows = rng.standard_normal((30, 6)) * 2.0
    rows[4] = 0.0  # a zero row must come out as 0
    batch = rowwise_norm(rows, spec)
    assert batch[4] == 0.0
    for i, row in enumerate(rows):
        assert batch[i] == luxemburg_norm(phi, row)


ONE_PATH_SPECS = {
    "l1.5": NormSpec.power(1.5),
    "l3": NormSpec.power(3.0),
    "l10": NormSpec.power(10.0),
    "power-gauge:1.5": NormSpec.orlicz(OrliczFunction.power(1.5)),
    "power-gauge:3": NormSpec.orlicz(OrliczFunction.power(3.0)),
    "max": NormSpec.max_norm(),
    "exp:1": NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)),
    "pwl": NormSpec.orlicz(OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)])),
}


@pytest.mark.parametrize("name", sorted(ONE_PATH_SPECS))
@pytest.mark.parametrize("dtype", [float, complex])
def test_vector_norm_is_its_row_bit_for_bit(name, dtype):
    # one row kernel: a vector's norm is its row's in a batch, to the last bit
    spec = ONE_PATH_SPECS[name]
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((512, 7)) * rng.uniform(0.1, 10.0, (512, 1))
    if dtype is complex:
        rows = rows + 1j * rng.standard_normal((512, 7))
    batch = rowwise_norm(rows, spec)
    assert [vector_norm(row, spec) for row in rows] == batch.tolist()


@pytest.mark.parametrize("name", ["l1", "l2", *sorted(ONE_PATH_SPECS)])
def test_the_empty_vector_has_norm_zero(name):
    spec = ONE_PATH_SPECS.get(name) or NormSpec.power(float(name[1:]))
    assert vector_norm([], spec) == 0.0
    np.testing.assert_array_equal(rowwise_norm(np.zeros((2, 0)), spec), [0.0, 0.0])


def test_vector_norm_is_one_rowwise_norm_call(monkeypatch):
    # every vector norm enters through the public row kernel with its one row
    calls = []
    original = orlicz.rowwise_norm

    def counting(rows, spec):
        calls.append(np.shape(rows))
        return original(rows, spec)

    monkeypatch.setattr(orlicz, "rowwise_norm", counting)
    for name, spec in ONE_PATH_SPECS.items():
        calls.clear()
        vector_norm([3.0, -4.0, 0.5], spec)
        assert calls == [(1, 3)], name


def test_orlicz_imports_nothing_from_kernel():
    # kernel builds on orlicz, so the import goes one way only
    modules = set()
    for node in ast.walk(ast.parse(Path(orlicz.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            if node.module is None:  # from . import name
                modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not {"kernel", "schauderlab.kernel"} & modules, modules


def test_vector_norm_rejects_a_matrix():
    for spec in (NormSpec.power(2.0), NormSpec.max_norm(), ONE_PATH_SPECS["exp:1"]):
        with pytest.raises(ValueError):
            vector_norm(np.ones((2, 3)), spec)
        with pytest.raises(ValueError):
            vector_norm(1.0, spec)


# ---------------------------------------------------------------------------
# the row kernel against an independent reference

KERNEL_GAUGES = {
    "exp:1": OrliczFunction.scaled_exp(1.0),
    "exp:30": OrliczFunction.scaled_exp(30.0),
    "pwl": OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)]),
    "pwl-flat-start": OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]),
    "power:1": OrliczFunction.power(1.0),
    "power:3": OrliczFunction.power(3.0),
    "power:10": OrliczFunction.power(10.0),
}


def reference_luxemburg(phi, row):
    """Plain scalar bisection for inf{rho : sum phi(|a|/rho) <= 1}."""
    a = np.abs(np.asarray(row, dtype=float))
    if not np.any(a > 0):
        return 0.0

    def g(rho):
        return float(np.sum(phi.values(a / rho)))

    hi = float(a.max())
    while g(hi) > 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while g(lo) <= 1.0:
        hi, lo = lo, lo / 2.0
    while hi - lo > ABS_TOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def kernel_rows(n, seed):
    """Zero rows, single-nonzero rows, sparse rows and dense rows at scales
    1e-8 .. 1e8, plus 1e-11, where the bracket width 1e-12 * (1 + rho) is
    a tenth of rho."""
    rng = np.random.default_rng(seed)
    scales = np.append(10.0 ** np.linspace(-8.0, 8.0, 17), 1e-11)
    dense = rng.standard_normal((scales.size, n)) * scales[:, None]
    single = np.zeros((5, n))
    single[np.arange(5), rng.integers(0, n, 5)] = [1e-8, -0.3, 1.0, 7.0, -1e8]
    sparse = rng.standard_normal((4, n)) * (rng.random((4, n)) < 0.3)
    return np.vstack([np.zeros((2, n)), single, sparse, dense])


@pytest.mark.parametrize("n", [1, 12, 64])
@pytest.mark.parametrize("name", sorted(KERNEL_GAUGES))
def test_row_kernel_matches_reference_bisection(name, n):
    # rowwise_norm sends power gauges to the closed form, so the row
    # kernel is called directly here
    phi = KERNEL_GAUGES[name]
    rows = kernel_rows(n, seed=n)
    batch = _luxemburg_rows(phi, rows)
    for row, got in zip(rows, batch):
        want = reference_luxemburg(phi, row)
        # both are feasible ends of brackets of width 1e-12 * (1 + rho)
        assert abs(got - want) <= 2.0 * ABS_TOL * (1.0 + want), (row, got, want)
        assert luxemburg_norm(phi, row) == got


@pytest.mark.parametrize("n", [1, 12, 64])
@pytest.mark.parametrize("name", sorted(KERNEL_GAUGES))
def test_row_kernel_feasibility_contract(name, n):
    # the returned rho is feasible as phi.values evaluates it, and the
    # far end of its bracket, rho - 1e-12 * (1 + rho), is not
    phi = KERNEL_GAUGES[name]
    rows = kernel_rows(n, seed=100 + n)
    batch = _luxemburg_rows(phi, rows)
    for row, rho in zip(rows, batch):
        a = np.abs(row)
        if not np.any(a > 0):
            assert rho == 0.0
            continue
        assert phi.values(a / rho).sum() <= 1.0
        below = rho - ABS_TOL * (1.0 + rho)
        if below > 0:
            assert phi.values(a / below).sum() > 1.0


@pytest.mark.parametrize("name", sorted(KERNEL_GAUGES))
def test_row_kernel_converges_in_few_passes(name, monkeypatch):
    # one gauge evaluation per pass; bisection to 1e-12 would need about 45
    calls = []
    original = OrliczFunction.values

    def counting(self, t):
        calls.append(1)
        return original(self, t)

    monkeypatch.setattr(OrliczFunction, "values", counting)
    for n in (1, 12, 64):
        calls.clear()
        _luxemburg_rows(KERNEL_GAUGES[name], kernel_rows(n, seed=n))
        assert len(calls) <= 20, (n, len(calls))


def test_row_kernel_single_entry_closed_forms():
    # one nonzero entry a: phi(|a|/rho) = 1, so rho = |a| / phi^{-1}(1)
    inverse_at_one = {"exp:1": math.log(2.0), "exp:30": math.log(2.0) / 30.0, "pwl": 1.0,
                      "pwl-flat-start": 2.0, "power:1": 1.0, "power:3": 1.0, "power:10": 1.0}
    for name, tau in inverse_at_one.items():
        for a in (1e-8, 0.37, 5.0, 1e8):
            got = luxemburg_norm(KERNEL_GAUGES[name], np.array([0.0, -a, 0.0]))
            assert got == pytest.approx(a / tau, rel=1e-11, abs=ABS_TOL), name


def test_luxemburg_raises_when_the_norm_overflows():
    with pytest.raises(ConvergenceError):
        luxemburg_norm(OrliczFunction.power(1.0), np.array([1.7e308, 1.7e308]))


def test_power_gauges_use_the_closed_form_but_luxemburg_norm_solves(monkeypatch):
    calls = []
    original = OrliczFunction.values

    def counting(self, t):
        calls.append(1)
        return original(self, t)

    monkeypatch.setattr(OrliczFunction, "values", counting)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(9)
    rows = rng.standard_normal((4, 9))
    for p in (1.0, 2.0, 3.0):
        gauge = NormSpec.orlicz(OrliczFunction.power(p))
        assert vector_norm(x, gauge) == vector_norm(x, NormSpec.power(p))
        np.testing.assert_array_equal(rowwise_norm(rows, gauge), rowwise_norm(rows, NormSpec.power(p)))
    assert calls == []
    luxemburg_norm(OrliczFunction.power(3.0), x)
    assert len(calls) > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
def test_closed_form_survives_huge_and_tiny_entries(p):
    # |x|^p leaves the floating range long before ||x||_p does; the
    # closed form must still agree with the Luxemburg solver
    base = np.array([3.0, -4.0, 0.0])
    for scale in (1e-200, 1e-120, 1e-40, 1e40, 1e120, 1e200):
        x = base * scale
        want = scale * float(np.sum(np.abs(base) ** p) ** (1.0 / p))
        for spec in (NormSpec.power(p), NormSpec.orlicz(OrliczFunction.power(p))):
            assert vector_norm(x, spec) == pytest.approx(want, rel=1e-14)
            np.testing.assert_allclose(rowwise_norm(np.vstack([x, 0.0 * x]), spec), [want, 0.0], rtol=1e-14)
        # the solver's bracket is 1e-12 * (1 + rho) wide, absolute for tiny norms
        assert luxemburg_norm(OrliczFunction.power(p), x) == pytest.approx(want, rel=1e-11, abs=ABS_TOL)


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_blocked_closed_form_is_one_block_bit_for_bit(p, scalars, monkeypatch):
    # 2500 rows of 7 entries span three default blocks and many small ones;
    # rows at 1e-200 and 1e200, zero rows among them, take the rescaled
    # route, also on both sides of block edges
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((2500, 7))
    if scalars == "complex":
        rows = rows + 1j * rng.standard_normal(rows.shape)
    step = orlicz._BLOCK // 7
    for at, scale in ((0, 1e-200), (step - 1, 1e200), (step, 1e-200), (2 * step, 0.0), (2499, 1e200), (1000, 1e-200)):
        rows[at] *= scale
    blocked = _lp_norms(rows, p)
    for block in (7 * 3, 7 * 50 + 6, 1 << 40):  # 3 and 50 rows at a time, then one block
        monkeypatch.setattr(orlicz, "_BLOCK", block)
        np.testing.assert_array_equal(_lp_norms(rows, p), blocked)
    assert np.all(np.isfinite(blocked)) and np.all(blocked[[0, step - 1, step, 1000, 2499]] > 0.0)


@pytest.mark.parametrize("k", [1, 3, 4, 10])
def test_power_sums_are_within_their_error_bound(k):
    # against |a|^k summed in extended precision, with all terms normal
    rng = np.random.default_rng(29 + k)
    rows = rng.standard_normal((300, 9)) * 10.0 ** rng.uniform(-10, 10, (300, 1))
    rows = rows + 1j * rng.standard_normal(rows.shape) * 0.5
    want = (np.abs(rows.astype(np.clongdouble)) ** k).sum(axis=1)
    got = _power_sums(rows, k)
    # k - 1 products, n - 1 additions and the rounding of |a|, each at most eps / 2
    bound = (k - 1 + rows.shape[1]) * np.finfo(float).eps
    assert np.all(np.abs(got - want) <= bound * want)


def test_rowwise_power_and_max():
    rows = np.array([[3.0, -4.0], [1.0, 1.0]])
    np.testing.assert_allclose(rowwise_norm(rows, NormSpec.power(2.0)), [5.0, math.sqrt(2.0)])
    np.testing.assert_allclose(rowwise_norm(rows, NormSpec.max_norm()), [4.0, 1.0])


# ---------------------------------------------------------------------------
# the gauge inverse, convexity bounds and bound-pruned extremes over rows

SOLVED_GAUGES = sorted(name for name, phi in KERNEL_GAUGES.items() if phi.kind != "power")


@pytest.mark.parametrize("name", sorted(KERNEL_GAUGES))
def test_gauge_inverse_round_trips(name):
    # phi^-1(y) is the largest t with phi(t) <= y; the knot values 0.2, 1
    # and 4 are hit exactly, and 17 and 1e6 lie past every last knot
    phi = KERNEL_GAUGES[name]
    y = np.array([0.0, 1e-300, 1e-12, 1.0 / 64, 0.2, 0.5, 1.0, 3.9, 4.0, 17.0, 1e6])
    t = phi._inverse(y)
    # rounding t near 1 moves a slope-1 gauge by about 1e-16
    np.testing.assert_allclose(phi.values(t), y, rtol=1e-13, atol=1e-15)
    assert np.all(phi.values(t + 1e-9 * (1.0 + t)) > y)
    if name == "pwl-flat-start":
        assert phi._inverse(0.0) == 1.0


def bound_rows(rng, n):
    """Dense, sparse, constant and single-entry rows, with a zero row."""
    dense = rng.standard_normal((20, n))
    sparse = dense * (rng.random((20, n)) < 0.3)
    single = np.zeros((3, n))
    single[np.arange(3), rng.integers(0, n, 3)] = [0.4, -1.0, 3.0]
    return np.vstack([dense, sparse, single, np.full((1, n), -0.7), np.zeros((1, n))])


@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("name", SOLVED_GAUGES)
def test_convexity_bounds_hold_across_scales(name, n):
    phi = KERNEL_GAUGES[name]
    rng = np.random.default_rng(31 + n)
    for scale in (1e-200, 1e-100, 1e-12, 1e-3, 1.0, 1e3, 1e12, 1e100, 1e150):
        real = bound_rows(rng, n) * scale
        for rows in (real, real + 1j * bound_rows(rng, n) * scale):
            norms = rowwise_norm(rows, NormSpec.orlicz(phi))
            a = np.abs(rows)
            lower, upper = _luxemburg_bounds(phi, a, a.max(axis=1, initial=0.0))
            assert np.all(lower <= upper * (1.0 + 1e-13)), scale
            assert np.all(lower * (1.0 - 1e-13) <= norms), scale
            # the solver returns the feasible end of a bracket 1e-12 * (1 + rho) wide
            assert np.all(norms <= upper * (1.0 + 1e-13) + ABS_TOL * (1.0 + upper)), scale


def extreme_cases(rng):
    """Row stacks for the pruned extremes: random rows, coefficient patterns
    with many near-ties, exact ties among duplicated and negated rows, zero
    rows, complex rows, and rows at 1e-200 and 1e150."""
    dense = rng.standard_normal((300, 7))
    bits = (np.arange(1 << 10)[:, None] >> np.arange(10)) & 1
    patterns = bits @ rng.standard_normal((10, 7))
    ties = dense.copy()
    lux = rowwise_norm(dense, NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)))
    for i, at in ((np.argmax(lux), [20, 150, 299]), (np.argmin(lux), [30, 160, 298])):
        ties[at] = dense[i], -dense[i], dense[i]
    zeros = dense.copy()
    zeros[[40, 41, 200]] = 0.0
    return {
        "dense": dense,
        "patterns": patterns,
        "ties": ties,
        "zeros": zeros,
        "complex": dense + 1j * rng.standard_normal(dense.shape),
        "tiny": dense * 1e-200,
        "huge": patterns * 1e150,
    }


def extreme_rows(rows, spec, maximize):
    """_extreme_rows of one matrix."""
    ((idx, norms),) = _extreme_rows([rows], spec, maximize)
    return idx, norms


def check_extremes(rows, spec, label):
    """_extreme_rows against the full evaluation: every row that can reach
    the extreme is kept, with the norms of the full evaluation, so the
    first extreme, also of the quotients by a shared denominator, is the
    one the full evaluation finds.  Returns the kept counts."""
    full = rowwise_norm(rows, spec)
    kept = []
    for maximize in (True, False):
        pick = np.argmax if maximize else np.argmin
        idx, norms = extreme_rows(rows, spec, maximize)
        assert np.all(np.diff(idx) > 0), label
        np.testing.assert_array_equal(norms, full[idx], err_msg=label)
        assert np.isin(np.flatnonzero(full == full[pick(full)]), idx).all(), label
        for denom in (1.0, 0.8372611094, 3.1e-5, 7.0):
            assert idx[pick(norms / denom)] == pick(full / denom), (label, maximize, denom)
        kept.append(idx.size)
    return kept


@pytest.mark.parametrize("name", SOLVED_GAUGES)
def test_extreme_rows_match_the_full_evaluation(name):
    spec = NormSpec.orlicz(KERNEL_GAUGES[name])
    for label, rows in extreme_cases(np.random.default_rng(5)).items():
        check_extremes(rows, spec, label)


def closed_form_cases(rng):
    """extreme_cases plus real and complex stacks whose rows lie at scales
    from 1e-200 to 1e150, with cubes that vanish (1e-110) or are subnormal
    (1e-104) among them, and zero, duplicated and negated rows; and two rows
    whose subnormal cubes round out of order."""
    cases = extreme_cases(rng)
    for scalars in ("real", "complex"):
        rows = rng.standard_normal((400, 6))
        if scalars == "complex":
            rows = rows + 1j * rng.standard_normal(rows.shape)
        rows *= rng.choice([1e-200, 1e-110, 1e-104, 1e-50, 1.0, 1e100, 1e150], size=(400, 1))
        rows[[7, 150, 390]] = 0.0
        # the largest row and the smallest nonzero one, duplicated and negated
        top, bottom = np.argmax(np.abs(rows).max(axis=1)), np.argmin(np.abs(rows).max(axis=1) + (rows == 0).all(axis=1))
        rows[[60, 61, 250]] = rows[top], -rows[top], rows[bottom]
        rows[[70, 300]] = -rows[bottom], rows[bottom]
        cases[f"scales-{scalars}"] = rows
        cases[f"scales-{scalars}-no-zero-row"] = np.delete(rows, [7, 150, 390], axis=0)
        # cubes of 1.49, 1.49 and 2.6 times the smallest subnormal round to
        # 1, 1 and 3 times it: the sums of cubes order the rows wrongly
        pair = 2.0**-358 * np.array([[1.49, 1.49], [2.6, 0.0]]) ** (1.0 / 3.0)
        cases[f"subnormal-{scalars}"] = pair * ([1j, 1.0] if scalars == "complex" else 1.0)
    return cases


def test_extreme_rows_of_closed_forms_keep_every_possible_extreme():
    # p in {1, 2}, non-integer p and max keep every row; integer p >= 3 is
    # pruned by its power sums, yet keeps every row that can be extreme
    cases = closed_form_cases(np.random.default_rng(6))
    for spec in (NormSpec.power(1.0), NormSpec.power(2.0), NormSpec.power(1.5), NormSpec.power(2.5),
                 NormSpec.max_norm(), NormSpec.orlicz(OrliczFunction.power(2.0))):
        for label, rows in cases.items():
            for maximize in (True, False):
                idx, norms = extreme_rows(rows, spec, maximize)
                np.testing.assert_array_equal(idx, np.arange(rows.shape[0]), err_msg=label)
                np.testing.assert_array_equal(norms, rowwise_norm(rows, spec), err_msg=label)
    for spec in (NormSpec.power(3.0), NormSpec.power(4.0), NormSpec.power(10.0),
                 NormSpec.orlicz(OrliczFunction.power(3.0))):
        for label, rows in cases.items():
            kept = check_extremes(rows, spec, (label, spec))
            if label in ("dense", "patterns", "complex"):
                assert max(kept) <= 2, (label, spec, kept)


def test_extreme_rows_solve_every_row_when_a_sum_overflows():
    # the sum of the first row overflows, so its bounds say nothing
    phi = OrliczFunction.piecewise_linear([(0.0, 0.0), (10.0, 0.0), (11.0, 1.0)])
    rows = np.array([[1.5e308, 1.5e308, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    full = rowwise_norm(rows, NormSpec.orlicz(phi))
    for maximize in (True, False):
        idx, norms = extreme_rows(rows, NormSpec.orlicz(phi), maximize)
        np.testing.assert_array_equal(idx, [0, 1, 2])
        np.testing.assert_array_equal(norms, full)


def test_extreme_rows_reject_nonfinite_rows():
    # finiteness is read off the row maxima, through which NaN and inf
    # propagate, also as the modulus of a complex entry; the row solver
    # refuses them too, in whichever row block they fall
    spec = NormSpec.orlicz(OrliczFunction.scaled_exp(1.0))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0), complex(np.nan, np.inf)):
        rows = np.ones((4000, 3), dtype=type(bad) if isinstance(bad, complex) else float)
        for at in (2, 3999):
            rows[at, 1] = bad
            for maximize in (True, False):
                with pytest.raises(ValueError, match="rows must be finite"):
                    extreme_rows(rows, spec, maximize)
            with pytest.raises(ValueError, match="rows must be finite"):
                rowwise_norm(rows, spec)
            rows[at, 1] = 1.0


def count_solves(monkeypatch):
    """The row counts of every _luxemburg_rows call, as they are made."""
    calls = []
    original = orlicz._luxemburg_rows

    def counting(phi, rows):
        calls.append(len(rows))
        return original(phi, rows)

    monkeypatch.setattr(orlicz, "_luxemburg_rows", counting)
    return calls


@pytest.mark.parametrize("name", SOLVED_GAUGES)
def test_extreme_rows_of_many_matrices_take_one_solve(name, monkeypatch):
    # every case of extreme_cases at once, a matrix without rows and a
    # repeated one among them: each result equals its matrix's own call bit
    # for bit, and all the candidates go to the solver in one call
    spec = NormSpec.orlicz(KERNEL_GAUGES[name])
    cases = list(extreme_cases(np.random.default_rng(5)).values())
    cases += [np.zeros((0, 7)), cases[0]]
    for maximize in (True, False):
        alone = [extreme_rows(m, spec, maximize) for m in cases]
        calls = count_solves(monkeypatch)
        together = list(_extreme_rows(iter(cases), spec, maximize))
        assert len(calls) == 1
        assert len(together) == len(cases)
        for (idx, norms), (want_idx, want_norms) in zip(together, alone):
            np.testing.assert_array_equal(idx, want_idx)
            assert norms.tobytes() == want_norms.tobytes()
        monkeypatch.undo()
    assert list(_extreme_rows([], spec, True)) == []


@pytest.mark.parametrize("name,limit", [("l2", 1.5), ("l3", 1.5), ("exp:1", 2.5)])
def test_extremes_hold_one_matrix_at_a_time(name, limit):
    # each matrix is taken as it is made, and none is kept while the next
    # is made: the closed forms' row blocks are small, and a Luxemburg
    # norm keeps only the candidates, besides one |matrix| for the bounds.
    # So eight 1 MB matrices peak below ``limit`` of one, once a first pass
    # has set up what numpy caches
    spec = NormSpec.orlicz(KERNEL_GAUGES["exp:1"]) if name == "exp:1" else NormSpec.power(float(name[1:]))
    size = 4096 * 32 * 8

    def matrices():
        rng = np.random.default_rng(3)
        for _ in range(8):
            yield rng.standard_normal((4096, 32))

    list(_extreme_rows(matrices(), spec, True))
    tracemalloc.start()
    try:
        kept = [idx.size for idx, _ in _extreme_rows(matrices(), spec, True)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 8
    assert peak < limit * size, peak


@pytest.mark.parametrize("name", SOLVED_GAUGES)
def test_extreme_rows_solve_each_run_of_tied_rows_once(name, monkeypatch):
    # every sign pattern of x ties at |x|, real or complex; the runs of
    # tied candidates are solved once each, and every row gets its norm.
    # In the mixed matrix the rows at |2x| win the largest norm and those
    # at |x| the smallest; either way the candidates are one run
    spec = NormSpec.orlicz(KERNEL_GAUGES[name])
    rng = np.random.default_rng(12)
    signs = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
    x = rng.standard_normal(8)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    mixed = np.vstack([signs[:5] * x, signs[:3] * 2 * x, signs[:4] * x])
    for maximize in (True, False):
        calls = count_solves(monkeypatch)
        got = list(_extreme_rows([signs * x, signs * y, mixed], spec, maximize))
        assert calls == [3]
        assert len(got[2][0]) == (3 if maximize else 9)
        for m, (idx, norms) in zip((signs * x, signs * y), got):
            np.testing.assert_array_equal(idx, np.arange(256))
            assert np.all(norms == rowwise_norm(m[:1], spec)[0])
        idx, norms = got[2]
        np.testing.assert_array_equal(norms, rowwise_norm(mixed, spec)[idx])
        monkeypatch.undo()


def block_stack(rows, cols, scalars, seed):
    """Rows cycling through the scales 1e-3, 1 and 1e3, with a zero row."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    if scalars == "complex":
        m = m + 1j * rng.standard_normal((rows, cols))
    m *= np.array([1e-3, 1.0, 1e3])[np.arange(rows) % 3, None]
    m[rows // 2] = 0.0
    return m


BLOCK_STACKS = [(700, 24), (5000, 12), (20000, 3)]


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("shape", BLOCK_STACKS)
@pytest.mark.parametrize("name", ["exp:1", "pwl"])
def test_blocked_luxemburg_rows_are_one_row_solves_bit_for_bit(name, shape, scalars):
    # every stack spans several row blocks (341, 682 and 2730 rows of
    # _BLOCK entries); the blocked norms equal one pass of the solver over
    # the whole stack, and one-row solves of the rows at every block edge
    # and of a random spread of the others
    phi = KERNEL_GAUGES[name]
    rows = block_stack(*shape, scalars, seed=shape[0])
    step = orlicz._BLOCK // shape[1]
    assert shape[0] > step
    blocked = rowwise_norm(rows, NormSpec.orlicz(phi))
    assert blocked.tobytes() == _luxemburg_rows(phi, rows).tobytes()
    edges = np.arange(step, shape[0], step)
    picks = np.unique(np.concatenate([[0, shape[0] // 2, shape[0] - 1], edges - 1, edges,
                                      np.random.default_rng(5).integers(0, shape[0], 60)]))
    for i in picks:
        assert blocked[i] == _luxemburg_rows(phi, rows[i:i + 1])[0], i
    assert blocked[shape[0] // 2] == 0.0 and np.all(blocked[np.arange(shape[0]) != shape[0] // 2] > 0.0)


def test_no_solver_call_takes_more_than_a_block(monkeypatch):
    # the stacks above reach the solver in full blocks of _BLOCK // cols
    # rows, at most _BLOCK entries each, and one shorter last block
    calls = count_solves(monkeypatch)
    for name in ("exp:1", "pwl"):
        for rows, cols in BLOCK_STACKS:
            calls.clear()
            rowwise_norm(block_stack(rows, cols, "real", seed=1), NormSpec.orlicz(KERNEL_GAUGES[name]))
            step = orlicz._BLOCK // cols
            assert calls == [step] * (rows // step) + [rows % step], (name, rows, cols)


def test_luxemburg_candidates_peak_below_one_chunk():
    # the candidate pass takes its row maxima and sums by row blocks and
    # forms only the candidates' |row|: 0.67 MB for 8192 pwl rows of length
    # 12, where |m| of the whole chunk (786 KB) and its bounds peaked at 1.45 MB
    phi = KERNEL_GAUGES["pwl"]
    rows = np.random.default_rng(4).standard_normal((8192, 12))
    for maximize in (True, False):
        want = _luxemburg_candidates(phi, rows, maximize)
        tracemalloc.start()
        try:
            got = _luxemburg_candidates(phi, rows, maximize)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6, peak
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        lower, upper = _luxemburg_bounds(phi, np.abs(rows), np.abs(rows).max(axis=1))
        edge = lower.max() if maximize else upper.min()
        guard = orlicz._PRUNE_REL * edge + orlicz._PRUNE_ABS * (1.0 + edge)
        keep = upper >= edge - guard if maximize else lower <= edge + guard
        assert np.array_equal(got[0], np.flatnonzero(keep))


def test_blocked_rows_peak_below_one_chunk():
    # one chunk of 2^13 sign rows of length 12 is 786 KB; solved in row
    # blocks, no temporary of the solver is that large, where one pass
    # over the chunk peaked at 5.5 MB
    spec = NormSpec.orlicz(KERNEL_GAUGES["pwl"])
    rows = np.random.default_rng(4).standard_normal((8192, 12))
    rowwise_norm(rows, spec)
    tracemalloc.start()
    try:
        rowwise_norm(rows, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak



def test_block_psi_norm_pythagoras():
    assert vector_norm([3.0, 4.0], NormSpec.power(2.0)) == pytest.approx(5.0)


def test_block_psi_norm_two_routes_agree():
    # closed-form power aggregation of a block-norm profile vs the
    # Luxemburg solver for the same exponent: independent computations,
    # same number.  A power gauge aggregate takes the closed form too.
    rng = np.random.default_rng(12)
    for p in (1.5, 2.0, 4.0):
        direct = NormSpec.power(p)
        via_gauge = NormSpec.orlicz(OrliczFunction.power(p))
        for _ in range(10):
            profile = np.abs(rng.standard_normal(5))
            a = vector_norm(profile, direct)
            assert vector_norm(profile, via_gauge) == a
            assert luxemburg_norm(OrliczFunction.power(p), profile) == pytest.approx(a, rel=1e-9)


# ---------------------------------------------------------------------------
# doubling diagnostics


def test_delta2_power_gauge_is_bounded():
    # phi(2t)/phi(t) = 2^p exactly, flat in t
    report = delta2_margin(OrliczFunction.power(3.0), [2.0**-k for k in range(1, 15)])
    assert report.verdict == "bounded"
    assert not report.degenerate
    np.testing.assert_allclose(report.ratios, 8.0, rtol=1e-9)


def test_delta2_scaled_exp_is_bounded():
    # (e^{2t}-1)/(e^t-1) = e^t + 1 -> 2 near zero
    report = delta2_margin(OrliczFunction.scaled_exp(1.0), [2.0**-k for k in range(1, 20)])
    assert report.verdict == "bounded"
    assert report.ratios[-1] == pytest.approx(2.0, abs=1e-4)


def test_delta2_diverging_gauge():
    # a gauge sampled from exp(-1/t), which is convex up to t = 1/2; its
    # doubling ratio exp(1/(2t)) blows up near zero.  Below t = 2^-9 the
    # sampled values underflow to zero, so the grid stops there.
    ts = [2.0**-k for k in range(10, 0, -1)]
    knots = [(0.0, 0.0)] + [(t, math.exp(-1.0 / t)) for t in ts]
    phi = OrliczFunction.piecewise_linear(knots)
    report = delta2_margin(phi, [2.0**-k for k in range(1, 10)])
    assert report.verdict == "diverging"
    # interior grid points sit on knots, so the ratio there is the exact
    # closed form exp(1/(2t))
    for t, ratio in zip(report.grid, report.ratios):
        if t <= 0.25:
            assert ratio == pytest.approx(math.exp(1.0 / (2.0 * t)), rel=1e-9)


def test_delta2_degenerate_gauge_is_reported_not_raised():
    # vanishing on [0, 1] but convex and eventually increasing
    phi = OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
    report = delta2_margin(phi, [0.5, 0.25, 0.125])
    assert isinstance(report, Delta2Report)
    assert report.degenerate


def test_delta2_requires_decreasing_grid():
    with pytest.raises(ValueError):
        delta2_margin(OrliczFunction.power(2.0), [0.25, 0.5])


@pytest.mark.parametrize("grid", [[0.5, math.nan, 0.1], [math.nan, 0.5], [0.5, 0.25, math.nan]])
def test_delta2_refuses_a_nan_grid_point(grid):
    # the checks ask that every point be positive and every step fall, which a NaN fails
    with pytest.raises(ValueError, match="strictly decreasing and positive"):
        delta2_margin(OrliczFunction.power(2.0), grid)


def test_delta2_refuses_an_infinite_grid_point():
    # inf is positive and above every later point, so only finiteness refuses it
    with pytest.raises(ValueError, match="with finite points"):
        delta2_margin(OrliczFunction.power(2.0), [math.inf, 0.5])


def test_divergence_witness_certifies_growth():
    # the witness is the first dyadic point where the gauge exceeds the
    # threshold, certifying that it grows without bound
    ts = [2.0**-k for k in range(10, 0, -1)]
    knots = [(0.0, 0.0)] + [(t, math.exp(-1.0 / t)) for t in ts]
    phi = OrliczFunction.piecewise_linear(knots)
    t = divergence_witness(phi, 50.0)
    assert float(phi.values(t)) > 50.0
    assert float(phi.values(t / 2.0)) <= 50.0


def test_divergence_witness_power():
    t = divergence_witness(OrliczFunction.power(2.0), 100.0)
    assert t == 16.0  # first dyadic with t^2 > 100
