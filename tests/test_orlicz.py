"""Gauges, Luxemburg norms and the doubling diagnostics."""
import math

import numpy as np
import pytest

from schauderlab.errors import ConvergenceError
from schauderlab.kernel import ABS_TOL
from schauderlab.orlicz import (
    Delta2Report,
    NormSpec,
    OrliczFunction,
    _luxemburg_rows,
    block_psi_norm,
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


def test_pwl_gauge_must_start_at_origin():
    with pytest.raises(ValueError):
        OrliczFunction.piecewise_linear([(0.1, 0.0), (1.0, 1.0)])


def test_pwl_gauge_rejects_concave_knots():
    with pytest.raises(ValueError):
        OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 2.0), (2.0, 2.5)])


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


def test_rowwise_power_and_max():
    rows = np.array([[3.0, -4.0], [1.0, 1.0]])
    np.testing.assert_allclose(rowwise_norm(rows, NormSpec.power(2.0)), [5.0, math.sqrt(2.0)])
    np.testing.assert_allclose(rowwise_norm(rows, NormSpec.max_norm()), [4.0, 1.0])


def test_block_psi_norm_pythagoras():
    assert block_psi_norm([3.0, 4.0], NormSpec.power(2.0)) == pytest.approx(5.0)


def test_block_psi_norm_rejects_negative_profile():
    with pytest.raises(ValueError):
        block_psi_norm([1.0, -0.5], NormSpec.power(2.0))


def test_block_psi_norm_two_routes_agree():
    # closed-form power aggregation vs the Luxemburg solver for the same
    # exponent: independent computations, same number.  A power gauge
    # aggregate takes the closed form too.
    rng = np.random.default_rng(12)
    for p in (1.5, 2.0, 4.0):
        direct = NormSpec.power(p)
        via_gauge = NormSpec.orlicz(OrliczFunction.power(p))
        for _ in range(10):
            profile = np.abs(rng.standard_normal(5))
            a = block_psi_norm(profile, direct)
            assert block_psi_norm(profile, via_gauge) == a
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
