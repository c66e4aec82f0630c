"""Tests for the shared numerical kernel: bisection, operator norms,
inversion diagnostics, samplers."""

import numpy as np
import pytest

from schauderlab.errors import ConvergenceError
from schauderlab.kernel import (
    CERTIFIED_UPPER_BOUND,
    EXACT_ENUMERATION,
    SPECTRAL_EXACT,
    ConstantEstimate,
    invert_with_condition,
    operator_norm,
    solve_monotone,
    spectral_norm,
    unit_sphere_sampler,
)
from schauderlab.orlicz import NormSpec, OrliczFunction, vector_norm


# ---------------------------------------------------------------------------
# solve_monotone


def test_solve_monotone_reciprocal():
    # 1/rho = 1  =>  rho = 1
    root = solve_monotone(lambda r: 1.0 / r, 1.0, (0.5, 0.5))
    assert abs(root - 1.0) <= 1e-10


def test_solve_monotone_inverse_square():
    # 25 / rho^2 = 1  =>  rho = 5, started far from the answer
    root = solve_monotone(lambda r: 25.0 / r**2, 1.0, (0.1, 0.1))
    assert abs(root - 5.0) <= 1e-10


def test_solve_monotone_returns_feasible_end():
    # the returned point satisfies f(root) <= target
    f = lambda r: 2.0 / r
    root = solve_monotone(f, 1.0, (1.0, 1.0))
    assert f(root) <= 1.0
    assert abs(root - 2.0) <= 1e-9


def test_solve_monotone_random_powers():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(0.5, 20.0))
        q = float(rng.uniform(0.5, 4.0))
        # a / rho^q = 1  =>  rho = a^(1/q)
        root = solve_monotone(lambda r: a / r**q, 1.0, (1.0, 1.0))
        assert abs(root - a ** (1.0 / q)) <= 1e-8 * (1.0 + a ** (1.0 / q))


def test_solve_monotone_bad_bracket():
    # f stays above the target forever: no finite bracket exists
    with pytest.raises(ConvergenceError):
        solve_monotone(lambda r: 2.0, 1.0, (1.0, 1.0))


# ---------------------------------------------------------------------------
# spectral norm and inversion


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


def test_invert_known_matrix():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    res = invert_with_condition(m)
    assert not res.singular
    assert res.condition == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(res.inverse, np.diag([0.5, 0.25]), atol=1e-14)
    assert res.residual <= 1e-12


def test_invert_flags_singular():
    res = invert_with_condition(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert res.singular
    assert res.inverse is None


def test_invert_random_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        res = invert_with_condition(m)
        assert not res.singular
        np.testing.assert_allclose(m @ res.inverse, np.eye(5), atol=1e-10)


# ---------------------------------------------------------------------------
# constant estimates


def test_constant_estimate_rejects_unknown_tag():
    with pytest.raises(ValueError):
        ConstantEstimate(value=1.0, method="guesswork", witness=None, trials=0)


# ---------------------------------------------------------------------------
# unit sphere sampler


def test_sampler_is_deterministic():
    norm = NormSpec.power(2.0)
    a = unit_sphere_sampler(norm, 5, seed=42)
    b = unit_sphere_sampler(norm, 5, seed=42)
    for _ in range(10):
        np.testing.assert_array_equal(next(a), next(b))


def test_sampler_lands_on_unit_sphere():
    for spec in (NormSpec.power(1.0), NormSpec.power(3.0), NormSpec.max_norm(),
                 NormSpec.orlicz(OrliczFunction.scaled_exp(0.5))):
        gen = unit_sphere_sampler(spec, 6, seed=0)
        for _ in range(8):
            x = next(gen)
            assert vector_norm(x, spec) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# operator norms


def test_operator_norm_euclidean_is_sigma_max():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    est = operator_norm(m, NormSpec.power(2.0))
    assert est.method == SPECTRAL_EXACT
    assert est.value == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)
    # witness attains the norm
    w = est.witness
    assert np.linalg.norm(m @ w) == pytest.approx(est.value * np.linalg.norm(w), rel=1e-10)


def test_operator_norm_l1_is_max_column_sum():
    m = np.array([[1.0, -4.0], [2.0, 0.5]])
    est = operator_norm(m, NormSpec.power(1.0))
    assert est.method == EXACT_ENUMERATION
    assert est.value == pytest.approx(4.5, rel=1e-14)


def test_operator_norm_max_is_max_row_sum():
    m = np.array([[1.0, -4.0], [2.0, 0.5]])
    est = operator_norm(m, NormSpec.max_norm())
    assert est.method == EXACT_ENUMERATION
    assert est.value == pytest.approx(5.0, rel=1e-14)


def test_operator_norm_l1_witness_attains():
    rng = np.random.default_rng(23)
    spec = NormSpec.power(1.0)
    for _ in range(10):
        m = rng.standard_normal((5, 5))
        est = operator_norm(m, spec)
        w = est.witness
        assert vector_norm(m @ w, spec) == pytest.approx(est.value * vector_norm(w, spec), rel=1e-10)


def test_operator_norm_p3_brackets_truth():
    # certified upper bound must dominate any sampled ratio
    rng = np.random.default_rng(31)
    spec = NormSpec.power(3.0)
    m = rng.standard_normal((5, 5))
    est = operator_norm(m, spec, samples=128, seed=2)
    assert est.method == CERTIFIED_UPPER_BOUND
    assert est.lower_bound is not None
    assert est.lower_bound <= est.value * (1.0 + 1e-12)
    for _ in range(200):
        x = rng.standard_normal(5)
        ratio = vector_norm(m @ x, spec) / vector_norm(x, spec)
        assert ratio <= est.value * (1.0 + 1e-9)


def test_operator_norm_identity_is_one_in_any_norm():
    eye = np.eye(4)
    for spec in (NormSpec.power(1.0), NormSpec.power(2.0), NormSpec.max_norm()):
        est = operator_norm(eye, spec)
        assert est.value == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_witness_reproduces_value():
    # re-evaluating the stored witness reproduces the reported value
    rng = np.random.default_rng(40)
    m = rng.standard_normal((6, 6))
    for spec in (NormSpec.power(2.0), NormSpec.power(1.0), NormSpec.max_norm()):
        est = operator_norm(m, spec)
        w = est.witness
        again = vector_norm(m @ w, spec) / vector_norm(w, spec)
        assert again == pytest.approx(est.value, rel=1e-8)
