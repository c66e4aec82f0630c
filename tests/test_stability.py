"""Openings, perturbation thresholds, the similarity construction, and
the reduced minimum modulus."""
import math

import numpy as np
import pytest

from schauderlab.decomposition import (
    ModelSpace,
    ProjectionFamily,
    Subspace,
    make_coordinate_family,
    transport_family,
)
from schauderlab.kernel import SAMPLED_LOWER_BOUND, SAMPLED_UPPER_BOUND, SPECTRAL_EXACT
from schauderlab.orlicz import NormSpec, OrliczFunction, vector_norm
from schauderlab.stability import (
    build_similarity,
    c0_stability_check,
    check_opening_condition,
    kato_check,
    lambda_threshold,
    nearest_in_span,
    opening,
    orlicz_stability_check,
    perturbation_sigma,
    reduced_minimum_modulus,
)

L2 = NormSpec.power(2.0)
L1 = NormSpec.power(1.0)


def line(space, angle):
    return Subspace(np.array([[math.cos(angle)], [math.sin(angle)]]), space)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# nearest point in a span


def test_nearest_in_span_euclidean_matches_lstsq():
    rng = np.random.default_rng(3)
    space_dim = 5
    basis = rng.standard_normal((space_dim, 2))
    x = rng.standard_normal(space_dim)
    dist, point = nearest_in_span(x, basis, L2)
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    np.testing.assert_allclose(point, basis @ coef, atol=1e-8)
    assert dist == pytest.approx(float(np.linalg.norm(x - basis @ coef)), rel=1e-8)


def test_nearest_in_span_l1_line():
    # distance from e0 to the diagonal line in l1 is 1 (flat along t in [0,1])
    basis = np.array([[1.0], [1.0]])
    x = np.array([1.0, 0.0])
    dist, _ = nearest_in_span(x, basis, L1)
    assert dist == pytest.approx(1.0, abs=1e-8)


def test_nearest_in_span_breakpoints_l1():
    # the l1 objective |x0 - t| + |x1 - t/2| is piecewise linear in t,
    # so its minimum sits at one of the two kinks
    rng = np.random.default_rng(8)
    basis = np.array([[1.0], [0.5]])
    for _ in range(5):
        x = rng.standard_normal(2)
        dist, _ = nearest_in_span(x, basis, L1)
        kinks = np.array([x[0], 2.0 * x[1]])
        exact = float(np.min(np.abs(x[0] - kinks) + np.abs(x[1] - 0.5 * kinks)))
        assert dist == pytest.approx(exact, abs=1e-8)


def test_nearest_point_lies_in_span():
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((4, 2))
    x = rng.standard_normal(4)
    _, point = nearest_in_span(x, basis, NormSpec.max_norm())
    coef, *_ = np.linalg.lstsq(basis, point, rcond=None)
    np.testing.assert_allclose(basis @ coef, point, atol=1e-8)


# ---------------------------------------------------------------------------
# openings


def test_opening_of_space_with_itself_is_zero():
    space = ModelSpace(2, L2)
    a = line(space, 0.3)
    rep = opening(a, a)
    assert rep.theta == 0.0
    assert rep.method == "equal-span-exact"


def test_opening_same_span_different_basis():
    space = ModelSpace(3, L2)
    a = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), space)
    b = Subspace(np.array([[2.0, 1.0], [0.0, 3.0], [0.0, 0.0]]), space)
    rep = opening(a, b)
    assert rep.theta == 0.0


def test_opening_orthogonal_lines():
    space = ModelSpace(2, L2)
    rep = opening(line(space, 0.0), line(space, math.pi / 2.0))
    assert rep.theta == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("deg", [10.0, 30.0, 60.0])
def test_opening_line_pair_is_sine(deg):
    space = ModelSpace(2, L2)
    alpha = math.radians(deg)
    rep = opening(line(space, 0.0), line(space, alpha))
    assert rep.method == "principal-angles-exact"
    assert rep.theta == pytest.approx(math.sin(alpha), abs=1e-12)
    assert rep.direction_ab == pytest.approx(rep.direction_ba, abs=1e-12)


def test_opening_is_symmetric():
    space = ModelSpace(4, L2)
    rng = np.random.default_rng(12)
    a = Subspace(rng.standard_normal((4, 2)), space)
    b = Subspace(rng.standard_normal((4, 2)), space)
    ab = opening(a, b)
    ba = opening(b, a)
    assert ab.theta == pytest.approx(ba.theta, rel=1e-10)
    assert ab.direction_ab == pytest.approx(ba.direction_ba, rel=1e-10)


def test_opening_l1_frozen_example():
    # span(e0) against the diagonal in the plane with the sum norm:
    # one direction reaches 1, the other only 1/2
    space = ModelSpace(2, L1)
    a = Subspace(np.array([[1.0], [0.0]]), space)
    b = Subspace(np.array([[1.0], [1.0]]), space)
    rep = opening(a, b, L1, samples=64, seed=0)
    assert rep.method == SAMPLED_LOWER_BOUND
    assert rep.direction_ab == pytest.approx(1.0, abs=1e-8)
    assert rep.direction_ba == pytest.approx(0.5, abs=1e-8)
    assert rep.theta == pytest.approx(1.0, abs=1e-8)


def test_opening_rejects_mismatched_spaces():
    a = Subspace(np.array([[1.0], [0.0]]), ModelSpace(2, L2))
    b = Subspace(np.array([[1.0], [0.0], [0.0]]), ModelSpace(3, L2))
    with pytest.raises(ValueError):
        opening(a, b)


# ---------------------------------------------------------------------------
# perturbation budget


def test_lambda_orthogonal_coordinate_family():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 2, 2, 2])
    rep = lambda_threshold(fam)
    assert rep.value == 1.0 / 16.0
    assert rep.sup_partial_sum_norm == 1.0
    assert rep.sup_block_norm == 1.0
    assert rep.method == "exact"


def test_lambda_coordinate_family_l1():
    space = ModelSpace(6, L1)
    fam = make_coordinate_family(space, [3, 3])
    rep = lambda_threshold(fam)
    assert rep.value == 1.0 / 16.0
    assert rep.method == "exact"


def test_lambda_transported_family_lower_bound():
    # condition-2 transport: partial sums and blocks at most double
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    s = np.diag([2.0, 1.0, 1.0, 1.0])  # kappa(S) = 2
    moved = transport_family(s, fam)
    rep = lambda_threshold(moved)
    assert rep.sup_partial_sum_norm <= 2.0 + 1e-12
    assert rep.sup_block_norm <= 2.0 + 1e-12
    assert rep.value >= 1.0 / 72.0 - 1e-15


def test_lambda_orlicz_ambient_is_certified():
    spec = NormSpec.orlicz(OrliczFunction.scaled_exp(1.0))
    space = ModelSpace(4, spec)
    fam = make_coordinate_family(space, [2, 2])
    rep = lambda_threshold(fam)
    assert rep.method == "certified-lower-bound"
    assert 0.0 < rep.value <= 1.0 / 16.0 + 1e-12


# ---------------------------------------------------------------------------
# opening condition


def rotated_block_subspace(space, i, target, s):
    c = math.sqrt(1.0 - s * s)
    cols = np.zeros((space.dim, 2))
    cols[2 * i, 0] = c
    cols[target, 0] = s
    cols[2 * i + 1, 1] = 1.0
    return Subspace(cols, space)


def test_check_opening_condition_accepts_small_aggregate():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 2, 2, 2])
    lam = lambda_threshold(fam).value
    cands = [rotated_block_subspace(space, i, (2 * i + 2) % 8, lam / 4.0) for i in range(4)]
    rep = check_opening_condition(fam, cands, p=2.0)
    assert rep.satisfied
    assert rep.aggregate == pytest.approx(lam / 2.0, rel=1e-9)
    assert rep.exponent == 2.0


def test_check_opening_condition_rejects_single_large_rotation():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 2, 2, 2])
    lam = lambda_threshold(fam).value
    cands = [rotated_block_subspace(space, 0, 2, 2.0 * lam)] + [
        Subspace(np.eye(8)[:, 2 * i : 2 * i + 2], space) for i in range(1, 4)
    ]
    rep = check_opening_condition(fam, cands, p=2.0)
    assert not rep.satisfied
    assert rep.aggregate == pytest.approx(2.0 * lam, rel=1e-9)


def test_check_opening_condition_requires_matching_count():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    with pytest.raises(ValueError):
        check_opening_condition(fam, [Subspace(np.eye(4)[:, :2], space)], p=2.0)


# ---------------------------------------------------------------------------
# perturbation size


def test_sigma_zero_for_identical_families():
    space = ModelSpace(6, L2)
    fam = make_coordinate_family(space, [2, 2, 2])
    est = perturbation_sigma(fam, fam, L2)
    assert est.value == 0.0
    assert est.method == SPECTRAL_EXACT
    # one block: the aggregate over n >= 1 is empty, whatever J_0 is
    space = ModelSpace(2, L2)
    single = ProjectionFamily([np.diag([1.0, 0.0])], space)
    other = ProjectionFamily([np.diag([0.0, 1.0])], space)
    for psi in (L2, NormSpec.max_norm()):
        est = perturbation_sigma(single, other, psi)
        assert (est.value, est.method) == (0.0, SPECTRAL_EXACT)


def test_sigma_rotation_against_circle_grid():
    # 2 one-dimensional blocks in the plane, J = rotation transport;
    # the aggregate perturbation has a closed 2D maximization that a
    # dense circle grid reproduces independently
    space = ModelSpace(2, L2)
    fam = make_coordinate_family(space, [1, 1])
    moved = transport_family(rotation(0.3), fam)
    est = perturbation_sigma(fam, moved, L2)
    assert est.method == SPECTRAL_EXACT
    parts = [fam.blocks[i] @ (moved.blocks[i] - fam.blocks[i]) for i in range(1, 2)]
    theta = np.linspace(0.0, 2.0 * math.pi, 200001)
    grid = np.column_stack([np.cos(theta), np.sin(theta)])
    quad = np.zeros(len(grid))
    for a in parts:
        quad += np.linalg.norm(grid @ a.T, axis=1) ** 2
    assert est.value == pytest.approx(math.sqrt(float(quad.max())), rel=1e-8)


def test_sigma_scales_linearly_for_small_perturbations():
    space = ModelSpace(6, L2)
    fam = make_coordinate_family(space, [2, 2, 2])
    rng = np.random.default_rng(10)
    t = rng.standard_normal((6, 6))
    ratios = []
    for eps in (1e-5, 1e-4, 1e-3):
        moved = transport_family(np.eye(6) + eps * t, fam)
        est = perturbation_sigma(fam, moved, L2)
        ratios.append(est.value / eps)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-3)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-2)


def test_sigma_skips_the_first_block():
    # only blocks n >= 1 contribute to the aggregate
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    blocks = [b.copy() for b in fam.blocks]
    # perturb only block 0's action inside its own range
    s = np.eye(4)
    s[0, 1] = 0.3
    moved_all = transport_family(s, fam)
    # J0 differs from P0 but J1 ends up equal to P1 under this shear
    if np.allclose(moved_all.blocks[1], blocks[1], atol=1e-14):
        est = perturbation_sigma(fam, moved_all, L2)
        assert est.value == pytest.approx(0.0, abs=1e-13)


def test_sigma_sampled_psi_max():
    space = ModelSpace(6, L2)
    fam = make_coordinate_family(space, [2, 2, 2])
    moved = transport_family(np.eye(6) + 0.05 * np.ones((6, 6)), fam)
    est = perturbation_sigma(fam, moved, NormSpec.max_norm())
    assert est.method == SAMPLED_LOWER_BOUND
    spectral = perturbation_sigma(fam, moved, L2)
    # max over blocks <= l2 aggregate over blocks
    assert est.value <= spectral.value * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# similarity construction


def test_build_similarity_recovers_transport():
    space = ModelSpace(6, L2)
    fam = make_coordinate_family(space, [2, 2, 2])
    rng = np.random.default_rng(9)
    s0 = np.eye(6) + 0.08 * rng.standard_normal((6, 6))
    moved = transport_family(s0, fam)
    rep = build_similarity(fam, moved)
    assert rep.verdict == "similar"
    assert rep.similarity_residual <= rep.residual_tolerance
    # the mixing operator satisfies P_n S = S J_n exactly in exact math
    for p, j in zip(fam.blocks, moved.blocks):
        np.testing.assert_allclose(p @ rep.s_matrix, rep.s_matrix @ j, atol=1e-10)


def test_build_similarity_not_invertible_on_rank_mismatch():
    space = ModelSpace(4, L2)
    p_fam = make_coordinate_family(space, [2, 2])
    j_fam = make_coordinate_family(space, [3, 1])
    rep = build_similarity(p_fam, j_fam)
    assert rep.verdict == "not invertible"
    assert rep.similarity_residual is None


def test_kato_check_similar_verdict():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 2, 2, 2])
    rng = np.random.default_rng(31)
    s0 = np.eye(8) + 0.02 * rng.standard_normal((8, 8))
    moved = transport_family(s0, fam)
    rep = kato_check(fam, moved)
    assert rep.verdict == "similar"
    assert rep.hypothesis_met
    assert rep.sigma_method == SPECTRAL_EXACT
    assert rep.c_method == SPECTRAL_EXACT
    assert rep.threshold == 1.0
    assert rep.rank_first_block == (2, 2)
    assert rep.r_norm <= rep.c_hilbertian * rep.sigma + 1e-8


def test_kato_rejects_non_euclidean_ambient():
    space = ModelSpace(4, L1)
    fam = make_coordinate_family(space, [2, 2])
    with pytest.raises(ValueError):
        kato_check(fam, fam)


def test_kato_rejects_oblique_base():
    space = ModelSpace(2, L2)
    b = np.array([[1.0], [0.4]])
    c = np.array([[1.0], [-0.4]])
    p0 = b @ np.linalg.solve(c.T @ b, c.T)
    fam = ProjectionFamily([p0, np.eye(2) - p0], space)
    with pytest.raises(ValueError):
        kato_check(fam, fam)


def test_kato_large_perturbation_fails_hypothesis():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    # rotate by nearly 90 degrees: sigma approaches 1
    moved = transport_family(np.kron(np.eye(2), rotation(1.4)), fam)
    rep = kato_check(fam, moved)
    if rep.sigma >= 1.0:
        assert not rep.hypothesis_met


def test_orlicz_stability_check_threshold_is_reciprocal():
    spec = NormSpec.orlicz(OrliczFunction.power(2.0))
    space = ModelSpace(6, spec)
    fam = make_coordinate_family(space, [2, 2, 2])
    rng = np.random.default_rng(2)
    moved = transport_family(np.eye(6) + 0.03 * rng.standard_normal((6, 6)), fam)
    rep = orlicz_stability_check(fam, moved, L2, samples=64, seed=0)
    assert rep.threshold == pytest.approx(1.0 / rep.c_hilbertian, rel=1e-12)
    assert rep.verdict == "similar"


def test_orlicz_stability_check_supplied_constant():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    moved = transport_family(np.eye(4) + 0.01 * np.eye(4)[::-1], fam)
    rep = orlicz_stability_check(fam, moved, L2, hilbertian=2.0, samples=16, seed=0)
    assert rep.c_hilbertian == 2.0
    assert rep.c_method == "supplied"
    assert rep.threshold == pytest.approx(0.5)


def test_c0_stability_check():
    space = ModelSpace(6, NormSpec.max_norm())
    fam = make_coordinate_family(space, [2, 2, 2])
    rng = np.random.default_rng(6)
    moved = transport_family(np.eye(6) + 0.01 * rng.standard_normal((6, 6)), fam)
    rep = c0_stability_check(fam, moved, sup_bound=1.0, samples=32, seed=0)
    assert rep.verdict == "similar"
    assert rep.c_hilbertian == 1.0
    assert rep.threshold == 1.0


def test_c0_stability_requires_max_ambient():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    with pytest.raises(ValueError):
        c0_stability_check(fam, fam, sup_bound=1.0)


def test_marginal_band_flag():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    moved = transport_family(np.eye(4) + 0.02 * np.ones((4, 4)), fam)
    rep = kato_check(fam, moved)
    # sigma is far from the threshold here, so the band must not trip
    assert not rep.marginal


# ---------------------------------------------------------------------------
# reduced minimum modulus


def test_gamma_diagonal_with_kernel():
    est = reduced_minimum_modulus(np.diag([2.0, 1.0, 0.0]), L2)
    assert est.method == SPECTRAL_EXACT
    assert est.value == pytest.approx(1.0, rel=1e-12)
    # witness attains it: unit vector with ||Tx|| = gamma * dist(x, ker)
    w = est.witness
    t = np.diag([2.0, 1.0, 0.0])
    assert np.linalg.norm(t @ w) == pytest.approx(est.value, rel=1e-10)


def test_gamma_zero_matrix_is_none():
    assert reduced_minimum_modulus(np.zeros((3, 3)), L2) is None


def test_gamma_invertible_diag_in_max_norm():
    # for invertible T the modulus is 1/||T^{-1}||; in the max norm that
    # is exactly 2 for diag(3, 2), attained on an open set of directions
    est = reduced_minimum_modulus(np.diag([3.0, 2.0]), NormSpec.max_norm(), samples=64, seed=0)
    assert est.method == SAMPLED_UPPER_BOUND
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_gamma_complement_of_coordinate_block_l1():
    space_dim = 6
    spec = L1
    fam = make_coordinate_family(ModelSpace(space_dim, spec), [2, 2, 2])
    t = np.eye(space_dim) - fam.blocks[0]
    est = reduced_minimum_modulus(t, spec, samples=32, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_gamma_witness_reproduces_value():
    spec = NormSpec.max_norm()
    t = np.diag([3.0, 2.0])
    est = reduced_minimum_modulus(t, spec, samples=32, seed=4)
    x = est.witness
    ratio = vector_norm(t @ x, spec) / vector_norm(x, spec)
    assert ratio == pytest.approx(est.value, rel=1e-8)
