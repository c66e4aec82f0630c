"""Geometric constants: sign averages, unconditionality, frame bounds,
sign-average comparison constants, and the block-norm sandwich."""
import itertools
import math

import numpy as np
import pytest

from schauderlab.decomposition import ModelSpace, ProjectionFamily, make_coordinate_family, transport_family
from schauderlab.errors import BudgetError
from schauderlab.geometry import (
    besselian_constant,
    hilbertian_constant,
    khintchine_constants,
    khintchine_crossover,
    lp_sandwich_constants,
    min_max_sign_norm,
    or_type_probe,
    rademacher_average,
    riesz_constant,
    type_cotype_check,
    unconditional_constant,
)
from schauderlab.kernel import SAMPLED_LOWER_BOUND, SAMPLED_UPPER_BOUND, SPECTRAL_EXACT, unit_sphere_sampler
from schauderlab.orlicz import NormSpec, OrliczFunction, vector_norm

L2 = NormSpec.power(2.0)


def oblique_projection(b, c):
    b = np.atleast_2d(b)
    c = np.atleast_2d(c)
    return b @ np.linalg.solve(c.conj().T @ b, c.conj().T)


def oblique_pair():
    space = ModelSpace(2, L2)
    p0 = oblique_projection(np.array([[1.0], [0.2]]), np.array([[1.0], [-0.3]]))
    return ProjectionFamily([p0, np.eye(2) - p0], space)


def circle_grid(steps=31416):
    theta = np.linspace(0.0, math.pi, steps)
    return np.column_stack([np.cos(theta), np.sin(theta)])


# ---------------------------------------------------------------------------
# exact sign averages


def test_rademacher_duplicated_vector():
    # {x, x}: half the sign patterns cancel, half give 2x
    x = np.array([1.0, 2.0, 2.0])
    norm_x = float(np.linalg.norm(x))
    assert rademacher_average([x, x], L2, power=1) == pytest.approx(norm_x, rel=1e-12)
    assert rademacher_average([x, x], L2, power=2) == pytest.approx(math.sqrt(2.0) * norm_x, rel=1e-12)


def test_rademacher_orthonormal_vectors():
    # all sign patterns of an orthonormal set have the same norm sqrt(n)
    vectors = [np.eye(5)[i] for i in range(5)]
    assert rademacher_average(vectors, L2, power=1) == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert rademacher_average(vectors, L2, power=2) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_rademacher_quadratic_dominates_mean():
    rng = np.random.default_rng(14)
    vectors = [rng.standard_normal(4) for _ in range(6)]
    mean = rademacher_average(vectors, L2, power=1)
    quad = rademacher_average(vectors, L2, power=2)
    assert quad >= mean - 1e-12


def test_min_max_sign_norm_enumerates():
    x, y = np.array([1.0, 0.0]), np.array([0.6, 0.0])
    # colinear: max = 1.6 at equal signs, min = 0.4 at opposite signs
    hi = min_max_sign_norm([x, y], L2, "max")
    lo = min_max_sign_norm([x, y], L2, "min")
    assert hi.value == pytest.approx(1.6, rel=1e-12)
    assert lo.value == pytest.approx(0.4, rel=1e-12)
    assert hi.trials == 4 and lo.trials == 4
    assert hi.method == "exact-enumeration"


def test_sign_witness_reproduces_value():
    rng = np.random.default_rng(6)
    vectors = [rng.standard_normal(3) for _ in range(5)]
    for mode in ("min", "max"):
        est = min_max_sign_norm(vectors, NormSpec.power(1.0), mode)
        signs = est.witness["signs"]
        again = vector_norm(sum(s * v for s, v in zip(signs, vectors)), NormSpec.power(1.0))
        assert again == pytest.approx(est.value, rel=1e-8)


# ---------------------------------------------------------------------------
# sign symmetry: the enumerations evaluate half the patterns; a full loop
# over all of them must give the same numbers

BRUTE_NORMS = {
    "l1": NormSpec.power(1.0),
    "l2": L2,
    "max": NormSpec.max_norm(),
    "exp": NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)),
    "pwl": NormSpec.orlicz(OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)])),
}


def all_sign_norms(vectors, norm):
    return [
        vector_norm(sum(e * v for e, v in zip(signs, vectors)), norm)
        for signs in itertools.product((-1.0, 1.0), repeat=len(vectors))
    ]


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_sign_enumeration_matches_full_loop(n, scalars):
    rng = np.random.default_rng(40 + n)
    vectors = [rng.standard_normal(6) for _ in range(n)]
    if scalars == "complex":
        vectors = [v + 1j * rng.standard_normal(6) for v in vectors]
    for name, norm in BRUTE_NORMS.items():
        full = np.array(all_sign_norms(vectors, norm))
        assert rademacher_average(vectors, norm, power=1) == pytest.approx(full.mean(), rel=1e-10), name
        assert rademacher_average(vectors, norm, power=2) == pytest.approx(
            math.sqrt(np.mean(full**2)), rel=1e-10
        ), name
        for mode, want in (("min", full.min()), ("max", full.max())):
            est = min_max_sign_norm(vectors, norm, mode)
            assert est.value == pytest.approx(want, rel=1e-10), (name, mode)
            assert est.trials == 2**n
            signs = est.witness["signs"]
            assert signs.shape == (n,) and np.all(np.abs(signs) == 1.0)
            replay = vector_norm(sum(e * v for e, v in zip(signs, vectors)), norm)
            assert replay == pytest.approx(est.value, rel=1e-10), (name, mode)


def full_loop_unconditional(family, patterns, samples, seed):
    norm = family.space.norm
    sampler = unit_sphere_sampler(norm, family.dim, seed)
    best = -math.inf
    for _ in range(samples):
        x = next(sampler)
        parts = [b @ x for b in family.blocks]
        denom = vector_norm(sum(parts), norm)
        for c in patterns:
            best = max(best, vector_norm(sum(ci * y for ci, y in zip(c, parts)), norm) / denom)
    return best


def transported(k, scalars, norm, seed):
    rng = np.random.default_rng(seed)
    n = 2 * k
    s = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    if scalars == "complex":
        s = s + 0.2j * rng.standard_normal((n, n))
    space = ModelSpace(n, norm, scalars=scalars)
    return transport_family(s, make_coordinate_family(space, [2] * k))


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize(
    "mode,k",
    [("signs", 1), ("signs", 3), ("signs", 6), ("unit-disc-grid", 2), ("unit-disc-grid", 6)],
)
def test_unconditional_matches_full_loop(mode, k, scalars):
    grid = np.linspace(-1.0, 1.0, 17)
    if mode == "signs":
        patterns = list(itertools.product((-1.0, 1.0), repeat=k))
    elif k <= 5:
        patterns = list(itertools.product(grid, repeat=k))
    else:
        # beyond five blocks the grid mode covers the cube's extreme
        # points and the zero-one masks
        patterns = list(itertools.product((-1.0, 1.0), repeat=k)) + list(itertools.product((0.0, 1.0), repeat=k))
    for name in ("l1", "exp"):
        norm = BRUTE_NORMS[name]
        fam = transported(k, scalars, norm, seed=k)
        est = unconditional_constant(fam, mode, samples=3, seed=9)
        want = full_loop_unconditional(fam, patterns, samples=3, seed=9)
        assert est.value == pytest.approx(want, rel=1e-10), name
        c, x = np.asarray(est.witness["coefficients"]), est.witness["x"]
        parts = [b @ x for b in fam.blocks]
        replay = vector_norm(sum(ci * y for ci, y in zip(c, parts)), norm) / vector_norm(sum(parts), norm)
        assert replay == pytest.approx(est.value, rel=1e-10), name


# ---------------------------------------------------------------------------
# unconditionality


def test_unconditional_orthogonal_is_exactly_one():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 2, 4])
    for mode in ("zero-one", "signs", "unit-disc-grid"):
        est = unconditional_constant(fam, mode, samples=16, seed=0)
        assert est.method == SPECTRAL_EXACT
        assert est.value == 1.0


def test_unconditional_oblique_zero_one_matches_projection_norm():
    # two blocks: the zero-one constant is max(1, ||P0||, ||P1||), and
    # ||P0|| = ||P1|| for a nontrivial idempotent
    fam = oblique_pair()
    truth = max(1.0, float(np.linalg.norm(fam.blocks[0], 2)))
    est = unconditional_constant(fam, "zero-one", samples=256, seed=3)
    assert est.method == SAMPLED_LOWER_BOUND
    assert est.value <= truth * (1.0 + 1e-9)
    assert est.value >= truth * (1.0 - 1e-3)


def test_unconditional_oblique_signs_matches_reflection_norm():
    # sign patterns (1,-1) realize 2 P0 - I
    fam = oblique_pair()
    truth = max(1.0, float(np.linalg.norm(2.0 * fam.blocks[0] - np.eye(2), 2)))
    est = unconditional_constant(fam, "signs", samples=256, seed=3)
    assert est.value <= truth * (1.0 + 1e-9)
    assert est.value >= truth * (1.0 - 1e-3)


def test_unconditional_zero_one_below_grid():
    # the grid contains every zero-one pattern, so with the same sample
    # stream the grid constant dominates
    fam = oblique_pair()
    for seed in (0, 1, 2):
        zo = unconditional_constant(fam, "zero-one", samples=64, seed=seed)
        gr = unconditional_constant(fam, "unit-disc-grid", samples=64, seed=seed)
        assert zo.value <= gr.value + 1e-12


def test_unconditional_witness_reproduces_value():
    fam = oblique_pair()
    est = unconditional_constant(fam, "signs", samples=64, seed=5)
    coeffs = est.witness["coefficients"]
    x = est.witness["x"]
    parts = [fam.blocks[i] @ x for i in range(fam.block_count)]
    num = vector_norm(sum(c * p for c, p in zip(coeffs, parts)), fam.space.norm)
    den = vector_norm(x, fam.space.norm)
    assert num / den == pytest.approx(est.value, rel=1e-8)


def test_unconditional_budget_guard():
    space = ModelSpace(21, L2)
    fam = make_coordinate_family(space, [1] * 21)
    with pytest.raises(BudgetError):
        unconditional_constant(fam, "signs")


def test_unconditional_rejects_unknown_mode():
    fam = oblique_pair()
    with pytest.raises(ValueError):
        unconditional_constant(fam, "alphas")


# ---------------------------------------------------------------------------
# Riesz constant


def test_riesz_orthogonal_coordinate_family():
    space = ModelSpace(6, L2)
    fam = make_coordinate_family(space, [2, 2, 2])
    est = riesz_constant(fam)
    assert est.method == SPECTRAL_EXACT
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_riesz_diagonal_transport_stays_one():
    # a diagonal transport commutes with coordinate blocks, so the
    # family is unchanged and the constant stays 1
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    moved = transport_family(np.diag([1.0, 1.0, 2.0, 2.0]), fam)
    est = riesz_constant(moved)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_riesz_shear_transport_against_circle_grid():
    # 2D family sheared out of orthogonality; the spectral answer must
    # match a dense parameterization of the unit circle
    space = ModelSpace(2, L2)
    fam = make_coordinate_family(space, [1, 1])
    s = np.array([[1.0, 0.7], [0.0, 1.0]])
    moved = transport_family(s, fam)
    est = riesz_constant(moved)
    grid = circle_grid()
    quad = np.zeros(len(grid))
    for b in moved.blocks:
        quad += np.linalg.norm(grid @ b.T, axis=1) ** 2
    oracle = max(float(quad.max()), 1.0 / float(quad.min()))
    assert est.value == pytest.approx(oracle, rel=1e-6)
    assert est.value > 1.0 + 1e-3  # genuinely non-orthogonal


def test_riesz_requires_euclidean_ambient():
    space = ModelSpace(4, NormSpec.power(1.0))
    fam = make_coordinate_family(space, [2, 2])
    with pytest.raises(ValueError):
        riesz_constant(fam)


def test_riesz_witness_is_extremal_eigenvector():
    space = ModelSpace(2, L2)
    fam = make_coordinate_family(space, [1, 1])
    moved = transport_family(np.array([[1.0, 0.4], [0.0, 1.0]]), fam)
    est = riesz_constant(moved)
    w = est.witness / np.linalg.norm(est.witness)
    quad = sum(float(np.linalg.norm(b @ w) ** 2) for b in moved.blocks)
    assert max(quad, 1.0 / quad) == pytest.approx(est.value, rel=1e-8)


# ---------------------------------------------------------------------------
# Hilbertian / Besselian constants


def test_hilbertian_besselian_orthogonal_spectral():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 3, 3])
    hi = hilbertian_constant(fam, L2)
    lo = besselian_constant(fam, L2)
    assert hi.method == SPECTRAL_EXACT and lo.method == SPECTRAL_EXACT
    assert hi.value == pytest.approx(1.0, abs=1e-12)
    assert lo.value == pytest.approx(1.0, abs=1e-12)


def test_hilbertian_l1_max_is_block_count():
    # ||x||_1 = sum of block l1-masses <= K * max, tight at equal masses
    for k, n in ((3, 6), (4, 8)):
        space = ModelSpace(n, NormSpec.power(1.0))
        fam = make_coordinate_family(space, [n // k] * k)
        est = hilbertian_constant(fam, NormSpec.max_norm(), samples=256, seed=0)
        assert est.method == SAMPLED_LOWER_BOUND
        assert est.value <= k * (1.0 + 1e-9)
        assert est.value == pytest.approx(k, rel=1e-6)


def test_besselian_oblique_against_circle_grid():
    fam = oblique_pair()
    est = besselian_constant(fam, L2)
    assert est.method == SPECTRAL_EXACT
    grid = circle_grid()
    quad = np.zeros(len(grid))
    for b in fam.blocks:
        quad += np.linalg.norm(grid @ b.T, axis=1) ** 2
    assert est.value == pytest.approx(math.sqrt(float(quad.min())), rel=1e-6)


def test_hilbertian_oblique_against_circle_grid():
    fam = oblique_pair()
    est = hilbertian_constant(fam, L2)
    grid = circle_grid()
    quad = np.zeros(len(grid))
    for b in fam.blocks:
        quad += np.linalg.norm(grid @ b.T, axis=1) ** 2
    assert est.value == pytest.approx(1.0 / math.sqrt(float(quad.min())), rel=1e-6)


def test_besselian_sampled_is_tagged_upper_bound():
    space = ModelSpace(6, NormSpec.power(1.0))
    fam = make_coordinate_family(space, [2, 2, 2])
    est = besselian_constant(fam, NormSpec.max_norm(), samples=64, seed=1)
    assert est.method == SAMPLED_UPPER_BOUND
    # in l1 with psi=max the true constant is 1 (max <= sum)
    assert est.value >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# sign-average comparison constants


def test_crossover_value():
    p0 = khintchine_crossover()
    assert abs(p0 - 1.84742) < 5e-5
    # it really is a root
    assert math.gamma((p0 + 1.0) / 2.0) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)


def test_khintchine_anchors():
    k1 = khintchine_constants(1.0)
    assert k1.lower == pytest.approx(2.0**-0.5, rel=1e-14)
    assert k1.upper == 1.0
    k2 = khintchine_constants(2.0)
    assert k2.lower == 1.0 and k2.upper == 1.0
    k3 = khintchine_constants(3.0)
    assert k3.upper == pytest.approx(math.sqrt(2.0) * (math.gamma(2.0) / math.sqrt(math.pi)) ** (1.0 / 3.0), rel=1e-14)
    assert k3.lower == 1.0


def test_khintchine_branch_continuity():
    p0 = khintchine_crossover()
    for anchor in (p0, 2.0):
        below = khintchine_constants(anchor - 1e-6)
        above = khintchine_constants(anchor + 1e-6)
        assert abs(below.lower - above.lower) < 1e-4
        assert abs(below.upper - above.upper) < 1e-4


def test_khintchine_lower_below_upper():
    for p in np.linspace(0.5, 6.0, 40):
        k = khintchine_constants(float(p))
        assert k.lower <= k.upper + 1e-12


def test_khintchine_rejects_bad_p():
    with pytest.raises(ValueError):
        khintchine_constants(0.0)
    with pytest.raises(ValueError):
        khintchine_constants(math.inf)


def test_khintchine_empirical_bounds():
    # the constants really do bracket quadratic sign means of scalars:
    # A_p ||a||_2 <= (E|sum eps a|^p)^(1/p) <= B_p ||a||_2
    rng = np.random.default_rng(77)
    for p in (1.0, 1.5, 3.0, 4.0):
        k = khintchine_constants(p)
        for _ in range(10):
            a = rng.standard_normal(8)
            l2 = float(np.linalg.norm(a))
            total = 0.0
            for bits in range(1 << 8):
                signs = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(8)])
                total += abs(float(signs @ a)) ** p
            moment = (total / (1 << 8)) ** (1.0 / p)
            assert k.lower * l2 <= moment + 1e-9
            assert moment <= k.upper * l2 + 1e-9


# ---------------------------------------------------------------------------
# sandwich constants and check


def test_sandwich_constants_regimes():
    c1 = lp_sandwich_constants(1.0)
    assert c1.lower_constant == pytest.approx(2.0**-1.5, rel=1e-14)
    assert c1.psi.power_exponent() == 2.0
    assert c1.upper_constant == pytest.approx(2.0, rel=1e-14)
    assert c1.phi.power_exponent() == 1.0

    c19 = lp_sandwich_constants(1.9)
    expected = (math.gamma(1.45) / math.sqrt(math.pi)) ** (1.0 / 1.9) / math.sqrt(2.0)
    assert c19.lower_constant == pytest.approx(expected, rel=1e-12)

    c3 = lp_sandwich_constants(3.0)
    assert c3.lower_constant == pytest.approx(0.5, rel=1e-14)
    assert c3.psi.power_exponent() == 3.0
    assert c3.upper_constant == pytest.approx(
        math.sqrt(8.0) * (math.gamma(2.0) / math.sqrt(math.pi)) ** (1.0 / 3.0), rel=1e-12
    )
    assert c3.phi.power_exponent() == 2.0


def test_sandwich_constants_scale_with_unconditionality():
    a = lp_sandwich_constants(1.5, unconditional=1.0)
    b = lp_sandwich_constants(1.5, unconditional=2.0)
    assert b.lower_constant == pytest.approx(a.lower_constant / 2.0, rel=1e-12)
    assert b.upper_constant == pytest.approx(a.upper_constant * 2.0, rel=1e-12)


def test_sandwich_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_sandwich_constants(0.9)


def test_type_cotype_clean_pass():
    space = ModelSpace(8, L2)
    fam = make_coordinate_family(space, [2, 2, 2, 2])
    c = lp_sandwich_constants(2.0)
    rep = type_cotype_check(fam, c.psi, c.lower_constant, c.phi, c.upper_constant, samples=512, seed=1)
    assert rep.ok
    assert rep.tested == 512 + 8 + 4
    assert rep.min_lower_margin > 0
    assert rep.min_upper_margin > 0


def test_type_cotype_flags_false_constant():
    # an upper constant below 1 cannot hold for an orthogonal family
    # (the aggregate equals the norm), so every battery vector violates
    space = ModelSpace(6, L2)
    fam = make_coordinate_family(space, [3, 3])
    rep = type_cotype_check(fam, L2, 0.5, L2, 0.9, samples=32, seed=0)
    assert not rep.ok
    assert all(v.side == "upper" for v in rep.violations)
    assert len(rep.violations) == rep.tested


def test_type_cotype_labels_batteries():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    rep = type_cotype_check(fam, L2, 0.5, L2, 0.5, samples=8, seed=0)
    labels = {v.label for v in rep.violations}
    assert any(lab.startswith("coordinate") for lab in labels)


# ---------------------------------------------------------------------------
# sign-average probe


def test_or_type_probe_orthonormal():
    sets = [[np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]]
    rep = or_type_probe(sets, OrliczFunction.power(2.0), L2)
    assert rep.sets_tested == 1
    # quadratic sign mean = sqrt(3), aggregate = sqrt(3)
    assert rep.quad_over_agg_max.ratio == pytest.approx(1.0, rel=1e-9)
    assert rep.quad_over_agg_max.set_index == 0


def test_or_type_probe_flags_candidate():
    sets = [[np.array([1.0, 0.0]), np.array([0.0, 1.0])]]
    rep = or_type_probe(sets, OrliczFunction.power(2.0), L2, candidate_upper=0.5)
    assert rep.candidate_violations == (0,)


def test_or_type_probe_rejects_zero_set():
    sets = [[np.zeros(2), np.zeros(2)]]
    with pytest.raises(ValueError):
        or_type_probe(sets, OrliczFunction.power(2.0), L2)
