"""Geometric constants: sign averages, unconditionality, frame bounds,
sign-average comparison constants, and the block-norm sandwich."""
import itertools
import math

import numpy as np
import pytest

from schauderlab import geometry, orlicz, stability
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
from schauderlab.orlicz import NormSpec, OrliczFunction, rowwise_norm, vector_norm
from schauderlab.stability import perturbation_sigma

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_sign_means_survive_huge_and_tiny_vectors(scale):
    # the squared l3 norms overflow at 1e160 and underflow at 1e-170,
    # yet both means scale with the vectors
    rng = np.random.default_rng(44)
    vectors = [rng.standard_normal(6) for _ in range(5)]
    l3 = NormSpec.power(3.0)
    scaled = [v * scale for v in vectors]
    for power in (1, 2):
        want = scale * rademacher_average(vectors, l3, power=power)
        assert rademacher_average(scaled, l3, power=power) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_bit_chunks_match_the_shift_formula():
    # every k up to the sign budget, across chunk edges, and at the top of the range
    chunk = geometry._CHUNK
    for k in range(1, geometry.SIGN_BUDGET + 1):
        top = 1 << k
        ranges = ((0, min(top, 2 * chunk + 3)), (top // 2, min(top, top // 2 + chunk + 1)), (max(0, top - chunk - 5), top))
        for lo, hi in ranges:
            chunks = list(geometry._bit_chunks(k, lo, hi))
            assert [len(c) for c in chunks] == [min(chunk, hi - start) for start in range(lo, hi, chunk)], k
            idx = np.arange(lo, hi, dtype=np.int64)
            np.testing.assert_array_equal(np.vstack(chunks), ((idx[:, None] >> np.arange(k)) & 1).astype(float))
            assert all(c.dtype == float for c in chunks)


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
        # beyond five blocks the 17-point grid is too large; the cube's
        # extreme points and the zero-one masks carry its maximum
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


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 6])
def test_unit_disc_grid_is_the_sign_enumeration(k, scalars):
    # by convexity the cube [-1, 1]^k peaks at a sign pattern, so the grid
    # mode returns the signs estimate: value, tag, trials and witness
    for name in ("l1", "max", "exp"):
        fam = transported(k, scalars, BRUTE_NORMS[name], seed=k + 20)
        grid = unconditional_constant(fam, "unit-disc-grid", samples=4, seed=5)
        signs = unconditional_constant(fam, "signs", samples=4, seed=5)
        assert grid.value == signs.value, name
        assert (grid.method, grid.trials) == (signs.method, signs.trials) == (SAMPLED_LOWER_BOUND, 4), name
        assert grid.witness.keys() == signs.witness.keys() == {"coefficients", "x"}, name
        for key in ("coefficients", "x"):
            np.testing.assert_array_equal(grid.witness[key], signs.witness[key], err_msg=name)


# ---------------------------------------------------------------------------
# bound-pruned extremes: only rows that can win are solved, and the results
# are those of a full evaluation of every pattern


def estimate_bits(est):
    witness = {k: np.asarray(v).tobytes() for k, v in est.witness.items()}
    return est.value, est.method, est.trials, witness


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("name", ["exp", "pwl"])
def test_pruned_extremes_equal_the_full_evaluation(name, scalars, monkeypatch):
    norm = BRUTE_NORMS[name]
    rng = np.random.default_rng(17)
    fam = transported(10, scalars, norm, seed=4)
    vectors = [rng.standard_normal(6) + (1j * rng.standard_normal(6) if scalars == "complex" else 0) for _ in range(11)]

    def run():
        return [unconditional_constant(fam, mode, samples=3, seed=2) for mode in ("zero-one", "signs")] + [
            min_max_sign_norm(vectors, norm, mode) for mode in ("min", "max")
        ]

    pruned = run()
    monkeypatch.setattr(geometry, "_extreme_rows", lambda m, spec, maximize: (np.arange(len(m)), rowwise_norm(m, spec)))
    for got, want in zip(pruned, run()):
        assert estimate_bits(got) == estimate_bits(want)


def sequential_unconditional(family, mode, samples, seed):
    """unconditional_constant with one vector_norm per sample for its
    denominator and every pattern evaluated: value, witness and trials."""
    norm = family.space.norm
    chunks = list(geometry._coefficient_chunks(mode, family.block_count))
    sampler = unit_sphere_sampler(norm, family.dim, seed)
    best, witness = -math.inf, None
    for _ in range(samples):
        x = next(sampler)
        parts = family.blocks @ x
        denom = vector_norm(parts.sum(axis=0), norm)
        for coeffs in chunks:
            ratios = rowwise_norm(coeffs @ parts, norm) / denom
            i = int(np.argmax(ratios))
            if ratios[i] > best:
                best, witness = float(ratios[i]), {"coefficients": coeffs[i].copy(), "x": x.copy()}
    return best, SAMPLED_LOWER_BOUND, samples, {k: np.asarray(v).tobytes() for k, v in witness.items()}


@pytest.mark.parametrize("name", ["exp", "pwl", "l3"])
def test_unconditional_denominators_take_one_row_call(name, monkeypatch):
    norm = NormSpec.power(3.0) if name == "l3" else BRUTE_NORMS[name]
    fam = transported(5, "real", norm, seed=6)
    want = [sequential_unconditional(fam, mode, 6, 3) for mode in ("zero-one", "signs")]

    def refuse(*args, **kwargs):
        raise AssertionError("unconditional_constant called vector_norm")

    for module in (geometry, orlicz):
        monkeypatch.setattr(module, "vector_norm", refuse)
    got = [estimate_bits(unconditional_constant(fam, mode, samples=6, seed=3)) for mode in ("zero-one", "signs")]
    assert got == want


def test_enumerations_solve_few_of_their_patterns(monkeypatch):
    # an oblique exp:1 family with K = 12 blocks: fewer than 5% of the
    # 2^12 patterns per sample reach the row solver, and so for the signs
    rows = []
    original = orlicz.rowwise_norm

    def counting(m, spec):
        rows.append(len(m))
        return original(m, spec)

    monkeypatch.setattr(orlicz, "rowwise_norm", counting)
    norm = BRUTE_NORMS["exp"]
    est = unconditional_constant(transported(12, "real", norm, seed=3), "zero-one", samples=3, seed=1)
    assert est.trials == 3
    assert 0 < sum(rows) < 0.05 * 3 * 2**12
    rows.clear()
    rng = np.random.default_rng(8)
    vectors = [rng.standard_normal(12) for _ in range(14)]
    for mode in ("min", "max"):
        assert min_max_sign_norm(vectors, norm, mode).trials == 2**14
    assert 0 < sum(rows) < 0.05 * 2 * 2**13


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
    # the zero-one patterns lie in the cube [-1, 1]^k, whose maximum the
    # grid mode takes at a sign pattern, so with the same sample stream
    # the grid constant dominates
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
# batched coordinate refinement and its row objectives

REFINE_AMBIENTS = {
    "l1.5": NormSpec.power(1.5),
    "l3": NormSpec.power(3.0),
    "max": NormSpec.max_norm(),
    "exp:1": BRUTE_NORMS["exp"],
    "pwl": BRUTE_NORMS["pwl"],
}
REFINE_PSIS = {"l2": L2, "l3": NormSpec.power(3.0), "max": NormSpec.max_norm(), "exp:1": BRUTE_NORMS["exp"]}


def sequential_refine(fn, x0, norm, *, maximize, rel_gain=1e-8, min_step=1e-9, max_rounds=200):
    """The climb that _coordinate_refine batches, one candidate at a time:
    every norm and objective value comes from a one-row call.  Also
    returns the rounds, the moves, and the moves made by the last
    candidate of a round (after those no batch is left to score)."""

    def one(f, v):
        return f(v[None, :])[0]

    x = x0 / one(lambda v: rowwise_norm(v, norm), x0)
    best = one(fn, x)
    h = 0.25
    rounds = moves = last_moves = 0
    while h > min_step and rounds < max_rounds:
        rounds += 1
        improved = False
        for i in range(x.size):
            for s in (h, -h):
                cand = x.copy()
                cand[i] += s
                nrm = one(lambda v: rowwise_norm(v, norm), cand)
                if nrm <= 0:
                    continue
                cand /= nrm
                v = one(fn, cand)
                gain = (v - best) if maximize else (best - v)
                if gain > rel_gain * max(abs(best), 1e-300):
                    x, best, improved = cand, v, True
                    moves += 1
                    last_moves += i == x.size - 1 and s < 0
        if not improved:
            h *= 0.5
    return x, best, rounds, moves, last_moves


def sigma_objective(p_family, j_family, psi):
    """The row objective perturbation_sigma hands to _sampled_extremum."""
    captured = []

    def capture(ratio, norm, dim, samples, seed, *, maximize):
        captured.append(ratio)
        return 0.0, np.zeros(dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_sampled_extremum", capture)
        perturbation_sigma(p_family, j_family, psi, samples=1)
    return captured[0]


def check_refine_matches_sequential(fn, x0, norm, maximize):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return fn(rows)

    x, best = geometry._coordinate_refine(counting, x0, norm, maximize=maximize)
    rx, rbest, rounds, moves, last_moves = sequential_refine(
        fn, x0, norm, maximize=maximize, max_rounds=geometry._MAX_ROUNDS
    )
    assert np.array_equal(x, rx) and best == rbest
    # one call to start, one per round, one after each move that leaves candidates
    assert len(calls) == 1 + rounds + moves - last_moves <= 1 + rounds + moves
    return moves


@pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
@pytest.mark.parametrize("ambient", sorted(REFINE_AMBIENTS))
def test_batched_refine_follows_the_sequential_trajectory(ambient, maximize, monkeypatch):
    # bit for bit the same point and value, after the same moves; the
    # rounds are capped because the one-row reference is slow in Orlicz norms
    monkeypatch.setattr(geometry, "_MAX_ROUNDS", 24)
    norm = REFINE_AMBIENTS[ambient]
    fam = transported(3, "real", norm, seed=len(ambient))
    for i, (name, psi) in enumerate(sorted(REFINE_PSIS.items())):
        x0 = next(unit_sphere_sampler(norm, fam.dim, seed=i))
        moves = check_refine_matches_sequential(
            lambda rows: geometry._profile_ratio(fam, psi, rows), x0, norm, maximize
        )
        assert moves > 0, name


@pytest.mark.parametrize("ambient", ["l3", "exp:1", "pwl"])
def test_batched_refine_follows_the_sequential_trajectory_for_sigma(ambient, monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_ROUNDS", 24)
    norm = REFINE_AMBIENTS[ambient]
    p_family = make_coordinate_family(ModelSpace(6, norm), [2, 2, 2])
    fn = sigma_objective(p_family, transported(3, "real", norm, seed=4), REFINE_PSIS["l3"])
    x0 = next(unit_sphere_sampler(norm, 6, seed=3))
    assert check_refine_matches_sequential(fn, x0, norm, True) > 0


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("ambient", sorted(REFINE_AMBIENTS))
def test_row_objectives_are_batch_invariant(ambient, scalars):
    # row i of a batch equals the one-row call bit for bit, and a zero
    # row, whose aggregate vanishes, has ratio inf
    norm = REFINE_AMBIENTS[ambient]
    fam = transported(4, scalars, norm, seed=2)
    p_family = make_coordinate_family(ModelSpace(8, norm, scalars=scalars), [2] * 4)
    rng = np.random.default_rng(8)
    rows = np.vstack([rng.standard_normal((40, 8)) * rng.uniform(1e-3, 1e3, (40, 1)), np.zeros((1, 8))])
    for name, psi in REFINE_PSIS.items():
        for fn in (lambda m: geometry._profile_ratio(fam, psi, m), sigma_objective(p_family, fam, psi)):
            batch = fn(rows)
            assert batch.shape == (41,)
            for i in range(rows.shape[0]):
                assert batch[i] == fn(rows[i : i + 1])[0], (name, i)
        assert geometry._profile_ratio(fam, psi, rows[-1:])[0] == math.inf


def test_never_accepting_refinement_costs_one_call_per_round(monkeypatch):
    # a power:3 coordinate family with psi = power:3 has ratio 1 up to
    # rounding, so no candidate gains 1e-8: each of the 3 refinements makes
    # one call to start and one per round, and h halves from 0.25 past 1e-9
    # in 28 rounds; the samples are scored by the first call, from as many
    # sampler draws as there are samples
    norm = NormSpec.power(3.0)
    fam = make_coordinate_family(ModelSpace(12, norm), [3] * 4)
    calls, draws = [], []
    original, sampler = geometry._profile_ratio, geometry.unit_sphere_sampler

    def counting(family, psi, rows):
        calls.append(len(rows))
        return original(family, psi, rows)

    def counting_sampler(*args):
        for x in sampler(*args):
            draws.append(x)
            yield x

    def refuse(*args, **kwargs):
        raise AssertionError("vector_norm called while sampling or refining")

    monkeypatch.setattr(geometry, "_profile_ratio", counting)
    monkeypatch.setattr(geometry, "unit_sphere_sampler", counting_sampler)
    monkeypatch.setattr(geometry, "vector_norm", refuse)
    est = hilbertian_constant(fam, norm, samples=16, seed=5)
    assert est.value == pytest.approx(1.0, rel=1e-14)
    assert est.trials == 16 and len(draws) == 16
    assert calls == [16] + [1, *[24] * 28] * 3


def test_refinement_makes_no_vector_norm_call(monkeypatch):
    from schauderlab import orlicz

    def refuse(*args, **kwargs):
        raise AssertionError("the refinement made a vector_norm call")

    norm = REFINE_AMBIENTS["exp:1"]
    fam = transported(3, "real", norm, seed=1)
    x0 = next(unit_sphere_sampler(norm, fam.dim, seed=0))
    for module in (geometry, orlicz):
        monkeypatch.setattr(module, "vector_norm", refuse)
    monkeypatch.setattr(orlicz, "luxemburg_norm", refuse)
    x, best = geometry._coordinate_refine(lambda m: geometry._profile_ratio(fam, L2, m), x0, norm, maximize=True)
    assert best > geometry._profile_ratio(fam, L2, x0[None, :])[0]


def test_sampled_extremum_scores_its_samples_in_one_call():
    norm = REFINE_AMBIENTS["pwl"]
    fam = transported(2, "real", norm, seed=3)
    calls = []

    def ratio(rows):
        calls.append(len(rows))
        return geometry._profile_ratio(fam, L2, rows)

    val, x = geometry._sampled_extremum(ratio, norm, fam.dim, 64, 7, maximize=False)
    assert calls[0] == 64 and max(calls[1:]) <= 2 * fam.dim
    xs = np.array(list(itertools.islice(unit_sphere_sampler(norm, fam.dim, 7), 64)))
    assert val <= ratio(xs).min()


# Values from the one-candidate-at-a-time implementation on the same inputs:
# (function, ambient, psi, scalars, seed, value, tag, trials) on a 6-dimensional,
# 3-block family transported by I + 0.3 G; sigma compares the coordinate family
# with that transport.
SAMPLED_REFERENCE = [
    ("hilbertian", "l3", "l3", "real", 1, 1.648834046059197, SAMPLED_LOWER_BOUND, 8),
    ("hilbertian", "exp:1", "l2", "real", 2, 1.512823552337802, SAMPLED_LOWER_BOUND, 8),
    ("hilbertian", "pwl", "max", "real", 3, 2.0635904839013697, SAMPLED_LOWER_BOUND, 8),
    ("hilbertian", "l1.5", "exp:1", "real", 4, 0.7780400977090234, SAMPLED_LOWER_BOUND, 8),
    ("hilbertian", "max", "l3", "real", 5, 1.7567283170680201, SAMPLED_LOWER_BOUND, 8),
    ("hilbertian", "l3", "l2", "complex", 6, 1.2102729324479857, SAMPLED_LOWER_BOUND, 8),
    ("besselian", "l3", "l2", "real", 7, 0.17766615760780316, SAMPLED_UPPER_BOUND, 8),
    ("besselian", "exp:1", "exp:1", "real", 8, 0.10263605775845444, SAMPLED_UPPER_BOUND, 8),
    ("besselian", "max", "max", "real", 9, 0.4276089737910008, SAMPLED_UPPER_BOUND, 8),
    ("besselian", "pwl", "l3", "real", 10, 0.5852998500086282, SAMPLED_UPPER_BOUND, 8),
    ("sigma", "l3", "l3", "real", 11, 1.318240562388212, SAMPLED_LOWER_BOUND, 8),
    ("sigma", "exp:1", "l2", "real", 12, 0.6525909353973118, SAMPLED_LOWER_BOUND, 8),
    ("sigma", "pwl", "exp:1", "real", 13, 2.8806635423586933, SAMPLED_LOWER_BOUND, 8),
    ("sigma", "l1.5", "max", "real", 14, 1.6853693288572034, SAMPLED_LOWER_BOUND, 8),
]


def reference_family(ambient, scalars, seed, eps=0.3):
    norm = {**REFINE_AMBIENTS, "l2": L2}[ambient]
    fam = make_coordinate_family(ModelSpace(6, norm, scalars=scalars), [2, 2, 2])
    if eps == 0.0:
        return fam
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((6, 6))
    if scalars == "complex":
        g = g + 1j * rng.standard_normal((6, 6))
    return transport_family(np.eye(6) + eps * g, fam)


@pytest.mark.parametrize("case", SAMPLED_REFERENCE, ids=lambda c: "-".join(map(str, c[:5])))
def test_sampled_constants_match_the_sequential_values(case):
    fn, ambient, psi_name, scalars, seed, value, tag, trials = case
    psi = REFINE_PSIS[psi_name]
    fam = reference_family(ambient, scalars, seed)
    norm = fam.space.norm
    if fn == "sigma":
        coord = reference_family(ambient, scalars, seed, eps=0.0)
        est = perturbation_sigma(coord, fam, psi, samples=8, seed=seed)
        blocks = coord.blocks[1:] @ (fam.blocks[1:] - coord.blocks[1:])
    else:
        est = (hilbertian_constant if fn == "hilbertian" else besselian_constant)(fam, psi, samples=8, seed=seed)
        blocks = fam.blocks
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert est.method == tag and est.trials == trials
    x = est.witness
    assert x.shape == (6,) and vector_norm(x, norm) == pytest.approx(1.0, rel=1e-12)
    aggregate = vector_norm(np.array([vector_norm(b @ x, norm) for b in blocks]), psi)
    replay = aggregate if fn == "sigma" else 1.0 / aggregate
    assert replay == pytest.approx(est.value, rel=1e-12)


# riesz, hilbertian and besselian in l2 with psi = l2, then sigma against the
# coordinate family: all four go through one Gram helper and stay bit for bit
GRAM_REFERENCE = {
    ("real", 21): (14.904378334759858, 1.4279065694098951, 0.7003259326786806, 2.019459740136489),
    ("complex", 22): (65.1897179907317, 1.6014679699464, 0.6244270998648005, 3.0194759448795567),
}


@pytest.mark.parametrize("scalars,seed", sorted(GRAM_REFERENCE))
def test_euclidean_gram_constants_are_unchanged(scalars, seed):
    fam = reference_family("l2", scalars, seed)
    coord = reference_family("l2", scalars, seed, eps=0.0)
    got = (
        riesz_constant(fam),
        hilbertian_constant(fam, L2),
        besselian_constant(fam, L2),
        perturbation_sigma(coord, fam, L2),
    )
    assert tuple(est.value for est in got) == GRAM_REFERENCE[(scalars, seed)]
    assert all(est.method == SPECTRAL_EXACT and est.trials == 0 for est in got)


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


def test_sign_extremes_keep_the_first_witness_across_chunks():
    # 15 small integer vectors: 2^14 patterns in two chunks and exact
    # sums; the 14th vector is zero, so the sign that tells the chunks
    # apart changes no norm, and each witness must be the first pattern,
    # in enumeration order, that reaches the extreme
    rng = np.random.default_rng(6)
    vectors = list(rng.integers(-2, 3, size=(15, 3)).astype(float))
    vectors[13] = np.zeros(3)
    l1 = NormSpec.power(1.0)
    idx = np.arange(1 << 14) | (1 << 14)
    patterns = ((idx[:, None] >> np.arange(15)) & 1) * 2.0 - 1.0
    norms = np.abs(patterns @ np.array(vectors)).sum(axis=1)
    for mode, first in (("min", np.argmin(norms)), ("max", np.argmax(norms))):
        assert np.count_nonzero(norms == norms[first]) > 1
        est = min_max_sign_norm(vectors, l1, mode)
        assert est.value == norms[first]
        assert np.array_equal(est.witness["signs"], patterns[first])


def test_or_type_probe_enumerates_each_set_once(monkeypatch):
    # per set, one call takes the n vector norms, and the quadratic mean
    # and both sign extremes come from one pass over the 2^(n-1) patterns
    # with a last sign of +1
    rows = []
    original = geometry.rowwise_norm

    def counting(m, spec):
        rows.append(len(m))
        return original(m, spec)

    monkeypatch.setattr(geometry, "rowwise_norm", counting)
    rng = np.random.default_rng(4)
    sets = [[rng.standard_normal(5) for _ in range(n)] for n in (3, 6, 9)]
    rep = or_type_probe(sets, OrliczFunction.scaled_exp(1.0), NormSpec.power(3.0))
    assert rep.sets_tested == 3
    assert rows == [3, 2**2, 6, 2**5, 9, 2**8]


@pytest.mark.parametrize("ambient", ["l3", "exp", "pwl"])
def test_or_type_probe_equals_the_per_vector_report(ambient, monkeypatch):
    # the profile norms of a set come from one rowwise_norm call on the
    # stacked vectors, and equal one vector_norm call per vector bit for bit
    norm = NormSpec.power(3.0) if ambient == "l3" else BRUTE_NORMS[ambient]
    phi = OrliczFunction.scaled_exp(1.0)
    rng = np.random.default_rng(12)
    sets = [[rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)] for n in (2, 4, 7, 3)]
    ratios = []
    for vectors in sets:
        agg = orlicz.luxemburg_norm(phi, np.array([vector_norm(v, norm) for v in vectors]))
        _, quad, lo, hi = geometry._sign_stats(vectors, norm)
        ratios.append((quad / agg, lo.value / agg, hi.value / agg))
    quad, mn, mx = (np.array(r) for r in zip(*ratios))

    def refuse(*args):
        raise AssertionError("or_type_probe called vector_norm")

    monkeypatch.setattr(geometry, "vector_norm", refuse)
    rep = or_type_probe(sets, phi, norm, candidate_upper=float(np.median(quad)))
    line = geometry.ProbeLine
    assert rep.quad_over_agg_max == line(float(quad.max()), int(quad.argmax()))
    assert rep.quad_over_agg_min == line(float(quad.min()), int(quad.argmin()))
    assert rep.min_sign_over_agg_max == line(float(mn.max()), int(mn.argmax()))
    assert rep.max_sign_over_agg_min == line(float(mx.min()), int(mx.argmin()))
    assert rep.candidate_violations == tuple(np.flatnonzero(quad > np.median(quad) * (1.0 + 1e-9)))


def test_or_type_probe_rejects_zero_set():
    sets = [[np.zeros(2), np.zeros(2)]]
    with pytest.raises(ValueError):
        or_type_probe(sets, OrliczFunction.power(2.0), L2)
