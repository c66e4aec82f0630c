"""Openings, perturbation thresholds, the similarity construction, and
the reduced minimum modulus."""
import itertools
import math

import numpy as np
import pytest

from schauderlab import stability
from schauderlab.decomposition import (
    ModelSpace,
    ProjectionFamily,
    Subspace,
    make_coordinate_family,
    transport_family,
)
from schauderlab.documents import perturbation_transport, to_jsonable
from schauderlab.errors import ConvergenceError
from schauderlab.geometry import besselian_constant, hilbertian_constant, type_cotype_check, unconditional_constant
from schauderlab.kernel import EXACT, SAMPLED_LOWER_BOUND, SAMPLED_UPPER_BOUND, SPECTRAL_EXACT
from schauderlab.orlicz import NormSpec, OrliczFunction, vector_norm
from schauderlab.stability import (
    _line_search,
    _nearest_rows,
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
# the batched distance solver against a plain scalar reference

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DISTANCE_NORMS = {
    "l1": L1,
    "l1.5": NormSpec.power(1.5),
    "l3": NormSpec.power(3.0),
    "linf": NormSpec.max_norm(),
    "exp:1": NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)),
    "pwl": NormSpec.orlicz(OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)])),
}


def reference_line_min(f, step, tol):
    """Minimiser near 0 of a convex f: expand a bracket, then golden sections."""
    a, m, c = -step, 0.0, step
    fa, fm, fc = f(a), f(m), f(c)
    guard = 0
    while fa < fm and guard < 120:
        a, m, c, fm, fc = a - 2.0 * (m - a), a, m, fa, fm
        fa = f(a)
        guard += 1
    while fc < fm and guard < 120:
        a, m, c, fa, fm = m, c, c + 2.0 * (c - m), fm, fc
        fc = f(c)
        guard += 1
    x1 = c - _GOLDEN * (c - a)
    x2 = a + _GOLDEN * (c - a)
    f1, f2 = f(x1), f(x2)
    while c - a > tol * (1.0 + abs(a) + abs(c)):
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _GOLDEN * (c - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (c - a)
            f2 = f(x2)
    return 0.5 * (a + c)


def reference_nearest(x, q, norm, tol=1e-10, max_sweeps=60):
    """Plain coordinate descent with one scalar norm per probe: the same
    warm start, steps and stopping rules as nearest_in_span."""
    d = q.conj().T @ x
    complex_coeffs = np.iscomplexobj(q) or np.iscomplexobj(x)
    if complex_coeffs:
        d = d.astype(complex)
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(d.size):
            for unit in (1.0, 1.0j) if complex_coeffs else (1.0,):
                base = d.copy()

                def f(t):
                    trial = base.copy()
                    trial[j] += unit * t
                    return vector_norm(x - q @ trial, norm)

                t = reference_line_min(f, max(0.25, 0.25 * abs(d[j])), tol)
                d[j] += unit * t
                moved = max(moved, abs(t))
        if moved <= tol * (1.0 + float(np.abs(d).max(initial=0.0))):
            break
    return vector_norm(x - q @ d, norm)


def distance_case(rng, n, r, complex_data):
    a = rng.standard_normal((n, r))
    x = rng.standard_normal(n)
    if complex_data:
        a = a + 1j * rng.standard_normal((n, r))
        x = x + 1j * rng.standard_normal(n)
    return x, np.linalg.qr(a)[0]


# real l1 and l-inf distances are exact, and the descent reference is not:
# test_real_l1_linf_distances_match_vertex_enumeration covers them
DESCENT_CASES = [
    (name, complex_data)
    for name in sorted(DISTANCE_NORMS)
    for complex_data in (False, True)
    if complex_data or name not in ("l1", "linf")
]


@pytest.mark.parametrize("name, complex_data", DESCENT_CASES)
def test_nearest_matches_reference_descent(name, complex_data, monkeypatch):
    # a sweep in an Orlicz norm costs the scalar reference up to a second
    # on complex data, and some descents take dozens; both sides stop
    # after the same number of sweeps, so their paths stay comparable
    sweeps = 3 if complex_data else 6
    monkeypatch.setattr(stability, "_MAX_SWEEPS", sweeps)
    norm = DISTANCE_NORMS[name]
    rng = np.random.default_rng(sorted(DISTANCE_NORMS).index(name) + 10 * complex_data)
    for n in (8, 12, 16):
        for r in (1, 2, 3):
            x, q = distance_case(rng, n, r, complex_data)
            got, point = nearest_in_span(x, q, norm)
            want = reference_nearest(x, q, norm, max_sweeps=sweeps)
            assert abs(got - want) <= 1e-6 * want, (n, r, got, want)
            assert got == vector_norm(x - point, norm)


# ---------------------------------------------------------------------------
# exact real l1 and l-inf distances against vertex enumeration

LINF = NormSpec.max_norm()
EPS = float(np.finfo(float).eps)


def vertex_distance(x, q, norm):
    """Least ||x - q d|| over the vertices of the linear program.

    l-inf: minimise h subject to |x - q d| <= h; a vertex solves
    [q_S, s] [d; h] = x_S for r+1 coordinates S and signs s.  l1: some
    minimiser interpolates x on r coordinates T with q_T invertible.
    """
    n, r = q.shape
    if norm.variant == "max":
        systems, rhs = [], []
        for s in itertools.combinations(range(n), r + 1):
            for signs in itertools.product((1.0, -1.0), repeat=r):
                systems.append(np.column_stack([q[list(s)], (1.0,) + signs]))
                rhs.append(x[list(s)])
        systems, rhs = np.array(systems), np.array(rhs)
    else:
        subsets = [list(t) for t in itertools.combinations(range(n), r)]
        systems, rhs = np.array([q[t] for t in subsets]), np.array([x[t] for t in subsets])
    ok = np.abs(np.linalg.det(systems)) > 1e-12
    coeffs = np.linalg.solve(systems[ok], rhs[ok][:, :, None])[:, :r, 0]
    return min(vector_norm(x - q @ d, norm) for d in coeffs)


@pytest.mark.parametrize("name", ["l1", "linf"])
def test_real_l1_linf_distances_match_vertex_enumeration(name):
    norm = DISTANCE_NORMS[name]
    rng = np.random.default_rng(sorted(DISTANCE_NORMS).index(name))
    for n in (8, 12, 16):
        for r in (1, 2, 3):
            for _ in range(2):
                x, q = distance_case(rng, n, r, False)
                got, point = nearest_in_span(x, q, norm)
                want = vertex_distance(x, q, norm)
                assert abs(got - want) <= 1e-12 * want, (n, r, got, want)
                assert got == vector_norm(x - point, norm)


# linprog (HiGHS) values for distance_case(np.random.default_rng(1309), n, r,
# False) drawn in this order, computed once; the tests do not need scipy
HIGHS_DISTANCES = [
    (8, 2, 6.6051293234219415, 1.7947509318775539),
    (12, 3, 7.2306461525664725, 1.2109940797499892),
    (16, 3, 10.393961551368445, 1.4197399041388472),
]


def test_real_l1_linf_distances_match_linear_programming():
    rng = np.random.default_rng(1309)
    for n, r, l1, linf in HIGHS_DISTANCES:
        x, q = distance_case(rng, n, r, False)
        assert nearest_in_span(x, q, L1)[0] == pytest.approx(l1, rel=1e-12)
        assert nearest_in_span(x, q, LINF)[0] == pytest.approx(linf, rel=1e-12)


def no_descent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact distance fell back to the descent")

    monkeypatch.setattr(stability, "_descent", refuse)


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
def test_exact_distance_to_coordinate_subspaces(norm, monkeypatch):
    # the Haar condition fails: most r x r minors are zero.  The distance
    # to span{e_i : i in idx} is the norm of x with those entries zeroed
    no_descent(monkeypatch)
    rng = np.random.default_rng(4)
    for n, idx in ((6, [1, 4]), (8, [0, 1, 2]), (5, [3])):
        q = np.eye(n)[:, idx]
        for x in rng.standard_normal((4, n)):
            dist, point = nearest_in_span(x, q, norm)
            off = x.copy()
            off[idx] = 0.0
            assert dist == vector_norm(off, norm)
            assert np.array_equal(point[idx], x[idx])


def test_degenerate_linf_rows_keep_the_smaller_descent_primal(monkeypatch):
    # span{e0 + e1, e2}: where a lone coordinate k >= 3 carries the best
    # functional, the levelled solve pins e0 and e1 to zero residual and
    # misses the optimum, which splits their difference.  Those rows fail
    # the duality check, and the descent's smaller primal replaces theirs
    rng = np.random.default_rng(1)
    q = np.zeros((7, 2))
    q[0, 0] = q[1, 0] = q[2, 1] = 1.0
    rows = rng.standard_normal((5, 7))
    descended = []
    original = stability._descent

    def spy(x, *args):
        descended.extend(map(tuple, x))
        return original(x, *args)

    monkeypatch.setattr(stability, "_descent", spy)
    dists, _ = _nearest_rows(rows, q, LINF)
    for x, dist in zip(rows, dists):
        want = max(abs(x[0] - x[1]) / 2.0, np.abs(x[3:]).max())
        assert dist == pytest.approx(want, rel=1e-9)
    assert 0 < len(descended) < len(rows)


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
def test_exact_distance_edge_cases(norm, monkeypatch):
    no_descent(monkeypatch)
    rng = np.random.default_rng(5)
    # x in the span: an exactly representable case gives exactly 0
    q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
    dist, point = nearest_in_span(np.array([2.0, 3.0, 5.0, 1.0]), q, norm)
    assert dist == 0.0
    assert np.array_equal(point, [2.0, 3.0, 5.0, 1.0])
    # an empty basis: the distance is ||x|| and the nearest point 0
    x = rng.standard_normal(5)
    dist, point = nearest_in_span(x, np.zeros((5, 0)), norm)
    assert dist == vector_norm(x, norm)
    assert np.array_equal(point, np.zeros(5))
    # N = r: the span is everything
    assert nearest_in_span(x, np.eye(5), norm)[0] == 0.0
    dist, _ = nearest_in_span(x, rng.standard_normal((5, 5)), norm)
    assert dist <= 1e-14 * vector_norm(x, norm)


def test_exact_distance_with_tied_references(monkeypatch):
    # the distance to the constants: in l-inf every pair of a largest and
    # a smallest entry is an optimal reference, in l1 both middle entries
    # of an even count are optimal interpolants.  Each batch row picks as
    # the one-row call does
    no_descent(monkeypatch)
    q = np.ones((6, 1))
    cases = (
        (LINF, [[1.0, -1.0, 1.0, -1.0, 1.0, -1.0], [2.0, 0.0, 2.0, 0.0, 1.0, 1.0], [3.0, 3.0, -3.0, -3.0, 0.0, 0.0]], [1.0, 1.0, 3.0]),
        (L1, [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [-2.0, 2.0, -1.0, 1.0, 5.0, -5.0], [0.5, 1.5, 2.5, -0.5, -1.5, -2.5]], [9.0, 16.0, 9.0]),
    )
    for norm, rows, want in cases:
        dists, points = _nearest_rows(np.array(rows), q, norm)
        assert dists == want
        for x, dist, point in zip(rows, dists, points):
            alone, alone_point = nearest_in_span(np.array(x), q, norm)
            assert dist == alone
            assert np.array_equal(point, alone_point)


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
def test_exact_distance_dual_meets_primal(norm):
    # weak duality, up to the rounding of the dual's own sum, and the gap
    # below which no row goes to the descent
    rng = np.random.default_rng(6)
    for n, r in ((8, 1), (12, 2), (16, 3)):
        _, q = distance_case(rng, n, r, False)
        x = rng.standard_normal((20, n))
        coeffs, dual = stability._basic_solutions(x, q, norm)
        primal = np.array([vector_norm(row, norm) for row in x - coeffs @ q.T])
        assert np.all(dual * (1.0 - 8.0 * EPS) <= primal), (n, r)
        assert np.all(primal <= dual * (1.0 + 1e-12)), (n, r)


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
def test_descent_serves_complex_and_over_budget_distances(norm, monkeypatch):
    calls = []
    original = stability._line_search

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(stability, "_line_search", counting)
    monkeypatch.setattr(stability, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(7)
    x, q = distance_case(rng, 8, 2, False)
    nearest_in_span(x, q, norm)
    assert not calls
    x, q = distance_case(rng, 8, 2, True)
    nearest_in_span(x, q, norm)
    assert calls
    calls.clear()
    # both enumerations of a 4-dimensional span in 40 coordinates exceed
    # BASIC_SOLUTION_BUDGET
    x, q = distance_case(rng, 40, 4, False)
    assert math.comb(40, 4) * (40 * 4 + 16 * 5) > stability.BASIC_SOLUTION_BUDGET
    nearest_in_span(x, q, norm)
    assert calls
    calls.clear()
    # a basis of deficient rank has no basic solutions
    nearest_in_span(x[:8], np.column_stack([q[:8, 0], q[:8, 0]]), norm)
    assert calls


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
def test_exact_distance_to_hyperplanes(norm, monkeypatch):
    # span = a^perp, so by duality the distance is |a.x| over the dual norm
    # of a: ||a||_inf in l1, ||a||_1 in l-inf.  With r = N - 1 >= 17 the
    # subsets are no longer small, and the answer is known in closed form
    no_descent(monkeypatch)
    rng = np.random.default_rng(8)
    for n in (18, 24, 30):
        a = rng.standard_normal(n)
        q = np.linalg.svd(a[None, :])[2][1:].T  # orthonormal basis of a^perp
        dual = np.abs(a).max() if norm is L1 else np.abs(a).sum()
        x = rng.standard_normal((4, n))
        dists, points = _nearest_rows(x, q, norm)
        for row, dist, point in zip(x, dists, points):
            assert dist == pytest.approx(abs(a @ row) / dual, rel=1e-12, abs=0.0), n
            assert abs(a @ point) <= 1e-12 * np.abs(x).sum()


def test_reduced_modulus_of_rank_one_in_max_norm():
    # T = u v^T: ||T x||_inf = |v.x| ||u||_inf and dist(x, ker T) = |v.x| /
    # ||v||_1 in l-inf, so every sample gives gamma = ||u||_inf ||v||_1.  The
    # kernel is 17-dimensional in N = 18
    rng = np.random.default_rng(9)
    u, v = rng.standard_normal(18), rng.standard_normal(18)
    est = reduced_minimum_modulus(np.outer(u, v), LINF, samples=8, seed=0)
    assert est.value == pytest.approx(np.abs(u).max() * np.abs(v).sum(), rel=1e-10)
    assert est.method == SAMPLED_UPPER_BOUND


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
def test_hyperplanes_past_the_budget_take_the_closed_form(norm, monkeypatch):
    # with N = 120 the basic solutions of a hyperplane are over budget in
    # both norms, so the distance and the nearest point come from the
    # normal; with N = 24 they are not, and the enumeration serves
    no_descent(monkeypatch)
    calls = []
    original = stability._hyperplane

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(stability, "_hyperplane", spy)
    rng = np.random.default_rng(12)
    for n in (24, 120):
        a = rng.standard_normal(n)
        q = np.linalg.svd(a[None, :])[2][1:].T
        dual = np.abs(a).max() if norm is L1 else np.abs(a).sum()
        x = rng.standard_normal((6, n))
        dists, points = _nearest_rows(x, q, norm)
        for row, dist, point in zip(x, dists, points):
            assert dist == pytest.approx(abs(a @ row) / dual, rel=1e-11, abs=0.0)
            assert abs(a @ point) <= 1e-12 * np.abs(x).sum()
        assert len(calls) == (n == 120), n


def test_reduced_modulus_of_rank_one_past_the_budget_in_max_norm():
    # the 100-dimensional kernel of a rank-1 matrix in N = 101 is a
    # hyperplane past the budget; gamma = ||u||_inf ||v||_1 as in N = 18
    rng = np.random.default_rng(10)
    u, v = rng.standard_normal(101), rng.standard_normal(101)
    est = reduced_minimum_modulus(np.outer(u, v), LINF, samples=8, seed=0)
    assert est.value == pytest.approx(np.abs(u).max() * np.abs(v).sum(), rel=1e-10)
    assert est.method == SAMPLED_UPPER_BOUND


@pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
@pytest.mark.parametrize("n, r", [(100, 97), (100, 3), (10_000, 1), (102, 101)])
def test_over_budget_enumerations_build_nothing(norm, n, r, monkeypatch):
    # C(100, 97) = 161,700 minors of size 97 x 97 would be about 12 GB, and
    # the 10,000 interpolants of a line in l1 would hold 10^8 fit-row floats:
    # such shapes go to the descent before any minor is taken
    def refuse(*args):
        raise AssertionError("an over-budget enumeration took its minors")

    monkeypatch.setattr(stability, "_minors", refuse)
    assert stability._basic_solutions(np.ones((2, n)), np.ones((n, r)), norm) is None


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("name", sorted(DISTANCE_NORMS))
def test_nearest_rows_are_batch_invariant(name, complex_data, monkeypatch):
    norm = DISTANCE_NORMS[name]
    rng = np.random.default_rng(7)
    _, q = distance_case(rng, 8, 2, complex_data)
    rows = np.array([distance_case(rng, 8, 1, complex_data)[0] for _ in range(5)])
    monkeypatch.setattr(stability, "_MAX_SWEEPS", 3 if complex_data else 6)
    dists, points = _nearest_rows(rows, q, norm)
    for x, dist, point in zip(rows, dists, points):
        alone, alone_point = nearest_in_span(x, q, norm)
        assert dist == alone
        assert np.array_equal(point, alone_point)


@pytest.mark.parametrize("name", sorted(DISTANCE_NORMS))
def test_line_search_cost_is_a_few_batched_rounds(name, monkeypatch):
    # from a unit bracket at tol 1e-10: one bracketing round and twelve
    # 8-fold shrinks, each one rowwise_norm call for every row and probe;
    # golden sections would make about 52 scalar norm calls per row
    norm = DISTANCE_NORMS[name]
    rng = np.random.default_rng(3)
    target = rng.uniform(-0.9, 0.9, 6)
    r = rng.standard_normal((6, 10))
    r[:, 0] = target  # a monotone norm of r - t e_0 is least at t = r_0
    e0 = np.zeros(10)
    e0[0] = 1.0
    calls = []
    original = stability.rowwise_norm

    def counting(rows, spec):
        calls.append(len(rows))
        return original(rows, spec)

    monkeypatch.setattr(stability, "rowwise_norm", counting)
    assert not hasattr(stability, "vector_norm")
    t = _line_search(r, e0, np.ones(6), norm)
    assert len(calls) <= 14, calls
    got = original(r - t[:, None] * e0, norm)
    # the bracket ends within about 1e-10 of the minimiser, and |f'| <= ||e_0|| = 1
    assert np.all(got <= original(r - target[:, None] * e0, norm) + 1e-9)


def test_line_search_grows_the_bracket_to_a_far_minimum():
    r = np.array([[300.0, 1.0], [-0.01, 2.0], [-5000.0, 0.0]])
    e0 = np.array([1.0, 0.0])
    t = _line_search(r, e0, np.full(3, 0.25), L1)
    np.testing.assert_allclose(t, r[:, 0], rtol=1e-9)


def scripted_sampler(stream, drawn):
    def sampler(norm, dim, seed):
        for v in stream:
            drawn.append(v)
            yield v

    return sampler


def test_gamma_draws_only_the_samples_it_needs(monkeypatch):
    # T kills the last two coordinates; draws inside that kernel are
    # skipped, and the stream is read up to the third kept draw and no
    # further, as one draw at a time reads it: batches of 3, 1 and 1
    norm = NormSpec.power(3.0)
    t = np.diag([1.0, 2.0, 0.0, 0.0])
    rng = np.random.default_rng(2)
    kept = [v / vector_norm(v, norm) for v in rng.standard_normal((6, 4))]
    in_kernel = [np.array([0.0, 0.0, 0.6, -0.8]), np.array([0.0, 0.0, 1.0, 0.0])]
    stream = [in_kernel[0], kept[0], kept[1], in_kernel[1], kept[2], kept[3], kept[4], kept[5], in_kernel[0]]
    drawn = []
    monkeypatch.setattr("schauderlab.kernel.unit_sphere_sampler", scripted_sampler(stream, drawn))
    est = reduced_minimum_modulus(t, norm, samples=3, seed=0)
    assert len(drawn) == 5
    assert est.trials == 3
    ratios = [vector_norm(t @ v, norm) / nearest_in_span(v, np.eye(4)[:, 2:], norm)[0] for v in kept[:3]]
    assert est.value == min(ratios)
    assert any(est.witness is v for v in kept[:3])


def test_gamma_gives_up_after_twenty_draws_per_sample(monkeypatch):
    t = np.diag([1.0, 0.0])
    drawn = []
    stream = [np.array([0.0, 1.0])] * 100
    monkeypatch.setattr("schauderlab.kernel.unit_sphere_sampler", scripted_sampler(stream, drawn))
    with pytest.raises(ConvergenceError):
        reduced_minimum_modulus(t, NormSpec.power(3.0), samples=2, seed=0)
    assert len(drawn) == 40


# ---------------------------------------------------------------------------
# openings


def test_opening_of_space_with_itself_is_zero():
    space = ModelSpace(2, L2)
    a = line(space, 0.3)
    rep = opening(a, a)
    assert rep.theta == 0.0
    assert rep.method == EXACT


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
    assert rep.method == SPECTRAL_EXACT
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


LAMBDA_AMBIENTS = {
    "exp:1": NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)),
    "pwl": NormSpec.orlicz(OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)])),
    "l3": NormSpec.power(3.0),
}


def estimate_bytes(est):
    return est.value, est.method, est.trials, est.lower_bound, np.asarray(est.witness).tobytes()


@pytest.mark.parametrize("name", sorted(LAMBDA_AMBIENTS))
def test_lambda_draws_one_sample_for_all_members(name, monkeypatch):
    # the 2K operator norms behind the threshold share one sampler stream,
    # and each equals its own operator_norm call bit for bit
    from schauderlab import kernel

    norm = LAMBDA_AMBIENTS[name]
    moved = perturbation_transport(make_coordinate_family(ModelSpace(12, norm), [2] * 6), 0.1, 3)
    members = np.concatenate([np.cumsum(moved.blocks, axis=0), moved.blocks])
    want = [kernel.operator_norm(m, norm) for m in members]
    streams = []
    original = kernel.unit_sphere_sampler

    def spy(*args):
        streams.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "unit_sphere_sampler", spy)
    rep = lambda_threshold(moved)
    assert len(streams) == 1
    assert rep.method == "certified-lower-bound"
    assert rep.sup_partial_sum_norm == max(est.value for est in want[:6])
    assert rep.sup_block_norm == max(est.value for est in want[6:])
    got = kernel._operator_norms(members, norm)
    assert len(streams) == 2
    assert [estimate_bytes(est) for est in got] == [estimate_bytes(est) for est in want]


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


def test_check_opening_condition_aggregates_in_the_lp_norm_at_large_p():
    # 0.0995**400 underflows: a raw power mean reads 0 and passes a
    # pair of openings that is above the budget 1/16
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    cands = [rotated_block_subspace(space, 0, 2, 0.0995), rotated_block_subspace(space, 1, 0, 0.0499)]
    rep = check_opening_condition(fam, cands, p=400.0)
    assert rep.threshold.value == 0.0625
    assert rep.aggregate == pytest.approx(0.0995, rel=1e-9)
    assert not rep.satisfied


def test_check_opening_condition_takes_the_sup_at_p_infinity():
    space = ModelSpace(4, L2)
    fam = make_coordinate_family(space, [2, 2])
    cands = [rotated_block_subspace(space, 0, 2, 0.0995), rotated_block_subspace(space, 1, 0, 0.0499)]
    rep = check_opening_condition(fam, cands, p=math.inf)
    assert rep.aggregate == max(r.theta for r in rep.openings)
    assert rep.aggregate == pytest.approx(0.0995, rel=1e-9)
    assert not rep.satisfied
    small = [rotated_block_subspace(space, 0, 2, 0.05), rotated_block_subspace(space, 1, 0, 0.06)]
    assert check_opening_condition(fam, small, p=math.inf).satisfied


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


@pytest.mark.parametrize("n", [8, 32, 64])
def test_kato_check_is_the_l2_stability_check(n):
    # on a coordinate base C is exactly 1, so 1/C is Kato's threshold
    fam = make_coordinate_family(ModelSpace(n, L2), [n // 4] * 4)
    for eps, seed in ((0.01, 1), (0.2, 2)):
        moved = perturbation_transport(fam, eps, seed)
        rep = kato_check(fam, moved)
        assert to_jsonable(rep) == to_jsonable(orlicz_stability_check(fam, moved, L2))
        assert rep.c_hilbertian == rep.threshold == 1.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kato_threshold_on_a_rotated_base_is_one_over_c(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
    fam = transport_family(q, make_coordinate_family(ModelSpace(8, L2), [2, 2, 2, 2]))
    rep = kato_check(fam, perturbation_transport(fam, 0.01, seed))
    assert rep.c_method == SPECTRAL_EXACT
    assert rep.threshold == 1.0 / rep.c_hilbertian
    assert abs(rep.threshold - 1.0) <= 1e-14


def test_kato_on_an_incomplete_base_never_meets_the_hypothesis():
    # orthogonal blocks that miss a coordinate: C = inf, so 1/C = 0
    fam = ProjectionFamily([np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 0.0])], ModelSpace(4, L2))
    rep = kato_check(fam, fam)
    assert (rep.c_hilbertian, rep.threshold, rep.sigma) == (math.inf, 0.0, 0.0)
    assert not rep.hypothesis_met and rep.verdict == "not invertible"


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


def test_kato_and_the_exact_unconditional_constant_share_one_orthogonality_test():
    # moved by 1e-10, a coordinate family has selfadjoint defect 4.5e-10:
    # above Kato's 1e-10 but below 1e-10 * N = 8e-10.  Kato refuses the base,
    # so unconditional_constant samples it instead of calling it exactly 1
    base = make_coordinate_family(ModelSpace(8, L2), [2, 2, 2, 2])
    moved = perturbation_transport(base, 1e-10, 3)
    with pytest.raises(ValueError, match="base family is not selfadjoint"):
        kato_check(moved, moved)
    est = unconditional_constant(moved)
    assert est.method == SAMPLED_LOWER_BOUND and est.trials == 64
    assert est.value == pytest.approx(1.0, abs=1e-8)


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


def test_gamma_takes_image_norms_in_one_rowwise_call_per_batch(monkeypatch):
    # an invertible T has no kernel, so no distance is solved: the image
    # norms of all samples come from one rowwise_norm call, none from
    # vector_norm, and the minimum ratio matches a one-at-a-time loop
    from schauderlab.kernel import unit_sphere_sampler

    norm = NormSpec.orlicz(OrliczFunction.scaled_exp(1.0))
    t = np.random.default_rng(9).standard_normal((5, 5))
    sampler = unit_sphere_sampler(norm, 5, 2)
    draws = [next(sampler) for _ in range(24)]
    ratios = [vector_norm(t @ x, norm) for x in draws]
    calls = []
    original = stability.rowwise_norm

    def counting(rows, spec):
        calls.append(len(rows))
        return original(rows, spec)

    monkeypatch.setattr(stability, "rowwise_norm", counting)
    assert not hasattr(stability, "vector_norm")
    est = reduced_minimum_modulus(t, norm, samples=24, seed=2)
    assert calls == [24]
    assert est.trials == 24
    assert est.value == pytest.approx(min(ratios), rel=1e-14)
    assert np.array_equal(est.witness, draws[int(np.argmin(ratios))])


# ---------------------------------------------------------------------------
# sample counts


def sampled_calls(norm):
    """Every sampled entry point on a small family in ``norm``, with the
    least sample count it accepts: 1 where the samples are its only
    candidates, 0 where its result stands without them."""
    space = ModelSpace(4, norm)
    fam = make_coordinate_family(space, [2, 2])
    moved = transport_family(np.eye(4) + 0.05 * np.random.default_rng(1).standard_normal((4, 4)), fam)
    sup = make_coordinate_family(ModelSpace(4, NormSpec.max_norm()), [2, 2])
    sup_moved = transport_family(np.eye(4) + 0.01 * np.random.default_rng(2).standard_normal((4, 4)), sup)
    a, b = Subspace(np.eye(4)[:, :2], space), Subspace(moved.blocks[0][:, :2], space)
    return {
        "hilbertian_constant": (1, lambda s: hilbertian_constant(fam, L2, samples=s)),
        "besselian_constant": (1, lambda s: besselian_constant(fam, L2, samples=s)),
        "unconditional_constant": (1, lambda s: unconditional_constant(fam, "signs", samples=s)),
        "perturbation_sigma": (1, lambda s: perturbation_sigma(fam, moved, L2, samples=s)),
        "orlicz_stability_check": (1, lambda s: orlicz_stability_check(fam, moved, L2, samples=s)),
        "orlicz_stability_check/supplied": (1, lambda s: orlicz_stability_check(fam, moved, L2, 2.0, samples=s)),
        "c0_stability_check": (1, lambda s: c0_stability_check(sup, sup_moved, 1.0, samples=s)),
        "reduced_minimum_modulus": (1, lambda s: reduced_minimum_modulus(np.eye(4) - fam.blocks[0], norm, samples=s)),
        "opening": (0, lambda s: opening(a, b, samples=s)),
        "check_opening_condition": (0, lambda s: check_opening_condition(fam, [a, b], 2.0, samples=s)),
        "type_cotype_check": (0, lambda s: type_cotype_check(fam, L2, 0.5, L2, 2.0, samples=s)),
    }


@pytest.mark.parametrize("name", sorted(sampled_calls(L2)))
@pytest.mark.parametrize("ambient", ["l2", "l3"])
def test_sample_counts_follow_one_rule(ambient, name):
    # a negative count is refused everywhere, and zero wherever no other
    # candidate exists, before any euclidean shortcut could hide it
    least, call = sampled_calls({"l2": L2, "l3": NormSpec.power(3.0)}[ambient])[name]
    with pytest.raises(ValueError, match="samples must be >= "):
        call(-1)
    if least == 1:
        with pytest.raises(ValueError, match="samples must be >= 1"):
            call(0)
    call(least)
