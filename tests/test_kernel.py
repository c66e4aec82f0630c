"""Tests for the shared numerical kernel: operator norms, inversion
diagnostics, samplers."""

import ast
import dataclasses
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from schauderlab import geometry, kernel, stability
from schauderlab.decomposition import (
    ModelSpace,
    make_coordinate_family,
    range_subspace,
    selfadjoint_defect,
    transport_family,
    validate_family,
)
from schauderlab.documents import perturbation_transport
from schauderlab.errors import ConvergenceError
from schauderlab.kernel import (
    CERTIFIED_UPPER_BOUND,
    EXACT_ENUMERATION,
    SPECTRAL_EXACT,
    ConstantEstimate,
    _sampled_search,
    _span_rows,
    invert_with_condition,
    operator_norm,
    spectral_norm,
    unit_sphere_sampler,
)
from schauderlab.orlicz import NormSpec, OrliczFunction, vector_norm
from schauderlab.stability import build_similarity


# ---------------------------------------------------------------------------
# spectral norm and inversion


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


def random_stack(rng, k, n, *, log_mag=(-16.0, 3.0), complex_=False):
    """k members of size n x n at magnitudes 10^log_mag, each member at
    random kept dense, made rank-1, zeroed or copied from its neighbour."""
    m = rng.standard_normal((k, n, n))
    if complex_:
        m = m + 1j * rng.standard_normal((k, n, n))
    m = m * 10.0 ** rng.uniform(*log_mag, size=(k, 1, 1))
    for i in range(k):
        kind = rng.integers(4)
        if kind == 1:
            m[i] = np.outer(m[i, :, 0], m[i, 0, :] / np.abs(m[i, 0, :]).max())
        elif kind == 2:
            m[i] = 0.0
        elif kind == 3 and i > 0:
            m[i] = m[i - 1]
    return m


def full_stack_norm(m):
    return float(np.linalg.norm(m, 2, axis=(-2, -1)).max())


def test_spectral_norm_of_stack_is_the_full_maximum_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(400):
        k, n = int(rng.integers(1, 10)), int(rng.integers(1, 9))
        m = random_stack(rng, k, n, complex_=trial % 3 == 0)
        assert spectral_norm(m) == full_stack_norm(m), trial
        four_d = np.stack([m, m[::-1] * 0.5])
        assert spectral_norm(four_d) == full_stack_norm(four_d), trial


def test_spectral_norm_rank_one_ties():
    # rank-1 members with permuted, transposed or negated factors share sigma
    # and ||.||_F in exact arithmetic, and each computed Frobenius norm may
    # round below a computed sigma: the margin must still factorise them all
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        p, q = rng.permutation(n), rng.permutation(n)
        m = np.stack([np.outer(u, v), np.outer(v, u), np.outer(u[p], v[q]), -np.outer(u, v[q])])
        assert spectral_norm(m) == full_stack_norm(m)


def test_spectral_norm_tiny_entries_do_not_underflow():
    # squares of entries near 1e-170 underflow; the Frobenius bound must not
    # fall below sigma there
    rng = np.random.default_rng(13)
    for trial in range(100):
        m = random_stack(rng, 6, 4, log_mag=(-200.0, -150.0), complex_=trial % 2 == 0)
        assert spectral_norm(m) == full_stack_norm(m), trial


def test_spectral_norm_subnormal_members_take_the_full_path():
    # sixteen entries (1+1j) * 2^-1074 form a rank-1 member with sigma
    # 5.66 subnormal steps (rounded to 6), but each |entry| rounds to one
    # step, so its Frobenius norm from magnitudes would be 4 steps and a
    # member of exactly 5 steps would hide it
    step = np.nextafter(0.0, 1.0)
    hidden = np.full((4, 4), (1.0 + 1.0j) * step)
    decoy = np.zeros((4, 4), dtype=complex)
    decoy[0, 0] = 5.0 * step
    m = np.stack([decoy, hidden])
    assert spectral_norm(m) == full_stack_norm(m) == 6.0 * step


def test_spectral_norm_non_finite_and_empty_stacks():
    m = np.ones((3, 4, 4))
    m[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        spectral_norm(m)
    m[1, 0, 0] = np.inf
    assert math.isnan(spectral_norm(m))
    assert math.isnan(spectral_norm(m.astype(complex)))
    assert spectral_norm(np.zeros((0, 4, 4))) == 0.0
    assert spectral_norm(np.zeros((3, 0, 0))) == 0.0


def count_spectral_svds(monkeypatch) -> list[int]:
    """Matrices factorised by ``spectral_norm``'s own calls: its per-member
    SVDs and its full-path 2-norms (single matrices, non-finite stacks)."""
    counts: list[int] = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def members(a) -> int:
        return int(np.prod(np.shape(a)[:-2], dtype=int))

    def counting_svd(a, *args, **kwargs):
        if sys._getframe(1).f_code is spectral_norm.__code__:
            counts.append(members(a))
        return svd(a, *args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and sys._getframe(1).f_code is spectral_norm.__code__:
            counts.append(members(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return counts


def benchmark_families(seed: int):
    # the CLI benchmark's shape: N=64, K=16 coordinate blocks, transported
    p = make_coordinate_family(ModelSpace(64, NormSpec.power(2.0)), [4] * 16)
    return p, perturbation_transport(p, 0.02, seed)


def test_validate_family_prunes_its_spectral_norms(monkeypatch):
    _, j = benchmark_families(2024)
    counts = count_spectral_svds(monkeypatch)
    report = validate_family(j)
    # 16 idempotency + 16 * 15 cross + 1 completeness = 257 without pruning
    assert 1 <= sum(counts) <= 60, sum(counts)
    assert report.ok


def test_build_similarity_prunes_its_residual(monkeypatch):
    counts = count_spectral_svds(monkeypatch)
    per_seed = []
    for seed in range(16):
        counts.clear()
        report = build_similarity(*benchmark_families(seed))
        assert report.verdict == "similar"
        per_seed.append(sum(counts))
    # 16 residual members + 1 inversion residual = 17 each without pruning.
    # The residual members are rounding noise with ||R||_F about 4 ||R||_2,
    # so a single seed may need up to about 11; the bound is on the median.
    assert min(per_seed) >= 1 and float(np.median(per_seed)) <= 6, per_seed


def test_zero_stack_factorises_nothing(monkeypatch):
    p, _ = benchmark_families(2024)
    counts = count_spectral_svds(monkeypatch)
    assert selfadjoint_defect(p) == 0.0
    assert spectral_norm(np.zeros((5, 3, 3))) == 0.0
    assert counts == []


def test_invert_known_matrix():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    res = invert_with_condition(m)
    assert not res.singular
    assert res.condition == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(res.inverse, np.diag([0.5, 0.25]), atol=1e-14)
    assert np.linalg.norm(m @ res.inverse - np.eye(2), 2) <= 1e-12


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


def test_every_tag_string_lives_in_kernel_only():
    # a tag spelled out anywhere else would be a second vocabulary
    assert len(set(kernel.METHODS)) == len(kernel.METHODS) == 8
    homes = {tag: [] for tag in kernel.METHODS}
    for path in sorted(Path(kernel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in homes:
                homes[node.value].append(path.name)
    assert homes == {tag: ["kernel.py"] for tag in kernel.METHODS}


def _method_tags(report) -> list[str]:
    """Every ``method`` or ``*_method`` field set in a report, nested reports included."""
    if dataclasses.is_dataclass(report):
        tags = []
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if (field.name == "method" or field.name.endswith("_method")) and value is not None:
                tags.append(value)
            tags += _method_tags(value)
        return tags
    if isinstance(report, (tuple, list)):
        return [tag for item in report for tag in _method_tags(item)]
    return []


SWEEP_AMBIENTS = {
    "l1": NormSpec.power(1.0),
    "l2": NormSpec.power(2.0),
    "max": NormSpec.max_norm(),
    "exp:1": NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)),
}


def _reports(ambient: NormSpec, scalars: str) -> list:
    """One report of every public function that tags its result, on a
    4-dimensional two-block family and a small transport of it, with the
    ambient as the aggregate."""
    space = ModelSpace(4, ambient, scalars=scalars)
    fam = make_coordinate_family(space, [2, 2])
    rng = np.random.default_rng(7)
    t = rng.standard_normal((4, 4)) + (1j * rng.standard_normal((4, 4)) if scalars == "complex" else 0.0)
    moved = transport_family(np.eye(4) + 0.01 * t, fam)
    ranges = [range_subspace(b, space) for b in moved.blocks]
    vectors = list(moved.blocks[0] + moved.blocks[1])
    reports = [
        kernel.operator_norm(moved.blocks[0], ambient),
        geometry.min_max_sign_norm(vectors, ambient, "min"),
        geometry.min_max_sign_norm(vectors, ambient, "max"),
        *(geometry.unconditional_constant(f, mode, samples=4) for f in (fam, moved) for mode in ("zero-one", "signs")),
        stability.opening(range_subspace(fam.blocks[0], space), range_subspace(fam.blocks[0], space), samples=4),
        stability.opening(range_subspace(fam.blocks[0], space), ranges[0], samples=4),
        stability.lambda_threshold(moved),
        stability.check_opening_condition(fam, ranges, 2.0, samples=4),
        stability.build_similarity(fam, moved),
        stability.reduced_minimum_modulus(moved.blocks[0], ambient, samples=4),
        geometry.hilbertian_constant(moved, ambient, samples=4),
        geometry.besselian_constant(moved, ambient, samples=4),
        stability.perturbation_sigma(fam, moved, ambient, samples=4),
        stability.orlicz_stability_check(fam, moved, ambient, samples=4),
        stability.orlicz_stability_check(fam, moved, ambient, hilbertian=1.5, samples=4),
    ]
    if ambient.power_exponent() == 2.0:
        reports += [geometry.riesz_constant(moved), stability.kato_check(fam, moved)]
    if ambient.variant == "max":
        reports.append(stability.c0_stability_check(fam, moved, 1.0, samples=4))
    return reports


def test_every_report_tag_is_a_kernel_tag():
    seen = set()
    for name, ambient in SWEEP_AMBIENTS.items():
        for scalars in ("real", "complex"):
            tags = _method_tags(_reports(ambient, scalars))
            assert set(tags) <= set(kernel.METHODS), (name, scalars, tags)
            seen |= set(tags)
    # the sweep reaches every tag, so none is left unchecked
    assert seen == set(kernel.METHODS)


# ---------------------------------------------------------------------------
# column-by-column spans


def span_rows_by_new_arrays(coeffs, q):
    """_span_rows as a fresh array per column: out = out + c_j * q_j."""
    out = np.zeros((coeffs.shape[0], q.shape[0]), dtype=np.result_type(coeffs, q))
    for j in range(q.shape[1]):
        out = out + coeffs[:, j, None] * q[:, j]
    return out


def same_bits(a, b):
    parts = (lambda z: (z.real, z.imag)) if np.iscomplexobj(a) else (lambda z: (z,))
    return a.dtype == b.dtype and all(
        np.array_equal(u, v) and np.array_equal(np.signbit(u), np.signbit(v)) for u, v in zip(parts(a), parts(b))
    )


@pytest.mark.parametrize("kinds", [("real", "real"), ("real", "complex"), ("complex", "real"), ("complex", "complex")])
@pytest.mark.parametrize("rows", [1, 24, 216])
def test_span_rows_in_place_keeps_every_bit(kinds, rows):
    # signed zeros and underflowing products in both factors give -0.0
    # products, which the +0.0 start absorbs
    rng = np.random.default_rng(rows)

    def draw(kind, shape):
        x = rng.standard_normal(shape) * rng.choice([-0.0, 0.0, 1e-200, 1.0, 1e100], size=shape)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(shape) * rng.choice([-0.0, 0.0, 1.0], size=shape)
        return x

    coeffs, q = draw(kinds[0], (rows, 5)), draw(kinds[1], (9, 5))
    q[:, 0] = -0.0
    assert same_bits(_span_rows(coeffs, q), span_rows_by_new_arrays(coeffs, q))


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


SAMPLER_SPECS = {
    "l3": NormSpec.power(3.0),
    "max": NormSpec.max_norm(),
    "exp:1": NormSpec.orlicz(OrliczFunction.scaled_exp(1.0)),
    "pwl": NormSpec.orlicz(OrliczFunction.piecewise_linear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0)])),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SPECS))
def test_sampler_blocks_match_one_draw_at_a_time(name):
    # 300 draws cross the block edges 8, 24, 56, 120 and 248; each equals
    # the Gaussian draw divided by its vector_norm, to the last bit
    spec = SAMPLER_SPECS[name]
    rng = np.random.default_rng(11)
    want = []
    while len(want) < 300:
        g = rng.standard_normal(5)
        want.append(g / vector_norm(g, spec))
    sampler = unit_sphere_sampler(spec, 5, 11)
    for x in want:
        np.testing.assert_array_equal(next(sampler), x)


def test_sampler_solves_orlicz_norms_by_blocks(monkeypatch):
    # 64 draws take blocks of 8, 16, 32 and 64 rows: four row solves, not 64
    from schauderlab import orlicz

    calls = []
    original = orlicz._luxemburg_rows

    def counting(phi, rows):
        calls.append(len(rows))
        return original(phi, rows)

    monkeypatch.setattr(orlicz, "_luxemburg_rows", counting)
    sampler = unit_sphere_sampler(SAMPLER_SPECS["exp:1"], 6, 3)
    for _ in range(64):
        next(sampler)
    assert len(calls) <= 4, calls


def test_sampler_normalises_through_rowwise_norm(monkeypatch):
    # 48 draws take the blocks of 8, 16 and 32 rows, each one call of the
    # public row kernel, where the trace counts its rows
    calls = []
    original = kernel.rowwise_norm

    def counting(rows, norm):
        calls.append(len(rows))
        return original(rows, norm)

    monkeypatch.setattr(kernel, "rowwise_norm", counting)
    sampler = unit_sphere_sampler(SAMPLER_SPECS["exp:1"], 6, 3)
    for _ in range(48):
        next(sampler)
    assert calls == [8, 16, 32]


def test_kernel_imports_only_at_module_level():
    # kernel builds on orlicz at the top of the module, with no deferred
    # import working round a cycle
    tree = ast.parse(Path(kernel.__file__).read_text())
    nested = [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


# ---------------------------------------------------------------------------
# the sampled search


def scripted_stream(monkeypatch, values):
    """The sampler replaced by one 1-vector per value; returns the vectors
    and the list the draws are appended to."""
    stream = [np.array([v]) for v in values]
    drawn = []

    def sampler(norm, dim, seed):
        for x in stream:
            drawn.append(x)
            yield x

    monkeypatch.setattr(kernel, "unit_sphere_sampler", sampler)
    return stream, drawn


def first_entry(calls):
    """A row objective that records its batch sizes: each row's entry, NaN
    where it is negative."""

    def objective(xs):
        calls.append(len(xs))
        return np.where(xs[:, 0] >= 0, xs[:, 0], math.nan)

    return objective


def test_sampled_search_refills_nan_draws_from_the_same_stream(monkeypatch):
    # 3 samples: the first batch of 3 keeps 1, the refill of 2 keeps 1, the
    # refill of 1 keeps the last; the stream is read no further
    stream, drawn = scripted_stream(monkeypatch, [-1.0, 2.0, -3.0, 4.0, -5.0, 6.0, 7.0])
    calls = []
    ranked = _sampled_search(first_entry(calls), NormSpec.power(3.0), 1, 3, 0, maximize=True)
    assert calls == [3, 2, 1]
    assert len(drawn) == 6
    assert [v for v, _ in ranked] == [6.0, 4.0, 2.0]
    assert all(isinstance(v, float) for v, _ in ranked)
    assert [x for _, x in ranked] == [stream[5], stream[3], stream[1]]
    assert all(x is stream[i] for (_, x), i in zip(ranked, (5, 3, 1)))


@pytest.mark.parametrize("maximize", [True, False])
def test_sampled_search_ties_keep_the_earlier_draw(monkeypatch, maximize):
    stream, _ = scripted_stream(monkeypatch, [1.0, 3.0, 1.0, 3.0])
    ranked = _sampled_search(first_entry([]), NormSpec.power(3.0), 1, 4, 0, maximize=maximize)
    order = (1, 3, 0, 2) if maximize else (0, 2, 1, 3)
    assert all(x is stream[i] for (_, x), i in zip(ranked, order))


def test_sampled_search_keeps_what_it_found_within_twenty_draws_per_sample(monkeypatch):
    _, drawn = scripted_stream(monkeypatch, [-1.0] * 39 + [5.0, 6.0])
    calls = []
    ranked = _sampled_search(first_entry(calls), NormSpec.power(3.0), 1, 2, 0, maximize=False)
    assert len(drawn) == 40 and calls == [2] * 20
    assert [v for v, _ in ranked] == [5.0]


def test_sampled_search_raises_when_no_draw_is_kept(monkeypatch):
    _, drawn = scripted_stream(monkeypatch, [-1.0] * 100)
    with pytest.raises(ConvergenceError):
        _sampled_search(first_entry([]), NormSpec.power(3.0), 1, 2, 0, maximize=True)
    assert len(drawn) == 40


def test_sampled_search_ranks_each_member_as_if_alone(monkeypatch):
    # member 0 scores negative draws NaN and member 1 positive ones: each
    # keeps its own first 3 draws with a value, refills go on while one of
    # them is short, and each ranking is the one it gets searched alone
    values = [-1.0, 2.0, -3.0, 4.0, -5.0, 6.0, 7.0, -8.0]

    def both(xs):
        return np.stack([np.where(xs[:, 0] >= 0, xs[:, 0], math.nan), np.where(xs[:, 0] < 0, -xs[:, 0], math.nan)])

    alone = []
    for member in range(2):
        scripted_stream(monkeypatch, values)
        alone.append(_sampled_search(lambda xs: both(xs)[member], NormSpec.power(3.0), 1, 3, 0, maximize=True))
    stream, drawn = scripted_stream(monkeypatch, values)
    ranked = _sampled_search(both, NormSpec.power(3.0), 1, 3, 0, maximize=True)
    assert len(drawn) == 6
    assert [[v for v, _ in r] for r in ranked] == [[6.0, 4.0, 2.0], [5.0, 3.0, 1.0]]
    for got, want, order in zip(ranked, alone, ((5, 3, 1), (4, 2, 0))):
        assert [(v, x.tolist()) for v, x in got] == [(v, x.tolist()) for v, x in want]
        assert all(x is stream[i] for (_, x), i in zip(got, order))


def test_sphere_searches_go_through_the_sampled_search():
    # the three sup/inf searches with no closed form each make one call to
    # the one helper, and none draws from the sampler itself
    for fn in (geometry._sampled_extremum, kernel._operator_norms, stability.reduced_minimum_modulus):
        called = [
            node.func.id
            for node in ast.walk(ast.parse(inspect.getsource(fn).lstrip()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert called.count("_sampled_search") == 1, fn.__name__
        assert "unit_sphere_sampler" not in called, fn.__name__
    assert not hasattr(stability, "unit_sphere_sampler")


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
    est = operator_norm(m, spec)
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


@pytest.mark.parametrize(
    "spec",
    [NormSpec.power(3.0), NormSpec.power(1.5), NormSpec.orlicz(OrliczFunction.scaled_exp(1.0))],
    ids=["l3", "l1.5", "exp:1"],
)
def test_operator_norm_scores_its_samples_in_one_rowwise_call(spec, monkeypatch):
    # the same sampler draws as a one-at-a-time loop: four sampler blocks,
    # then one rowwise_norm call that scores all of them, and the first
    # largest draw as witness
    rng = np.random.default_rng(12)
    m = rng.standard_normal((6, 6))
    sampler = unit_sphere_sampler(spec, 6, 0)
    draws = [next(sampler) for _ in range(64)]
    values = [vector_norm(m @ x, spec) for x in draws]
    first = int(np.argmax(values))
    calls = []
    original = kernel.rowwise_norm

    def counting(rows, norm):
        calls.append(len(rows))
        return original(rows, norm)

    monkeypatch.setattr(kernel, "rowwise_norm", counting)
    est = operator_norm(m, spec)
    assert calls == [8, 16, 32, 64, 64]
    assert est.method == CERTIFIED_UPPER_BOUND and est.trials == 64
    assert est.lower_bound == pytest.approx(values[first], rel=1e-14)
    assert np.array_equal(est.witness, draws[first])
