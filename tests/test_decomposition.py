"""Projection families: construction, validation, expansion, transport."""
import numpy as np
import pytest

from schauderlab.decomposition import (
    ModelSpace,
    ProjectionFamily,
    Subspace,
    expand,
    family_rank,
    make_coordinate_family,
    range_subspace,
    selfadjoint_defect,
    transport_family,
    validate_family,
)
from schauderlab.errors import SingularMatrixError
from schauderlab.orlicz import NormSpec


def oblique_projection(b, c):
    """Projection onto span(b) along the complement of span(c).

    The textbook formula B (C^H B)^{-1} C^H; used as an independent
    oracle for non-orthogonal families.
    """
    b = np.atleast_2d(b)
    c = np.atleast_2d(c)
    return b @ np.linalg.solve(c.conj().T @ b, c.conj().T)


def two_block_oblique(space):
    b = np.array([[1.0], [0.2]])
    c = np.array([[1.0], [-0.3]])
    p0 = oblique_projection(b, c)
    p1 = np.eye(2) - p0
    return ProjectionFamily([p0, p1], space)


# ---------------------------------------------------------------------------
# spaces


def test_model_space_rejects_bad_dim():
    with pytest.raises(ValueError):
        ModelSpace(0, NormSpec.power(2.0))


def test_model_space_dtype():
    assert ModelSpace(3, NormSpec.power(2.0)).dtype is float
    assert ModelSpace(3, NormSpec.power(2.0), scalars="complex").dtype is complex


# ---------------------------------------------------------------------------
# coordinate families


def test_coordinate_family_blocks():
    space = ModelSpace(5, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 3])
    assert fam.block_count == 2
    assert isinstance(fam.blocks, np.ndarray)
    assert fam.blocks.shape == (2, 5, 5)
    assert fam.blocks.dtype == np.float64
    np.testing.assert_array_equal(fam.blocks[0], np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(fam.blocks[1], np.diag([0.0, 0.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        fam.blocks[0, 0, 0] = 2.0


def test_coordinate_family_sizes_must_cover():
    space = ModelSpace(5, NormSpec.power(2.0))
    with pytest.raises(ValueError):
        make_coordinate_family(space, [2, 2])
    with pytest.raises(ValueError):
        make_coordinate_family(space, [0, 5])


def test_validate_coordinate_family():
    space = ModelSpace(6, NormSpec.power(1.0))
    fam = make_coordinate_family(space, [1, 2, 3])
    report = validate_family(fam)
    assert report.ok
    assert report.idempotency_defect == 0.0
    assert report.cross_defect == 0.0
    assert report.completeness_defect == 0.0
    assert report.ranks == (1, 2, 3)
    assert report.tolerance == pytest.approx(6e-10)


def test_validate_oblique_family():
    space = ModelSpace(2, NormSpec.power(2.0))
    fam = two_block_oblique(space)
    report = validate_family(fam)
    assert report.ok
    assert report.ranks == (1, 1)
    # oblique: idempotent but not selfadjoint
    assert selfadjoint_defect(fam) > 0.01


def test_validate_catches_corruption():
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2])
    blocks = [b.copy() for b in fam.blocks]
    blocks[0][0, 1] += 1e-3  # idempotent still, but cross terms appear
    bad = ProjectionFamily(blocks, space)
    report = validate_family(bad)
    assert not report.ok
    assert max(report.idempotency_defect, report.cross_defect, report.completeness_defect) > 1e-4


@pytest.mark.parametrize("reverse", [False, True])
def test_validate_catches_one_sided_cross_term(reverse):
    # P_0 P_2 = a e_0 e_2^T while P_2 P_0 = 0, so exactly one ordered
    # product is nonzero: j > i in the given order, j < i when reversed
    space = ModelSpace(3, NormSpec.power(2.0))
    a = 1e-3
    p0 = np.diag([1.0, 0.0, 0.0])
    p0[0, 2] = a
    blocks = [p0, np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    report = validate_family(ProjectionFamily(blocks[::-1] if reverse else blocks, space))
    assert not report.ok
    assert report.idempotency_defect == 0.0
    assert report.cross_defect == pytest.approx(a, rel=1e-12)


def test_validate_incomplete_family_flag():
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2])
    partial = ProjectionFamily([fam.blocks[0]], space)
    strict = validate_family(partial)
    assert not strict.ok
    relaxed = validate_family(partial, require_completeness=False)
    assert relaxed.ok
    assert not relaxed.completeness_required


def test_family_rejects_wrong_shapes():
    space = ModelSpace(3, NormSpec.power(2.0))
    with pytest.raises(ValueError):
        ProjectionFamily([np.eye(2)], space)
    with pytest.raises(ValueError):
        ProjectionFamily([], space)
    with pytest.raises(ValueError):
        ProjectionFamily([np.full((3, 3), np.nan)], space)
    # errors name the offending block
    with pytest.raises(ValueError, match=r"block 1 has shape \(2, 2\)"):
        ProjectionFamily([np.eye(3), np.eye(2)], space)
    with pytest.raises(ValueError, match="block 2 has non-finite entries"):
        ProjectionFamily([np.eye(3), np.eye(3), np.diag([1.0, np.inf, 0.0])], space)
    with pytest.raises(ValueError, match="block 1 is identically zero"):
        ProjectionFamily([np.eye(3), np.zeros((3, 3))], space)


def test_real_space_rejects_complex_entries():
    space = ModelSpace(2, NormSpec.power(2.0))
    with pytest.raises(ValueError, match="imaginary"):
        ProjectionFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 1e-3j])], space)
    with pytest.raises(ValueError, match="imaginary"):
        Subspace(np.array([[1.0], [1j]]), space)
    fam = make_coordinate_family(space, [1, 1])
    with pytest.raises(ValueError, match="imaginary"):
        transport_family(np.array([[1.0, 0.1j], [0.0, 1.0]]), fam)
    # a zero imaginary part is no loss, so it is accepted
    real = ProjectionFamily([np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0])], space)
    assert real.blocks.dtype == np.float64


# ---------------------------------------------------------------------------
# expansion


def test_expand_reconstructs():
    space = ModelSpace(6, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2, 2])
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(6)
        res = expand(x, fam)
        assert res.components.shape == (3, 6)
        np.testing.assert_allclose(res.components.sum(axis=0), x, atol=1e-12)
        assert res.defect <= 1e-12


def test_expand_is_linear():
    space = ModelSpace(2, NormSpec.power(2.0))
    fam = two_block_oblique(space)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    a, b = 1.7, -0.4
    combined = expand(a * x + b * y, fam)
    fx, fy = expand(x, fam), expand(y, fam)
    for c, cx, cy in zip(combined.components, fx.components, fy.components):
        np.testing.assert_allclose(c, a * cx + b * cy, atol=1e-12)


def test_expand_components_live_in_ranges():
    # P_i applied to its own component is the component again
    space = ModelSpace(2, NormSpec.power(2.0))
    fam = two_block_oblique(space)
    x = np.array([0.3, -1.2])
    res = expand(x, fam)
    for i, comp in enumerate(res.components):
        np.testing.assert_allclose(fam.blocks[i] @ comp, comp, atol=1e-12)


# ---------------------------------------------------------------------------
# transport


def test_transport_by_scaled_identity_is_identity_on_blocks():
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2])
    moved = transport_family(2.0 * np.eye(4), fam)
    for a, b in zip(moved.blocks, fam.blocks):
        np.testing.assert_array_equal(a, b)


def test_transport_preserves_family_axioms():
    space = ModelSpace(6, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2, 2])
    rng = np.random.default_rng(21)
    s = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    moved = transport_family(s, fam)
    report = validate_family(moved)
    assert report.ok
    assert report.ranks == (2, 2, 2)


def test_transport_rejects_singular():
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2])
    s = np.eye(4)
    s[3, 3] = 0.0
    with pytest.raises(SingularMatrixError):
        transport_family(s, fam)


def test_transport_conjugation_identity():
    # moved blocks are exactly S P S^-1
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [1, 3])
    rng = np.random.default_rng(2)
    s = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    moved = transport_family(s, fam)
    s_inv = np.linalg.inv(s)
    for moved_block, block in zip(moved.blocks, fam.blocks):
        np.testing.assert_allclose(moved_block, s @ block @ s_inv, atol=1e-10)


# ---------------------------------------------------------------------------
# subspaces and ranges


def test_subspace_requires_full_column_rank():
    space = ModelSpace(3, NormSpec.power(2.0))
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]), space)


def test_subspace_refuses_more_columns_than_rows():
    # three columns in the plane are dependent, although all singular values are large
    space = ModelSpace(2, NormSpec.power(2.0))
    with pytest.raises(ValueError, match="numerically dependent"):
        Subspace(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), space)
    assert Subspace(np.eye(2), space).dim == 2


def test_subspace_orthonormal_basis():
    space = ModelSpace(3, NormSpec.power(2.0))
    sub = Subspace(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), space)
    q = sub.orthonormal_basis
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_range_subspace_of_coordinate_block():
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2])
    sub = range_subspace(fam.blocks[0], space)
    assert sub.dim == 2
    q = sub.orthonormal_basis
    # the range is the first two coordinates
    np.testing.assert_allclose(q[2:], 0.0, atol=1e-12)


def test_range_subspace_trace_cross_check():
    space = ModelSpace(3, NormSpec.power(2.0))
    # not a projection at all: trace and rank disagree badly
    with pytest.raises(ValueError):
        range_subspace(np.diag([0.5, 0.5, 0.5]), space)


def test_family_rank():
    assert family_rank(np.diag([1.0, 1.0, 0.0])) == 2
    assert family_rank(np.zeros((3, 3))) == 0


# ---------------------------------------------------------------------------
# complex scalars


def test_complex_family_transport():
    space = ModelSpace(4, NormSpec.power(2.0), scalars="complex")
    fam = make_coordinate_family(space, [2, 2])
    rng = np.random.default_rng(33)
    s = np.eye(4) + 0.1 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    moved = transport_family(s, fam)
    assert moved.blocks.shape == (2, 4, 4)
    assert moved.blocks.dtype == np.complex128
    assert not moved.blocks.flags.writeable
    report = validate_family(moved)
    assert report.ok
    # conjugating a real family by a complex map keeps ranks
    assert report.ranks == (2, 2)


def test_selfadjoint_defect_zero_for_orthogonal():
    space = ModelSpace(4, NormSpec.power(2.0))
    fam = make_coordinate_family(space, [2, 2])
    assert selfadjoint_defect(fam) == 0.0
