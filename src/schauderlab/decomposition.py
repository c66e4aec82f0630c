"""Finite projection families and the subspaces they carve out.

A family is one stacked (K, N, N) array of blocks P_0 ... P_{K-1}
acting on a model space, so every sum over the blocks is a stacked
matmul or a reduction over the first axis.  A valid family is
idempotent blockwise, mutually annihilating, and complete (the blocks
sum to the identity); validation measures the defect of each property
in spectral norm instead of assuming it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularMatrixError
from .kernel import InversionResult, invert_with_condition, spectral_norm
from .orlicz import NormSpec, vector_norm

RANK_REL_THRESHOLD = 1e-10


@dataclass(frozen=True)
class ModelSpace:
    dim: int
    norm: NormSpec
    scalars: str = "real"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.scalars not in ("real", "complex"):
            raise ValueError(f"scalars must be 'real' or 'complex', got {self.scalars!r}")

    @property
    def dtype(self) -> type:
        return complex if self.scalars == "complex" else float


class ProjectionFamily:
    """Ordered blocks of one candidate decomposition.

    ``blocks`` is one read-only array of shape (K, N, N) in the space's
    dtype.  Construction checks only structure (square blocks of the
    right size, finite entries, no zero block, no complex entries in a
    real space); the algebraic identities are checked by validate_family
    so that defective families can still be built and inspected.
    """

    def __init__(self, blocks: Sequence[np.ndarray] | np.ndarray, space: ModelSpace):
        if len(blocks) == 0:
            raise ValueError("a family needs at least one block")
        n = space.dim
        for i, raw in enumerate(blocks):
            if np.shape(raw) != (n, n):
                raise ValueError(f"block {i} has shape {np.shape(raw)}, expected {(n, n)}")
        stack = _in_space_dtype(blocks, space, "a block")
        for bad, what in (
            (~np.isfinite(stack).all(axis=(1, 2)), "has non-finite entries"),
            (~np.any(stack != 0, axis=(1, 2)), "is identically zero"),
        ):
            if np.any(bad):
                raise ValueError(f"block {np.flatnonzero(bad)[0]} {what}")
        stack.setflags(write=False)
        self.blocks = stack
        self.space = space

    @property
    def block_count(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.space.dim

    def default_tolerance(self) -> float:
        return 1e-10 * self.space.dim


def _in_space_dtype(raw, space: ModelSpace, what: str) -> np.ndarray:
    """A fresh copy of ``raw`` in the space's dtype.

    A real space refuses entries with a nonzero imaginary part instead
    of letting the cast drop them.
    """
    a = np.asarray(raw)
    if np.iscomplexobj(a) and space.scalars == "real":
        if np.any(a.imag != 0):
            raise ValueError(f"{what} has entries with a nonzero imaginary part, but the space is real")
        a = a.real
    return np.array(a, dtype=space.dtype)


class Subspace:
    """Column span of a full-column-rank basis matrix."""

    def __init__(self, basis: np.ndarray, space: ModelSpace):
        b = _in_space_dtype(basis, space, "the basis")
        if b.ndim != 2 or b.shape[0] != space.dim or b.shape[1] < 1:
            raise ValueError(f"basis must be {space.dim} x r with r >= 1, got {b.shape}")
        u, s, _ = np.linalg.svd(b, full_matrices=False)
        if s[0] == 0 or s[-1] <= RANK_REL_THRESHOLD * s[0]:
            raise ValueError("basis columns are numerically dependent")
        b.setflags(write=False)
        self.basis = b
        self.space = space
        self._ortho = u[:, : b.shape[1]]
        self._ortho.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def orthonormal_basis(self) -> np.ndarray:
        return self._ortho


@dataclass(frozen=True)
class FamilyReport:
    idempotency_defect: float
    cross_defect: float
    completeness_defect: float
    ranks: tuple[int, ...]
    tolerance: float
    completeness_required: bool
    ok: bool


@dataclass(frozen=True)
class ExpansionResult:
    components: np.ndarray  # (K, N): row i is P_i x
    defect: float


def make_coordinate_family(space: ModelSpace, block_sizes: Sequence[int]) -> ProjectionFamily:
    """Diagonal 0/1 projections onto consecutive index ranges."""
    sizes = [int(s) for s in block_sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    if sum(sizes) != space.dim:
        raise ValueError(f"block sizes sum to {sum(sizes)}, expected {space.dim}")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    diag = np.arange(space.dim)
    blocks = np.zeros((len(sizes), space.dim, space.dim), dtype=space.dtype)
    blocks[owner, diag, diag] = 1.0
    return ProjectionFamily(blocks, space)


def validate_family(
    family: ProjectionFamily,
    tolerance: float | None = None,
    *,
    require_completeness: bool = True,
) -> FamilyReport:
    """Measure how far the family is from a true decomposition.

    All defects are spectral norms.  ``require_completeness=False``
    relaxes the verdict for families meant to span only part of the
    space; the completeness defect is still reported.
    """
    tol = family.default_tolerance() if tolerance is None else float(tolerance)
    blocks = family.blocks
    idem = spectral_norm(blocks @ blocks - blocks)
    # one row of products P_i P_j at a time: the full (K, K, N, N) stack
    # would grow with K^2
    cross = max(spectral_norm(b @ np.delete(blocks, i, axis=0)) for i, b in enumerate(blocks))
    complete = spectral_norm(blocks.sum(axis=0) - np.eye(family.dim))
    s = np.linalg.svd(blocks, compute_uv=False)
    ranks = np.sum(s > RANK_REL_THRESHOLD * s[:, :1], axis=1)
    ok = idem <= tol and cross <= tol and (complete <= tol or not require_completeness)
    return FamilyReport(
        idempotency_defect=idem,
        cross_defect=cross,
        completeness_defect=complete,
        ranks=tuple(int(r) for r in ranks),
        tolerance=tol,
        completeness_required=require_completeness,
        ok=ok,
    )


def expand(x: np.ndarray, family: ProjectionFamily) -> ExpansionResult:
    """Blockwise components of a vector and the reconstruction defect."""
    v = np.asarray(x, dtype=family.space.dtype)
    if v.shape != (family.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({family.dim},)")
    comps = family.blocks @ v
    defect = vector_norm(comps.sum(axis=0) - v, family.space.norm)
    return ExpansionResult(components=comps, defect=float(defect))


def transport_family(s_matrix: np.ndarray, family: ProjectionFamily) -> ProjectionFamily:
    """Conjugated family S P S^{-1} for invertible S."""
    s = _in_space_dtype(s_matrix, family.space, "the transport matrix")
    if s.shape != (family.dim, family.dim):
        raise ValueError("transport matrix has the wrong shape")
    inv: InversionResult = invert_with_condition(s)
    if inv.singular:
        raise SingularMatrixError(
            f"transport matrix is singular or too ill-conditioned (cond={inv.condition:.3e})"
        )
    return ProjectionFamily(s @ family.blocks @ inv.inverse, family.space)


def range_subspace(block: np.ndarray, space: ModelSpace) -> Subspace:
    """Orthonormal basis of a projection's range.

    The rank from the factorization is cross-checked against the trace;
    a disagreement beyond 0.1 means the input is not close to a
    projection and is rejected.
    """
    p = _in_space_dtype(block, space, "the block")
    if p.shape != (space.dim, space.dim):
        raise ValueError("block has the wrong shape")
    u, s, _ = np.linalg.svd(p)
    if s[0] == 0:
        raise ValueError("zero matrix has no range basis")
    rank = int(np.sum(s > RANK_REL_THRESHOLD * s[0]))
    trace_rank = float(np.trace(p).real)
    if abs(trace_rank - rank) > 0.1:
        raise ValueError(
            f"trace {trace_rank:.6f} disagrees with factorization rank {rank}; not a projection"
        )
    return Subspace(u[:, :rank], space)


def selfadjoint_defect(family: ProjectionFamily) -> float:
    """Largest deviation of a block from its own conjugate transpose."""
    b = family.blocks
    return spectral_norm(b - np.swapaxes(b.conj(), 1, 2))


def family_rank(block: np.ndarray) -> int:
    s = np.linalg.svd(np.asarray(block), compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > RANK_REL_THRESHOLD * s[0]))
