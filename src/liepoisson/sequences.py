"""Exactness and duality checks for short sequences of linear maps.

A short sequence 0 -> U -> V -> W -> 0 is stored as the two middle maps.
Exactness means: the first map injective, the second surjective, and
image(first) = kernel(second); the subspace comparison is done through
orthogonal projectors, so it is basis independent.  Dualizing a map uses
the pairings attached to its source and target spaces.

The central-projector splitting of a block-diagonal matrix *-algebra is
also here: selecting a union of blocks as the ideal produces the central
idempotent z, and the report certifies that z splits the algebra into two
commuting ideals whose direct-sum bracket reproduces the original one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .errors import DimensionMismatchError, UnsupportedPresentationError
from .linalg import complement_residual, null_space, orth, projector_distance
from .tolerances import SUBSPACE_TOL

__all__ = [
    "Space",
    "LinearMapRec",
    "SequenceSpec",
    "ExactnessReport",
    "check_exact_sequence",
    "dual_map",
    "dual_sequence",
    "MatrixStarAlgebra",
    "CentralSplitReport",
    "wstar_central_split",
]


@dataclass(frozen=True)
class Space:
    """A coordinate space with the gram of its duality pairing and,
    optionally, an attached Lie algebra structure."""

    dim: int
    gram: np.ndarray = None
    algebra: LieAlgebra | None = None

    def __post_init__(self):
        g = np.eye(self.dim) if self.gram is None else np.asarray(self.gram)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatchError("gram shape does not match dim")
        if self.algebra is not None and self.algebra.dim != self.dim:
            raise DimensionMismatchError("attached algebra dimension mismatch")
        object.__setattr__(self, "gram", g)


@dataclass(frozen=True)
class LinearMapRec:
    """A linear map in coordinates, matrix of shape (target.dim, source.dim)."""

    matrix: np.ndarray
    source: Space
    target: Space

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatchError(
                f"map shape {m.shape} != ({self.target.dim}, {self.source.dim})"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SequenceSpec:
    """The two middle maps of a short sequence; they must be composable."""

    first: LinearMapRec
    second: LinearMapRec

    def __post_init__(self):
        if self.second.source.dim != self.first.target.dim:
            raise DimensionMismatchError("sequence maps are not composable")


@dataclass(frozen=True)
class ExactnessReport:
    """Defects of exactness; all zero for an exact sequence.

    injectivity_defect and surjectivity_defect count missing rank;
    subspace_residual is the projector distance between image(first) and
    kernel(second).  Homomorphism residuals appear when the spaces carry
    algebras.
    """

    injectivity_defect: int
    surjectivity_defect: int
    subspace_residual: float
    hom_residual_first: float | None = None
    hom_residual_second: float | None = None

    @property
    def exact(self) -> bool:
        ok = self.injectivity_defect == 0 and self.surjectivity_defect == 0
        ok = ok and self.subspace_residual < SUBSPACE_TOL
        for r in (self.hom_residual_first, self.hom_residual_second):
            if r is not None:
                ok = ok and r < SUBSPACE_TOL
        return ok

    def as_dict(self) -> dict:
        d = {
            "injectivity_defect": self.injectivity_defect,
            "surjectivity_defect": self.surjectivity_defect,
            "subspace_residual": self.subspace_residual,
            "exact": self.exact,
        }
        if self.hom_residual_first is not None:
            d["hom_residual_first"] = self.hom_residual_first
        if self.hom_residual_second is not None:
            d["hom_residual_second"] = self.hom_residual_second
        return d


def _hom_residual(m: LinearMapRec) -> float | None:
    """Residual of m[x, y] - [m x, m y] over basis pairs, when both spaces
    carry algebras."""
    if m.source.algebra is None or m.target.algebra is None:
        return None
    src, tgt = m.source.algebra, m.target.algebra
    a = m.matrix
    res = 0.0
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = a @ src.bracket(np.eye(src.dim)[i], np.eye(src.dim)[j])
            rhs = tgt.bracket(a[:, i], a[:, j])
            res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


def check_exact_sequence(seq: SequenceSpec) -> ExactnessReport:
    first, second = seq.first.matrix, seq.second.matrix
    rank_first = np.linalg.matrix_rank(first) if first.size else 0
    rank_second = np.linalg.matrix_rank(second) if second.size else 0
    inj = seq.first.source.dim - rank_first
    sur = seq.second.target.dim - rank_second
    image = orth(first)
    kernel = null_space(second)
    residual = projector_distance(image, kernel)
    return ExactnessReport(
        int(inj),
        int(sur),
        residual,
        _hom_residual(seq.first),
        _hom_residual(seq.second),
    )


def dual_map(m: LinearMapRec) -> LinearMapRec:
    """The adjoint map determined by <dual(y), x>_source = <y, m(x)>_target.

    In coordinates D = G_s^{-T} M^T G_t^T; it runs from the target's
    (pre)dual model to the source's.
    """
    gs, gt = m.source.gram, m.target.gram
    d = np.linalg.solve(gs.T, m.matrix.T @ gt.T)
    return LinearMapRec(d, source=m.target, target=m.source)


def dual_sequence(seq: SequenceSpec) -> SequenceSpec:
    """Dualize a short sequence; the order of the maps reverses."""
    return SequenceSpec(first=dual_map(seq.second), second=dual_map(seq.first))


# ---------------------------------------------------------------------------
# central-projector splitting of block-diagonal matrix *-algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixStarAlgebra:
    """A direct sum of full matrix blocks M_{d1} + ... + M_{dk}, with the
    associative product and the commutator bracket of the ambient matrices."""

    block_dims: tuple[int, ...]

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def block_slice(self, i: int) -> slice:
        start = sum(self.block_dims[:i])
        return slice(start, start + self.block_dims[i])

    def basis(self):
        """Elementary matrices of every block, as full-size matrices."""
        n = self.total_dim
        out = []
        for b in range(len(self.block_dims)):
            sl = self.block_slice(b)
            for i in range(sl.start, sl.stop):
                for j in range(sl.start, sl.stop):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    out.append(e)
        return out


@dataclass(frozen=True)
class CentralSplitReport:
    """Residuals of the splitting through the central projector z."""

    z: np.ndarray
    idempotent_residual: float
    central_residual: float
    image_residual: float
    cross_product_residual: float
    bracket_split_residual: float
    projection_iso_defect: int

    @property
    def max_residual(self) -> float:
        return max(
            self.idempotent_residual,
            self.central_residual,
            self.image_residual,
            self.cross_product_residual,
            self.bracket_split_residual,
            float(self.projection_iso_defect),
        )

    def as_dict(self) -> dict:
        return {
            "idempotent_residual": self.idempotent_residual,
            "central_residual": self.central_residual,
            "image_residual": self.image_residual,
            "cross_product_residual": self.cross_product_residual,
            "bracket_split_residual": self.bracket_split_residual,
            "projection_iso_defect": self.projection_iso_defect,
        }


def wstar_central_split(
    g: MatrixStarAlgebra, ideal_blocks: tuple[int, ...]
) -> CentralSplitReport:
    """Split a block-diagonal matrix *-algebra along an ideal made of whole
    blocks.

    Returns z = identity on the selected blocks and certifies: z is an
    idempotent commuting with the whole algebra, the selected subspace is
    exactly z g, products between the two ideals vanish, the bracket of g
    is the direct sum of the brackets of z g and (1 - z) g, and projecting
    out the ideal is a bijection on the complement.
    """
    k = len(g.block_dims)
    ideal = tuple(sorted(set(int(b) for b in ideal_blocks)))
    if not ideal or any(b < 0 or b >= k for b in ideal):
        raise UnsupportedPresentationError(
            f"ideal must select existing blocks of {g.block_dims}, got {ideal_blocks}"
        )
    if len(ideal) == k:
        raise UnsupportedPresentationError("ideal must be a proper sub-selection")

    n = g.total_dim
    z = np.zeros((n, n))
    for b in ideal:
        sl = g.block_slice(b)
        z[sl, sl] = np.eye(g.block_dims[b])
    one_minus_z = np.eye(n) - z

    basis = np.array(g.basis())  # (D, n, n)
    idem = float(np.max(np.abs(z @ z - z)))
    central = float(np.max(np.abs(z @ basis - basis @ z)))
    inner, outer = z @ basis @ z, one_minus_z @ basis @ one_minus_z

    # image check: span of ideal-block basis equals z * (basis of g)
    fixed = [np.allclose(zxz, x) for zxz, x in zip(inner, basis)]
    ideal_basis = basis[fixed].reshape(-1, n * n).T
    z_image = inner.reshape(-1, n * n).T
    z_image = z_image[:, np.linalg.norm(z_image, axis=0) > 0]
    image_res = max(
        complement_residual(z_image, ideal_basis),
        complement_residual(ideal_basis, z_image),
    )

    # products with every y at once, one x at a time: O(D n^2) memory
    cross = 0.0
    split = 0.0
    for x, x1, x2 in zip(basis, inner, outer):
        cross = max(cross, float(np.max(np.abs(x1 @ outer))), float(np.max(np.abs(outer @ x1))))
        lhs = x @ basis - basis @ x
        rhs = (x1 @ inner - inner @ x1) + (x2 @ outer - outer @ x2)
        split = max(split, float(np.max(np.abs(lhs - rhs))))

    # the projection that kills the ideal restricts to a bijection on (1-z)g
    comp_basis = outer.reshape(-1, n * n).T
    comp_basis = comp_basis[:, np.linalg.norm(comp_basis, axis=0) > 0]
    comp_dim = sum(g.block_dims[b] ** 2 for b in range(k) if b not in ideal)
    iso_defect = comp_dim - int(np.linalg.matrix_rank(comp_basis))

    return CentralSplitReport(z, idem, central, image_res, cross, split, iso_defect)
