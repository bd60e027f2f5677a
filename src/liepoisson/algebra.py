"""Finite-dimensional Lie algebras given by structure constants.

An algebra of dimension d is stored as a rank-3 array c with
``[e_i, e_j] = sum_k c[k, i, j] e_k``.  Elements of the algebra and of its
predual model are plain coordinate vectors; a :class:`DualPairing` carries
the gram matrix G of the bilinear pairing ``<b, x> = b^T G x`` (predual
vector first).  For complex algebras the pairing is complex bilinear, not
sesquilinear; real-valued analysis over complex spaces happens by
realification in the poisson module.

The constants are stored as their nonzeros only (a linalg.Coo), which
the constructors write and every check, bracket and the coadjoint tensor
read, so storage and work follow the number of nonzero constants; the
dense array is built on demand, for small-dimensional callers.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePairingError, DimensionMismatchError
from .linalg import (
    Coo,
    LeadJoin,
    as_coo,
    cyclic_terms,
    join,
    max_abs_by_lead,
    max_abs_of_sum,
    monomial_abs,
    null_space,
)
from .tolerances import CONSTRUCTION_TOL, GRAM_CONDITION_TOL

__all__ = [
    "LieAlgebra",
    "DualPairing",
    "StructureReport",
    "bracket_eval",
    "check_structure",
    "ad_star",
    "center_of",
    "so3",
    "gl",
    "heisenberg",
    "abelian",
    "builtin_algebra",
    "identity_pairing",
    "trace_pairing",
    "realify",
    "realify_pairing",
    "algebra_to_json",
]

_REAL = "real"
_COMPLEX = "complex"


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra presented by structure constants.

    ``constants`` holds the nonzero c[k, i, j], the e_k coefficient of
    [e_i, e_j], as a Coo of shape (d, d, d); a dense array given instead is
    read through its nonzeros.  Antisymmetry must hold exactly at
    construction; the Jacobi identity is checked up to
    ``CONSTRUCTION_TOL``.  ``validate=False`` skips both checks: the named
    constructors (:func:`gl`, :func:`so3`, :func:`heisenberg`,
    :func:`abelian`, :func:`realify`) pass it, because their identities
    hold by construction (the tests check each with
    :func:`check_structure`), and so does ``build_extension``, whose
    compatibility check stands for Jacobi.  Constants read from a document
    are validated; negative tests pass it to store broken constants.
    """

    constants: Coo
    basis_labels: tuple[str, ...] = ()
    name: str = ""
    scalar_field: str = _REAL
    built_from: object | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        c = as_coo(self.constants, self.dtype)
        if len(c.shape) != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatchError(
                f"structure constants must be cubic, got shape {c.shape}"
            )
        object.__setattr__(self, "constants", c)
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"e{i + 1}" for i in range(c.shape[0]))
            )
        if len(self.basis_labels) != c.shape[0]:
            raise DimensionMismatchError("basis_labels length != dimension")
        if validate:
            anti = _antisymmetry_residual(c)
            if anti != 0.0:
                raise ValueError(f"structure constants not antisymmetric (max {anti:g})")
            jac = jacobi_residual(c)
            if jac > CONSTRUCTION_TOL:
                raise ValueError(f"Jacobi identity violated (residual {jac:g})")

    @property
    def structure_constants(self) -> np.ndarray:
        """The dense (d, d, d) array, built on each call."""
        return self.constants.dense()

    @property
    def dim(self) -> int:
        return self.constants.shape[0]

    @property
    def dtype(self):
        return complex if self.scalar_field == _COMPLEX else float

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return bracket_eval(self, x, y)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad_x = [x, .] acting on coordinates."""
        return self.constants.contract({1: _coords(x, self.dim)})

    def is_abelian(self) -> bool:
        return self.constants.values.size == 0


@dataclass(frozen=True)
class DualPairing:
    """Nondegenerate pairing ``<b, x> = b^T gram x`` between a predual model
    and the algebra; both sides use coordinate vectors of length dim.  The
    gram's conditioning is read from its singular values: the absolute
    values of its nonzeros when it is monomial (a scaled signed
    permutation, as every built-in pairing is), an SVD otherwise."""

    algebra: LieAlgebra
    gram: np.ndarray = None  # identity by default

    def __post_init__(self):
        d = self.algebra.dim
        g = self.gram
        if g is None:
            g = np.eye(d)
        g = np.asarray(g, dtype=self.algebra.dtype).copy()
        if g.shape != (d, d):
            raise DimensionMismatchError(f"gram shape {g.shape} != ({d}, {d})")
        sv = monomial_abs(g)
        if sv is None:
            sv = np.linalg.svd(g, compute_uv=False)
        if (low := np.min(sv)) <= GRAM_CONDITION_TOL * (high := np.max(sv)):
            raise DegeneratePairingError(
                f"gram nearly singular (singular values {low:g} to {high:g})"
            )
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def predual_dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def coadjoint_tensor(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The nonzeros ``((m, i, l), v)``, row-major, of the tensor K with
        ``(-ad*_x b)_m = sum_{i, l} K[m, i, l] x_i b_l``; built on first use.

        ad*_x b solves G^T b' = ad_x^T G^T b (see :func:`ad_star`), so
        K[m, i, l] = -sum_{j, k} Ginv[j, m] c[k, i, j] G[l, k]: the gram and
        its inverse folded into the nonzero constants.  It is complex for a
        complex algebra.
        """
        k = _coadjoint_entries(self.algebra.constants, self.gram)
        return k.idx, k.values

    def pair(self, b, x):
        """<b, x> with b in the predual model and x in the algebra."""
        b = _coords(b, self.predual_dim)
        x = _coords(x, self.algebra.dim)
        return (b @ self.gram @ x).item() if b.ndim == 1 else b @ self.gram @ x

    def real_pair(self, b, x) -> float:
        """Real part of the pairing; the realified pairing for complex algebras."""
        v = self.pair(b, x)
        return float(np.real(v))


def _coadjoint_entries(c: Coo, g: np.ndarray) -> Coo:
    """K[m, i, l] of :attr:`DualPairing.coadjoint_tensor`, in two joins
    with the nonzeros of the gram, each summed by key:
    T[i, j, l] = sum_k c[k, i, j] (-G[l, k]), then
    K[m, i, l] = sum_j Ginv[j, m] T[i, j, l]."""
    (k, i, j), v = c.idx, c.values
    gl_, gk = np.nonzero(g)
    p, q = join(k, gk)
    t = Coo.of(c.shape, (i[p], j[p], gl_[q]), v[p] * -g[gl_[q], gk[q]])
    ginv = _inverse_entries(g)
    (gj, gm), gv = ginv.idx, ginv.values
    (ti, tj, tl), tv = t.idx, t.values
    p, q = join(tj, gj)
    return Coo.of(c.shape, (gm[q], ti[p], tl[p]), gv[q] * tv[p])


def _inverse_entries(g: np.ndarray) -> Coo:
    """The nonzeros of g^-1.  A monomial g's inverse has the reciprocals of
    its nonzeros at the transposed positions, taken as 1 x 1 inverses: the
    LAPACK solve of np.linalg.inv(g) on each, so the values are the same to
    the bit, and no dense inverse is formed."""
    if monomial_abs(g) is None:
        return as_coo(np.linalg.inv(g))
    r, c = np.nonzero(g)
    return Coo.of(g.shape, (c, r), np.linalg.inv(g[r, c][:, None, None])[:, 0, 0])


def _coords(x, dim: int) -> np.ndarray:
    """A coordinate vector of length ``dim``."""
    c = np.asarray(x)
    if c.shape != (dim,):
        raise DimensionMismatchError(f"expected vector of length {dim}, got {c.shape}")
    return c


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def bracket_eval(alg: LieAlgebra, x, y) -> np.ndarray:
    """[x, y] in coordinates."""
    return alg.constants.contract({1: _coords(x, alg.dim), 2: _coords(y, alg.dim)})


def _antisymmetry_residual(c: Coo) -> float:
    """max |c[k, i, j] + c[k, j, i]|, summed over the nonzeros of c."""
    (k, i, j), v = c.idx, c.values
    return max_abs_of_sum(c.shape, [((k, i, j), v), ((k, j, i), v)])


def jacobi_residual(c) -> float:
    """Max-norm Jacobi defect over all index triples, including repeats.

    The defect at (m, i, j, k) is the cyclic sum over (i, j, k) of
    T[m, i, j, k] = sum_l c[l, i, j] c[m, l, k].  T is formed from the
    products of nonzero constants that share l, and each product is added
    at its three cyclic positions, so time and memory follow the number of
    such products rather than d^4.  ``c`` is a Coo or a dense array.  The
    products are formed in blocks of the lead index m
    (:func:`~liepoisson.linalg.max_abs_by_lead`); the residual does not
    depend on the blocks.
    """
    c = as_coo(c)
    (a, b, e), v = c.idx, c.values

    def terms(q, p):  # factor q is c[m, l, k], factor p is c[l, i, j]
        return cyclic_terms(a[q], b[p], e[p], e[q], v[p] * v[q])

    return max_abs_by_lead((c.shape[0],) * 4, [LeadJoin(a, b, a, terms)])


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the defining identities of a structure-constant array."""

    antisymmetry_residual: float
    jacobi_residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_structure(alg: LieAlgebra) -> StructureReport:
    """Antisymmetry and Jacobi residuals (max over all basis index
    combinations); both are zero for a valid algebra."""
    c = alg.constants
    return StructureReport(_antisymmetry_residual(c), jacobi_residual(c))


def ad_star(pairing: DualPairing, x, b) -> np.ndarray:
    """Coadjoint action: the unique b' with <b', y> = <b, [x, y]> for all y.

    With A = ad_x this solves ``G^T b' = A^T G^T b``.
    """
    alg = pairing.algebra
    x = _coords(x, alg.dim)
    b = _coords(b, pairing.predual_dim)
    a = alg.ad(x)
    g = pairing.gram  # invertible: DualPairing refuses a singular one
    return np.linalg.solve(g.T, a.T @ (g.T @ b))


def center_of(alg: LieAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of the center {x : [x, y] = 0 for all y}.

    Computed as the nullspace of the stacked ad maps; empty list when the
    center is trivial.
    """
    d = alg.dim
    if d == 0:
        return []
    # ad_x as a linear function of x: stacked[(k, j), i] = c[k, i, j]
    stacked = alg.structure_constants.transpose(0, 2, 1).reshape(d * d, d)
    null = null_space(stacked)
    return [null[:, i] for i in range(null.shape[1])]


# ---------------------------------------------------------------------------
# named constructors and pairings
# ---------------------------------------------------------------------------


def so3() -> LieAlgebra:
    """so(3): [e1, e2] = e3 and cyclic (cross-product constants)."""
    i, j, k = np.array([(0, 1, 2), (1, 2, 0), (2, 0, 1)]).T
    c = Coo.of((3, 3, 3), (np.r_[k, k], np.r_[i, j], np.r_[j, i]), np.repeat([1.0, -1.0], 3))
    return LieAlgebra(c, name="so3", validate=False)


def _commutator_constants(n: int, sign: float = 1.0, dtype=float) -> Coo:
    """Constants of sign * (XY - YX) on n x n matrices in the elementary
    basis E_ij, row-major: [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    # [E_ij, E_jk] has +E_ik, then [E_ij, E_ki] has -E_kj
    idx = np.r_[i * n + k, k * n + j], np.r_[i * n + j, i * n + j], np.r_[j * n + k, k * n + i]
    return Coo.of((n * n,) * 3, idx, np.repeat([sign, -sign], n**3), dtype)


def gl(n: int, scalar_field: str = _REAL) -> LieAlgebra:
    """gl(n) in the elementary-matrix basis E_ij, row-major ordering."""
    c = _commutator_constants(n)
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return LieAlgebra(c, labels, f"gl{n}", scalar_field, validate=False)


def heisenberg() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra: [p, q] = z, z central."""
    c = Coo.of((3, 3, 3), ([2, 2], [0, 1], [1, 0]), [1.0, -1.0])
    return LieAlgebra(c, basis_labels=("p", "q", "z"), name="heisenberg", validate=False)


def abelian(n: int, scalar_field: str = _REAL) -> LieAlgebra:
    """The abelian algebra of dimension n."""
    c = Coo.of((n, n, n), ([], [], []), [])
    return LieAlgebra(c, name=f"abelian{n}", scalar_field=scalar_field, validate=False)


def identity_pairing(alg: LieAlgebra) -> DualPairing:
    return DualPairing(alg, np.eye(alg.dim))


def matrix_trace_gram(n: int) -> np.ndarray:
    """Gram of <B, X> = tr(B X) on n x n matrices flattened row-major."""
    d = n * n  # entry (i n + j, k n + l) is 1 when (k, l) = (j, i)
    return np.eye(d).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(d, d)


def trace_pairing(alg: LieAlgebra) -> DualPairing:
    """Trace pairing for an algebra in the row-major elementary-matrix basis."""
    n = int(round(np.sqrt(alg.dim)))
    if n * n != alg.dim:
        raise DimensionMismatchError("trace pairing requires a square matrix algebra")
    return DualPairing(alg, matrix_trace_gram(n).astype(alg.dtype))


_BUILTIN_RE = re.compile(r"^(so3|heisenberg|gl([1-9]\d*)|abelian([1-9]\d*))$")


def builtin_algebra(spec: str) -> LieAlgebra:
    """Resolve a builtin name: "so3", "heisenberg", "glN", "abelianN"."""
    m = _BUILTIN_RE.match(str(spec))
    if not m:
        raise KeyError(f"unknown builtin algebra {spec!r}")
    if m.group(1) == "so3":
        return so3()
    if m.group(1) == "heisenberg":
        return heisenberg()
    if m.group(2) is not None:
        return gl(int(m.group(2)))
    return abelian(int(m.group(3)))


# ---------------------------------------------------------------------------
# realification of complex algebras
# ---------------------------------------------------------------------------


def realify(alg: LieAlgebra) -> LieAlgebra:
    """View a complex algebra of dimension d as a real algebra of dimension
    2d, basis (e_1..e_d, i e_1..i e_d)."""
    if alg.scalar_field != _COMPLEX:
        return alg
    d = alg.dim
    (k, i, j), v = alg.constants.idx, alg.constants.values
    # [u e_i, w e_j] = u w [e_i, e_j] for u, w in {1, i} (block offsets s, t):
    # the real part of u w c goes to e_k, the imaginary part to i e_k
    parts = [(k + d * r, i + d * s, j + d * t, (uw.real, uw.imag)[r])
             for s in (0, 1) for t in (0, 1) for uw in [v * 1j ** (s + t)] for r in (0, 1)]
    k, i, j, vals = (np.concatenate(a) for a in zip(*parts))
    C = Coo.of((2 * d,) * 3, (k, i, j), vals)
    labels = tuple(alg.basis_labels) + tuple(f"i*{l}" for l in alg.basis_labels)
    return LieAlgebra(C, basis_labels=labels, name=f"{alg.name}_r", validate=False)


def realify_pairing(pairing: DualPairing, realified: LieAlgebra) -> DualPairing:
    """Realify a complex bilinear pairing: the gram of Re(b^T G x) on
    doubled coordinates (Re, Im)."""
    g = pairing.gram
    gr, gi = np.real(g), np.imag(g)
    gram = np.block([[gr, -gi], [-gi, -gr]])
    return DualPairing(realified, gram)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _scalar_to_json(v):
    if isinstance(v, complex) or np.iscomplexobj(v):
        return [float(np.real(v)), float(np.imag(v))]
    return float(v)


def algebra_to_json(alg: LieAlgebra, pairing: DualPairing | None = None) -> dict:
    """The inline algebra document that a config's algebra reference takes:
    the i < j half of the constants as [k, i, j, value] in row-major (k, i,
    j) order, a complex value as [re, im], and the gram of a given pairing."""
    (k, i, j), v = alg.constants.idx, alg.constants.values
    upper = i < j
    k, i, j, v = k[upper], i[upper], j[upper], v[upper]
    if np.iscomplexobj(v):
        vals = list(map(list, zip(v.real.tolist(), v.imag.tolist())))
    else:
        vals = v.tolist()
    trip = list(map(list, zip(k.tolist(), i.tolist(), j.tolist(), vals)))
    doc = {
        "name": alg.name,
        "field": alg.scalar_field,
        "dim": alg.dim,
        "basis_labels": list(alg.basis_labels),
        "structure_constants": trip,
    }
    if pairing is not None:
        doc["gram"] = [[_scalar_to_json(v) for v in row] for row in pairing.gram]
    return doc
