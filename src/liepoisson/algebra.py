"""Finite-dimensional Lie algebras given by structure constants.

An algebra of dimension d is stored as a rank-3 array c with
``[e_i, e_j] = sum_k c[k, i, j] e_k``.  Elements of the algebra and of its
predual model are plain coordinate vectors; a :class:`DualPairing` carries
the gram matrix G of the bilinear pairing ``<b, x> = b^T G x`` (predual
vector first).  For complex algebras the pairing is complex bilinear, not
sesquilinear; real-valued analysis over complex spaces happens by
realification in the poisson module.

The identity checks (antisymmetry, Jacobi) read the constants through
their nonzeros, so their cost follows the number of nonzero constants
rather than powers of the dimension; the constants themselves stay a
dense array, which is what every caller indexes.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DegeneratePairingError, DimensionMismatchError
from .linalg import coo, cyclic_terms, join, max_abs_of_sum
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
    "algebra_from_json",
    "algebra_to_json",
]

_REAL = "real"
_COMPLEX = "complex"


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra presented by structure constants.

    ``structure_constants[k, i, j]`` is the e_k coefficient of [e_i, e_j].
    Antisymmetry must hold exactly at construction; the Jacobi identity is
    checked up to ``CONSTRUCTION_TOL``.  Pass ``validate=False`` to store
    deliberately broken constants (negative tests, diagnostics).  The
    constants are kept read-only: a read-only array of the right dtype is
    kept without a copy, anything else is copied.
    """

    structure_constants: np.ndarray
    basis_labels: tuple[str, ...] = ()
    name: str = ""
    scalar_field: str = _REAL
    built_from: object | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        dtype = complex if self.scalar_field == _COMPLEX else float
        c = np.asarray(self.structure_constants, dtype=dtype)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatchError(
                f"structure constants must be cubic, got shape {c.shape}"
            )
        if c.flags.writeable:  # never freeze a caller's array under them
            c = c.copy()
            c.setflags(write=False)
        object.__setattr__(self, "structure_constants", c)
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
    def dim(self) -> int:
        return self.structure_constants.shape[0]

    @property
    def dtype(self):
        return complex if self.scalar_field == _COMPLEX else float

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return bracket_eval(self, x, y)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad_x = [x, .] acting on coordinates."""
        x = _coords(x, self.dim)
        return np.einsum("kij,i->kj", self.structure_constants, x)

    def is_abelian(self) -> bool:
        return not np.any(self.structure_constants)


@dataclass(frozen=True)
class DualPairing:
    """Nondegenerate pairing ``<b, x> = b^T gram x`` between a predual model
    and the algebra; both sides use coordinate vectors of length dim."""

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
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[-1] <= GRAM_CONDITION_TOL * sv[0]:
            raise DegeneratePairingError(
                f"gram nearly singular (sv ratio {sv[-1] / sv[0]:g})"
            )
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def predual_dim(self) -> int:
        return self.algebra.dim

    def pair(self, b, x):
        """<b, x> with b in the predual model and x in the algebra."""
        b = _coords(b, self.predual_dim)
        x = _coords(x, self.algebra.dim)
        return (b @ self.gram @ x).item() if b.ndim == 1 else b @ self.gram @ x

    def real_pair(self, b, x) -> float:
        """Real part of the pairing; the realified pairing for complex algebras."""
        v = self.pair(b, x)
        return float(np.real(v))


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
    x = _coords(x, alg.dim)
    y = _coords(y, alg.dim)
    return np.einsum("kij,i,j->k", alg.structure_constants, x, y)


def _antisymmetry_residual(c: np.ndarray) -> float:
    """max |c[k, i, j] + c[k, j, i]|, read over the nonzeros of c."""
    (k, i, j), v = coo(c)
    return float(np.max(np.abs(v + c[k, j, i]), initial=0.0))


def jacobi_residual(c: np.ndarray) -> float:
    """Max-norm Jacobi defect over all index triples, including repeats.

    The defect at (m, i, j, k) is the cyclic sum over (i, j, k) of
    T[m, i, j, k] = sum_l c[l, i, j] c[m, l, k].  T is formed from the
    products of nonzero constants that share l, and each product is added
    at its three cyclic positions, so time and memory follow the number of
    such products rather than d^4.
    """
    d = c.shape[0]
    (a, b, e), v = coo(c)
    # factor p is c[l, i, j] and factor q is c[m, l, k]: l = a[p] = b[q]
    p, q = join(a, b)
    m, i, j, k = a[q], b[p], e[p], e[q]
    return max_abs_of_sum((d,) * 4, cyclic_terms(m, i, j, k, v[p] * v[q]))


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the defining identities of a structure-constant array."""

    antisymmetry_residual: float
    jacobi_residual: float

    def as_dict(self) -> dict:
        return {
            "antisymmetry_residual": self.antisymmetry_residual,
            "jacobi_residual": self.jacobi_residual,
        }


def check_structure(alg: LieAlgebra) -> StructureReport:
    """Antisymmetry and Jacobi residuals (max over all basis index
    combinations); both are zero for a valid algebra."""
    c = alg.structure_constants
    return StructureReport(_antisymmetry_residual(c), jacobi_residual(c))


def ad_star(pairing: DualPairing, x, b) -> np.ndarray:
    """Coadjoint action: the unique b' with <b', y> = <b, [x, y]> for all y.

    With A = ad_x this solves ``G^T b' = A^T G^T b``.
    """
    alg = pairing.algebra
    x = _coords(x, alg.dim)
    b = _coords(b, pairing.predual_dim)
    a = alg.ad(x)
    g = pairing.gram
    try:
        return np.linalg.solve(g.T, a.T @ (g.T @ b))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded at init
        raise DegeneratePairingError(str(exc)) from exc


def center_of(alg: LieAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of the center {x : [x, y] = 0 for all y}.

    Computed as the nullspace of the stacked ad maps; empty list when the
    center is trivial.
    """
    import scipy.linalg  # local: importing scipy costs every CLI start

    d = alg.dim
    if d == 0:
        return []
    # ad_x as a linear function of x: stacked[(k, j), i] = c[k, i, j]
    stacked = alg.structure_constants.transpose(0, 2, 1).reshape(d * d, d)
    null = scipy.linalg.null_space(stacked)
    return [null[:, i] for i in range(null.shape[1])]


# ---------------------------------------------------------------------------
# named constructors and pairings
# ---------------------------------------------------------------------------


def so3() -> LieAlgebra:
    """so(3): [e1, e2] = e3 and cyclic (cross-product constants)."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k, i, j] = 1.0
        c[k, j, i] = -1.0
    return LieAlgebra(c, name="so3")


def _commutator_constants(n: int, sign: float = 1.0, dtype=float) -> np.ndarray:
    """Constants of sign * (XY - YX) on n x n matrices in the elementary
    basis E_ij, row-major: [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    d = n * n
    c = np.zeros((d, d, d), dtype=dtype)
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    np.add.at(c, (i * n + k, i * n + j, j * n + k), sign)  # [E_ij, E_jk] has +E_ik
    np.add.at(c, (k * n + j, i * n + j, k * n + i), -sign)  # [E_ij, E_ki] has -E_kj
    return c


def gl(n: int, scalar_field: str = _REAL) -> LieAlgebra:
    """gl(n) in the elementary-matrix basis E_ij, row-major ordering."""
    c = _commutator_constants(n)
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return LieAlgebra(c, basis_labels=labels, name=f"gl{n}", scalar_field=scalar_field)


def heisenberg() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra: [p, q] = z, z central."""
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    return LieAlgebra(c, basis_labels=("p", "q", "z"), name="heisenberg")


def abelian(n: int, scalar_field: str = _REAL) -> LieAlgebra:
    """The abelian algebra of dimension n."""
    return LieAlgebra(
        np.zeros((n, n, n)), name=f"abelian{n}", scalar_field=scalar_field
    )


def identity_pairing(alg: LieAlgebra) -> DualPairing:
    return DualPairing(alg, np.eye(alg.dim))


def matrix_trace_gram(n: int) -> np.ndarray:
    """Gram of <B, X> = tr(B X) on n x n matrices flattened row-major."""
    g = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            g[i * n + j, j * n + i] = 1.0
    return g


def trace_pairing(alg: LieAlgebra) -> DualPairing:
    """Trace pairing for an algebra in the row-major elementary-matrix basis."""
    n = int(round(np.sqrt(alg.dim)))
    if n * n != alg.dim:
        raise DimensionMismatchError("trace pairing requires a square matrix algebra")
    return DualPairing(alg, matrix_trace_gram(n).astype(alg.dtype))


_BUILTIN_RE = re.compile(r"^(so3|heisenberg|gl([1-9]\d*)|abelian([1-9]\d*))$")


def builtin_algebra(spec) -> LieAlgebra:
    """Resolve a builtin name: "so3", "heisenberg", "glN", "abelianN",
    or a dict {"builtin": name, "n": N}."""
    if isinstance(spec, dict):
        name = spec.get("builtin", "")
        n = spec.get("n")
        spec = f"{name}{n}" if n is not None and name in ("gl", "abelian") else name
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
    c = alg.structure_constants
    re_, im_ = np.real(c), np.imag(c)
    C = np.zeros((2 * d, 2 * d, 2 * d))
    C[:d, :d, :d] = re_
    C[d:, :d, :d] = im_
    C[:d, :d, d:] = -im_
    C[d:, :d, d:] = re_
    C[:d, d:, :d] = -im_
    C[d:, d:, :d] = re_
    C[:d, d:, d:] = -re_
    C[d:, d:, d:] = -im_
    labels = tuple(alg.basis_labels) + tuple(f"i*{l}" for l in alg.basis_labels)
    return LieAlgebra(C, basis_labels=labels, name=f"{alg.name}_r")


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


def _scalar_from_json(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return float(v)


def algebra_from_json(doc: dict) -> tuple[LieAlgebra, DualPairing]:
    """Load an algebra document.

    Schema: {"name", "field": "real"|"complex", "dim",
    "structure_constants": [[k, i, j, value], ...] (antisymmetric half only),
    "gram": optional dense array}.  Returns the algebra together with its
    pairing (identity gram when none is given).
    """
    field = doc.get("field", _REAL)
    d = int(doc["dim"])
    dtype = complex if field == _COMPLEX else float
    c = np.zeros((d, d, d), dtype=dtype)
    for k, i, j, v in doc.get("structure_constants", []):
        val = _scalar_from_json(v)
        c[k, i, j] = val
        c[k, j, i] = -val
    alg = LieAlgebra(
        c,
        basis_labels=tuple(doc.get("basis_labels", ())),
        name=doc.get("name", ""),
        scalar_field=field,
    )
    gram = doc.get("gram")
    if gram is not None:
        gram = np.array(
            [[_scalar_from_json(v) for v in row] for row in gram], dtype=dtype
        )
    return alg, DualPairing(alg, gram)


def algebra_to_json(alg: LieAlgebra, pairing: DualPairing | None = None) -> dict:
    """Inverse of :func:`algebra_from_json`; emits the i < j half only,
    as [k, i, j, value] in row-major (k, i, j) order."""
    c = alg.structure_constants
    upper = np.arange(alg.dim)[:, None] < np.arange(alg.dim)
    k, i, j = np.nonzero((c != 0) & upper)
    v = c[k, i, j]
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
