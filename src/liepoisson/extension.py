"""Lie algebra extensions built from cocycle data.

Given algebras n and h, a skew bilinear map omega: h x h -> n, and a
linear map phi from h into endomorphisms of n, the twisted bracket on the
direct sum n + h is

    [(z, e), (z', e')] = ([z, z'] + phi(e) z' - phi(e') z + omega(e, e'),
                          [e, e']).

This is a Lie bracket exactly when three identities hold: every phi(e) is
a derivation of n, the cyclic cocycle identity

    sum_cyc omega([e, e'], e'') - sum_cyc phi(e) omega(e', e'') = 0,

and the curvature identity ad_{omega(e, e')} + phi([e, e']) =
[phi(e), phi(e')].  The compatibility checker reports all three residuals;
their joint vanishing is equivalent to the Jacobi identity of the built
bracket.  The cocycle identity is always evaluated as the fully cyclic
sum in (e, e', e''), and the report records that convention.  Each
residual is summed over the nonzero products of the constants of n and h,
omega and phi, never over dense (dim n, dim h, dim h, dim h) tensors.

The coadjoint action of the extension on the direct sum of the predual
models decomposes into dual maps of phi and omega; those dual maps are
also what the predual-closure check measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DualPairing, LieAlgebra, _antisymmetry_residual, _coords, ad_star
from .errors import (
    DimensionMismatchError,
    InvalidExtensionError,
    NotAnIdealError,
    SectionInconsistencyError,
)
from .linalg import (
    complement_residual,
    coo,
    cyclic_terms,
    join,
    max_abs_of_sum,
    orthonormal_columns,
)
from .tolerances import COMPATIBILITY_FAIL, COMPATIBILITY_PASS

__all__ = [
    "SkewBilinearMap",
    "DerivationMap",
    "ExtensionSpec",
    "Section",
    "CompatibilityReport",
    "ClosureReport",
    "section_to_data",
    "check_compatibility",
    "build_extension",
    "direct_sum_pairing",
    "coadjoint_extension",
    "check_predual_closure",
]


@dataclass(frozen=True)
class SkewBilinearMap:
    """omega: h x h -> n with coefficients w[a, i, j], meaning
    omega(e_i, e_j) = sum_a w[a, i, j] f_a in the basis of n.
    Skew symmetry in (i, j) must hold exactly."""

    domain: LieAlgebra
    codomain: LieAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.coeffs, dtype=self.codomain.dtype).copy()
        dn, dh = self.codomain.dim, self.domain.dim
        if w.shape != (dn, dh, dh):
            raise DimensionMismatchError(f"omega shape {w.shape} != ({dn},{dh},{dh})")
        if _antisymmetry_residual(w) != 0.0:
            raise ValueError("omega coefficients are not skew symmetric")
        w.setflags(write=False)
        object.__setattr__(self, "coeffs", w)

    def __call__(self, eta, eta2) -> np.ndarray:
        eta = _coords(eta, self.domain.dim)
        eta2 = _coords(eta2, self.domain.dim)
        return np.einsum("aij,i,j->a", self.coeffs, eta, eta2)

    def contract_left(self, eta) -> np.ndarray:
        """Matrix of omega(eta, .): h -> n."""
        eta = _coords(eta, self.domain.dim)
        return np.einsum("aij,i->aj", self.coeffs, eta)

    @classmethod
    def zero(cls, h: LieAlgebra, n: LieAlgebra) -> "SkewBilinearMap":
        return cls(h, n, np.zeros((n.dim, h.dim, h.dim), dtype=n.dtype))


@dataclass(frozen=True)
class DerivationMap:
    """phi: h -> End(n), one matrix per basis element of h.

    Whether each matrix actually is a derivation of n is reported by
    :func:`check_compatibility` (and enforced by :func:`build_extension`),
    not at construction, so that broken data can be diagnosed.
    """

    domain: LieAlgebra
    codomain: LieAlgebra
    mats: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=self.codomain.dtype).copy()
        dn, dh = self.codomain.dim, self.domain.dim
        if m.shape != (dh, dn, dn):
            raise DimensionMismatchError(f"phi shape {m.shape} != ({dh},{dn},{dn})")
        m.setflags(write=False)
        object.__setattr__(self, "mats", m)

    def __call__(self, eta) -> np.ndarray:
        """Matrix of phi(eta) acting on n coordinates."""
        eta = _coords(eta, self.domain.dim)
        return np.einsum("iab,i->ab", self.mats, eta)

    def applied_to(self, zeta) -> np.ndarray:
        """Matrix of the map y -> phi(y) zeta, from h to n."""
        zeta = _coords(zeta, self.codomain.dim)
        return np.einsum("iab,b->ai", self.mats, zeta)

    def derivation_residual(self) -> float:
        """Max defect of phi(e_i)[f_a, f_b] = [phi(e_i) f_a, f_b]
        + [f_a, phi(e_i) f_b] over all basis indices."""
        return _derivation_residual(self)

    @classmethod
    def zero(cls, h: LieAlgebra, n: LieAlgebra) -> "DerivationMap":
        return cls(h, n, np.zeros((h.dim, n.dim, n.dim), dtype=n.dtype))


def _derivation_residual(phi: DerivationMap) -> float:
    """D[f_a, f_b] - [D f_a, f_b] - [f_a, D f_b] over D = phi(e_i), as the
    max over (i, c, a, b) of

        sum_l m[i, c, l] cn[l, a, b] - cn[c, l, b] m[i, l, a]
                                     - cn[c, a, l] m[i, l, b]

    summed over nonzero products only."""
    (mi, mr, mc), mv = coo(phi.mats)
    (nk, na, nb), nv = coo(phi.codomain.structure_constants)
    p, q = join(mc, nk)  # m[i, c, l] cn[l, a, b]
    lhs = (mi[p], mr[p], na[q], nb[q]), mv[p] * nv[q]
    p, q = join(na, mr)  # cn[c, l, b] m[i, l, a]
    left = (mi[q], nk[p], mc[q], nb[p]), -nv[p] * mv[q]
    p, q = join(nb, mr)  # cn[c, a, l] m[i, l, b]
    right = (mi[q], nk[p], na[p], mc[q]), -nv[p] * mv[q]
    dh, dn = phi.domain.dim, phi.codomain.dim
    return max_abs_of_sum((dh, dn, dn, dn), [lhs, left, right])


@dataclass(frozen=True)
class ExtensionSpec:
    """The full datum (n, h, omega, phi) with the pairings of both factors."""

    n: LieAlgebra
    h: LieAlgebra
    omega: SkewBilinearMap
    phi: DerivationMap
    n_pairing: DualPairing
    h_pairing: DualPairing

    def __post_init__(self):
        if self.omega.domain is not self.h and self.omega.domain.dim != self.h.dim:
            raise DimensionMismatchError("omega domain does not match h")
        if self.omega.codomain is not self.n and self.omega.codomain.dim != self.n.dim:
            raise DimensionMismatchError("omega codomain does not match n")
        if self.phi.mats.shape != (self.h.dim, self.n.dim, self.n.dim):
            raise DimensionMismatchError("phi shape does not match (h, n)")
        if self.n_pairing.algebra.dim != self.n.dim:
            raise DimensionMismatchError("n_pairing does not match n")
        if self.h_pairing.algebra.dim != self.h.dim:
            raise DimensionMismatchError("h_pairing does not match h")

    @property
    def scalar_field(self) -> str:
        return (
            "complex"
            if "complex" in (self.n.scalar_field, self.h.scalar_field)
            else "real"
        )


@dataclass(frozen=True)
class Section:
    """A linear right inverse of the quotient by an ideal.

    ``matrix`` has shape (dim g, dim h) and sends quotient coordinates to
    ambient ones; its columns together with ``ideal_basis`` must span the
    ambient algebra, which is the split condition and makes the quotient
    projection well defined.
    """

    ambient: LieAlgebra
    ideal_basis: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        nb = np.atleast_2d(np.asarray(self.ideal_basis, dtype=self.ambient.dtype))
        s = np.asarray(self.matrix, dtype=self.ambient.dtype)
        dg = self.ambient.dim
        if nb.shape[0] != dg:
            raise DimensionMismatchError("ideal basis lives in the wrong space")
        if s.shape != (dg, dg - nb.shape[1]):
            raise DimensionMismatchError(
                f"section shape {s.shape} != ({dg}, {dg - nb.shape[1]})"
            )
        full = np.hstack([nb, s])
        sv = np.linalg.svd(full, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise SectionInconsistencyError(
                "section image is not a complement of the ideal"
            )
        object.__setattr__(self, "ideal_basis", nb)
        object.__setattr__(self, "matrix", s)

    @property
    def dim_h(self) -> int:
        return self.matrix.shape[1]

    def decompose(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Split an ambient vector as ideal part + section part; returns
        (ideal coordinates, quotient coordinates)."""
        xi = _coords(xi, self.ambient.dim)
        full = np.hstack([self.ideal_basis, self.matrix])
        sol = np.linalg.solve(full, xi)
        return sol[: self.ideal_basis.shape[1]], sol[self.ideal_basis.shape[1] :]


def _ideal_residual(g: LieAlgebra, ideal_basis: np.ndarray) -> float:
    """Largest component of [g, ideal] outside span(ideal)."""
    vecs = []
    eye = np.eye(g.dim, dtype=g.dtype)
    for i in range(g.dim):
        for c in range(ideal_basis.shape[1]):
            vecs.append(g.bracket(eye[i], ideal_basis[:, c]))
    return complement_residual(np.column_stack(vecs), ideal_basis)


def section_to_data(
    g: LieAlgebra, ideal: np.ndarray, section: Section | np.ndarray
) -> tuple[SkewBilinearMap, DerivationMap]:
    """Extract (omega, phi) from a section of the quotient by an ideal.

    omega(e, e') = [s e, s e'] - s [e, e'] expressed in the ideal basis and
    phi(e) = [s e, .] restricted to the ideal.  The quotient algebra (the
    domain of both results) and the ideal subalgebra (their codomain) are
    built on the way; access them as ``omega.domain`` and
    ``omega.codomain``.
    """
    ideal = np.atleast_2d(np.asarray(ideal, dtype=g.dtype))
    if not isinstance(section, Section):
        section = Section(g, ideal, np.asarray(section))
    res = _ideal_residual(g, ideal)
    if res > 1e-10:
        raise NotAnIdealError(f"[g, ideal] escapes span(ideal) by {res:g}")

    dn = ideal.shape[1]
    dh = section.dim_h
    s = section.matrix

    # subalgebra structure constants on the ideal
    cn = np.zeros((dn, dn, dn), dtype=g.dtype)
    for i in range(dn):
        for j in range(dn):
            v = g.bracket(ideal[:, i], ideal[:, j])
            zi, qi = section.decompose(v)
            if np.max(np.abs(qi)) > 1e-10:
                raise NotAnIdealError("ideal is not closed under the bracket")
            cn[:, i, j] = zi
    n_alg = LieAlgebra(cn, name="ideal", scalar_field=g.scalar_field)

    # quotient structure constants through the section
    ch = np.zeros((dh, dh, dh), dtype=g.dtype)
    wm = np.zeros((dn, dh, dh), dtype=g.dtype)
    for i in range(dh):
        for j in range(dh):
            v = g.bracket(s[:, i], s[:, j])
            zi, qi = section.decompose(v)
            ch[:, i, j] = qi
            # omega = [se, se'] - s[e, e']; the s[e, e'] part has no ideal
            # component, so the ideal coordinates of v are omega itself
            wm[:, i, j] = zi
    h_alg = LieAlgebra(ch, name="quotient", scalar_field=g.scalar_field)

    mats = np.zeros((dh, dn, dn), dtype=g.dtype)
    for i in range(dh):
        for a in range(dn):
            v = g.bracket(s[:, i], ideal[:, a])
            zi, qi = section.decompose(v)
            if np.max(np.abs(qi)) > 1e-10:
                raise SectionInconsistencyError(
                    "[s(e), ideal] escapes the span of the ideal"
                )
            mats[i, :, a] = zi

    # enforce exact skewness of the extracted cocycle
    wm = 0.5 * (wm - wm.transpose(0, 2, 1))
    omega = SkewBilinearMap(h_alg, n_alg, wm)
    phi = DerivationMap(h_alg, n_alg, mats)
    return omega, phi


@dataclass(frozen=True)
class CompatibilityReport:
    """Residuals of the three identities the cocycle data must satisfy.

    All three vanish exactly when the twisted bracket satisfies Jacobi.
    The cocycle identity is evaluated as the fully cyclic sum; the field
    ``cocycle_convention`` records that choice.
    """

    derivation_residual: float
    cocycle_residual: float
    representation_residual: float
    cocycle_convention: str = "cyclic"

    @property
    def max_residual(self) -> float:
        return max(
            self.derivation_residual,
            self.cocycle_residual,
            self.representation_residual,
        )

    @property
    def verdict(self) -> str:
        if self.max_residual < COMPATIBILITY_PASS:
            return "pass"
        if self.max_residual > COMPATIBILITY_FAIL:
            return "fail"
        return "indeterminate"

    def as_dict(self) -> dict:
        return {
            "derivation_residual": self.derivation_residual,
            "cocycle_residual": self.cocycle_residual,
            "representation_residual": self.representation_residual,
            "max_residual": self.max_residual,
            "verdict": self.verdict,
            "cocycle_convention": self.cocycle_convention,
        }


def check_compatibility(spec: ExtensionSpec) -> CompatibilityReport:
    """The three residuals; each is the max norm of a sum of products of
    nonzero coefficients, grouped by output index."""
    dn, dh = spec.n.dim, spec.h.dim
    (hk, hi, hj), hv = coo(spec.h.structure_constants)
    (nk, na, nb), nv = coo(spec.n.structure_constants)
    (wa, wi, wj), wv = coo(spec.omega.coeffs)
    (mi, mr, mc), mv = coo(spec.phi.mats)

    deriv = _derivation_residual(spec.phi)

    # cyclic cocycle identity, at (a, i, j, k):
    #   sum_cyc omega([e_i, e_j], e_k) - sum_cyc phi(e_i) omega(e_j, e_k)
    p, q = join(hk, wi)  # ch[l, i, j] w[a, l, k]
    omega_part = cyclic_terms(wa[q], hi[p], hj[p], wj[q], hv[p] * wv[q])
    p, q = join(mc, wa)  # m[i, a, b] w[b, j, k]
    phi_part = cyclic_terms(mr[p], mi[p], wi[q], wj[q], -mv[p] * wv[q])
    cocycle = max_abs_of_sum((dn, dh, dh, dh), omega_part + phi_part)

    # ad_{omega(e_i, e_j)} + phi([e_i, e_j]) - [phi(e_i), phi(e_j)], at (i, j, c, b)
    p, q = join(na, wa)  # cn[c, a, b] w[a, i, j]
    ad_omega = (wi[q], wj[q], nk[p], nb[p]), nv[p] * wv[q]
    p, q = join(hk, mi)  # ch[k, i, j] m[k, c, b]
    phi_bracket = (hi[p], hj[p], mr[q], mc[q]), hv[p] * mv[q]
    p, q = join(mc, mr)  # m[x, c, l] m[y, l, b]: -phi(e_x) phi(e_y) + phi(e_y) phi(e_x)
    t = mv[p] * mv[q]
    commutator = [((mi[p], mi[q], mr[p], mc[q]), -t), ((mi[q], mi[p], mr[p], mc[q]), t)]
    rep = max_abs_of_sum((dh, dh, dn, dn), [ad_omega, phi_bracket, *commutator])

    return CompatibilityReport(deriv, cocycle, rep)


def build_extension(
    spec: ExtensionSpec,
    *,
    force: bool = False,
    name: str = "",
    report: CompatibilityReport | None = None,
) -> LieAlgebra:
    """The algebra on n + h carrying the twisted bracket; n coordinates
    come first.  Refuses incompatible data unless ``force`` is given.
    ``report`` is ``check_compatibility(spec)`` when the caller holds it
    already; without it the check runs here."""
    if not force:
        report = check_compatibility(spec) if report is None else report
        if report.max_residual >= COMPATIBILITY_PASS:
            raise InvalidExtensionError(
                f"compatibility residual {report.max_residual:g} "
                f"(verdict: {report.verdict})"
            )
    dn, dh = spec.n.dim, spec.h.dim
    d = dn + dh
    dtype = complex if spec.scalar_field == "complex" else float
    m = spec.phi.mats
    c = np.zeros((d, d, d), dtype=dtype)
    c[:dn, :dn, :dn] = spec.n.structure_constants
    # [zeta, eta'] contributes -phi(eta') zeta; [eta, zeta'] gives +phi
    c[:dn, :dn, dn:] = -m.transpose(1, 2, 0)
    c[:dn, dn:, :dn] = m.transpose(1, 0, 2)
    c[:dn, dn:, dn:] = spec.omega.coeffs
    c[dn:, dn:, dn:] = spec.h.structure_constants
    c.setflags(write=False)  # LieAlgebra keeps a read-only array without a copy
    labels = tuple(f"n:{l}" for l in spec.n.basis_labels) + tuple(
        f"h:{l}" for l in spec.h.basis_labels
    )
    return LieAlgebra(
        c,
        basis_labels=labels,
        name=name or f"{spec.n.name}+{spec.h.name}",
        scalar_field=spec.scalar_field,
        built_from=spec,
        validate=False,
    )


def direct_sum_pairing(spec: ExtensionSpec, ext: LieAlgebra) -> DualPairing:
    """Block-diagonal pairing on the built extension: n gram then h gram."""
    dn, dh = spec.n.dim, spec.h.dim
    g = np.zeros((dn + dh, dn + dh), dtype=ext.dtype)
    g[:dn, :dn] = spec.n_pairing.gram
    g[dn:, dn:] = spec.h_pairing.gram
    return DualPairing(ext, g)


def _adjoint_through(
    gram_target: np.ndarray, gram_source: np.ndarray, matrix: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Dual of a map source -> target applied to a predual vector of the
    target: solves <out, y>_source = <b, matrix y>_target."""
    return np.linalg.solve(gram_source.T, matrix.T @ (gram_target.T @ b))


def coadjoint_extension(spec: ExtensionSpec, zeta_eta, c_a) -> tuple[np.ndarray, np.ndarray]:
    """Coadjoint action of the extension on the direct sum of preduals.

    Returns (ad*_zeta c + phi(eta)* c,
             omega(eta, .)* c - (phi(.) zeta)* c + ad*_eta a).
    All adjoints are taken through the stored pairings; the result agrees
    with ad_star on the built extension using the direct-sum pairing.
    """
    zeta, eta = zeta_eta
    c, a = c_a
    zeta = _coords(zeta, spec.n.dim)
    eta = _coords(eta, spec.h.dim)
    c = _coords(c, spec.n.dim)
    a = _coords(a, spec.h.dim)
    gn, gh = spec.n_pairing.gram, spec.h_pairing.gram

    c_out = ad_star(spec.n_pairing, zeta, c)
    c_out = c_out + _adjoint_through(gn, gn, spec.phi(eta), c)

    a_out = ad_star(spec.h_pairing, eta, a)
    a_out = a_out + _adjoint_through(gn, gh, spec.omega.contract_left(eta), c)
    a_out = a_out - _adjoint_through(gn, gh, spec.phi.applied_to(zeta), c)
    return c_out, a_out


@dataclass(frozen=True)
class ClosureReport:
    """Residuals of the invariance of designated predual subspaces under
    the three dual maps of the cocycle data; all zero means the subspaces
    qualify as preduals of the extension."""

    phi_star_into_c: float
    phi_slot_star_into_a: float
    omega_star_into_a: float

    @property
    def max_residual(self) -> float:
        return max(
            self.phi_star_into_c, self.phi_slot_star_into_a, self.omega_star_into_a
        )

    def as_dict(self) -> dict:
        return {
            "phi_star_into_c": self.phi_star_into_c,
            "phi_slot_star_into_a": self.phi_slot_star_into_a,
            "omega_star_into_a": self.omega_star_into_a,
        }


def check_predual_closure(
    spec: ExtensionSpec, c_sub: np.ndarray, a_sub: np.ndarray
) -> ClosureReport:
    """Measure how far the dual maps take the designated subspaces out of
    themselves.

    ``c_sub`` spans the candidate predual of n inside its coordinate dual,
    ``a_sub`` the one of h.  The three residuals are the largest components
    of phi(eta)* c outside span(c_sub), of (phi(.) zeta)* c outside
    span(a_sub), and of omega(eta, .)* c outside span(a_sub), over basis
    eta, zeta and an orthonormal basis of c_sub.

    Each family is one batched product over all basis elements and all
    columns u, followed by one solve against the source gram.
    """
    gn, gh = spec.n_pairing.gram, spec.h_pairing.gram
    cq = orthonormal_columns(np.asarray(c_sub, dtype=gn.dtype))
    aq = np.asarray(a_sub, dtype=gh.dtype)
    m, w = spec.phi.mats, spec.omega.coeffs
    dn, dh = spec.n.dim, spec.h.dim

    y = gn.T @ cq  # <u, .> on n for every column u, as coordinates
    # phi(e_i)^T y, (phi(.) f_j)^T y and omega(e_i, .)^T y, for all i, j, u
    phi_rhs = np.einsum("iab,au->biu", m, y, optimize=True).reshape(dn, -1)
    slot_rhs = np.einsum("iaj,au->iju", m, y, optimize=True).reshape(dh, -1)
    omega_rhs = np.einsum("aij,au->jiu", w, y, optimize=True).reshape(dh, -1)

    r_phi = complement_residual(np.linalg.solve(gn.T, phi_rhs), cq)
    r_slot = complement_residual(np.linalg.solve(gh.T, slot_rhs), aq)
    r_omega = complement_residual(np.linalg.solve(gh.T, omega_rhs), aq)
    return ClosureReport(r_phi, r_slot, r_omega)
