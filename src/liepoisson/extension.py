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
sum in (e, e', e''), and the report records that convention.  omega and
phi are stored as their nonzeros, like the constants of n and h; each
residual is summed over the nonzero products of those four, never over
dense (dim n, dim h, dim h, dim h) tensors, in blocks of its lead output
index (linalg.max_abs_by_lead), and :func:`build_extension` writes the
constants of n + h by offsetting their nonzeros.

The coadjoint action of the extension on the direct sum of the predual
models decomposes into dual maps of phi and omega; those dual maps are
also what the predual-closure check measures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import DualPairing, LieAlgebra, _antisymmetry_residual, _coords, ad_star
from .errors import (
    DimensionMismatchError,
    InvalidExtensionError,
    NotAnIdealError,
    SectionInconsistencyError,
)
from .linalg import (
    Coo,
    LeadJoin,
    as_coo,
    complement_residual,
    cyclic_terms,
    max_abs_by_lead,
    orthonormal_columns,
    orthonormal_complement,
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
    omega(e_i, e_j) = sum_a w[a, i, j] f_a in the basis of n.  ``entries``
    holds the nonzero w as a Coo (a dense array given instead is read
    through its nonzeros); ``coeffs`` builds the dense array.  Skew
    symmetry in (i, j) must hold exactly."""

    domain: LieAlgebra
    codomain: LieAlgebra
    entries: Coo

    def __post_init__(self):
        w = as_coo(self.entries, self.codomain.dtype)
        dn, dh = self.codomain.dim, self.domain.dim
        if w.shape != (dn, dh, dh):
            raise DimensionMismatchError(f"omega shape {w.shape} != ({dn},{dh},{dh})")
        if _antisymmetry_residual(w) != 0.0:
            raise ValueError("omega coefficients are not skew symmetric")
        object.__setattr__(self, "entries", w)

    @property
    def coeffs(self) -> np.ndarray:
        return self.entries.dense()

    def __call__(self, eta, eta2) -> np.ndarray:
        return self.contract_left(eta) @ _coords(eta2, self.domain.dim)

    def contract_left(self, eta) -> np.ndarray:
        """Matrix of omega(eta, .): h -> n."""
        return self.entries.contract({1: _coords(eta, self.domain.dim)})

    @classmethod
    def zero(cls, h: LieAlgebra, n: LieAlgebra) -> "SkewBilinearMap":
        return cls(h, n, Coo.of((n.dim, h.dim, h.dim), ([], [], []), [], n.dtype))


@dataclass(frozen=True)
class DerivationMap:
    """phi: h -> End(n), one matrix per basis element of h: ``entries``
    holds the nonzero m[i, a, b], the f_a coefficient of phi(e_i) f_b, as a
    Coo (a dense array given instead is read through its nonzeros);
    ``mats`` builds the dense array.

    Whether each matrix actually is a derivation of n is reported by
    :func:`check_compatibility` (and enforced by :func:`build_extension`),
    not at construction, so that broken data can be diagnosed.
    """

    domain: LieAlgebra
    codomain: LieAlgebra
    entries: Coo

    def __post_init__(self):
        m = as_coo(self.entries, self.codomain.dtype)
        dn, dh = self.codomain.dim, self.domain.dim
        if m.shape != (dh, dn, dn):
            raise DimensionMismatchError(f"phi shape {m.shape} != ({dh},{dn},{dn})")
        object.__setattr__(self, "entries", m)

    @property
    def mats(self) -> np.ndarray:
        return self.entries.dense()

    def __call__(self, eta) -> np.ndarray:
        """Matrix of phi(eta) acting on n coordinates."""
        return self.entries.contract({0: _coords(eta, self.domain.dim)})

    def applied_to(self, zeta) -> np.ndarray:
        """Matrix of the map y -> phi(y) zeta, from h to n."""
        return self.entries.contract({2: _coords(zeta, self.codomain.dim)}).T

    def derivation_residual(self) -> float:
        """Max defect of phi(e_i)[f_a, f_b] = [phi(e_i) f_a, f_b]
        + [f_a, phi(e_i) f_b] over all basis indices, that is the max over
        (i, c, a, b) of

            sum_l m[i, c, l] cn[l, a, b] - cn[c, l, b] m[i, l, a]
                                         - cn[c, a, l] m[i, l, b]

        summed over nonzero products only, in blocks of i."""
        (mi, mr, mc), mv = self.entries.idx, self.entries.values
        (nk, na, nb), nv = self.codomain.constants.idx, self.codomain.constants.values
        dh, dn = self.domain.dim, self.codomain.dim
        return max_abs_by_lead((dh, dn, dn, dn), [
            LeadJoin(mi, mc, nk, lambda p, q: [  # m[i, c, l] cn[l, a, b]
                ((mi[p], mr[p], na[q], nb[q]), mv[p] * nv[q])]),
            LeadJoin(mi, mr, na, lambda q, p: [  # cn[c, l, b] m[i, l, a]
                ((mi[q], nk[p], mc[q], nb[p]), -nv[p] * mv[q])]),
            LeadJoin(mi, mr, nb, lambda q, p: [  # cn[c, a, l] m[i, l, b]
                ((mi[q], nk[p], na[p], mc[q]), -nv[p] * mv[q])]),
        ])

    @classmethod
    def zero(cls, h: LieAlgebra, n: LieAlgebra) -> "DerivationMap":
        return cls(h, n, Coo.of((h.dim, n.dim, n.dim), ([], [], []), [], n.dtype))


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
        dn, dh = self.n.dim, self.h.dim
        if self.omega.entries.shape != (dn, dh, dh) or self.phi.entries.shape != (dh, dn, dn):
            raise DimensionMismatchError(f"omega or phi does not match dims (n, h) = ({dn}, {dh})")
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

    def decompose(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Split an ambient vector as ideal part + section part; returns
        (ideal coordinates, quotient coordinates)."""
        xi = _coords(xi, self.ambient.dim)
        full = np.hstack([self.ideal_basis, self.matrix])
        sol = np.linalg.solve(full, xi)
        return sol[: self.ideal_basis.shape[1]], sol[self.ideal_basis.shape[1] :]


def _ideal_residual(g: LieAlgebra, ideal_basis: np.ndarray) -> float:
    """Largest component of [g, ideal] outside span(ideal)."""
    brackets = np.einsum("kij,jc->kic", g.structure_constants, ideal_basis)
    return complement_residual(brackets.reshape(g.dim, -1), ideal_basis)


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

    # ideal then quotient coordinates of [b_i, b_j] for the basis b of the
    # ideal followed by the section image, as Section.decompose splits them
    dn = ideal.shape[1]
    full = np.hstack([section.ideal_basis, section.matrix])
    brackets = np.einsum("kab,ai,bj->kij", g.structure_constants, full, full)
    brackets = 0.5 * (brackets - brackets.transpose(0, 2, 1))  # exactly skew
    coords = np.linalg.solve(full, brackets.reshape(g.dim, -1)).reshape(brackets.shape)
    z, q = coords[:dn], coords[dn:]
    if np.max(np.abs(q[:, :dn, :dn]), initial=0.0) > 1e-10:
        raise NotAnIdealError("ideal is not closed under the bracket")
    if np.max(np.abs(q[:, dn:, :dn]), initial=0.0) > 1e-10:
        raise SectionInconsistencyError("[s(e), ideal] escapes the span of the ideal")
    n_alg = LieAlgebra(z[:, :dn, :dn], name="ideal", scalar_field=g.scalar_field)
    h_alg = LieAlgebra(q[:, dn:, dn:], name="quotient", scalar_field=g.scalar_field)
    # omega = [se, se'] - s[e, e']; the s[e, e'] part has no ideal component,
    # so the ideal coordinates of [se, se'] are omega itself; phi(e_i) f_a
    # has the ideal coordinates of [s e_i, f_a]
    omega = SkewBilinearMap(h_alg, n_alg, z[:, dn:, dn:])
    phi = DerivationMap(h_alg, n_alg, z[:, dn:, :dn].transpose(1, 0, 2))
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
        return {**asdict(self), "max_residual": self.max_residual, "verdict": self.verdict}


def check_compatibility(spec: ExtensionSpec) -> CompatibilityReport:
    """The three residuals; each is the max norm of a sum of products of
    nonzero coefficients, grouped by output index and formed in blocks of
    its first output index."""
    dn, dh = spec.n.dim, spec.h.dim
    (hk, hi, hj), hv = spec.h.constants.idx, spec.h.constants.values
    (nk, na, nb), nv = spec.n.constants.idx, spec.n.constants.values
    (wa, wi, wj), wv = spec.omega.entries.idx, spec.omega.entries.values
    (mi, mr, mc), mv = spec.phi.entries.idx, spec.phi.entries.values

    deriv = spec.phi.derivation_residual()

    # cyclic cocycle identity, at (a, i, j, k):
    #   sum_cyc omega([e_i, e_j], e_k) - sum_cyc phi(e_i) omega(e_j, e_k)
    cocycle = max_abs_by_lead((dn, dh, dh, dh), [
        LeadJoin(wa, wi, hk, lambda q, p: cyclic_terms(  # ch[l, i, j] w[a, l, k]
            wa[q], hi[p], hj[p], wj[q], hv[p] * wv[q])),
        LeadJoin(mr, mc, wa, lambda p, q: cyclic_terms(  # m[i, a, b] w[b, j, k]
            mr[p], mi[p], wi[q], wj[q], -mv[p] * wv[q])),
    ])

    # ad_{omega(e_i, e_j)} + phi([e_i, e_j]) - [phi(e_i), phi(e_j)], at (i, j, c, b);
    # m[x, c, l] m[y, l, b] adds -phi(e_x) phi(e_y) at x and +phi(e_y) phi(e_x) at y
    rep = max_abs_by_lead((dh, dh, dn, dn), [
        LeadJoin(wi, wa, na, lambda q, p: [  # cn[c, a, b] w[a, i, j]
            ((wi[q], wj[q], nk[p], nb[p]), nv[p] * wv[q])]),
        LeadJoin(hi, hk, mi, lambda p, q: [  # ch[k, i, j] m[k, c, b]
            ((hi[p], hj[p], mr[q], mc[q]), hv[p] * mv[q])]),
        LeadJoin(mi, mc, mr, lambda p, q: [
            ((mi[p], mi[q], mr[p], mc[q]), -(mv[p] * mv[q]))]),
        LeadJoin(mi, mr, mc, lambda q, p: [
            ((mi[q], mi[p], mr[p], mc[q]), mv[p] * mv[q])]),
    ])

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
    dn = spec.n.dim
    (nk, na, nb), nv = spec.n.constants.idx, spec.n.constants.values
    (hk, hi, hj), hv = spec.h.constants.idx, spec.h.constants.values
    (wa, wi, wj), wv = spec.omega.entries.idx, spec.omega.entries.values
    (mi, mr, mc), mv = spec.phi.entries.idx, spec.phi.entries.values
    # the five blocks of (k, i, j, value), h indices offset by dn:
    # [zeta, eta'] contributes -phi(eta') zeta and [eta, zeta'] +phi(eta) zeta'
    blocks = (
        (nk, na, nb, nv),
        (mr, mc, dn + mi, -mv),
        (mr, dn + mi, mc, mv),
        (wa, dn + wi, dn + wj, wv),
        (dn + hk, dn + hi, dn + hj, hv),
    )
    k, i, j, v = (np.concatenate(col) for col in zip(*blocks))
    c = Coo.of((dn + spec.h.dim,) * 3, (k, i, j), v)
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
        return asdict(self)


def _dual_residual(row, block, summed, values, y, m) -> float:
    """Largest norm of ``m @ r`` over the columns r, one per (block, u), of
    sum values * y[summed, u] over the entries at each row; with ``m`` the
    complement coordinates of gram^-T, that is the largest component of
    gram^-T r outside the designated predual.  Each block's columns are
    formed at once, as ``(m[:, row] * values) @ y[summed]``; nothing is
    formed when the complement is empty."""
    if m.shape[0] == 0:
        return 0.0
    order = np.argsort(block, kind="stable")
    starts = np.flatnonzero(np.diff(block[order], prepend=-1))
    worst = 0.0
    for e in np.split(order, starts[1:]):
        mr = (m[:, row[e]] * values[e]) @ y[summed[e]]
        worst = max(worst, float(np.max(np.linalg.norm(mr, axis=0), initial=0.0)))
    return worst


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

    Each residual is taken in coordinates of the orthogonal complement of
    the target subspace: with Q_perp its orthonormal basis, the component
    of gram^-T r outside the subspace has the norm of M r, M =
    Q_perp^H gram^-T, formed once.  A designated predual that is the whole
    space has an empty complement, and its residuals are exactly 0 with
    nothing formed.
    """
    gn, gh = spec.n_pairing.gram, spec.h_pairing.gram
    c_sub = np.asarray(c_sub, dtype=gn.dtype)
    to_c, to_a = _complement_map(gn, c_sub), _complement_map(gh, a_sub)
    if not (to_c.size or to_a.size):
        return ClosureReport(0.0, 0.0, 0.0)
    (mi, ma, mb), mv = spec.phi.entries.idx, spec.phi.entries.values
    (wa, wi, wj), wv = spec.omega.entries.idx, spec.omega.entries.values
    y = gn.T @ orthonormal_columns(c_sub)  # <u, .> on n for every column u, as coordinates
    # phi(e_i)^T y, (phi(.) f_b)^T y and omega(e_i, .)^T y, for all i, b, u
    return ClosureReport(
        _dual_residual(mb, mi, ma, mv, y, to_c),
        _dual_residual(mi, mb, ma, mv, y, to_a),
        _dual_residual(wj, wi, wa, wv, y, to_a),
    )


def _complement_map(gram: np.ndarray, sub) -> np.ndarray:
    """M = Q_perp^H gram^-T = (gram^-1 conj(Q_perp))^T, for Q_perp an
    orthonormal basis of the orthogonal complement of span(sub): no row
    when ``sub`` spans the whole space."""
    q = orthonormal_complement(np.asarray(sub))
    return np.linalg.solve(gram, q.conj()).T if q.shape[1] else q.T
