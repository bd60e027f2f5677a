"""Block-operator model of the restricted algebra over a polarized space.

The ambient space splits as H = H+ + H- at truncation dims (n+, n-); an
operator is stored by its four blocks

    X = [[pp, pm],
         [mp, mm]]

with diagonal blocks measured in the operator norm and off-diagonal ones
in the Hilbert-Schmidt (Frobenius) norm.  The same layout serves for
predual points sigma, paired with operators through

    <sigma, X> = trace(sigma_pp X_pp + sigma_mm X_mm
                       + sigma_pm X_mp + sigma_mp X_pm),

which at finite dims equals the full trace of the matrix product.

The ideal slot consists of (n+ x n+) matrices carrying the NEGATIVE
commutator bracket; the twisting maps are

    phi(X) rho   = [X_pp, rho]
    omega(X, X') = X_pm X'_mp - X'_pm X_mp,

and their dual maps have the closed forms

    phi(X)* kappa        = -[X_pp, kappa]
    (phi(.) rho)* kappa  = [[ [rho, kappa], 0], [0, 0]]
    omega(X, .)* kappa   = [[0, kappa X_pm], [-X_mp kappa, 0]].

In the bracket and field formulas below, commutators between kappa-slot
quantities carry the negative-commutator sign of the ideal; writing them
with the plain matrix commutator and the sign made explicit keeps the
cross-check against the generic extension machinery exact.

The closed-form bracket and field take a real-valued function of the
flat predual point b = (c, a) of :func:`restricted_extension_spec`:
c = kappa and a = sigma (as its full matrix), both row-major and complex.
Their slot gradients are :func:`~liepoisson.poisson.functional_derivative`
split by that spec's trace pairings,

    d/dt f(kappa + t dk, sigma)  = Re trace(dk df/dkappa)
    d/dt f(kappa, sigma + t ds)  = Re trace(ds df/dsigma),

so each gradient is the transpose of the matrix of raw partials
d/dRe - i d/dIm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DualPairing,
    LieAlgebra,
    _commutator_constants,
    _coords,
    gl,
    matrix_trace_gram,
)
from .errors import DimensionMismatchError
from .extension import DerivationMap, ExtensionSpec, SkewBilinearMap
from .poisson import SmoothFunction, slot_derivatives

__all__ = [
    "BlockOperator",
    "block_norm",
    "block_pairing",
    "restricted_phi",
    "restricted_omega",
    "restricted_bracket",
    "restricted_dual_maps",
    "restricted_poisson_bracket",
    "restricted_hamiltonian_field",
    "restricted_extension_spec",
    "random_block",
    "block_to_json",
    "block_from_json",
]


@dataclass(frozen=True)
class BlockOperator:
    """Four blocks of an operator over the polarization; also used for
    predual points (same layout, different norms)."""

    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray

    def __post_init__(self):
        pp = np.atleast_2d(np.asarray(self.pp, dtype=complex))
        pm = np.atleast_2d(np.asarray(self.pm, dtype=complex))
        mp = np.atleast_2d(np.asarray(self.mp, dtype=complex))
        mm = np.atleast_2d(np.asarray(self.mm, dtype=complex))
        np_, nm = pp.shape[0], mm.shape[0]
        if pp.shape != (np_, np_) or mm.shape != (nm, nm):
            raise DimensionMismatchError("diagonal blocks must be square")
        if pm.shape != (np_, nm) or mp.shape != (nm, np_):
            raise DimensionMismatchError(
                f"off-diagonal blocks {pm.shape}, {mp.shape} do not match dims ({np_}, {nm})"
            )
        for name, b in (("pp", pp), ("pm", pm), ("mp", mp), ("mm", mm)):
            object.__setattr__(self, name, b)

    @property
    def dims(self) -> tuple[int, int]:
        return self.pp.shape[0], self.mm.shape[0]

    def to_full(self) -> np.ndarray:
        top = np.concatenate([self.pp, self.pm], axis=1)
        return np.concatenate([top, np.concatenate([self.mp, self.mm], axis=1)])

    @classmethod
    def from_full(cls, m: np.ndarray, n_plus: int) -> "BlockOperator":
        m = np.asarray(m)
        return cls(
            m[:n_plus, :n_plus],
            m[:n_plus, n_plus:],
            m[n_plus:, :n_plus],
            m[n_plus:, n_plus:],
        )

    @classmethod
    def zero(cls, n_plus: int, n_minus: int) -> "BlockOperator":
        return cls(
            np.zeros((n_plus, n_plus)),
            np.zeros((n_plus, n_minus)),
            np.zeros((n_minus, n_plus)),
            np.zeros((n_minus, n_minus)),
        )

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(
            self.pp + other.pp, self.pm + other.pm, self.mp + other.mp, self.mm + other.mm
        )

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(
            self.pp - other.pp, self.pm - other.pm, self.mp - other.mp, self.mm - other.mm
        )

    def __mul__(self, s) -> "BlockOperator":
        return BlockOperator(s * self.pp, s * self.pm, s * self.mp, s * self.mm)

    __rmul__ = __mul__


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def block_norm(x: BlockOperator) -> float:
    """Operator norms of the diagonal blocks plus Hilbert-Schmidt norms of
    the off-diagonal ones."""
    return float(
        np.linalg.norm(x.pp, 2)
        + np.linalg.norm(x.mm, 2)
        + np.linalg.norm(x.pm)
        + np.linalg.norm(x.mp)
    )


def block_pairing(sigma: BlockOperator, x: BlockOperator) -> complex:
    """trace(sigma_pp x_pp + sigma_mm x_mm + sigma_pm x_mp + sigma_mp x_pm),
    the full matrix trace of sigma x."""
    if sigma.dims != x.dims:
        raise DimensionMismatchError(f"dims {sigma.dims} != {x.dims}")
    return complex(
        np.trace(sigma.pp @ x.pp)
        + np.trace(sigma.mm @ x.mm)
        + np.trace(sigma.pm @ x.mp)
        + np.trace(sigma.mp @ x.pm)
    )


def restricted_phi(x: BlockOperator, rho: np.ndarray) -> np.ndarray:
    """phi(X) rho = [X_pp, rho]; a derivation of the ideal slot."""
    rho = np.asarray(rho)
    if rho.shape != (x.dims[0], x.dims[0]):
        raise DimensionMismatchError("rho does not match n+")
    return _comm(x.pp, rho)


def restricted_omega(x: BlockOperator, x2: BlockOperator) -> np.ndarray:
    """omega(X, X') = X_pm X'_mp - X'_pm X_mp; skew and (n+ x n+)-valued."""
    if x.dims != x2.dims:
        raise DimensionMismatchError(f"dims {x.dims} != {x2.dims}")
    return x.pm @ x2.mp - x2.pm @ x.mp


def _block_comm(x: BlockOperator, y: BlockOperator) -> BlockOperator:
    return BlockOperator.from_full(
        _comm(x.to_full(), y.to_full()), x.dims[0]
    )


def restricted_bracket(
    rho_x: tuple[np.ndarray, BlockOperator], rho_x2: tuple[np.ndarray, BlockOperator]
) -> tuple[np.ndarray, BlockOperator]:
    """Bracket of the twisted sum: the ideal slot collects the negative
    commutator of the rho parts plus the phi and omega corrections, the
    block slot is the plain commutator."""
    rho, x = rho_x
    rho2, x2 = rho_x2
    # grouped so that swapping the arguments negates every intermediate
    # exactly, making antisymmetry hold to the last bit
    phi_part = restricted_phi(x, rho2) - restricted_phi(x2, rho)
    first = (
        -_comm(np.asarray(rho), np.asarray(rho2)) + phi_part
    ) + restricted_omega(x, x2)
    return first, _block_comm(x, x2)


def restricted_dual_maps(
    x: BlockOperator, rho: np.ndarray, kappa: np.ndarray
) -> tuple[np.ndarray, BlockOperator, BlockOperator]:
    """Closed forms of the three dual maps applied to kappa:

    phi(X)* kappa = -[X_pp, kappa],
    (phi(.) rho)* kappa = [[ [rho, kappa], 0], [0, 0]],
    omega(X, .)* kappa = [[0, kappa X_pm], [-X_mp kappa, 0]].

    Each equals the brute-force pairing adjoint of phi(X), phi(.) rho and
    omega(X, .) respectively.
    """
    n_plus, n_minus = x.dims
    kappa = np.asarray(kappa)
    if kappa.shape != (n_plus, n_plus):
        raise DimensionMismatchError("kappa does not match n+")
    rho = np.asarray(rho)
    phi_star = -_comm(x.pp, kappa)
    phidot_star = BlockOperator(
        _comm(rho, kappa),
        np.zeros((n_plus, n_minus)),
        np.zeros((n_minus, n_plus)),
        np.zeros((n_minus, n_minus)),
    )
    omega_star = BlockOperator(
        np.zeros((n_plus, n_plus)),
        kappa @ x.pm,
        -x.mp @ kappa,
        np.zeros((n_minus, n_minus)),
    )
    return phi_star, phidot_star, omega_star


# the Poisson structure on flat (kappa, sigma) points
# ---------------------------------------------------------------------------


@functools.cache
def _slot_pairings(n_plus: int, n_minus: int) -> tuple[DualPairing, DualPairing]:
    """The trace pairings of :func:`restricted_extension_spec` at these
    dims, built once per size."""
    spec = restricted_extension_spec(n_plus, n_minus)
    return spec.n_pairing, spec.h_pairing


def _blocks(c, a, dims: tuple[int, int]) -> tuple[np.ndarray, BlockOperator]:
    """(kappa, sigma) from their row-major slot coordinates."""
    n_plus, n = dims[0], sum(dims)
    return np.reshape(c, (n_plus, n_plus)), BlockOperator.from_full(np.reshape(a, (n, n)), n_plus)


def _point(b, dims: tuple[int, int]) -> tuple[np.ndarray, BlockOperator]:
    dn = dims[0] ** 2
    return _blocks(*np.split(_coords(b, dn + sum(dims) ** 2), [dn]), dims)


def _gradients(f: SmoothFunction, b, dims) -> tuple[np.ndarray, BlockOperator]:
    """(df/dkappa, df/dsigma) at the flat point b."""
    return _blocks(*slot_derivatives(f, b, *_slot_pairings(*dims)), dims)


def restricted_poisson_bracket(
    f: SmoothFunction, g: SmoothFunction, b, dims: tuple[int, int]
) -> float:
    """{f, g}(kappa, sigma) =
        Re <sigma, [df/dsigma, dg/dsigma]>
      + Re trace(kappa (-[df/dkappa, dg/dkappa]
                        - [(dg/dsigma)_pp, df/dkappa]
                        + [(df/dsigma)_pp, dg/dkappa]
                        + omega(df/dsigma, dg/dsigma)))

    at the flat point b = (kappa, sigma) of the block model at ``dims``.
    The leading minus of the kappa-kappa commutator is the negative
    commutator of the ideal slot; with it the bracket coincides with the
    generic extension bracket of the equivalent cocycle data.
    """
    kappa, sigma = _point(b, dims)
    fk, fs = _gradients(f, b, dims)
    gk, gs = _gradients(g, b, dims)
    term_sigma = np.real(block_pairing(sigma, _block_comm(fs, gs)))
    inner = (
        -_comm(fk, gk)
        - _comm(gs.pp, fk)
        + _comm(fs.pp, gk)
        + restricted_omega(fs, gs)
    )
    return float(term_sigma + np.real(np.trace(kappa @ inner)))


def restricted_hamiltonian_field(h: SmoothFunction, b, dims: tuple[int, int]) -> np.ndarray:
    """(kappa_dot, sigma_dot) of the Hamiltonian flow of h at the flat point
    b, flat in the layout of b:

    kappa_dot = [kappa, dh/dkappa] - [kappa, (dh/dsigma)_pp]
    sigma_dot = -omega(dh/dsigma, .)* kappa + (phi(.) dh/dkappa)* kappa
                - [sigma, dh/dsigma].

    The kappa-kappa commutator again carries the negative-commutator sign;
    the contract d/dt f = {f, h} holds along the field.
    """
    kappa, sigma = _point(b, dims)
    hk, hs = _gradients(h, b, dims)
    phi_star, phidot_star, omega_star = restricted_dual_maps(hs, hk, kappa)
    # ad*_{hk} kappa = [hk, kappa] for the negative-commutator slot, and
    # phi(hs)* kappa = -[hs_pp, kappa] = phi_star
    kappa_dot = -_comm(hk, kappa) - phi_star
    sigma_dot = (
        BlockOperator.zero(*dims)
        - omega_star
        + phidot_star
        - BlockOperator.from_full(_comm(sigma.to_full(), hs.to_full()), dims[0])
    )
    return np.concatenate([kappa_dot.ravel(), sigma_dot.to_full().ravel()])


# ---------------------------------------------------------------------------
# the equivalent generic extension data
# ---------------------------------------------------------------------------


def _negative_commutator_algebra(n: int) -> LieAlgebra:
    """(n x n) matrices with bracket -(ab - ba), row-major basis."""
    c = _commutator_constants(n, sign=-1.0, dtype=complex)
    return LieAlgebra(c, name=f"l1({n})", scalar_field="complex")


def restricted_extension_spec(n_plus: int, n_minus: int) -> ExtensionSpec:
    """The cocycle data of the block model as a generic ExtensionSpec.

    The ideal is the negative-commutator algebra on (n+ x n+) matrices
    with the trace pairing; the block algebra is gl(n+ + n-) with the
    block pairing (equal to the full trace pairing at finite dims); omega
    and phi are transcribed into coordinates.  Cross-checking the closed
    forms above against the generic operations on this spec is the key
    validation of the module.

    Both are written down from the basis E_pq of gl(n), index p n + q: the
    only nonzero omega values are omega(E_pq, E_qr) = E_pr = -omega(E_qr,
    E_pq) for p, r < n+ <= q, and phi(E_pq) for p, q < n+ sends E_qb to
    E_pb and E_ap to -E_aq.
    """
    n = n_plus + n_minus
    n_alg = _negative_commutator_algebra(n_plus)
    h_alg = gl(n, scalar_field="complex")

    dn, dh = n_plus * n_plus, n * n
    w = np.zeros((dn, dh, dh), dtype=complex)
    p, q, r = np.indices((n_plus, n_minus, n_plus)).reshape(3, -1)
    q = q + n_plus
    w[p * n_plus + r, p * n + q, q * n + r] = 1.0
    w[p * n_plus + r, q * n + r, p * n + q] = -1.0

    # phi(E_pq) rho = E_pq rho - rho E_pq on row-major coordinates of rho
    mats = np.zeros((dh, dn, dn), dtype=complex)
    p, q, b = np.indices((n_plus,) * 3).reshape(3, -1)
    np.add.at(mats, (p * n + q, p * n_plus + b, q * n_plus + b), 1.0)
    np.add.at(mats, (p * n + q, b * n_plus + q, b * n_plus + p), -1.0)

    n_pairing = DualPairing(n_alg, matrix_trace_gram(n_plus).astype(complex))
    h_pairing = DualPairing(h_alg, matrix_trace_gram(n).astype(complex))
    return ExtensionSpec(
        n_alg,
        h_alg,
        SkewBilinearMap(h_alg, n_alg, w),
        DerivationMap(h_alg, n_alg, mats),
        n_pairing,
        h_pairing,
    )


# ---------------------------------------------------------------------------
# constructors and serialization
# ---------------------------------------------------------------------------


def random_block(n_plus: int, n_minus: int, rng: np.random.Generator) -> BlockOperator:
    """A block operator with independent standard complex gaussian entries."""
    def g(r, c):
        return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    return BlockOperator(
        g(n_plus, n_plus), g(n_plus, n_minus), g(n_minus, n_plus), g(n_minus, n_minus)
    )


def _cplx_out(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]


def _cplx_in(rows) -> np.ndarray:
    return np.array([[complex(v[0], v[1]) for v in row] for row in rows])


def block_to_json(x: BlockOperator) -> dict:
    return {
        "dims": list(x.dims),
        "pp": _cplx_out(x.pp),
        "pm": _cplx_out(x.pm),
        "mp": _cplx_out(x.mp),
        "mm": _cplx_out(x.mm),
    }


def block_from_json(doc: dict) -> BlockOperator:
    return BlockOperator(
        _cplx_in(doc["pp"]), _cplx_in(doc["pm"]), _cplx_in(doc["mp"]), _cplx_in(doc["mm"])
    )
