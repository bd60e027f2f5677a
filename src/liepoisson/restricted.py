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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    DualPairing,
    LieAlgebra,
    _commutator_constants,
    gl,
    matrix_trace_gram,
)
from .errors import DimensionMismatchError
from .extension import DerivationMap, ExtensionSpec, SkewBilinearMap
from .poisson import PairFunction, fd_gradient
from .tolerances import FD_STEP

__all__ = [
    "BlockOperator",
    "RestrictedState",
    "RestrictedFunction",
    "block_norm",
    "block_pairing",
    "restricted_phi",
    "restricted_omega",
    "restricted_bracket",
    "restricted_dual_maps",
    "restricted_poisson_bracket",
    "restricted_hamiltonian_field",
    "restricted_extension_spec",
    "state_coordinates",
    "named_restricted_hamiltonian",
    "as_pair_function",
    "random_block",
    "diagonal_block",
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


@dataclass(frozen=True)
class RestrictedState:
    """A point (kappa, sigma) of the predual: kappa is an (n+ x n+) matrix
    in the compact-model slot, sigma a block predual point."""

    kappa: np.ndarray
    sigma: BlockOperator

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.kappa, dtype=complex))
        n_plus = self.sigma.dims[0]
        if k.shape != (n_plus, n_plus):
            raise DimensionMismatchError(
                f"kappa shape {k.shape} does not match n+ = {n_plus}"
            )
        object.__setattr__(self, "kappa", k)

    @property
    def dims(self) -> tuple[int, int]:
        return self.sigma.dims


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


# ---------------------------------------------------------------------------
# functions of (kappa, sigma) and the Poisson structure
# ---------------------------------------------------------------------------


@dataclass
class RestrictedFunction:
    """A real-valued function of a :class:`RestrictedState`.

    Analytic gradients, when given, are the dual-side representatives:
    ``grad_kappa`` returns an (n+ x n+) matrix G with directional
    derivative Re trace(d_kappa G); ``grad_sigma`` returns a
    :class:`BlockOperator` X with derivative Re <d_sigma, X>.  Without
    them, realified central differences are used.
    """

    eval: Callable[[RestrictedState], float]
    grad_kappa: Callable[[RestrictedState], np.ndarray] | None = None
    grad_sigma: Callable[[RestrictedState], BlockOperator] | None = None
    fd_step: float = FD_STEP


def _sigma_vec(sigma: BlockOperator) -> np.ndarray:
    return sigma.to_full().reshape(-1)

def _sigma_from_vec(v: np.ndarray, dims: tuple[int, int]) -> BlockOperator:
    n = dims[0] + dims[1]
    return BlockOperator.from_full(np.asarray(v).reshape(n, n), dims[0])


def restricted_gradients(
    f: RestrictedFunction, state: RestrictedState
) -> tuple[np.ndarray, BlockOperator]:
    """(df/dkappa, df/dsigma) at the state, analytic or by differences."""
    n_plus, n_minus = state.dims
    if f.grad_kappa is not None:
        gk = np.asarray(f.grad_kappa(state), dtype=complex)
    else:
        def fk(v):
            return f.eval(RestrictedState(v.reshape(n_plus, n_plus), state.sigma))
        raw = fd_gradient(fk, state.kappa.reshape(-1).astype(complex), f.fd_step)
        # raw is d/dRe - i d/dIm of coordinates of kappa; the trace-pairing
        # representative G satisfies vec(G) = gram^{-1} raw, i.e. G = unvec(raw)^T
        gk = raw.reshape(n_plus, n_plus).T
    if f.grad_sigma is not None:
        gs = f.grad_sigma(state)
    else:
        def fs(v):
            return f.eval(RestrictedState(state.kappa, _sigma_from_vec(v, state.dims)))
        raw = fd_gradient(fs, _sigma_vec(state.sigma).astype(complex), f.fd_step)
        n = n_plus + n_minus
        gs = BlockOperator.from_full(raw.reshape(n, n).T, n_plus)
    return gk, gs


def restricted_poisson_bracket(
    f: RestrictedFunction, g: RestrictedFunction, state: RestrictedState
) -> float:
    """{f, g}(kappa, sigma) =
        Re <sigma, [df/dsigma, dg/dsigma]>
      + Re trace(kappa (-[df/dkappa, dg/dkappa]
                        - [(dg/dsigma)_pp, df/dkappa]
                        + [(df/dsigma)_pp, dg/dkappa]
                        + omega(df/dsigma, dg/dsigma))).

    The leading minus of the kappa-kappa commutator is the negative
    commutator of the ideal slot; with it the bracket coincides with the
    generic extension bracket of the equivalent cocycle data.
    """
    fk, fs = restricted_gradients(f, state)
    gk, gs = restricted_gradients(g, state)
    term_sigma = np.real(block_pairing(state.sigma, _block_comm(fs, gs)))
    inner = (
        -_comm(fk, gk)
        - _comm(gs.pp, fk)
        + _comm(fs.pp, gk)
        + restricted_omega(fs, gs)
    )
    return float(term_sigma + np.real(np.trace(state.kappa @ inner)))


def restricted_hamiltonian_field(
    h: RestrictedFunction, state: RestrictedState
) -> tuple[np.ndarray, BlockOperator]:
    """(kappa_dot, sigma_dot) of the Hamiltonian flow of h:

    kappa_dot = [kappa, dh/dkappa] - [kappa, (dh/dsigma)_pp]
    sigma_dot = -omega(dh/dsigma, .)* kappa + (phi(.) dh/dkappa)* kappa
                - [sigma, dh/dsigma].

    The kappa-kappa commutator again carries the negative-commutator sign;
    the contract d/dt f = {f, h} holds along the field.
    """
    hk, hs = restricted_gradients(h, state)
    kappa = state.kappa
    phi_star, phidot_star, omega_star = restricted_dual_maps(hs, hk, kappa)
    # ad*_{hk} kappa = [hk, kappa] for the negative-commutator slot, and
    # phi(hs)* kappa = -[hs_pp, kappa] = phi_star
    kappa_dot = -_comm(hk, kappa) - phi_star
    sigma_dot = (
        BlockOperator.zero(*state.dims)
        - omega_star
        + phidot_star
        - BlockOperator.from_full(
            _comm(state.sigma.to_full(), hs.to_full()), state.dims[0]
        )
    )
    return kappa_dot, sigma_dot


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


def state_coordinates(state: RestrictedState) -> tuple[np.ndarray, np.ndarray]:
    """(c, a) coordinates of a state for the equivalent extension spec."""
    return state.kappa.reshape(-1), _sigma_vec(state.sigma)


def named_restricted_hamiltonian(
    name: str, params: dict, dims: tuple[int, int]
) -> RestrictedFunction:
    """Hamiltonians addressable from configs: "linear_kappa" (matrix A),
    "linear_sigma" (block X0), "quadratic" (sum of the two squares)."""
    n_plus, n_minus = dims
    if name == "linear_kappa":
        a0 = np.asarray(params["A"], dtype=complex)
        return RestrictedFunction(
            eval=lambda st: float(np.real(np.trace(st.kappa @ a0))),
            grad_kappa=lambda st: a0,
            grad_sigma=lambda st: BlockOperator.zero(n_plus, n_minus),
        )
    if name == "linear_sigma":
        x0 = params["X0"]
        if not isinstance(x0, BlockOperator):
            x0 = block_from_json(x0)
        return RestrictedFunction(
            eval=lambda st: float(np.real(block_pairing(st.sigma, x0))),
            grad_kappa=lambda st: np.zeros((n_plus, n_plus), dtype=complex),
            grad_sigma=lambda st: x0,
        )
    if name == "quadratic":
        return RestrictedFunction(
            eval=lambda st: float(
                0.5 * np.real(np.trace(st.kappa @ st.kappa))
                + 0.5 * np.real(block_pairing(st.sigma, st.sigma))
            ),
            grad_kappa=lambda st: st.kappa,
            grad_sigma=lambda st: st.sigma,
        )
    raise KeyError(f"unknown restricted hamiltonian {name!r}")


def as_pair_function(f: RestrictedFunction, dims: tuple[int, int]) -> PairFunction:
    """Transport a restricted function to the coordinates of the
    equivalent extension spec, carrying analytic gradients along."""
    n_plus, n_minus = dims

    def _state(c, a):
        return RestrictedState(
            np.asarray(c).reshape(n_plus, n_plus), _sigma_from_vec(a, dims)
        )

    grad_c = None
    grad_a = None
    if f.grad_kappa is not None:
        def grad_c(c, a):
            return np.asarray(f.grad_kappa(_state(c, a)), dtype=complex).reshape(-1)
    if f.grad_sigma is not None:
        def grad_a(c, a):
            return _sigma_vec(f.grad_sigma(_state(c, a))).astype(complex)

    return PairFunction(
        eval=lambda c, a: f.eval(_state(c, a)),
        grad_c=grad_c,
        grad_a=grad_a,
        fd_step=f.fd_step,
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


def diagonal_block(diag_plus, diag_minus) -> BlockOperator:
    """Diagonal blocks from two coefficient lists, zero off-diagonal."""
    dp = np.asarray(diag_plus, dtype=complex)
    dm = np.asarray(diag_minus, dtype=complex)
    return BlockOperator(
        np.diag(dp),
        np.zeros((dp.size, dm.size)),
        np.zeros((dm.size, dp.size)),
        np.diag(dm),
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
