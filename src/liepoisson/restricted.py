"""The restricted algebra over a polarized space, as cocycle data.

The ambient space splits as H = H+ + H- at truncation dims (n+, n-),
n = n+ + n-.  An operator X, and a predual point sigma alike, is its full
(n x n) matrix, and its blocks are the slices

    X_pp = X[:n+, :n+]    X_pm = X[:n+, n+:]
    X_mp = X[n+:, :n+]    X_mm = X[n+:, n+:],

the diagonal ones measured in the operator norm and the off-diagonal
ones in the Hilbert-Schmidt (Frobenius) norm.  Points pair with operators
through <sigma, X> = trace(sigma X), which at finite dims is the sum of
the four block traces.

The ideal slot consists of (n+ x n+) matrices carrying the NEGATIVE
commutator bracket; the twisting maps are

    phi(X) rho   = [X_pp, rho]
    omega(X, X') = X_pm X'_mp - X'_pm X_mp,

and their dual maps have the closed forms

    phi(X)* kappa        = -[X_pp, kappa]
    (phi(.) rho)* kappa  = [[ [rho, kappa], 0], [0, 0]]
    omega(X, .)* kappa   = [[0, kappa X_pm], [-X_mp kappa, 0]].

:func:`restricted_extension_spec` writes this datum as a generic
ExtensionSpec, which is what the CLI builds, checks and integrates.
:func:`restricted_hamiltonian_field` is the closed-form Hamiltonian field
on the flat predual points b = (c, a) of that spec: c = kappa and
a = sigma (as its full matrix), both row-major and complex.  Its slot
gradients are :func:`~liepoisson.poisson.functional_derivative` split by
the spec's trace pairings,

    d/dt f(kappa + t dk, sigma)  = Re trace(dk df/dkappa)
    d/dt f(kappa, sigma + t ds)  = Re trace(ds df/dsigma),

so each gradient is the transpose of the matrix of raw partials
d/dRe - i d/dIm.  The hand-written bracket and dual maps that the
generic operations are checked against live with the tests, in
``tests/closed_forms.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (
    DualPairing,
    LieAlgebra,
    _commutator_constants,
    _coords,
    gl,
    matrix_trace_gram,
)
from .extension import DerivationMap, ExtensionSpec, SkewBilinearMap
from .linalg import Coo
from .poisson import SmoothFunction, slot_derivatives

__all__ = ["restricted_hamiltonian_field", "restricted_extension_spec"]


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


@functools.cache
def _slot_pairings(n_plus: int, n_minus: int) -> tuple[DualPairing, DualPairing]:
    """The trace pairings of :func:`restricted_extension_spec` at these
    dims, built once per size."""
    spec = restricted_extension_spec(n_plus, n_minus)
    return spec.n_pairing, spec.h_pairing


def _matrices(c, a, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(kappa, sigma) from their row-major slot coordinates."""
    n_plus, n = dims[0], sum(dims)
    return np.reshape(c, (n_plus, n_plus)), np.reshape(a, (n, n))


def _point(b, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    dn = dims[0] ** 2
    return _matrices(*np.split(_coords(b, dn + sum(dims) ** 2), [dn]), dims)


def _gradients(f: SmoothFunction, b, dims) -> tuple[np.ndarray, np.ndarray]:
    """(df/dkappa, df/dsigma) at the flat point b."""
    return _matrices(*slot_derivatives(f, b, *_slot_pairings(*dims)), dims)


def restricted_hamiltonian_field(h: SmoothFunction, b, dims: tuple[int, int]) -> np.ndarray:
    """(kappa_dot, sigma_dot) of the Hamiltonian flow of h at the flat point
    b, flat in the layout of b:

    kappa_dot = [kappa, dh/dkappa] - [kappa, (dh/dsigma)_pp]
    sigma_dot = -omega(dh/dsigma, .)* kappa + (phi(.) dh/dkappa)* kappa
                - [sigma, dh/dsigma].

    The kappa-kappa commutator carries the negative-commutator sign of the
    ideal slot; the contract d/dt f = {f, h} holds along the field.
    """
    p = dims[0]
    kappa, sigma = _point(b, dims)
    hk, hs = _gradients(h, b, dims)
    # ad*_{hk} kappa = [hk, kappa] for the negative-commutator slot, and
    # phi(hs)* kappa = -[hs_pp, kappa]
    kappa_dot = -_comm(hk, kappa) + _comm(hs[:p, :p], kappa)
    # (phi(.) hk)* kappa fills the pp block, -omega(hs, .)* kappa the
    # off-diagonal ones
    sigma_dot = np.zeros(sigma.shape, dtype=complex)
    sigma_dot[:p, :p] = _comm(hk, kappa)
    sigma_dot[:p, p:] -= kappa @ hs[:p, p:]
    sigma_dot[p:, :p] = hs[p:, :p] @ kappa
    sigma_dot -= _comm(sigma, hs)
    return np.concatenate([kappa_dot.ravel(), sigma_dot.ravel()])


# ---------------------------------------------------------------------------
# the equivalent generic extension data
# ---------------------------------------------------------------------------


def _negative_commutator_algebra(n: int) -> LieAlgebra:
    """(n x n) matrices with bracket -(ab - ba), row-major basis."""
    c = _commutator_constants(n, sign=-1.0, dtype=complex)
    return LieAlgebra(c, name=f"l1({n})", scalar_field="complex", validate=False)


def restricted_extension_spec(n_plus: int, n_minus: int) -> ExtensionSpec:
    """The cocycle data of the block model as a generic ExtensionSpec.

    The ideal is the negative-commutator algebra on (n+ x n+) matrices
    with the trace pairing; the block algebra is gl(n+ + n-) with the
    block pairing (equal to the full trace pairing at finite dims); omega
    and phi are transcribed into coordinates.  Cross-checking the closed
    forms against the generic operations on this spec is the key
    validation of the block model.

    Both are written down from the basis E_pq of gl(n), index p n + q: the
    only nonzero omega values are omega(E_pq, E_qr) = E_pr = -omega(E_qr,
    E_pq) for p, r < n+ <= q, and phi(E_pq) for p, q < n+ sends E_qb to
    E_pb and E_ap to -E_aq.
    """
    n = n_plus + n_minus
    n_alg = _negative_commutator_algebra(n_plus)
    h_alg = gl(n, scalar_field="complex")

    dn, dh = n_plus * n_plus, n * n
    p, q, r = np.indices((n_plus, n_minus, n_plus)).reshape(3, -1)
    pq, qr = p * n + q + n_plus, (q + n_plus) * n + r
    idx = np.r_[p * n_plus + r, p * n_plus + r], np.r_[pq, qr], np.r_[qr, pq]
    w = Coo.of((dn, dh, dh), idx, np.repeat([1.0, -1.0], p.size), complex)

    # phi(E_pq) rho = E_pq rho - rho E_pq on row-major coordinates of rho
    p, q, b = np.indices((n_plus,) * 3).reshape(3, -1)
    e = p * n + q
    idx = np.r_[e, e], np.r_[p * n_plus + b, b * n_plus + q], np.r_[q * n_plus + b, b * n_plus + p]
    mats = Coo.of((dh, dn, dn), idx, np.repeat([1.0, -1.0], p.size), complex)

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
