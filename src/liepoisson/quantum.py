"""Semidirect-product dynamics on a Hilbert slot coupled to a trace-class
slot: states are pairs (v, rho) with v a complex n-vector and rho an n x n
complex matrix.

The whole system is the realification of a semidirect extension with an
abelian ideal, :func:`semidirect_extension_spec`, which is what the CLI
builds, checks and integrates.  :func:`qm_hamilton_rhs` is the closed-form
Hamiltonian field on its flat predual points b = (c, a),
c = (Re v, Im v) and a = (Re rho, Im rho) with rho row-major.  Its slot
gradients are :func:`~liepoisson.poisson.functional_derivative` split by
the spec's pairings: the identity on c and diag(T, -T) on a, with T the
trace gram.  Read back as complex quantities they are

    d/dt f(v + t u, rho)   = Re <u | df/dv>        (inner product, v slot)
    d/dt f(v, rho + t dr)  = Re trace(dr df/drho)  (trace pairing, rho slot)

so df/dv is the conjugate and df/drho the transpose of the raw partials
d/dRe - i d/dIm.  The flow of h follows

    v_dot   = -(dh/drho)^H v
    rho_dot = [dh/drho, rho] + outer(dh/dv, conj(v)).

The outer-product coupling term uses dh/dv (a vector); it is the form
derived from the bracket contract d/dt f = {f, h}, which the tests
enforce for a basis of coordinate functions against the hand-written
bracket in ``tests/closed_forms.py``.  The field agrees with the generic
extension operations on the spec.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import DualPairing, _coords, abelian, gl, matrix_trace_gram, realify
from .extension import DerivationMap, ExtensionSpec, SkewBilinearMap
from .linalg import Coo
from .poisson import SmoothFunction, slot_derivatives

__all__ = ["qm_hamilton_rhs", "semidirect_extension_spec"]


@functools.cache
def _slot_pairings(n: int) -> tuple[DualPairing, DualPairing]:
    """The pairings of :func:`semidirect_extension_spec` at this n, built
    once per size."""
    spec = semidirect_extension_spec(n)
    return spec.n_pairing, spec.h_pairing


def _complex(c, a, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, rho) from realified slot coordinates c and a."""
    return c[:n] + 1j * c[n:], (a[: n * n] + 1j * a[n * n :]).reshape(n, n)


def _point(b, n: int) -> tuple[np.ndarray, np.ndarray]:
    return _complex(*np.split(_coords(b, 2 * n + 2 * n * n), [2 * n]), n)


def _gradients(f: SmoothFunction, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(df/dv, df/drho) at the flat point b."""
    return _complex(*slot_derivatives(f, b, *_slot_pairings(n)), n)


def qm_hamilton_rhs(h: SmoothFunction, b, n: int) -> np.ndarray:
    """(v_dot, rho_dot) of the flow of h at the flat point b, realified in
    the layout of b; d/dt f = {f, h} along it."""
    v, rho = _point(b, n)
    hv, hr = _gradients(h, b, n)
    v_dot = -(hr.conj().T) @ v
    rho_dot = hr @ rho - rho @ hr + np.outer(hv, np.conj(v))
    return np.concatenate([v_dot.real, v_dot.imag, rho_dot.real.ravel(), rho_dot.imag.ravel()])


# ---------------------------------------------------------------------------
# the equivalent realified extension
# ---------------------------------------------------------------------------


def semidirect_extension_spec(n: int) -> ExtensionSpec:
    """The realified semidirect datum: abelian ideal R^{2n} (the realified
    Hilbert slot, identity gram = Re of the inner product), the realified
    gl(n) acting naturally, omega = 0.

    The field of :func:`qm_hamilton_rhs` agrees with the generic
    extension field on this spec.
    """
    n_alg = abelian(2 * n)
    h_c = gl(n, scalar_field="complex")
    h_alg = realify(h_c)
    i, j = np.indices((n, n)).reshape(2, -1)
    e = i * n + j
    # action of E_ij and of i E_ij on realified vectors (Re, Im): E_ij on
    # both parts, and -E_ij from Im to Re, E_ij from Re to Im
    idx = np.r_[e, e, n * n + e, n * n + e], np.r_[i, n + i, i, n + i], np.r_[j, n + j, n + j, j]
    mats = Coo.of((h_alg.dim, 2 * n, 2 * n), idx, np.repeat([1.0, 1.0, -1.0, 1.0], n * n))
    phi = DerivationMap(h_alg, n_alg, mats)
    omega = SkewBilinearMap.zero(h_alg, n_alg)

    g = matrix_trace_gram(n)
    h_gram = np.block(
        [[g, np.zeros((n * n, n * n))], [np.zeros((n * n, n * n)), -g]]
    )
    return ExtensionSpec(
        n_alg,
        h_alg,
        omega,
        phi,
        DualPairing(n_alg, np.eye(2 * n)),
        DualPairing(h_alg, h_gram),
    )
