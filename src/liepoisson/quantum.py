"""Semidirect-product dynamics on a Hilbert slot coupled to a trace-class
slot: states are pairs (v, rho) with v a complex n-vector and rho an n x n
complex matrix.

The whole system is the realification of a semidirect extension with an
abelian ideal, :func:`semidirect_extension_spec`, and the closed forms
below take real-valued functions of its flat predual point b = (c, a),
c = (Re v, Im v) and a = (Re rho, Im rho) with rho row-major.  Their slot
gradients are :func:`~liepoisson.poisson.functional_derivative` split by
the spec's pairings: the identity on c and diag(T, -T) on a, with T the
trace gram.  Read back as complex quantities they are

    d/dt f(v + t u, rho)   = Re <u | df/dv>        (inner product, v slot)
    d/dt f(v, rho + t dr)  = Re trace(dr df/drho)  (trace pairing, rho slot)

so df/dv is the conjugate and df/drho the transpose of the raw partials
d/dRe - i d/dIm.  The bracket is

    {f, g}(v, rho) = Re trace(rho [df/drho, dg/drho])
                   + Re <v | (df/drho)(dg/dv) - (dg/drho)(df/dv)>,

and the flow of h follows

    v_dot   = -(dh/drho)^H v
    rho_dot = [dh/drho, rho] + outer(dh/dv, conj(v)).

The outer-product coupling term uses dh/dv (a vector); it is the form
derived from the bracket contract d/dt f = {f, h}, which the tests
enforce for a basis of coordinate functions.  Functions of v alone
bracket to zero: the Hilbert slot alone carries the trivial structure.
Both closed forms agree with the generic extension operations on the
spec.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import DualPairing, _coords, abelian, gl, matrix_trace_gram, realify
from .extension import DerivationMap, ExtensionSpec, SkewBilinearMap
from .poisson import SmoothFunction, slot_derivatives

__all__ = [
    "qm_bracket",
    "qm_hamilton_rhs",
    "matrix_element_representative",
    "semidirect_extension_spec",
]


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


def qm_bracket(f: SmoothFunction, g: SmoothFunction, b, n: int) -> float:
    """Re trace(rho [F, G]) + Re <v | F g_v - G f_v> with F = df/drho,
    G = dg/drho, at the flat point b; antisymmetric, and zero when both
    depend on v alone."""
    v, rho = _point(b, n)
    fv, fr = _gradients(f, b, n)
    gv, gr = _gradients(g, b, n)
    comm = fr @ gr - gr @ fr
    term1 = np.real(np.trace(rho @ comm))
    term2 = np.real(np.vdot(v, fr @ gv - gr @ fv))
    return float(term1 + term2)


def qm_hamilton_rhs(h: SmoothFunction, b, n: int) -> np.ndarray:
    """(v_dot, rho_dot) of the flow of h at the flat point b, realified in
    the layout of b; d/dt f = {f, h} along it."""
    v, rho = _point(b, n)
    hv, hr = _gradients(h, b, n)
    v_dot = -(hr.conj().T) @ v
    rho_dot = hr @ rho - rho @ hr + np.outer(hv, np.conj(v))
    return np.concatenate([v_dot.real, v_dot.imag, rho_dot.real.ravel(), rho_dot.imag.ravel()])


def matrix_element_representative(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The trace-class representative of the functional x -> <w | x v>:
    the matrix b = outer(v, conj(w)) satisfies trace(x b) = <w | x v>
    for every x (with <a | b> antilinear in a)."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.outer(v, np.conj(w))


# ---------------------------------------------------------------------------
# the equivalent realified extension
# ---------------------------------------------------------------------------


def semidirect_extension_spec(n: int) -> ExtensionSpec:
    """The realified semidirect datum: abelian ideal R^{2n} (the realified
    Hilbert slot, identity gram = Re of the inner product), the realified
    gl(n) acting naturally, omega = 0.

    Brackets and fields of :func:`qm_bracket` / :func:`qm_hamilton_rhs`
    agree with the generic extension operations on this spec.
    """
    n_alg = abelian(2 * n)
    h_c = gl(n, scalar_field="complex")
    h_alg = realify(h_c)
    dh = h_alg.dim  # 2 n^2
    mats = np.zeros((dh, 2 * n, 2 * n))
    for idx in range(n * n):
        i, j = divmod(idx, n)
        e = np.zeros((n, n))
        e[i, j] = 1.0
        # action of E_ij and of i E_ij on realified vectors (Re, Im)
        mats[idx] = np.block([[e, np.zeros((n, n))], [np.zeros((n, n)), e]])
        mats[n * n + idx] = np.block([[np.zeros((n, n)), -e], [e, np.zeros((n, n))]])
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
