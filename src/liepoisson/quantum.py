"""Semidirect-product dynamics on a Hilbert slot coupled to a trace-class
slot: states are pairs (v, rho) with v a complex n-vector and rho an n x n
complex matrix.

Gradient conventions for a real-valued f(v, rho):

    d/dt f(v + t u, rho)   = Re <u | df/dv>        (inner product, v slot)
    d/dt f(v, rho + t dr)  = Re trace(dr df/drho)  (trace pairing, rho slot)

The bracket is

    {f, g}(v, rho) = Re trace(rho [df/drho, dg/drho])
                   + Re <v | (df/drho)(dg/dv) - (dg/drho)(df/dv)>,

and the flow of h follows

    v_dot   = -(dh/drho)^H v
    rho_dot = [dh/drho, rho] + outer(dh/dv, conj(v)).

The outer-product coupling term uses dh/dv (a vector); it is the form
derived from the bracket contract d/dt f = {f, h}, which the tests
enforce for a basis of coordinate functions.  Functions of v alone
bracket to zero: the Hilbert slot alone carries the trivial structure.

The whole system is the realification of a semidirect extension with an
abelian ideal, and :func:`semidirect_extension_spec` produces that
equivalent datum for cross-checking against the generic machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import DualPairing, abelian, gl, matrix_trace_gram, realify
from .errors import DimensionMismatchError
from .extension import DerivationMap, ExtensionSpec, SkewBilinearMap
from .poisson import fd_gradient
from .tolerances import FD_STEP

__all__ = [
    "QState",
    "QMFunction",
    "qm_gradients",
    "qm_bracket",
    "qm_hamilton_rhs",
    "matrix_element_representative",
    "semidirect_extension_spec",
    "state_coordinates",
    "state_from_coordinates",
    "qstate_to_json",
    "qstate_from_json",
]


@dataclass(frozen=True)
class QState:
    """A point (v, rho); no hermiticity or positivity is imposed."""

    v: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        rho = np.atleast_2d(np.asarray(self.rho, dtype=complex))
        if v.ndim != 1 or rho.shape != (v.size, v.size):
            raise DimensionMismatchError(
                f"shapes v {v.shape} and rho {rho.shape} are inconsistent"
            )
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.v.size


@dataclass
class QMFunction:
    """A real-valued function of a :class:`QState` with optional analytic
    gradients (see the module docstring for the conventions)."""

    eval: Callable[[QState], float]
    grad_v: Callable[[QState], np.ndarray] | None = None
    grad_rho: Callable[[QState], np.ndarray] | None = None
    fd_step: float = FD_STEP


def qm_gradients(f: QMFunction, state: QState) -> tuple[np.ndarray, np.ndarray]:
    """(df/dv, df/drho), analytic or by realified central differences."""
    n = state.n
    if f.grad_v is not None:
        gv = np.asarray(f.grad_v(state), dtype=complex)
    else:
        def fv(vec):
            return f.eval(QState(vec, state.rho))
        raw = fd_gradient(fv, state.v, f.fd_step)
        # raw = d/dRe - i d/dIm; the sesquilinear representative with
        # Re <u | g> matching both real directions is the conjugate
        gv = np.conj(raw)
    if f.grad_rho is not None:
        gr = np.asarray(f.grad_rho(state), dtype=complex)
    else:
        def fr(vec):
            return f.eval(QState(state.v, vec.reshape(n, n)))
        raw = fd_gradient(fr, state.rho.reshape(-1), f.fd_step)
        gr = raw.reshape(n, n).T
    return gv, gr


def qm_bracket(f: QMFunction, g: QMFunction, state: QState) -> float:
    """Re trace(rho [F, G]) + Re <v | F g_v - G f_v> with F = df/drho,
    G = dg/drho; antisymmetric, and zero when both depend on v alone."""
    fv, fr = qm_gradients(f, state)
    gv, gr = qm_gradients(g, state)
    comm = fr @ gr - gr @ fr
    term1 = np.real(np.trace(state.rho @ comm))
    term2 = np.real(np.vdot(state.v, fr @ gv - gr @ fv))
    return float(term1 + term2)


def qm_hamilton_rhs(h: QMFunction, state: QState) -> tuple[np.ndarray, np.ndarray]:
    """(v_dot, rho_dot) of the flow of h; d/dt f = {f, h} along it."""
    hv, hr = qm_gradients(h, state)
    v_dot = -(hr.conj().T) @ state.v
    rho_dot = hr @ state.rho - state.rho @ hr + np.outer(hv, np.conj(state.v))
    return v_dot, rho_dot


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


def state_coordinates(state: QState) -> tuple[np.ndarray, np.ndarray]:
    """(c, a) coordinates of a state for the realified extension spec."""
    c = np.concatenate([np.real(state.v), np.imag(state.v)])
    a = np.concatenate(
        [np.real(state.rho).reshape(-1), np.imag(state.rho).reshape(-1)]
    )
    return c, a


def state_from_coordinates(c: np.ndarray, a: np.ndarray, n: int) -> QState:
    """Inverse of :func:`state_coordinates`."""
    c = np.asarray(c)
    a = np.asarray(a)
    v = c[:n] + 1j * c[n:]
    rho = a[: n * n].reshape(n, n) + 1j * a[n * n :].reshape(n, n)
    return QState(v, rho)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def qstate_to_json(state: QState) -> dict:
    return {
        "v": [[float(z.real), float(z.imag)] for z in state.v],
        "rho": [
            [[float(z.real), float(z.imag)] for z in row] for row in state.rho
        ],
    }


def qstate_from_json(doc: dict) -> QState:
    v = np.array([complex(p[0], p[1]) for p in doc["v"]])
    rho = np.array(
        [[complex(p[0], p[1]) for p in row] for row in doc["rho"]]
    )
    return QState(v, rho)
