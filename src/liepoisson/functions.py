"""Scalar functions of predual points, each a :class:`SmoothFunction`
with an exact gradient: vector-world builders over a pairing, and trace
polynomials on square-matrix slots flattened row-major against the trace
pairing.  ``cli.py`` reads the config names of these functions.
"""

from __future__ import annotations

import numpy as np

from .algebra import DualPairing
from .poisson import SmoothFunction

__all__ = [
    "linear",
    "quadratic",
    "rigid_body_energy",
    "norm_squared",
    "trace_polynomial",
]


def linear(pairing: DualPairing, x0) -> SmoothFunction:
    """f(b) = Re <b, x0>; the gradient is the constant x0."""
    x0 = np.asarray(x0, dtype=pairing.algebra.dtype)
    gx = pairing.gram @ x0
    d = pairing.predual_dim
    return SmoothFunction(
        eval=lambda b: np.real(np.einsum("...i,i->...", b, gx)),
        affine=(np.zeros((d, d)), x0),
    )


def quadratic(pairing: DualPairing, q=None) -> SmoothFunction:
    """f(b) = 1/2 Re(b^T Q b), identity Q by default.

    Only the symmetric part (Q + Q^T)/2 enters f, so it is the one used;
    the gradient solves gram @ x = Q b.  With the identity gram and Q = I
    this is f(b) = 1/2 <b, b> with gradient b.
    """
    g = pairing.gram
    d = pairing.predual_dim
    qm = np.eye(d, dtype=g.dtype) if q is None else np.asarray(q, dtype=g.dtype)
    qm = 0.5 * (qm + qm.T)
    return SmoothFunction(
        eval=lambda b: 0.5 * np.real(np.einsum("...i,ij,...j->...", b, qm, b)),
        affine=(np.linalg.solve(g, qm), np.zeros(d, dtype=g.dtype)),
    )


def rigid_body_energy(inertia) -> SmoothFunction:
    """h(b) = sum b_i^2 / (2 I_i) on the angular-momentum space with the
    identity gram; the gradient is the angular velocity b / I."""
    inertia = np.asarray(inertia, dtype=float)
    if np.any(inertia <= 0):
        raise ValueError("inertia moments must be positive")
    return SmoothFunction(
        eval=lambda b: 0.5 * np.sum(np.asarray(b) ** 2 / inertia, axis=-1),
        affine=(np.diag(1.0 / inertia), np.zeros(inertia.size)),
    )


def norm_squared(pairing: DualPairing) -> SmoothFunction:
    """f(b) = sum |b_i|^2; the Casimir of so(3)* under the identity gram.

    Its realified covector is 2 conj(b), so the gradient solves
    gram @ x = 2 conj(b): the affine Dh(b) = 2 G^-1 b on a real pairing.
    """
    g2inv = np.linalg.solve(pairing.gram, 2.0 * np.eye(pairing.predual_dim))

    def _eval(b):
        return np.sum(np.abs(np.asarray(b)) ** 2, axis=-1)

    if pairing.algebra.dtype is float:
        return SmoothFunction(eval=_eval, affine=(g2inv, np.zeros(pairing.predual_dim)))
    return SmoothFunction(eval=_eval, grad=lambda b: g2inv @ np.conj(b))


def trace_polynomial(n: int, coeffs) -> SmoothFunction:
    """f(B) = Re sum_k coeffs[k] tr(B^(k+1)) on n x n matrix points
    flattened row-major; the gradient (trace pairing) is
    sum_k (k+1) coeffs[k] B^k."""
    coeffs = list(coeffs)

    def _eval(b):
        m = np.asarray(b).reshape(*np.shape(b)[:-1], n, n)
        acc = np.eye(n, dtype=m.dtype)
        total = 0.0
        for ck in coeffs:
            acc = acc @ m
            total = total + np.real(ck * np.trace(acc, axis1=-2, axis2=-1))
        return total

    def _grad(b):
        m = np.asarray(b).reshape(n, n)
        out = np.zeros_like(m)
        acc = np.eye(n, dtype=m.dtype)
        for k, ck in enumerate(coeffs):
            out = out + (k + 1) * ck * acc
            acc = acc @ m
        return out.reshape(n * n)

    return SmoothFunction(eval=_eval, grad=_grad)

