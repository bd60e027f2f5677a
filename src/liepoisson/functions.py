"""Named scalar functions addressable from configs and tests.

Vector-world builders return :class:`SmoothFunction` objects over a
pairing; matrix-world helpers (trace polynomials) act on square-matrix
predual slots flattened row-major against the trace pairing.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import DualPairing
from .errors import ConfigError
from .poisson import SmoothFunction

__all__ = [
    "linear",
    "quadratic",
    "rigid_body_energy",
    "norm_squared",
    "trace_polynomial",
    "build_named_function",
    "NAMED_FUNCTIONS",
]

# each named function and the parameters its config entry may give
NAMED_FUNCTIONS = {
    "linear": ("coeffs",),
    "quadratic": ("gram",),
    "rigid_body": ("inertia",),
    "trace_poly": ("coefficients",),
    "norm_squared": (),
}


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


def build_named_function(name: str, params: dict, pairing: DualPairing) -> SmoothFunction:
    """Resolve a config entry {"name": ..., params} against a pairing."""
    if name == "linear":
        if "coeffs" not in params:
            raise ConfigError("linear function needs coefficients", "hamiltonian.coeffs")
        return linear(pairing, params["coeffs"])
    if name == "quadratic":
        return quadratic(pairing, params.get("gram"))
    if name == "rigid_body":
        if "inertia" not in params:
            raise ConfigError("rigid_body needs an inertia triple", "hamiltonian.inertia")
        return rigid_body_energy(params["inertia"])
    if name == "trace_poly":
        n = math.isqrt(pairing.predual_dim)
        if n * n != pairing.predual_dim:
            raise ValueError(
                f"trace_poly needs a square predual dimension, got {pairing.predual_dim}"
            )
        return trace_polynomial(n, params.get("coefficients", [1.0]))
    if name == "norm_squared":
        return norm_squared(pairing)
    raise ConfigError(f"unknown function {name!r}", "hamiltonian.name")
