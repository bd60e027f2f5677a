"""Lie-Poisson brackets and Hamiltonian vector fields.

Functions on a predual model are real valued.  Their gradient at a point
is the algebra element x with

    d/dt f(b + t u) |_{t=0} = Re <u, x>      for every direction u,

where <.,.> is the stored pairing (predual slot first).  For real algebras
the Re is vacuous; for complex ones this is the realified calculus: a
point with n complex coordinates is differentiated as 2n real ones, and
all bracket values are real numbers.

The bracket of two functions at b is Re <b, [Df(b), Dg(b)]>, and the flow
of h follows X_h(b) = -ad*_{Dh(b)} b.  The sign of X_h is fixed by the
consistency contract d/dt f = {f, h} along the flow, which the tests
enforce for every system in the package.  :func:`hamiltonian_field`
compiles that formula once per algebra and pairing; it is the one
implementation of X_h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import DualPairing, LieAlgebra, _coords, bracket_eval
from .errors import NumericDomainError
from .extension import ExtensionSpec, coadjoint_extension
from .linalg import coo
from .tolerances import FD_STEP

__all__ = [
    "SmoothFunction",
    "PairFunction",
    "functional_derivative",
    "fd_gradient",
    "lie_poisson_bracket",
    "hamiltonian_field",
    "hamiltonian_vector_field",
    "product_bracket",
    "extension_partial_derivatives",
    "extension_poisson_bracket",
    "extension_hamiltonian_field",
]


@dataclass
class SmoothFunction:
    """A scalar function of one predual point.

    ``grad``, when given, returns the algebra element representing the
    derivative through the pairing; otherwise central finite differences
    with relative step ``fd_step`` are used.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = FD_STEP

    def __call__(self, b) -> float:
        v = self.eval(np.asarray(b))
        if not np.isfinite(v):
            raise NumericDomainError("function evaluated to a non-finite value")
        return float(v)


@dataclass
class PairFunction:
    """A scalar function of two predual points (c, a), with optional
    analytic partial gradients valued in the respective algebras."""

    eval: Callable[[np.ndarray, np.ndarray], float]
    grad_c: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    grad_a: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fd_step: float = FD_STEP

    def freeze_second(self, a) -> SmoothFunction:
        return SmoothFunction(
            lambda c: self.eval(c, a),
            None if self.grad_c is None else (lambda c: self.grad_c(c, a)),
            self.fd_step,
        )

    def freeze_first(self, c) -> SmoothFunction:
        return SmoothFunction(
            lambda a: self.eval(c, a),
            None if self.grad_a is None else (lambda a: self.grad_a(c, a)),
            self.fd_step,
        )


def fd_gradient(fun: Callable[[np.ndarray], float], b: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a real-valued function.

    Real points give the usual coordinate partials.  Complex points are
    perturbed along e_k and i e_k separately and the result is packed as
    (d/dRe) - i (d/dIm), which is the raw covector of the realified
    calculus under a complex bilinear pairing.
    """
    b = np.asarray(b)
    h = step * max(1.0, float(np.linalg.norm(b)))
    n = b.shape[0]

    def probe(direction):
        fp = fun(b + h * direction)
        fm = fun(b - h * direction)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericDomainError("finite-difference probe left the domain")
        return (fp - fm) / (2.0 * h)

    if np.iscomplexobj(b):
        out = np.zeros(n, dtype=complex)
        eye = np.eye(n)
        for k in range(n):
            out[k] = probe(eye[k].astype(complex)) - 1j * probe(1j * eye[k])
        return out
    out = np.zeros(n)
    eye = np.eye(n)
    for k in range(n):
        out[k] = probe(eye[k])
    return out


def functional_derivative(
    f: SmoothFunction, b, pairing: DualPairing
) -> np.ndarray:
    """The algebra element representing Df(b) through the pairing."""
    b = _coords(b, pairing.predual_dim)
    if f.grad is not None:
        return np.asarray(f.grad(b), dtype=pairing.algebra.dtype)
    raw = fd_gradient(f.eval, b.astype(pairing.algebra.dtype), f.fd_step)
    # raw[k] is the derivative along e_k (packed with -i along i e_k for
    # complex points); the representing element solves gram @ x = raw.
    return np.linalg.solve(pairing.gram, raw)


def lie_poisson_bracket(
    f: SmoothFunction, g: SmoothFunction, b, alg: LieAlgebra, pairing: DualPairing
) -> float:
    """{f, g}(b) = Re <b, [Df(b), Dg(b)]>."""
    b = _coords(b, pairing.predual_dim)
    df = functional_derivative(f, b, pairing)
    dg = functional_derivative(g, b, pairing)
    return pairing.real_pair(b, bracket_eval(alg, df, dg))


def hamiltonian_field(
    h: SmoothFunction, alg: LieAlgebra, pairing: DualPairing
) -> Callable[[np.ndarray], np.ndarray]:
    """The field b -> X_h(b) = -ad*_{Dh(b)} b of h, compiled once.

    ad*_x b solves G^T b' = ad_x^T G^T b (see :func:`algebra.ad_star`), so
    with x = Dh(b)

        X_h(b)_m = sum_{i, l} K[m, i, l] x_i b_l,
        K[m, i, l] = -sum_{j, k} Ginv[j, m] c[k, i, j] G[l, k].

    K folds the gram and its inverse into the structure constants; it is
    complex for a complex algebra and is kept as its nonzeros, whose
    products each call adds up per m.
    """
    g = pairing.gram
    # [i, j, k] @ -G^T -> [i, j, l]; then Ginv^T @ -> [i, m, l]
    k = np.linalg.inv(g).T @ (alg.structure_constants.transpose(1, 2, 0) @ -g.T)
    (m, i, l), v = coo(k.transpose(1, 0, 2))
    rows, starts = np.unique(m, return_index=True)

    def field(b: np.ndarray) -> np.ndarray:
        x = functional_derivative(h, b, pairing)
        out = np.zeros(alg.dim, dtype=v.dtype)
        out[rows] = np.add.reduceat(v * x[i] * b[l], starts)
        return out

    return field


def hamiltonian_vector_field(
    h: SmoothFunction, b, alg: LieAlgebra, pairing: DualPairing
) -> np.ndarray:
    """X_h(b) = -ad*_{Dh(b)} b, a predual vector: :func:`hamiltonian_field`
    at one point."""
    b = _coords(b, pairing.predual_dim)
    return hamiltonian_field(h, alg, pairing)(b)


def product_bracket(
    f: PairFunction,
    g: PairFunction,
    p1,
    p2,
    alg1: LieAlgebra,
    pairing1: DualPairing,
    alg2: LieAlgebra,
    pairing2: DualPairing,
) -> float:
    """Bracket of the product structure: freeze one slot, bracket in the
    other, and add.  Pullbacks along the two projections commute."""
    p1 = _coords(p1, pairing1.predual_dim)
    p2 = _coords(p2, pairing2.predual_dim)
    term1 = lie_poisson_bracket(
        f.freeze_second(p2), g.freeze_second(p2), p1, alg1, pairing1
    )
    term2 = lie_poisson_bracket(
        f.freeze_first(p1), g.freeze_first(p1), p2, alg2, pairing2
    )
    return term1 + term2


def extension_partial_derivatives(
    f: PairFunction, c, a, spec: ExtensionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dc in n, df/da in h) at the point (c, a)."""
    c = _coords(c, spec.n.dim)
    a = _coords(a, spec.h.dim)
    dc = functional_derivative(f.freeze_second(a), c, spec.n_pairing)
    da = functional_derivative(f.freeze_first(c), a, spec.h_pairing)
    return dc, da


def extension_poisson_bracket(
    f: PairFunction, g: PairFunction, c, a, spec: ExtensionSpec
) -> float:
    """Bracket on the predual of a built extension:

    {f, g}(c, a) = Re <a, [df/da, dg/da]>
                 + Re <c, [df/dc, dg/dc] - phi(dg/da) df/dc
                          + phi(df/da) dg/dc + omega(df/da, dg/da)>.
    """
    c = _coords(c, spec.n.dim)
    a = _coords(a, spec.h.dim)
    fc, fa = extension_partial_derivatives(f, c, a, spec)
    gc, ga = extension_partial_derivatives(g, c, a, spec)
    term_a = spec.h_pairing.real_pair(a, bracket_eval(spec.h, fa, ga))
    inner = (
        bracket_eval(spec.n, fc, gc)
        - spec.phi(ga) @ fc
        + spec.phi(fa) @ gc
        + spec.omega(fa, ga)
    )
    return term_a + spec.n_pairing.real_pair(c, inner)


def extension_hamiltonian_field(
    h: PairFunction, c, a, spec: ExtensionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Minus the coadjoint action applied with (dh/dc, dh/da)."""
    c = _coords(c, spec.n.dim)
    a = _coords(a, spec.h.dim)
    hc, ha = extension_partial_derivatives(h, c, a, spec)
    cdot, adot = coadjoint_extension(spec, (hc, ha), (c, a))
    return -cdot, -adot
