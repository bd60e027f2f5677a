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
from .linalg import Coo, join
from .tolerances import FD_STEP

__all__ = [
    "SmoothFunction",
    "functional_derivative",
    "slot_derivatives",
    "fd_gradient",
    "lie_poisson_bracket",
    "hamiltonian_field",
    "hamiltonian_vector_field",
    "product_bracket",
    "extension_poisson_bracket",
    "extension_hamiltonian_field",
]


@dataclass
class SmoothFunction:
    """A scalar function of one predual point.

    ``eval`` also takes a stack of points along the last axis and then
    returns one value per point.  ``grad``, when given, returns the algebra
    element representing the derivative through the pairing; otherwise
    :func:`functional_derivative` takes central finite differences.
    ``affine = (A, x0)`` declares an exact affine gradient, Dh(b) = A b + x0;
    it stands in for a missing ``grad``, and :func:`hamiltonian_field`
    folds it into its compiled tensor.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    affine: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.grad is None and self.affine is not None:
            a, x0 = self.affine
            self.grad = lambda b: a @ b + x0

    def __call__(self, b) -> float:
        v = self.eval(np.asarray(b))
        if not np.isfinite(v):
            raise NumericDomainError("function evaluated to a non-finite value")
        return float(v)


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
    eye = np.eye(n)

    def probe(direction):
        fp = fun(b + h * direction)
        fm = fun(b - h * direction)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericDomainError("finite-difference probe left the domain")
        return (fp - fm) / (2.0 * h)

    if np.iscomplexobj(b):
        out = np.zeros(n, dtype=complex)
        for k in range(n):
            out[k] = probe(eye[k].astype(complex)) - 1j * probe(1j * eye[k])
        return out
    out = np.zeros(n)
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
    raw = fd_gradient(f.eval, b.astype(pairing.algebra.dtype), FD_STEP)
    # raw[k] is the derivative along e_k (packed with -i along i e_k for
    # complex points); the representing element solves gram @ x = raw.
    return np.linalg.solve(pairing.gram, raw)


def slot_derivatives(
    f: SmoothFunction, b, pairing1: DualPairing, pairing2: DualPairing
) -> tuple[np.ndarray, np.ndarray]:
    """Df(b) at a flat point b = (p1, p2) of the product of two preduals,
    split by slot: the functional derivative of f in each slot, the other
    slot held fixed, through that slot's pairing.  The gradients of an
    extension's predual (c, a) are these slots under its n and h pairings."""
    d1 = pairing1.predual_dim
    b = _coords(b, d1 + pairing2.predual_dim)

    def slot(put, part, pairing):
        grad = None if f.grad is None else (lambda x: np.asarray(f.grad(put(x)))[part])
        return functional_derivative(
            SmoothFunction(lambda x: f.eval(put(x)), grad), b[part], pairing
        )

    return (
        slot(lambda x: np.concatenate([x, b[d1:]]), np.s_[:d1], pairing1),
        slot(lambda x: np.concatenate([b[:d1], x]), np.s_[d1:], pairing2),
    )


def lie_poisson_bracket(
    f: SmoothFunction, g: SmoothFunction, b, alg: LieAlgebra, pairing: DualPairing
) -> float:
    """{f, g}(b) = Re <b, [Df(b), Dg(b)]>."""
    b = _coords(b, pairing.predual_dim)
    df = functional_derivative(f, b, pairing)
    dg = functional_derivative(g, b, pairing)
    return pairing.real_pair(b, bracket_eval(alg, df, dg))


def _per_call_field(
    h: SmoothFunction, pairing: DualPairing
) -> Callable[[np.ndarray], np.ndarray]:
    """b -> X_h(b), one gradient call per field call, summed over the
    nonzeros of the pairing's coadjoint tensor."""
    (m, i, l), v = pairing.coadjoint_tensor
    rows, starts = np.unique(m, return_index=True)
    d = pairing.predual_dim

    def field(b: np.ndarray) -> np.ndarray:
        x = functional_derivative(h, b, pairing)
        out = np.zeros(d, dtype=v.dtype)
        out[rows] = np.add.reduceat(v * x[i] * b[l], starts)
        return out

    return field


def hamiltonian_field(
    h: SmoothFunction, alg: LieAlgebra, pairing: DualPairing
) -> Callable[[np.ndarray], np.ndarray]:
    """The field b -> X_h(b) = -ad*_{Dh(b)} b of h on the predual of
    ``alg``, the algebra of ``pairing``:

        X_h(b)_m = sum_{i, l} K[m, i, l] x_i b_l,      x = Dh(b),

    with K the pairing's :attr:`~algebra.DualPairing.coadjoint_tensor`,
    built once per pairing.  For a function with an affine gradient
    Dh(b) = A b + x0 the gradient is folded in as well, from the nonzeros
    of K and A: the field is the quadratic form sum_{p <= l} Q[m, p, l]
    b_p b_l with Q[m, p, l] = sum_i K[m, i, l] A[i, p] (plus its transpose
    in (p, l) off the diagonal), plus L b with L[m, l] = sum_i K[m, i, l]
    x0_i, each part kept only when it is nonzero.  A call then makes no
    gradient call.  Any other function pays one gradient call per field
    call, and its products are summed over the nonzeros of K.
    """
    if h.affine is None:
        return _per_call_field(h, pairing)
    d = alg.dim
    (m, i, l), v = pairing.coadjoint_tensor
    a, x0 = (np.asarray(part, dtype=alg.dtype) for part in h.affine)
    ai, ap = np.nonzero(a)
    av = a[ai, ap]
    s, t = join(i, ai)
    lo, hi = np.minimum(ap[t], l[s]), np.maximum(ap[t], l[s])
    q = Coo.of((d, d, d), (m[s], lo, hi), v[s] * av[t])
    lin = None  # a zero x0 has no linear part, and no (d, d) array is built
    if x0.any():
        lin = np.zeros((d, d), dtype=v.dtype)
        np.add.at(lin, (m, l), v * x0[i])
        lin = lin if lin.any() else None
    return AffineField(q, lin, v.dtype)


class AffineField:
    """A compiled affine field, b -> out + lin @ b.  ``out`` is
    ``np.add.reduceat`` of the products Q[m, p, l] b_p b_l over the rows m
    with one, scattered into zeros of ``dtype``.  When every row has a
    product nothing is scattered, and when every row has one nothing is
    summed; the result is the same to the bit.

    ``products`` lists a real field with no linear part and at most one
    product per row as ``(m, v, p, l)``, Python lists in row order, so
    that row m of the field is ``v * b[p] * b[l]``; it is None for any
    other field.  :func:`~liepoisson.integrators.integrate_flow` generates
    an RK4 step on Python floats from it, and evaluates a real field with
    only a linear part as ``np.matmul(lin, t, out=k)``, when the field's
    type is exactly this class; a wrapper, even one made with
    ``functools.wraps``, is called.  The class is slotted: such a wrapper
    copies no ``products``."""

    __slots__ = ("dim", "dtype", "lin", "qv", "qp", "ql", "rows", "starts",
                 "full", "single", "products")

    def __init__(self, q: Coo, lin: np.ndarray | None, dtype):
        d = self.dim = q.shape[0]
        (qm, self.qp, self.ql), self.qv = q.idx, q.values
        self.rows, self.starts = np.unique(qm, return_index=True)
        self.full = self.rows.size == d  # every output row has a product: nothing to scatter
        self.single = self.qv.size == self.rows.size  # every row has one product: nothing to sum
        self.dtype, self.lin = dtype, lin
        real = np.dtype(dtype).kind == "f"
        self.products = None
        if real and lin is None and self.single:
            self.products = tuple(a.tolist() for a in (qm, self.qv, self.qp, self.ql))

    def __call__(self, b: np.ndarray) -> np.ndarray:
        if not self.qv.size:
            if self.lin is None:
                return np.zeros(self.dim, dtype=self.dtype)
            return self.lin @ b  # matmul sums from +0.0, as 0.0 + lin @ b does
        terms = self.qv * b[self.qp] * b[self.ql]
        out = terms if self.single else np.add.reduceat(terms, self.starts)
        if not self.full:
            out, rows = np.zeros(self.dim, dtype=self.dtype), out
            out[self.rows] = rows
        return out if self.lin is None else out + self.lin @ b


def hamiltonian_vector_field(
    h: SmoothFunction, b, alg: LieAlgebra, pairing: DualPairing
) -> np.ndarray:
    """X_h(b) = -ad*_{Dh(b)} b at one point, a predual vector: one gradient
    call, summed over the pairing's coadjoint tensor."""
    b = _coords(b, pairing.predual_dim)
    return _per_call_field(h, pairing)(b)


def product_bracket(
    f: SmoothFunction,
    g: SmoothFunction,
    b,
    alg1: LieAlgebra,
    pairing1: DualPairing,
    alg2: LieAlgebra,
    pairing2: DualPairing,
) -> float:
    """Bracket of the product structure at the flat point b = (p1, p2): the
    Lie-Poisson bracket of each slot with the other held fixed, summed.
    Pullbacks along the two projections commute."""
    f1, f2 = slot_derivatives(f, b, pairing1, pairing2)
    g1, g2 = slot_derivatives(g, b, pairing1, pairing2)
    p1, p2 = np.split(np.asarray(b), [pairing1.predual_dim])
    term1 = pairing1.real_pair(p1, bracket_eval(alg1, f1, g1))
    return term1 + pairing2.real_pair(p2, bracket_eval(alg2, f2, g2))


def extension_poisson_bracket(
    f: SmoothFunction, g: SmoothFunction, b, spec: ExtensionSpec
) -> float:
    """Bracket on the predual of a built extension, at the flat point
    b = (c, a):

    {f, g}(c, a) = Re <a, [df/da, dg/da]>
                 + Re <c, [df/dc, dg/dc] - phi(dg/da) df/dc
                          + phi(df/da) dg/dc + omega(df/da, dg/da)>.
    """
    fc, fa = slot_derivatives(f, b, spec.n_pairing, spec.h_pairing)
    gc, ga = slot_derivatives(g, b, spec.n_pairing, spec.h_pairing)
    c, a = np.split(np.asarray(b), [spec.n.dim])
    term_a = spec.h_pairing.real_pair(a, bracket_eval(spec.h, fa, ga))
    inner = (
        bracket_eval(spec.n, fc, gc)
        - spec.phi(ga) @ fc
        + spec.phi(fa) @ gc
        + spec.omega(fa, ga)
    )
    return term_a + spec.n_pairing.real_pair(c, inner)


def extension_hamiltonian_field(h: SmoothFunction, b, spec: ExtensionSpec) -> np.ndarray:
    """Minus the coadjoint action applied with (dh/dc, dh/da) at the flat
    point b = (c, a), as a flat vector (c_dot, a_dot)."""
    hc, ha = slot_derivatives(h, b, spec.n_pairing, spec.h_pairing)
    cdot, adot = coadjoint_extension(spec, (hc, ha), np.split(np.asarray(b), [spec.n.dim]))
    return -np.concatenate([cdot, adot])
