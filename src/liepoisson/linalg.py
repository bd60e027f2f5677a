"""Small subspace utilities shared by the sequence and extension checks,
and the sparse contractions behind the algebraic identity checks.

The identity checks read a dense array through its nonzeros (COO index
arrays), pair up the nonzeros of two factors that share a summation index
(:func:`join`), and add the products that land on the same output index
(:func:`max_abs_of_sum`).  Their cost grows with the number of nonzero
products, not with the dense size of the tensors they stand for.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "orthonormal_columns",
    "projector",
    "complement_residual",
    "projector_distance",
    "coo",
    "join",
    "sum_by_key",
    "max_abs_of_sum",
    "cyclic_terms",
]


def orthonormal_columns(basis: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``basis`` (must be independent)."""
    b = np.atleast_2d(np.asarray(basis))
    if b.shape[1] == 0:
        return b
    q, r = np.linalg.qr(b)
    if np.min(np.abs(np.diag(r))) < 1e-12 * max(1.0, np.max(np.abs(r))):
        raise ValueError("subspace basis is not linearly independent")
    return q


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span (conjugate-aware)."""
    q = orthonormal_columns(basis)
    return q @ q.conj().T


def complement_residual(vectors: np.ndarray, basis: np.ndarray) -> float:
    """Largest norm of the component of any column of ``vectors`` outside
    the span of ``basis``; 0 means containment."""
    v = np.atleast_2d(np.asarray(vectors))
    if v.shape[1] == 0:
        return 0.0
    p = projector(basis) if basis.shape[1] else np.zeros((v.shape[0], v.shape[0]))
    out = v - p @ v
    return float(np.max(np.linalg.norm(out, axis=0)))


def projector_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Spectral norm of the difference of the two orthogonal projectors.

    Equals the sine of the largest principal angle when the subspaces have
    the same dimension, and 1 when they do not.
    """
    n = basis_a.shape[0]
    pa = projector(basis_a) if basis_a.shape[1] else np.zeros((n, n))
    pb = projector(basis_b) if basis_b.shape[1] else np.zeros((n, n))
    return float(np.linalg.norm(pa - pb, 2))


def coo(a: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Nonzero entries of a dense array: one index array per axis, and the
    values, in row-major order."""
    idx = np.nonzero(a)
    return idx, a[idx]


def join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of positions (p, q) with ``left[p] == right[q]``, for two
    integer key arrays; the pairs of a sparse product summed over the key."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, "left")
    counts = np.searchsorted(keys, left, "right") - lo
    p = np.repeat(np.arange(left.size), counts)
    offset = np.arange(p.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return p, order[np.repeat(lo, counts) + offset]


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integer keys in increasing order, and the sum of the
    values at each."""
    if keys.size == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    return k[starts], np.add.reduceat(values[order], starts)


def max_abs_of_sum(shape: tuple[int, ...], terms) -> float:
    """Max norm of the array of ``shape`` that is the sum of sparse terms,
    each given as (index arrays, values) with repeats allowed; entries that
    no term reaches are 0."""
    keys = np.concatenate([np.ravel_multi_index(idx, shape) for idx, _ in terms])
    values = np.concatenate([v for _, v in terms])
    return float(np.max(np.abs(sum_by_key(keys, values)[1]), initial=0.0))


def cyclic_terms(lead, i, j, k, values) -> list:
    """The sparse terms that add ``values`` at (lead, i, j, k) and at its
    two cyclic rotations in (i, j, k): a cyclic sum, for max_abs_of_sum."""
    return [((lead, i, j, k), values), ((lead, k, i, j), values), ((lead, j, k, i), values)]
