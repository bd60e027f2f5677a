"""Small subspace utilities shared by the sequence and extension checks,
and the sparse arrays behind the structure constants and cocycle data.

Structure constants, omega and phi are stored as their nonzeros only
(:class:`Coo`).  The identity checks pair up the nonzeros of two factors
that share a summation index (:func:`join`, which refuses to form more
than ``MAX_SPARSE_TERMS`` products) and add the products that land on the
same output index (:func:`max_abs_of_sum`).  Their cost grows with the
number of nonzero products, not with the dense size of the tensors.  A
residual declares its products per lead output index (:class:`LeadJoin`)
and :func:`max_abs_by_lead` forms them in blocks of whole lead indices, so
its memory stays near ``BLOCK_TERMS`` products at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SizeLimitError
from .tolerances import BLOCK_TERMS, MAX_LEAD_TERMS, MAX_SPARSE_TERMS

__all__ = [
    "orth",
    "null_space",
    "orthonormal_columns",
    "orthonormal_complement",
    "monomial_abs",
    "projector",
    "complement_residual",
    "projector_distance",
    "Coo",
    "as_coo",
    "join",
    "sum_by_key",
    "max_abs_of_sum",
    "LeadJoin",
    "max_abs_by_lead",
    "cyclic_terms",
]


def _svd_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """The number of singular values ``s`` of a matrix of ``shape`` above
    ``max(s) * eps * max(shape)``, the rank rule of scipy.linalg."""
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(shape)
    return int(np.sum(s > tol))


def orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of ``a``: its left singular
    vectors of the singular values above the rank rule of :func:`_svd_rank`."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _svd_rank(s, a.shape)]


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the kernel of ``a``: its right singular
    vectors past the rank of :func:`_svd_rank`."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[_svd_rank(s, a.shape):].T.conj()


def _check_independent(diag: np.ndarray, entries: np.ndarray):
    """Refuse a basis whose triangular factor has a negligible ``diag``
    entry relative to its largest entry among ``entries``."""
    if np.min(np.abs(diag)) < 1e-12 * max(1.0, np.max(np.abs(entries))):
        raise ValueError("subspace basis is not linearly independent")


def orthonormal_columns(basis: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``basis`` (must be independent)."""
    b = np.atleast_2d(np.asarray(basis))
    if b.shape[1] == 0:
        return b
    q, r = np.linalg.qr(b)
    _check_independent(np.diag(r), r)
    return q


def monomial_abs(a: np.ndarray) -> np.ndarray | None:
    """The absolute values of the nonzeros of a square matrix with exactly
    one nonzero in each row and each column, which are its singular values;
    None for any other matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    nz = a != 0
    if not (np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)):
        return None
    return np.abs(a[nz])


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of the span
    of the columns of ``basis`` (must be independent).  A square monomial
    basis spans the whole space, and gets no column without a QR: its
    columns are orthogonal, so the triangular factor of its QR has the
    absolute values of its nonzeros on the diagonal and nothing else, and
    the independence test reads them directly."""
    b = np.atleast_2d(np.asarray(basis))
    n, k = b.shape
    if k == 0:
        return np.eye(n, dtype=b.dtype)
    if (nz := monomial_abs(b)) is not None:
        _check_independent(nz, nz)
        return np.zeros((n, 0), dtype=b.dtype)
    q, r = np.linalg.qr(b, mode="complete")
    _check_independent(np.diag(r[:k]), r[:k])
    return q[:, k:]


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


@dataclass(frozen=True)
class Coo:
    """The nonzero entries of an array of ``shape``: one index array per
    axis and the values, in row-major order of the indices, each index
    once.  :meth:`of` builds one of read-only arrays that it owns, so a
    caller's arrays are never frozen; :meth:`dense` builds the array."""

    shape: tuple[int, ...]
    idx: tuple[np.ndarray, ...]
    values: np.ndarray

    @classmethod
    def of(cls, shape, idx, values, dtype=None) -> "Coo":
        """The array with ``values`` at ``idx``, given in any order: values
        at a repeated index are summed in the order given, zeros dropped."""
        keys = np.ravel_multi_index(tuple(np.asarray(i, dtype=np.intp) for i in idx), shape)
        keys, v = sum_by_key(keys, np.broadcast_to(np.asarray(values, dtype=dtype), keys.shape))
        idx, v = np.unravel_index(keys[v != 0], shape), v[v != 0]
        for a in (*idx, v):
            a.setflags(write=False)
        return cls(tuple(shape), idx, v)

    def dense(self) -> np.ndarray:
        """The array itself, built on each call."""
        a = np.zeros(self.shape, dtype=self.values.dtype)
        a[self.idx] = self.values
        return a

    def contract(self, vectors: dict[int, np.ndarray]) -> np.ndarray:
        """The dense array over the axes not in ``vectors``, each axis in
        it summed against its vector."""
        v = self.values
        for axis, x in vectors.items():
            v = v * np.asarray(x)[self.idx[axis]]
        rest = [a for a in range(len(self.shape)) if a not in vectors]
        out = np.zeros([self.shape[a] for a in rest], dtype=v.dtype)
        np.add.at(out, tuple(self.idx[a] for a in rest), v)
        return out


def as_coo(a, dtype=None) -> Coo:
    """``a`` as a Coo with values of ``dtype`` (by default its own): a Coo
    is kept (its values converted if their dtype differs), a dense array is
    read through its nonzeros."""
    if isinstance(a, Coo):
        return a if dtype in (None, a.values.dtype) else Coo.of(a.shape, a.idx, a.values, dtype)
    a = np.asarray(a, dtype=dtype)
    idx = np.nonzero(a)
    return Coo.of(a.shape, idx, a[idx])


def join(
    left: np.ndarray, right: np.ndarray, limit: int = MAX_SPARSE_TERMS
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of positions (p, q) with ``left[p] == right[q]``, for two
    integer key arrays, ordered by p and then by q; the pairs of a sparse
    product summed over the key.  More than ``limit`` pairs are refused
    before any is formed."""
    order = np.argsort(right, kind="stable")
    return _pairs(left, order, right[order], limit)


def _pairs(left, order, keys, limit=MAX_SPARSE_TERMS) -> tuple[np.ndarray, np.ndarray]:
    """:func:`join` of ``left`` with the key array whose stable sorting
    permutation is ``order`` and whose sorted keys are ``keys``."""
    lo = np.searchsorted(keys, left, "left")
    counts = np.searchsorted(keys, left, "right") - lo
    if (total := int(counts.sum())) > limit:
        raise SizeLimitError(f"would pair {total} nonzero products, more than {limit}")
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


@dataclass(frozen=True)
class LeadJoin:
    """The products of two sparse factors that share a summation index, as
    term lists of a residual whose first output index is a lead index.
    ``lead`` and ``key`` hold the lead index and the summation index of each
    nonzero of the factor that carries the lead, ``other`` the summation
    index of each nonzero of the other factor.  ``terms(p, q)`` gives the
    terms (as for :func:`max_abs_of_sum`) of the products of the nonzeros at
    positions p of the lead factor and q of the other, each term at the
    lead index of its p."""

    lead: np.ndarray
    key: np.ndarray
    other: np.ndarray
    terms: Callable[[np.ndarray, np.ndarray], list]

    def counts(self, size: int) -> np.ndarray:
        """How many products each of the ``size`` lead indices pairs."""
        partners = np.bincount(self.other, minlength=int(self.key.max(initial=-1)) + 1)
        return np.bincount(self.lead, partners[self.key], size).astype(np.int64)


def max_abs_by_lead(shape: tuple[int, ...], joins: list[LeadJoin]) -> float:
    """Max norm of the array of ``shape`` that is the sum of the terms of
    ``joins``, whose first index is the lead index of each.

    Consecutive lead indices are packed into blocks of at most
    ``BLOCK_TERMS`` products (a lead index of more is a block of its own),
    and each block pairs only the nonzeros that carry its lead indices.  A
    lead index of more than ``MAX_LEAD_TERMS`` products is refused before
    any product is formed.  Within a block the term lists follow the order
    of ``joins``, and every output index gets its products in increasing
    order of the summation index, as from one :func:`join` over all
    nonzeros (each factor's nonzeros are row-major, and an output index
    fixes every other index of its factors); so the result does not depend
    on the blocks.  When every product fits in one block, the nonzeros are
    joined in their stored order, with no sorting by lead index: an output
    index fixes its lead index, so its products keep their order.
    """
    counts = sum(j.counts(shape[0]) for j in joins)
    if (over := np.flatnonzero(counts > MAX_LEAD_TERMS)).size:
        raise SizeLimitError(
            f"would pair {counts[over[0]]} nonzero products, more than {MAX_LEAD_TERMS}"
        )
    before = np.concatenate(([0], np.cumsum(counts)))
    if before[-1] <= BLOCK_TERMS:
        return max_abs_of_sum(shape, [t for j in joins for t in j.terms(*join(j.key, j.other))])
    runs = []  # per join: its lead side by lead index, its other side by key
    for j in joins:
        by_lead = np.argsort(j.lead, kind="stable")
        by_key = np.argsort(j.other, kind="stable")
        edges = np.searchsorted(j.lead[by_lead], np.arange(shape[0] + 1))
        runs.append((j, by_lead, edges, by_key, j.other[by_key]))
    worst, lo = 0.0, 0
    while lo < shape[0]:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + BLOCK_TERMS, "right")) - 1)
        terms = []
        for j, by_lead, edges, by_key, keys in runs:
            pick = by_lead[edges[lo]:edges[hi]]
            p, q = _pairs(j.key[pick], by_key, keys)
            terms += j.terms(pick[p], q)
        worst = max(worst, max_abs_of_sum(shape, terms))
        lo = hi
    return worst


def cyclic_terms(lead, i, j, k, values) -> list:
    """The sparse terms that add ``values`` at (lead, i, j, k) and at its
    two cyclic rotations in (i, j, k): a cyclic sum, for max_abs_of_sum."""
    return [((lead, i, j, k), values), ((lead, k, i, j), values), ((lead, j, k, i), values)]
