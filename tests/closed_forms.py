"""Closed forms that the library is checked against, kept with the tests
because only the tests read them.

The restricted block model and the semidirect system are written by hand
here, independently of the COO structure constants of their extension
specs, so that they can serve as oracles for the generic extension
operations, for the compiled field and for the library's closed-form
fields.  A restricted operator, or a predual point sigma, is its full
(n x n) matrix, n = n+ + n-, and its blocks are the slices

    X_pp = X[:n+, :n+]    X_pm = X[:n+, n+:]
    X_mp = X[n+:, :n+]    X_mm = X[n+:, n+:].

The ideal slot holds (n+ x n+) matrices with the negative commutator
bracket, twisted by phi(X) rho = [X_pp, rho] and omega(X, X') =
X_pm X'_mp - X'_pm X_mp (see ``liepoisson.restricted``).

The Hamiltonians are functions of the flat (c, a) points of the extension
specs, with hand-written gradients and no ``affine`` part, so they stay
independent of the compiled field.  A restricted point is (kappa, sigma)
row-major and complex, sigma as its full matrix; a semidirect point is
(Re v, Im v, Re rho, Im rho), rho row-major."""

import numpy as np

from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson import restricted as rs
from liepoisson.linalg import complement_residual, orthonormal_columns


def _comm(a, b):
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# the restricted block model
# ---------------------------------------------------------------------------


def random_block(n_plus: int, n_minus: int, rng: np.random.Generator) -> np.ndarray:
    """The full matrix of an operator with independent standard complex
    gaussian blocks, drawn pp, pm, mp, mm, each real part first."""
    def g(r, c):
        return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    p, m = n_plus, n_minus
    return np.block([[g(p, p), g(p, m)], [g(m, p), g(m, m)]])


def _cplx_out(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def block_to_json(x: np.ndarray, n_plus: int) -> dict:
    """The four-block form of ``x`` that a config's sigma0 or X0 takes."""
    p = n_plus
    return {
        "pp": _cplx_out(x[:p, :p]),
        "pm": _cplx_out(x[:p, p:]),
        "mp": _cplx_out(x[p:, :p]),
        "mm": _cplx_out(x[p:, p:]),
    }


def block_norm(x: np.ndarray, n_plus: int) -> float:
    """Operator norms of the diagonal blocks plus Hilbert-Schmidt norms of
    the off-diagonal ones."""
    p = n_plus
    return float(
        np.linalg.norm(x[:p, :p], 2)
        + np.linalg.norm(x[p:, p:], 2)
        + np.linalg.norm(x[:p, p:])
        + np.linalg.norm(x[p:, :p])
    )


def block_pairing(sigma: np.ndarray, x: np.ndarray, n_plus: int) -> complex:
    """trace(sigma_pp x_pp + sigma_mm x_mm + sigma_pm x_mp + sigma_mp x_pm),
    the full matrix trace of sigma x."""
    p = n_plus
    return complex(
        np.trace(sigma[:p, :p] @ x[:p, :p])
        + np.trace(sigma[p:, p:] @ x[p:, p:])
        + np.trace(sigma[:p, p:] @ x[p:, :p])
        + np.trace(sigma[p:, :p] @ x[:p, p:])
    )


def restricted_phi(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """phi(X) rho = [X_pp, rho]; a derivation of the ideal slot."""
    p = len(rho)
    return _comm(x[:p, :p], rho)


def restricted_omega(x: np.ndarray, x2: np.ndarray, n_plus: int) -> np.ndarray:
    """omega(X, X') = X_pm X'_mp - X'_pm X_mp; skew and (n+ x n+)-valued."""
    p = n_plus
    return x[:p, p:] @ x2[p:, :p] - x2[:p, p:] @ x[p:, :p]


def restricted_bracket(rho_x, rho_x2):
    """Bracket of the twisted sum of (rho, X) pairs: the ideal slot collects
    the negative commutator of the rho parts plus the phi and omega
    corrections, the operator slot is the plain commutator."""
    rho, x = rho_x
    rho2, x2 = rho_x2
    # grouped so that swapping the arguments negates every intermediate
    # exactly, making antisymmetry hold to the last bit
    phi_part = restricted_phi(x, rho2) - restricted_phi(x2, rho)
    first = (-_comm(rho, rho2) + phi_part) + restricted_omega(x, x2, len(rho))
    return first, _comm(x, x2)


def restricted_dual_maps(x: np.ndarray, rho: np.ndarray, kappa: np.ndarray):
    """Closed forms of the three dual maps applied to kappa:

    phi(X)* kappa = -[X_pp, kappa],
    (phi(.) rho)* kappa = [[ [rho, kappa], 0], [0, 0]],
    omega(X, .)* kappa = [[0, kappa X_pm], [-X_mp kappa, 0]].

    Each equals the brute-force pairing adjoint of phi(X), phi(.) rho and
    omega(X, .) respectively.
    """
    p = len(kappa)
    phi_star = -_comm(x[:p, :p], kappa)
    phidot_star = np.zeros(x.shape, dtype=complex)
    phidot_star[:p, :p] = _comm(rho, kappa)
    omega_star = np.zeros(x.shape, dtype=complex)
    omega_star[:p, p:] = kappa @ x[:p, p:]
    omega_star[p:, :p] = -x[p:, :p] @ kappa
    return phi_star, phidot_star, omega_star


def restricted_poisson_bracket(f: po.SmoothFunction, g: po.SmoothFunction, b, dims) -> float:
    """{f, g}(kappa, sigma) =
        Re <sigma, [df/dsigma, dg/dsigma]>
      + Re trace(kappa (-[df/dkappa, dg/dkappa]
                        - [(dg/dsigma)_pp, df/dkappa]
                        + [(df/dsigma)_pp, dg/dkappa]
                        + omega(df/dsigma, dg/dsigma)))

    at the flat point b = (kappa, sigma) of the block model at ``dims``.
    The leading minus of the kappa-kappa commutator is the negative
    commutator of the ideal slot; with it the bracket coincides with the
    generic extension bracket of the equivalent cocycle data.
    """
    p = dims[0]
    kappa, sigma = restricted_split(b, dims)
    fk, fs = rs._gradients(f, b, dims)
    gk, gs = rs._gradients(g, b, dims)
    term_sigma = np.real(block_pairing(sigma, _comm(fs, gs), p))
    inner = (
        -_comm(fk, gk)
        - _comm(gs[:p, :p], fk)
        + _comm(fs[:p, :p], gk)
        + restricted_omega(fs, gs, p)
    )
    return float(term_sigma + np.real(np.trace(kappa @ inner)))


def restricted_point(kappa, sigma) -> np.ndarray:
    """The flat point of ``kappa`` and the full matrix ``sigma``."""
    return np.concatenate([np.ravel(kappa), np.ravel(sigma)]).astype(complex)


def restricted_split(b, dims) -> tuple[np.ndarray, np.ndarray]:
    """(kappa, full sigma) of a flat restricted point."""
    n_plus, n = dims[0], sum(dims)
    return b[: n_plus**2].reshape(n_plus, n_plus), b[n_plus**2 :].reshape(n, n)


def named_restricted_hamiltonian(name: str, params: dict, dims) -> po.SmoothFunction:
    """"linear_kappa" Re tr(kappa A), "linear_sigma" Re <sigma, X0> and
    "quadratic" (half the sum of the two squares), with analytic gradients;
    X0 is a full matrix."""
    if name == "linear_kappa":
        a0 = np.asarray(params["A"], dtype=complex)
        grad = restricted_point(a0, np.zeros((sum(dims),) * 2))
        return po.SmoothFunction(
            eval=lambda b: float(np.real(np.trace(restricted_split(b, dims)[0] @ a0))),
            grad=lambda b: grad,
        )
    if name == "linear_sigma":
        x0 = params["X0"]
        grad = restricted_point(np.zeros((dims[0], dims[0])), x0)
        return po.SmoothFunction(
            eval=lambda b: float(np.real(np.trace(restricted_split(b, dims)[1] @ x0))),
            grad=lambda b: grad,
        )
    if name == "quadratic":

        def _eval(b):
            kappa, sigma = restricted_split(b, dims)
            return float(0.5 * np.real(np.trace(kappa @ kappa) + np.trace(sigma @ sigma)))

        return po.SmoothFunction(eval=_eval, grad=lambda b: np.asarray(b, dtype=complex))
    raise KeyError(f"unknown restricted hamiltonian {name!r}")


# ---------------------------------------------------------------------------
# the semidirect system
# ---------------------------------------------------------------------------


def qm_point(v, rho) -> np.ndarray:
    """The flat realified point of ``v`` and ``rho``."""
    v, rho = np.asarray(v, dtype=complex), np.asarray(rho, dtype=complex)
    return np.concatenate([v.real, v.imag, rho.real.ravel(), rho.imag.ravel()])


def qm_split(b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, rho) of a flat semidirect point."""
    rho = b[2 * n : 2 * n + n * n] + 1j * b[2 * n + n * n :]
    return b[:n] + 1j * b[n : 2 * n], rho.reshape(n, n)


def linear_rho(h0) -> po.SmoothFunction:
    """h = Re trace(rho H0); for hermitian H0 the flow is v_dot = -H0 v,
    rho_dot = [H0, rho]."""
    h0 = np.asarray(h0, dtype=complex)
    n = h0.shape[0]
    grad = qm_point(np.zeros(n), h0)
    return po.SmoothFunction(
        eval=lambda b: float(np.real(np.trace(qm_split(b, n)[1] @ h0))),
        grad=lambda b: grad,
    )


def quadratic_v(a) -> po.SmoothFunction:
    """h = 1/2 Re <v | A v> with A hermitian; dh/dv = A v."""
    a = np.asarray(a, dtype=complex)
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]

    def _eval(b):
        v = qm_split(b, n)[0]
        return float(0.5 * np.real(np.vdot(v, a @ v)))

    return po.SmoothFunction(
        eval=_eval, grad=lambda b: qm_point(a @ qm_split(b, n)[0], np.zeros((n, n)))
    )


def coupled(h0, a, coupling: float) -> po.SmoothFunction:
    """h = Re trace(rho H0) + 1/2 Re <v | A v> + coupling Re <v | rho v>."""
    base_rho = linear_rho(h0)
    base_v = quadratic_v(a)
    lam = float(coupling)
    n = np.shape(h0)[0]

    def _eval(b):
        v, rho = qm_split(b, n)
        return base_rho.eval(b) + base_v.eval(b) + lam * float(np.real(np.vdot(v, rho @ v)))

    def _grad(b):
        v, rho = qm_split(b, n)
        extra = qm_point((rho + rho.conj().T) @ v, np.outer(v, np.conj(v)))
        return base_rho.grad(b) + base_v.grad(b) + lam * extra

    return po.SmoothFunction(eval=_eval, grad=_grad)


def qm_bracket(f: po.SmoothFunction, g: po.SmoothFunction, b, n: int) -> float:
    """{f, g}(v, rho) = Re trace(rho [F, G]) + Re <v | F g_v - G f_v> with
    F = df/drho, G = dg/drho, at the flat point b; antisymmetric, and zero
    when both depend on v alone (the Hilbert slot alone carries the trivial
    structure)."""
    v, rho = qm_split(b, n)
    fv, fr = qm._gradients(f, b, n)
    gv, gr = qm._gradients(g, b, n)
    term1 = np.real(np.trace(rho @ _comm(fr, gr)))
    term2 = np.real(np.vdot(v, fr @ gv - gr @ fv))
    return float(term1 + term2)


def matrix_element_representative(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The trace-class representative of the functional x -> <w | x v>:
    the matrix b = outer(v, conj(w)) satisfies trace(x b) = <w | x v>
    for every x (with <a | b> antilinear in a)."""
    return np.outer(np.asarray(v, dtype=complex), np.conj(np.asarray(w, dtype=complex)))


QM_NAMED_HAMILTONIANS = {
    "linear_rho": lambda p: linear_rho(p["H0"]),
    "quadratic_v": lambda p: quadratic_v(p["A"]),
    "coupled": lambda p: coupled(p["H0"], p["A"], p.get("coupling", 1.0)),
}


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def predual_restriction_residual(m, source_subspace, target_subspace) -> float:
    """How far the map ``m`` (a LinearMapRec) takes a designated subspace
    outside another: the largest component outside ``target_subspace`` of
    ``m`` applied to an orthonormal basis of ``source_subspace``; 0 means
    the restriction is well defined."""
    src = orthonormal_columns(source_subspace)
    if src.shape[1] == 0:
        return 0.0
    return complement_residual(m.matrix @ src, target_subspace)
