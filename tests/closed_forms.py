"""The closed-form Hamiltonians of the restricted and semidirect systems,
as functions of the flat (c, a) points of the equivalent extension specs:
the references that the generic extension operations and the simulated
Hamiltonians are checked against.  Their gradients are written by hand,
with no ``affine`` part, so they stay independent of the compiled field.

A restricted point is (kappa, sigma) row-major and complex, sigma as its
full matrix; a semidirect point is (Re v, Im v, Re rho, Im rho), rho
row-major."""

import numpy as np

from liepoisson import poisson as po
from liepoisson import restricted as rs


def restricted_point(kappa, sigma) -> np.ndarray:
    """The flat point of ``kappa`` and ``sigma`` (a BlockOperator)."""
    return np.concatenate([np.ravel(kappa), sigma.to_full().ravel()]).astype(complex)


def restricted_split(b, dims) -> tuple[np.ndarray, np.ndarray]:
    """(kappa, full sigma) of a flat restricted point."""
    n_plus, n = dims[0], sum(dims)
    return b[: n_plus**2].reshape(n_plus, n_plus), b[n_plus**2 :].reshape(n, n)


def qm_point(v, rho) -> np.ndarray:
    """The flat realified point of ``v`` and ``rho``."""
    v, rho = np.asarray(v, dtype=complex), np.asarray(rho, dtype=complex)
    return np.concatenate([v.real, v.imag, rho.real.ravel(), rho.imag.ravel()])


def qm_split(b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, rho) of a flat semidirect point."""
    rho = b[2 * n : 2 * n + n * n] + 1j * b[2 * n + n * n :]
    return b[:n] + 1j * b[n : 2 * n], rho.reshape(n, n)


def named_restricted_hamiltonian(name: str, params: dict, dims) -> po.SmoothFunction:
    """"linear_kappa" Re tr(kappa A), "linear_sigma" Re <sigma, X0> and
    "quadratic" (half the sum of the two squares), with analytic gradients."""
    if name == "linear_kappa":
        a0 = np.asarray(params["A"], dtype=complex)
        grad = restricted_point(a0, rs.BlockOperator.zero(*dims))
        return po.SmoothFunction(
            eval=lambda b: float(np.real(np.trace(restricted_split(b, dims)[0] @ a0))),
            grad=lambda b: grad,
        )
    if name == "linear_sigma":
        x0 = params["X0"]
        grad = restricted_point(np.zeros((dims[0], dims[0])), x0)
        return po.SmoothFunction(
            eval=lambda b: float(np.real(np.trace(restricted_split(b, dims)[1] @ x0.to_full()))),
            grad=lambda b: grad,
        )
    if name == "quadratic":

        def _eval(b):
            kappa, sigma = restricted_split(b, dims)
            return float(0.5 * np.real(np.trace(kappa @ kappa) + np.trace(sigma @ sigma)))

        return po.SmoothFunction(eval=_eval, grad=lambda b: np.asarray(b, dtype=complex))
    raise KeyError(f"unknown restricted hamiltonian {name!r}")


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


QM_NAMED_HAMILTONIANS = {
    "linear_rho": lambda p: linear_rho(p["H0"]),
    "quadratic_v": lambda p: quadratic_v(p["A"]),
    "coupled": lambda p: coupled(p["H0"], p["A"], p.get("coupling", 1.0)),
}
