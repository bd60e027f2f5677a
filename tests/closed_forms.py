"""The closed-form Hamiltonians of the restricted and semidirect systems,
and their transport to the (c, a) coordinates of the equivalent extension
specs: the references that the generic extension operations and the
simulated Hamiltonians are checked against."""

import numpy as np

from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson import restricted as rs


def named_restricted_hamiltonian(name: str, params: dict, dims) -> rs.RestrictedFunction:
    """"linear_kappa" Re tr(kappa A), "linear_sigma" Re <sigma, X0> and
    "quadratic" (half the sum of the two squares), with analytic gradients."""
    n_plus, n_minus = dims
    if name == "linear_kappa":
        a0 = np.asarray(params["A"], dtype=complex)
        return rs.RestrictedFunction(
            eval=lambda st: float(np.real(np.trace(st.kappa @ a0))),
            grad_kappa=lambda st: a0,
            grad_sigma=lambda st: rs.BlockOperator.zero(n_plus, n_minus),
        )
    if name == "linear_sigma":
        x0 = params["X0"]
        return rs.RestrictedFunction(
            eval=lambda st: float(np.real(rs.block_pairing(st.sigma, x0))),
            grad_kappa=lambda st: np.zeros((n_plus, n_plus), dtype=complex),
            grad_sigma=lambda st: x0,
        )
    if name == "quadratic":
        return rs.RestrictedFunction(
            eval=lambda st: float(
                0.5 * np.real(np.trace(st.kappa @ st.kappa))
                + 0.5 * np.real(rs.block_pairing(st.sigma, st.sigma))
            ),
            grad_kappa=lambda st: st.kappa,
            grad_sigma=lambda st: st.sigma,
        )
    raise KeyError(f"unknown restricted hamiltonian {name!r}")


def linear_rho(h0) -> qm.QMFunction:
    """h = Re trace(rho H0); for hermitian H0 the flow is v_dot = -H0 v,
    rho_dot = [H0, rho]."""
    h0 = np.asarray(h0, dtype=complex)
    return qm.QMFunction(
        eval=lambda s: float(np.real(np.trace(s.rho @ h0))),
        grad_v=lambda s: np.zeros(s.n, dtype=complex),
        grad_rho=lambda s: h0,
    )


def quadratic_v(a) -> qm.QMFunction:
    """h = 1/2 Re <v | A v> with A hermitian; dh/dv = A v."""
    a = np.asarray(a, dtype=complex)
    a = 0.5 * (a + a.conj().T)
    return qm.QMFunction(
        eval=lambda s: float(0.5 * np.real(np.vdot(s.v, a @ s.v))),
        grad_v=lambda s: a @ s.v,
        grad_rho=lambda s: np.zeros((s.n, s.n), dtype=complex),
    )


def coupled(h0, a, coupling: float) -> qm.QMFunction:
    """h = Re trace(rho H0) + 1/2 Re <v | A v> + coupling Re <v | rho v>."""
    base_rho = linear_rho(h0)
    base_v = quadratic_v(a)
    lam = float(coupling)

    def _eval(s):
        return (
            base_rho.eval(s)
            + base_v.eval(s)
            + lam * float(np.real(np.vdot(s.v, s.rho @ s.v)))
        )

    def _grad_v(s):
        return base_v.grad_v(s) + lam * (s.rho + s.rho.conj().T) @ s.v

    def _grad_rho(s):
        return base_rho.grad_rho(s) + lam * np.outer(s.v, np.conj(s.v))

    return qm.QMFunction(eval=_eval, grad_v=_grad_v, grad_rho=_grad_rho)


QM_NAMED_HAMILTONIANS = {
    "linear_rho": lambda p: linear_rho(p["H0"]),
    "quadratic_v": lambda p: quadratic_v(p["A"]),
    "coupled": lambda p: coupled(p["H0"], p["A"], p.get("coupling", 1.0)),
}


def restricted_pair_function(f: rs.RestrictedFunction, dims) -> po.PairFunction:
    """``f`` on the coordinates of the restricted extension spec, with its
    analytic gradients carried along."""
    n_plus, n_minus = dims
    n = n_plus + n_minus

    def _state(c, a):
        sigma = rs.BlockOperator.from_full(np.asarray(a).reshape(n, n), n_plus)
        return rs.RestrictedState(np.asarray(c).reshape(n_plus, n_plus), sigma)

    grad_c = grad_a = None
    if f.grad_kappa is not None:
        def grad_c(c, a):
            return np.asarray(f.grad_kappa(_state(c, a)), dtype=complex).reshape(-1)
    if f.grad_sigma is not None:
        def grad_a(c, a):
            return f.grad_sigma(_state(c, a)).to_full().reshape(-1).astype(complex)

    return po.PairFunction(lambda c, a: f.eval(_state(c, a)), grad_c, grad_a, f.fd_step)


def qm_pair_function(f: qm.QMFunction, n: int) -> po.PairFunction:
    """``f`` on the realified coordinates of the semidirect extension spec,
    with its analytic gradients carried along."""

    def _state(c, a):
        return qm.state_from_coordinates(c, a, n)

    grad_c = grad_a = None
    if f.grad_v is not None:
        def grad_c(c, a):
            gv = f.grad_v(_state(c, a))
            return np.concatenate([np.real(gv), np.imag(gv)])
    if f.grad_rho is not None:
        def grad_a(c, a):
            gr = f.grad_rho(_state(c, a))
            return np.concatenate([np.real(gr).reshape(-1), np.imag(gr).reshape(-1)])

    return po.PairFunction(lambda c, a: f.eval(_state(c, a)), grad_c, grad_a, f.fd_step)
