import numpy as np
import pytest

from liepoisson import extension as ex
from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson.errors import DimensionMismatchError


def crandom(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_state(rng, n=4):
    return qm.QState(crandom(rng, n), crandom(rng, n, n))


def hermitian(rng, n):
    m = crandom(rng, n, n)
    return 0.5 * (m + m.conj().T)


def linear_coordinate_functions(n):
    """All real coordinate functions with analytic gradients, plus the
    matching component extractor of the flow field."""
    out = []
    for k in range(n):
        ek = np.zeros(n, dtype=complex)
        ek[k] = 1.0
        out.append((
            qm.QMFunction(
                eval=lambda s, k=k: float(np.real(s.v[k])),
                grad_v=lambda s, ek=ek: ek,
                grad_rho=lambda s: np.zeros((n, n), dtype=complex),
            ),
            lambda vd, rd, k=k: float(np.real(vd[k])),
        ))
        out.append((
            qm.QMFunction(
                eval=lambda s, k=k: float(np.imag(s.v[k])),
                grad_v=lambda s, ek=ek: 1j * ek,
                grad_rho=lambda s: np.zeros((n, n), dtype=complex),
            ),
            lambda vd, rd, k=k: float(np.imag(vd[k])),
        ))
    for a in range(n):
        for b in range(n):
            eba = np.zeros((n, n), dtype=complex)
            eba[b, a] = 1.0
            out.append((
                qm.QMFunction(
                    eval=lambda s, a=a, b=b: float(np.real(s.rho[a, b])),
                    grad_v=lambda s: np.zeros(n, dtype=complex),
                    grad_rho=lambda s, e=eba: e,
                ),
                lambda vd, rd, a=a, b=b: float(np.real(rd[a, b])),
            ))
            out.append((
                qm.QMFunction(
                    eval=lambda s, a=a, b=b: float(np.imag(s.rho[a, b])),
                    grad_v=lambda s: np.zeros(n, dtype=complex),
                    grad_rho=lambda s, e=eba: -1j * e,
                ),
                lambda vd, rd, a=a, b=b: float(np.imag(rd[a, b])),
            ))
    return out


def test_state_shapes_validated():
    with pytest.raises(DimensionMismatchError):
        qm.QState(np.zeros(3), np.zeros((2, 2)))


def test_rho_only_bracket(rng):
    n = 3
    state = rand_state(rng, n)
    x1, x2 = crandom(rng, n, n), crandom(rng, n, n)
    f = qm.linear_rho(x1)
    g = qm.linear_rho(x2)
    expected = np.real(np.trace(state.rho @ (x1 @ x2 - x2 @ x1)))
    assert qm.qm_bracket(f, g, state) == pytest.approx(float(expected))


def test_v_only_functions_commute(rng):
    # the Hilbert slot alone carries the trivial structure
    n = 3
    state = rand_state(rng, n)
    f = qm.quadratic_v(hermitian(rng, n))
    g = qm.quadratic_v(hermitian(rng, n))
    assert qm.qm_bracket(f, g, state) == pytest.approx(0.0, abs=1e-14)


def test_mixed_linear_matches_extension_bracket(rng):
    n = 3
    spec = qm.semidirect_extension_spec(n)
    assert ex.check_compatibility(spec).max_residual == 0.0
    state = rand_state(rng, n)
    c0, a0 = qm.state_coordinates(state)
    worst = 0.0
    for _ in range(10):
        xa, ua = crandom(rng, n, n), crandom(rng, n)
        xb, ub = crandom(rng, n, n), crandom(rng, n)
        f = qm.QMFunction(
            eval=lambda s, x=xa, u=ua: float(
                np.real(np.trace(s.rho @ x)) + np.real(np.vdot(u, s.v))
            ),
            grad_v=lambda s, u=ua: u,
            grad_rho=lambda s, x=xa: x,
        )
        g = qm.QMFunction(
            eval=lambda s, x=xb, u=ub: float(
                np.real(np.trace(s.rho @ x)) + np.real(np.vdot(u, s.v))
            ),
            grad_v=lambda s, u=ub: u,
            grad_rho=lambda s, x=xb: x,
        )
        lhs = qm.qm_bracket(f, g, state)
        rhs = po.extension_poisson_bracket(
            qm.as_pair_function(f, n), qm.as_pair_function(g, n), c0, a0, spec
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_field_matches_extension_field(rng):
    n = 3
    spec = qm.semidirect_extension_spec(n)
    h = qm.coupled(hermitian(rng, n), hermitian(rng, n), 0.4)
    state = rand_state(rng, n)
    c0, a0 = qm.state_coordinates(state)
    vd, rd = qm.qm_hamilton_rhs(h, state)
    cd, ad_ = po.extension_hamiltonian_field(qm.as_pair_function(h, n), c0, a0, spec)
    flow = qm.state_from_coordinates(cd, ad_, n)
    assert np.max(np.abs(flow.v - vd)) < 1e-12
    assert np.max(np.abs(flow.rho - rd)) < 1e-12


def test_hermitian_generator_flow(rng):
    n = 4
    h0 = hermitian(rng, n)
    state = rand_state(rng, n)
    vd, rd = qm.qm_hamilton_rhs(qm.linear_rho(h0), state)
    assert np.max(np.abs(vd + h0 @ state.v)) < 1e-13
    assert np.max(np.abs(rd - (h0 @ state.rho - state.rho @ h0))) < 1e-13


def test_v_only_hamiltonian_outer_product(rng):
    n = 3
    a = hermitian(rng, n)
    h = qm.quadratic_v(a)
    state = rand_state(rng, n)
    vd, rd = qm.qm_hamilton_rhs(h, state)
    assert np.max(np.abs(vd)) == 0.0
    expected = np.outer(a @ state.v, np.conj(state.v))
    assert np.max(np.abs(rd - expected)) < 1e-13


def test_zero_hamiltonian(rng):
    state = rand_state(rng, 3)
    h = qm.QMFunction(
        eval=lambda s: 0.0,
        grad_v=lambda s: np.zeros(3, dtype=complex),
        grad_rho=lambda s: np.zeros((3, 3), dtype=complex),
    )
    vd, rd = qm.qm_hamilton_rhs(h, state)
    assert np.max(np.abs(vd)) == 0.0 and np.max(np.abs(rd)) == 0.0


@pytest.mark.parametrize("maker", ["linear_rho", "quadratic_v", "coupled"])
def test_flow_satisfies_bracket_contract(maker, rng):
    n = 4
    h0, a = hermitian(rng, n), hermitian(rng, n)
    h = {
        "linear_rho": lambda: qm.linear_rho(h0),
        "quadratic_v": lambda: qm.quadratic_v(a),
        "coupled": lambda: qm.coupled(h0, a, 0.7),
    }[maker]()
    worst = 0.0
    for _ in range(5):
        state = rand_state(rng, n)
        vd, rd = qm.qm_hamilton_rhs(h, state)
        for f, ddt in linear_coordinate_functions(n):
            lhs = ddt(vd, rd)
            rhs = qm.qm_bracket(f, h, state)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_bracket_consistency_polynomial_hamiltonian(rng):
    # 50 random states, polynomial h: |d/dt f - {f, h}| stays small
    n = 3
    h = qm.coupled(hermitian(rng, n), hermitian(rng, n), 0.3)
    coords = linear_coordinate_functions(n)
    worst = 0.0
    for _ in range(50):
        state = rand_state(rng, n)
        vd, rd = qm.qm_hamilton_rhs(h, state)
        for f, ddt in coords[:6]:
            worst = max(worst, abs(ddt(vd, rd) - qm.qm_bracket(f, h, state)))
    assert worst < 1e-8


def test_fd_gradients_match_analytic(rng):
    n = 3
    h = qm.coupled(hermitian(rng, n), hermitian(rng, n), 0.5)
    state = rand_state(rng, n)
    gv_a, gr_a = qm.qm_gradients(h, state)
    gv_f, gr_f = qm.qm_gradients(qm.QMFunction(eval=h.eval), state)
    scale = max(1.0, float(np.max(np.abs(gv_a))), float(np.max(np.abs(gr_a))))
    assert np.max(np.abs(gv_a - gv_f)) / scale < 1e-6
    assert np.max(np.abs(gr_a - gr_f)) / scale < 1e-6


def test_representing_element_reproduces_functional(rng):
    # the finite-dimensional form of the continuity argument: the matrix
    # element functional of the natural action is represented inside the
    # trace-class slot, exactly on a full operator basis
    n = 4
    worst = 0.0
    for _ in range(10):
        v, w = crandom(rng, n), crandom(rng, n)
        b = qm.matrix_element_representative(v, w)
        for i in range(n):
            for j in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j] = 1.0
                worst = max(worst, abs(np.trace(x @ b) - np.vdot(w, x @ v)))
    assert worst < 1e-12


def test_qstate_json_roundtrip(rng):
    state = rand_state(rng, 3)
    back = qm.qstate_from_json(qm.qstate_to_json(state))
    assert np.max(np.abs(back.v - state.v)) == 0.0
    assert np.max(np.abs(back.rho - state.rho)) == 0.0
