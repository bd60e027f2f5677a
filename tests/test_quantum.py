import numpy as np
import pytest

from liepoisson import extension as ex
from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson import restricted as rs
from liepoisson.errors import DimensionMismatchError

from closed_forms import (
    coupled,
    linear_rho,
    matrix_element_representative,
    named_restricted_hamiltonian,
    qm_bracket,
    qm_point,
    qm_split,
    quadratic_v,
    random_block,
)


def crandom(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_state(rng, n=4):
    return qm_point(crandom(rng, n), crandom(rng, n, n))


def hermitian(rng, n):
    m = crandom(rng, n, n)
    return 0.5 * (m + m.conj().T)


def linear_coordinate_functions(n):
    """Every real coordinate function f(b) = b_k of the flat point, with its
    analytic gradient, plus the matching component extractor of the flow
    field.  Re trace(dr X) picks the entry (p, q) of dr for X = E_qp, so the
    rho-slot gradients are transposed, and those of Im rho change sign."""
    d = 2 * n + 2 * n * n
    t = np.arange(n * n).reshape(n, n).T.ravel()
    target = np.concatenate([np.arange(2 * n), 2 * n + t, 2 * n + n * n + t])
    sign = np.where(np.arange(d) < 2 * n + n * n, 1.0, -1.0)
    return [
        (
            po.SmoothFunction(
                eval=lambda b, k=k: float(b[k]),
                grad=lambda b, x=sign[k] * np.eye(d)[target[k]]: x,
            ),
            lambda bd, k=k: float(bd[k]),
        )
        for k in range(d)
    ]


def test_state_shapes_validated():
    with pytest.raises(DimensionMismatchError):
        qm.qm_hamilton_rhs(linear_rho(np.eye(2)), np.zeros(11), 2)


def test_rho_only_bracket(rng):
    n = 3
    b = rand_state(rng, n)
    x1, x2 = crandom(rng, n, n), crandom(rng, n, n)
    f = linear_rho(x1)
    g = linear_rho(x2)
    expected = np.real(np.trace(qm_split(b, n)[1] @ (x1 @ x2 - x2 @ x1)))
    assert qm_bracket(f, g, b, n) == pytest.approx(float(expected))


def test_v_only_functions_commute(rng):
    # the Hilbert slot alone carries the trivial structure
    n = 3
    b = rand_state(rng, n)
    f = quadratic_v(hermitian(rng, n))
    g = quadratic_v(hermitian(rng, n))
    assert qm_bracket(f, g, b, n) == pytest.approx(0.0, abs=1e-14)


def _linear(x, u):
    """Re trace(rho x) + Re <u | v>, with its analytic gradient."""
    n = len(u)
    return po.SmoothFunction(
        eval=lambda b: float(
            np.real(np.trace(qm_split(b, n)[1] @ x)) + np.real(np.vdot(u, qm_split(b, n)[0]))
        ),
        grad=lambda b: qm_point(u, x),
    )


def test_mixed_linear_matches_extension_bracket(rng):
    n = 3
    spec = qm.semidirect_extension_spec(n)
    assert ex.check_compatibility(spec).max_residual == 0.0
    b = rand_state(rng, n)
    worst = 0.0
    for _ in range(10):
        f = _linear(crandom(rng, n, n), crandom(rng, n))
        g = _linear(crandom(rng, n, n), crandom(rng, n))
        lhs = qm_bracket(f, g, b, n)
        rhs = po.extension_poisson_bracket(f, g, b, spec)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_field_matches_extension_field(rng):
    n = 3
    spec = qm.semidirect_extension_spec(n)
    h = coupled(hermitian(rng, n), hermitian(rng, n), 0.4)
    b = rand_state(rng, n)
    flow = qm.qm_hamilton_rhs(h, b, n)
    generic = po.extension_hamiltonian_field(h, b, spec)
    vd, rd = qm_split(flow, n)
    gv, gr = qm_split(generic, n)
    assert np.max(np.abs(gv - vd)) < 1e-12
    assert np.max(np.abs(gr - rd)) < 1e-12


def test_hermitian_generator_flow(rng):
    n = 4
    h0 = hermitian(rng, n)
    b = rand_state(rng, n)
    v, rho = qm_split(b, n)
    vd, rd = qm_split(qm.qm_hamilton_rhs(linear_rho(h0), b, n), n)
    assert np.max(np.abs(vd + h0 @ v)) < 1e-13
    assert np.max(np.abs(rd - (h0 @ rho - rho @ h0))) < 1e-13


def test_v_only_hamiltonian_outer_product(rng):
    n = 3
    a = hermitian(rng, n)
    h = quadratic_v(a)
    b = rand_state(rng, n)
    v = qm_split(b, n)[0]
    vd, rd = qm_split(qm.qm_hamilton_rhs(h, b, n), n)
    assert np.max(np.abs(vd)) == 0.0
    expected = np.outer(a @ v, np.conj(v))
    assert np.max(np.abs(rd - expected)) < 1e-13


def test_zero_hamiltonian(rng):
    b = rand_state(rng, 3)
    h = po.SmoothFunction(eval=lambda b: 0.0, grad=lambda b: np.zeros(24))
    assert np.max(np.abs(qm.qm_hamilton_rhs(h, b, 3))) == 0.0


@pytest.mark.parametrize("maker", ["linear_rho", "quadratic_v", "coupled"])
def test_flow_satisfies_bracket_contract(maker, rng):
    n = 4
    h0, a = hermitian(rng, n), hermitian(rng, n)
    h = {
        "linear_rho": lambda: linear_rho(h0),
        "quadratic_v": lambda: quadratic_v(a),
        "coupled": lambda: coupled(h0, a, 0.7),
    }[maker]()
    worst = 0.0
    for _ in range(5):
        b = rand_state(rng, n)
        bd = qm.qm_hamilton_rhs(h, b, n)
        for f, ddt in linear_coordinate_functions(n):
            lhs = ddt(bd)
            rhs = qm_bracket(f, h, b, n)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_bracket_consistency_polynomial_hamiltonian(rng):
    # 50 random states, polynomial h: |d/dt f - {f, h}| stays small
    n = 3
    h = coupled(hermitian(rng, n), hermitian(rng, n), 0.3)
    coords = linear_coordinate_functions(n)
    worst = 0.0
    for _ in range(50):
        b = rand_state(rng, n)
        bd = qm.qm_hamilton_rhs(h, b, n)
        for f, ddt in coords[:6]:
            worst = max(worst, abs(ddt(bd) - qm_bracket(f, h, b, n)))
    assert worst < 1e-8


def _oracle_cases():
    """(spec, oracle, random flat point) for the two closed-form systems."""
    rng = np.random.default_rng(41)
    spec = rs.restricted_extension_spec(3, 2)
    params = {"A": crandom(rng, 3, 3), "X0": random_block(3, 2, rng)}
    parts = [named_restricted_hamiltonian(k, params, (3, 2))
             for k in ("linear_kappa", "linear_sigma", "quadratic")]
    h = po.SmoothFunction(
        eval=lambda b: sum(p.eval(b) for p in parts),
        grad=lambda b: sum(p.grad(b) for p in parts),
    )
    yield "restricted-3-2", spec, h, crandom(rng, 9 + 25)
    h = coupled(hermitian(rng, 3), crandom(rng, 3, 3), 0.5)
    yield "semidirect-3", qm.semidirect_extension_spec(3), h, rand_state(rng, 3)


@pytest.mark.parametrize("spec,h,b", [c[1:] for c in _oracle_cases()],
                         ids=[c[0] for c in _oracle_cases()])
def test_split_functional_derivative_matches_hand_gradients(spec, h, b):
    """The one gradient convention: functional_derivative by finite
    differences, split by the slot pairings of the extension spec,
    reproduces the oracles' hand-written gradients on flat (c, a) points
    (the transpose of the trace-pairing slots, the conjugate of the
    realified Hilbert slot)."""
    got = np.concatenate(po.slot_derivatives(po.SmoothFunction(h.eval), b, spec.n_pairing,
                                             spec.h_pairing))
    want = h.grad(b)
    assert np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))) < 1e-6


def test_representing_element_reproduces_functional(rng):
    # the finite-dimensional form of the continuity argument: the matrix
    # element functional of the natural action is represented inside the
    # trace-class slot, exactly on a full operator basis
    n = 4
    worst = 0.0
    for _ in range(10):
        v, w = crandom(rng, n), crandom(rng, n)
        b = matrix_element_representative(v, w)
        for i in range(n):
            for j in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j] = 1.0
                worst = max(worst, abs(np.trace(x @ b) - np.vdot(w, x @ v)))
    assert worst < 1e-12
