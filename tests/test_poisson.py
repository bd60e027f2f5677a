import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson import algebra as la
from liepoisson import extension as ex
from liepoisson import functions as fn
from liepoisson import poisson as po
from liepoisson.errors import NumericDomainError


# ---------------------------------------------------------------------------
# functional derivatives
# ---------------------------------------------------------------------------


def test_linear_function_gradient(so3, rng):
    pairing = la.identity_pairing(so3)
    x0 = rng.normal(size=3)
    f = fn.linear(pairing, x0)
    b = rng.normal(size=3)
    assert np.allclose(po.functional_derivative(f, b, pairing), x0)
    # and without the analytic gradient, by differences
    f_fd = po.SmoothFunction(f.eval)
    assert np.max(np.abs(po.functional_derivative(f_fd, b, pairing) - x0)) < 1e-9


def test_quadratic_identity_gram_gradient(so3, rng):
    pairing = la.identity_pairing(so3)
    f = fn.quadratic(pairing)
    b = rng.normal(size=3)
    assert np.allclose(po.functional_derivative(f, b, pairing), b)
    assert f.eval(b) == pytest.approx(0.5 * b @ b)


def test_trace_cubic_gradient_fd_oracle(rng):
    g3 = la.gl(3)
    pairing = la.trace_pairing(g3)
    f = fn.trace_polynomial(3, [0.0, 0.0, 1.0])  # tr(B^3)
    b = rng.normal(size=9)
    analytic = po.functional_derivative(f, b, pairing)
    m = b.reshape(3, 3)
    assert np.allclose(analytic.reshape(3, 3), 3 * m @ m, atol=1e-12)
    fd = po.functional_derivative(po.SmoothFunction(f.eval), b, pairing)
    scale = max(1.0, float(np.max(np.abs(analytic))))
    assert np.max(np.abs(fd - analytic)) / scale < 1e-6


def test_complex_point_fd_gradient(rng):
    alg = la.gl(2, scalar_field="complex")
    pairing = la.trace_pairing(alg)
    f = fn.trace_polynomial(2, [0.0, 1.0])  # Re tr(B^2)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    fd = po.functional_derivative(po.SmoothFunction(f.eval), b, pairing)
    assert np.max(np.abs(fd - f.grad(b))) < 1e-8


def test_directional_derivative_consistency(rng):
    # the defining property of the gradient, at random probes
    alg = la.gl(2)
    pairing = la.trace_pairing(alg)
    f = fn.trace_polynomial(2, [1.0, 0.5, -0.25])
    for _ in range(10):
        b = rng.normal(size=4)
        u = rng.normal(size=4)
        grad = po.functional_derivative(f, b, pairing)
        h = 1e-6 * max(1.0, np.linalg.norm(b))
        fd = (f.eval(b + h * u) - f.eval(b - h * u)) / (2 * h)
        assert abs(pairing.real_pair(u, grad) - fd) < 1e-5 * max(1.0, abs(fd))


def test_pair_function_per_slot_consistency(e3_spec, rng):
    # finite-difference partials agree with analytic ones, slot by slot,
    # for a function of the flat point (c, a)
    def _eval(b):
        c, a = b[:3], b[3:]
        return float((c @ c) * (a @ a) + c @ a)

    def _grad(b):
        c, a = b[:3], b[3:]
        return np.concatenate([2.0 * (a @ a) * c + a, 2.0 * (c @ c) * a + c])

    b = rng.normal(size=6)
    pairings = e3_spec.n_pairing, e3_spec.h_pairing
    dc, da = po.slot_derivatives(po.SmoothFunction(_eval, _grad), b, *pairings)
    dc_fd, da_fd = po.slot_derivatives(po.SmoothFunction(_eval), b, *pairings)
    scale = max(1.0, float(np.max(np.abs(dc))), float(np.max(np.abs(da))))
    assert np.max(np.abs(dc - dc_fd)) / scale < 1e-5
    assert np.max(np.abs(da - da_fd)) / scale < 1e-5


def test_non_finite_evaluation_raises(so3):
    pairing = la.identity_pairing(so3)
    f = po.SmoothFunction(lambda b: float(b[0]) if b[0] >= 0 else float("nan"))
    # the probe point sits closer to the domain boundary than the step
    with pytest.raises(NumericDomainError):
        po.functional_derivative(f, np.array([1e-7, 0.0, 0.0]), pairing)
    with pytest.raises(NumericDomainError):
        po.SmoothFunction(lambda b: float("inf"))(np.zeros(3))


# ---------------------------------------------------------------------------
# lie_poisson_bracket
# ---------------------------------------------------------------------------


def test_linear_functional_closure(so3, rng):
    pairing = la.identity_pairing(so3)
    x, y = rng.normal(size=3), rng.normal(size=3)
    f, g = fn.linear(pairing, x), fn.linear(pairing, y)
    for _ in range(10):
        b = rng.normal(size=3)
        lhs = po.lie_poisson_bracket(f, g, b, so3, pairing)
        assert lhs == pytest.approx(pairing.real_pair(b, so3.bracket(x, y)))


def test_bracket_of_function_with_itself_vanishes(so3, rng):
    pairing = la.identity_pairing(so3)
    f = fn.quadratic(pairing)
    b = rng.normal(size=3)
    assert po.lie_poisson_bracket(f, f, b, so3, pairing) == pytest.approx(0.0)


def test_so3_coordinate_bracket(so3):
    pairing = la.identity_pairing(so3)
    f = fn.linear(pairing, [1.0, 0.0, 0.0])
    g = fn.linear(pairing, [0.0, 1.0, 0.0])
    value = po.lie_poisson_bracket(f, g, np.array([0.0, 0.0, 5.0]), so3, pairing)
    assert value == pytest.approx(5.0)


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    y=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    b=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
)
def test_linear_bracket_antisymmetry_property(x, y, b):
    so3 = la.so3()
    pairing = la.identity_pairing(so3)
    f, g = fn.linear(pairing, x), fn.linear(pairing, y)
    b = np.asarray(b)
    fg = po.lie_poisson_bracket(f, g, b, so3, pairing)
    gf = po.lie_poisson_bracket(g, f, b, so3, pairing)
    assert fg == pytest.approx(-gf, abs=1e-10 * (1 + abs(fg)))


# ---------------------------------------------------------------------------
# hamiltonian_vector_field
# ---------------------------------------------------------------------------


def test_linear_hamiltonian_field(so3, rng):
    pairing = la.identity_pairing(so3)
    x = rng.normal(size=3)
    h = fn.linear(pairing, x)
    b = rng.normal(size=3)
    assert np.allclose(
        po.hamiltonian_vector_field(h, b, so3, pairing),
        -la.ad_star(pairing, x, b),
    )


def test_rigid_body_field_cross_product_oracle(so3, rng):
    pairing = la.identity_pairing(so3)
    inertia = np.array([1.0, 2.0, 3.0])
    h = fn.rigid_body_energy(inertia)
    for _ in range(10):
        b = rng.normal(size=3)
        omega = b / inertia
        # oracle: -ad*_Omega b with ad*_x b = b x x (cross identity)
        expected = -np.cross(b, omega)
        assert np.allclose(
            po.hamiltonian_vector_field(h, b, so3, pairing), expected, atol=1e-13
        )


def test_abelian_field_vanishes(rng):
    alg = la.abelian(4)
    pairing = la.identity_pairing(alg)
    h = fn.quadratic(pairing)
    assert np.all(po.hamiltonian_vector_field(h, rng.normal(size=4), alg, pairing) == 0)


def test_field_bracket_consistency(so3, rng):
    pairing = la.identity_pairing(so3)
    h = fn.rigid_body_energy([1.0, 2.0, 3.0])
    b = rng.normal(size=3)
    xh = po.hamiltonian_vector_field(h, b, so3, pairing)
    for x0 in np.eye(3):
        f = fn.linear(pairing, x0)
        lhs = pairing.real_pair(xh, po.functional_derivative(f, b, pairing))
        rhs = po.lie_poisson_bracket(f, h, b, so3, pairing)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# product bracket
# ---------------------------------------------------------------------------


def _product_spaces():
    a1 = la.so3()
    a2 = la.gl(2)
    return a1, la.identity_pairing(a1), a2, la.trace_pairing(a2)


def test_pullbacks_poisson_commute(rng):
    a1, p1, a2, p2 = _product_spaces()
    f = po.SmoothFunction(eval=lambda b: float(np.sin(b[:3] @ b[:3])))
    g = po.SmoothFunction(eval=lambda b: float((b[3:] @ b[3:]) ** 2))
    for _ in range(5):
        b = rng.normal(size=7)
        assert po.product_bracket(f, g, b, a1, p1, a2, p2) == pytest.approx(0.0, abs=1e-12)


def test_product_restricts_to_first_factor(rng):
    a1, p1, a2, p2 = _product_spaces()
    f = po.SmoothFunction(eval=lambda b: float(b[0]), grad=lambda b: np.eye(7)[0])
    g = po.SmoothFunction(eval=lambda b: float(b[1]), grad=lambda b: np.eye(7)[1])
    b = np.concatenate([[0.0, 0.0, 5.0], rng.normal(size=4)])
    assert po.product_bracket(f, g, b, a1, p1, a2, p2) == pytest.approx(5.0)


def test_product_restricts_to_second_factor(rng):
    a1, p1, a2, p2 = _product_spaces()
    x, y = rng.normal(size=4), rng.normal(size=4)
    f = po.SmoothFunction(eval=lambda b: p2.real_pair(b[3:], x),
                          grad=lambda b: np.concatenate([np.zeros(3), x]))
    g = po.SmoothFunction(eval=lambda b: p2.real_pair(b[3:], y),
                          grad=lambda b: np.concatenate([np.zeros(3), y]))
    b = rng.normal(size=7)
    expected = p2.real_pair(b[3:], a2.bracket(x, y))
    assert abs(expected) > 0.1
    assert po.product_bracket(f, g, b, a1, p1, a2, p2) == pytest.approx(expected)


def test_constant_function_brackets_to_zero(rng):
    a1, p1, a2, p2 = _product_spaces()
    f = po.SmoothFunction(eval=lambda b: float(b @ b))
    g = po.SmoothFunction(eval=lambda b: 4.25)
    b = rng.normal(size=7)
    assert po.product_bracket(f, g, b, a1, p1, a2, p2) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# extension bracket and field
# ---------------------------------------------------------------------------


def _linear_pair(spec, zeta, eta):
    """Re <c, zeta> + Re <a, eta> on flat points (c, a)."""
    zeta = np.asarray(zeta, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dn = spec.n.dim
    return po.SmoothFunction(
        eval=lambda b: float(
            spec.n_pairing.real_pair(b[:dn], zeta) + spec.h_pairing.real_pair(b[dn:], eta)
        ),
        grad=lambda b: np.concatenate([zeta, eta]),
    )


def test_trivial_extension_bracket_decouples(so3, rng):
    gl2 = la.gl(2)
    spec = ex.ExtensionSpec(
        so3, gl2,
        ex.SkewBilinearMap.zero(gl2, so3),
        ex.DerivationMap.zero(gl2, so3),
        la.identity_pairing(so3), la.trace_pairing(gl2),
    )
    z1, e1 = rng.normal(size=3), rng.normal(size=4)
    z2, e2 = rng.normal(size=3), rng.normal(size=4)
    f, g = _linear_pair(spec, z1, e1), _linear_pair(spec, z2, e2)
    c, a = rng.normal(size=3), rng.normal(size=4)
    total = po.extension_poisson_bracket(f, g, np.concatenate([c, a]), spec)
    part_n = spec.n_pairing.real_pair(c, so3.bracket(z1, z2))
    part_h = spec.h_pairing.real_pair(a, gl2.bracket(e1, e2))
    assert total == pytest.approx(part_n + part_h)


def test_linear_extension_bracket_is_pairing_of_bracket(e3_spec, rng):
    built = ex.build_extension(e3_spec)
    pairing = ex.direct_sum_pairing(e3_spec, built)
    for _ in range(20):
        x1, x2 = rng.normal(size=6), rng.normal(size=6)
        f = _linear_pair(e3_spec, x1[:3], x1[3:])
        g = _linear_pair(e3_spec, x2[:3], x2[3:])
        b = rng.normal(size=6)
        lhs = po.extension_poisson_bracket(f, g, b, e3_spec)
        rhs = pairing.real_pair(b, la.bracket_eval(built, x1, x2))
        assert abs(lhs - rhs) < 1e-12


def test_extension_bracket_matches_generic_bracket(e3_spec, rng):
    # cross-module oracle: the same bracket through the built algebra
    built = ex.build_extension(e3_spec)
    pairing = ex.direct_sum_pairing(e3_spec, built)
    x1, x2 = rng.normal(size=6), rng.normal(size=6)
    f2 = _linear_pair(e3_spec, x1[:3], x1[3:])
    g2 = _linear_pair(e3_spec, x2[:3], x2[3:])
    f1 = fn.linear(pairing, x1)
    g1 = fn.linear(pairing, x2)
    for _ in range(10):
        b = rng.normal(size=6)
        lhs = po.extension_poisson_bracket(f2, g2, b, e3_spec)
        rhs = po.lie_poisson_bracket(f1, g1, b, built, pairing)
        assert abs(lhs - rhs) < 1e-12


def test_extension_bracket_antisymmetry(e3_spec, rng):
    f = po.SmoothFunction(eval=lambda b: float(np.sin(b[:3] @ b[:3]) + (b[3:] @ b[3:])))
    g = po.SmoothFunction(eval=lambda b: float(b[:3] @ b[3:]))
    for _ in range(100):
        b = rng.normal(size=6)
        fg = po.extension_poisson_bracket(f, g, b, e3_spec)
        gf = po.extension_poisson_bracket(g, f, b, e3_spec)
        assert abs(fg + gf) < 1e-10 * (1.0 + abs(fg))


def test_trivial_extension_field_decouples(so3, rng):
    gl2 = la.gl(2)
    spec = ex.ExtensionSpec(
        so3, gl2,
        ex.SkewBilinearMap.zero(gl2, so3),
        ex.DerivationMap.zero(gl2, so3),
        la.identity_pairing(so3), la.trace_pairing(gl2),
    )
    h = po.SmoothFunction(
        eval=lambda b: float(0.5 * (b @ b)),
        grad=lambda b: np.concatenate([b[:3], np.linalg.solve(spec.h_pairing.gram, b[3:])]),
    )
    b = rng.normal(size=7)
    c, a = b[:3], b[3:]
    cd, ad_ = np.split(po.extension_hamiltonian_field(h, b, spec), [3])
    hc, ha = po.slot_derivatives(h, b, spec.n_pairing, spec.h_pairing)
    assert np.allclose(cd, -la.ad_star(spec.n_pairing, hc, c), atol=1e-13)
    assert np.allclose(ad_, -la.ad_star(spec.h_pairing, ha, a), atol=1e-13)


def test_extension_field_bracket_consistency(e3_spec, rng):
    def _eval(b):
        c, a = b[:3], b[3:]
        return float(0.5 * (c @ c) + 0.25 * (a @ a) ** 2 + c @ a)

    def _grad(b):
        c, a = b[:3], b[3:]
        return np.concatenate([c + a, (a @ a) * a + c])

    h = po.SmoothFunction(_eval, _grad)
    pairings = e3_spec.n_pairing, e3_spec.h_pairing
    worst = 0.0
    for _ in range(50):
        b = rng.normal(size=6)
        bd = po.extension_hamiltonian_field(h, b, e3_spec)
        x = rng.normal(size=6)
        f = _linear_pair(e3_spec, x[:3], x[3:])
        lhs = float(bd @ np.concatenate(po.slot_derivatives(f, b, *pairings)))
        rhs = po.extension_poisson_bracket(f, h, b, e3_spec)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_heisenberg_quadratic_drift(h3_spec):
    # h = |a|^2 / 2 drives the a slot through the cocycle dual; c is frozen
    h = po.SmoothFunction(
        eval=lambda b: float(0.5 * (b[1:] @ b[1:])),
        grad=lambda b: np.concatenate([[0.0], b[1:]]),
    )
    c, a = np.array([2.0]), np.array([0.5, -1.5])
    cd, ad_ = np.split(po.extension_hamiltonian_field(h, np.concatenate([c, a]), h3_spec), [1])
    # oracle: minus the coadjoint action applied with (0, a)
    oc, oa = ex.coadjoint_extension(h3_spec, (np.zeros(1), a), (c, a))
    assert np.allclose(cd, -oc, atol=1e-14)
    assert np.allclose(ad_, -oa, atol=1e-14)
    # closed form: adot = (c a2, -c a1)
    assert np.allclose(cd, [0.0], atol=1e-14)
    assert np.allclose(ad_, [c[0] * a[1], -c[0] * a[0]], atol=1e-14)


# ---------------------------------------------------------------------------
# Poisson axioms (module level; the acceptance suite covers every bracket)
# ---------------------------------------------------------------------------


def _poly_functions(pairing):
    f = fn.trace_polynomial(2, [1.0, 0.5])
    g = fn.trace_polynomial(2, [0.0, 1.0, 0.2])
    h = fn.linear(pairing, np.array([0.3, -1.0, 0.7, 0.1]))
    return f, g, h


def test_leibniz_rule_fd_limited(rng):
    gl2 = la.gl(2)
    pairing = la.trace_pairing(gl2)
    f, g, h = _poly_functions(pairing)
    prod = po.SmoothFunction(lambda b: f.eval(b) * g.eval(b))
    for _ in range(5):
        b = rng.normal(size=4)
        lhs = po.lie_poisson_bracket(prod, h, b, gl2, pairing)
        rhs = f.eval(b) * po.lie_poisson_bracket(g, h, b, gl2, pairing)
        rhs += po.lie_poisson_bracket(f, h, b, gl2, pairing) * g.eval(b)
        assert abs(lhs - rhs) < 1e-6 * (1.0 + abs(lhs))


def test_jacobi_identity_numerical(rng):
    gl2 = la.gl(2)
    pairing = la.trace_pairing(gl2)
    f, g, h = _poly_functions(pairing)

    def nest(u, v):
        return po.SmoothFunction(
            lambda b: po.lie_poisson_bracket(u, v, b, gl2, pairing)
        )

    for _ in range(3):
        b = rng.normal(size=4)
        total = (
            po.lie_poisson_bracket(nest(f, g), h, b, gl2, pairing)
            + po.lie_poisson_bracket(nest(g, h), f, b, gl2, pairing)
            + po.lie_poisson_bracket(nest(h, f), g, b, gl2, pairing)
        )
        assert abs(total) < 1e-5
