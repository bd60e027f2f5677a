import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson import extension as ex
from liepoisson import poisson as po
from liepoisson import restricted as rs
from liepoisson.errors import DimensionMismatchError

from closed_forms import named_restricted_hamiltonian, restricted_point, restricted_split


def crandom(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_state(rng, dims=(3, 2)):
    return restricted_point(crandom(rng, dims[0], dims[0]), rs.random_block(*dims, rng))


def diagonal(diag_plus, diag_minus):
    """Diagonal blocks from two coefficient lists, zero off-diagonal."""
    dp, dm = np.asarray(diag_plus), np.asarray(diag_minus)
    return rs.BlockOperator(
        np.diag(dp), np.zeros((dp.size, dm.size)), np.zeros((dm.size, dp.size)), np.diag(dm)
    )


def linear_function(a0, x0, dims=(3, 2)):
    """Re tr(kappa a0) + Re <sigma, x0>, with its analytic gradient."""
    grad = restricted_point(a0, x0)

    def _eval(b):
        kappa, sigma = restricted_split(b, dims)
        return float(np.real(np.trace(kappa @ a0)) + np.real(np.trace(sigma @ x0.to_full())))

    return po.SmoothFunction(eval=_eval, grad=lambda b: grad)


# ---------------------------------------------------------------------------
# blocks, norm, pairing
# ---------------------------------------------------------------------------


def test_block_shapes_validated():
    with pytest.raises(DimensionMismatchError):
        rs.BlockOperator(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_block_norm_hilbert_schmidt_corner():
    x = rs.BlockOperator(
        np.zeros((2, 2)), np.array([[3.0, 4.0], [0.0, 0.0]]), np.zeros((2, 2)), np.zeros((2, 2))
    )
    assert rs.block_norm(x) == pytest.approx(5.0)


def test_block_norm_identity_block():
    x = rs.BlockOperator(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    assert rs.block_norm(x) == pytest.approx(1.0)


def test_block_norm_sums_contributions(rng):
    pp, pm, mp, mm = (crandom(rng, 2, 2) for _ in range(4))
    x = rs.BlockOperator(pp, pm, mp, mm)
    expected = (
        np.linalg.norm(pp, 2)
        + np.linalg.norm(mm, 2)
        + np.linalg.norm(pm)
        + np.linalg.norm(mp)
    )
    assert rs.block_norm(x) == pytest.approx(expected)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(-4.0, 4.0))
def test_block_norm_axioms(seed, scale):
    rng = np.random.default_rng(seed)
    x = rs.random_block(2, 2, rng)
    y = rs.random_block(2, 2, rng)
    # homogeneity and the triangle inequality
    assert rs.block_norm(scale * x) == pytest.approx(abs(scale) * rs.block_norm(x), rel=1e-12)
    assert rs.block_norm(x + y) <= rs.block_norm(x) + rs.block_norm(y) + 1e-12


def test_block_pairing_examples(rng):
    e11 = np.zeros((2, 2)); e11[0, 0] = 1.0
    z = np.zeros((2, 2))
    sigma = rs.BlockOperator(e11, z, z, z)
    x = rs.BlockOperator(e11, z, z, z)
    assert rs.block_pairing(sigma, x) == pytest.approx(1.0)
    u, v = crandom(rng, 2, 2), crandom(rng, 2, 2)
    sigma = rs.BlockOperator(z, u, z, z)
    x = rs.BlockOperator(z, z, v, z)
    assert rs.block_pairing(sigma, x) == pytest.approx(np.trace(u @ v))
    assert rs.block_pairing(rs.BlockOperator(z, z, z, z), x) == 0.0


def test_block_pairing_is_full_trace(rng):
    sigma, x = rs.random_block(3, 2, rng), rs.random_block(3, 2, rng)
    assert rs.block_pairing(sigma, x) == pytest.approx(
        np.trace(sigma.to_full() @ x.to_full())
    )


# ---------------------------------------------------------------------------
# phi and omega
# ---------------------------------------------------------------------------


def test_phi_eigenvalue_difference():
    z = np.zeros((2, 2))
    x = rs.BlockOperator(np.diag([1.0, 0.0]), z, z, z)
    e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
    assert np.allclose(rs.restricted_phi(x, e12), e12)


def test_phi_vanishes_for_offdiagonal_x(rng):
    z = np.zeros((2, 2))
    x = rs.BlockOperator(z, crandom(rng, 2, 2), crandom(rng, 2, 2), z)
    assert np.max(np.abs(rs.restricted_phi(x, crandom(rng, 2, 2)))) == 0.0


def test_phi_is_derivation_of_negative_commutator(rng):
    # D[-ab+ba] = [-(Da)b + b(Da)] + [-a(Db) + (Db)a] with D = phi(X)
    x = rs.random_block(3, 2, rng)
    worst = 0.0
    for _ in range(20):
        a, b = crandom(rng, 3, 3), crandom(rng, 3, 3)
        neg = lambda p, q: -(p @ q - q @ p)
        lhs = rs.restricted_phi(x, neg(a, b))
        rhs = neg(rs.restricted_phi(x, a), b) + neg(a, rs.restricted_phi(x, b))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


def test_omega_block_product(rng):
    a, b = crandom(rng, 2, 2), crandom(rng, 2, 2)
    z = np.zeros((2, 2))
    x1 = rs.BlockOperator(z, a, z, z)
    x2 = rs.BlockOperator(z, z, b, z)
    assert np.allclose(rs.restricted_omega(x1, x2), a @ b)


def test_omega_skew_and_diagonal_cases(rng):
    x = rs.random_block(2, 2, rng)
    assert np.max(np.abs(rs.restricted_omega(x, x))) < 1e-13
    d1 = diagonal(rng.normal(size=2), rng.normal(size=2))
    d2 = diagonal(rng.normal(size=2), rng.normal(size=2))
    assert np.max(np.abs(rs.restricted_omega(d1, d2))) == 0.0


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_pure_rho_slot(rng):
    rho, rho2 = crandom(rng, 2, 2), crandom(rng, 2, 2)
    zero = rs.BlockOperator.zero(2, 2)
    first, second = rs.restricted_bracket((rho, zero), (rho2, zero))
    assert np.allclose(first, -(rho @ rho2 - rho2 @ rho))
    assert np.max(np.abs(second.to_full())) == 0.0


def test_bracket_diagonal_operators(rng):
    d1 = diagonal(crandom(rng, 2), crandom(rng, 2))
    d2 = diagonal(crandom(rng, 2), crandom(rng, 2))
    zero = np.zeros((2, 2))
    first, second = rs.restricted_bracket((zero, d1), (zero, d2))
    assert np.max(np.abs(first)) == 0.0
    expected = d1.to_full() @ d2.to_full() - d2.to_full() @ d1.to_full()
    assert np.allclose(second.to_full(), expected)


def test_bracket_jacobi_random_draws(rng):
    dims = (3, 2)
    worst = 0.0
    for _ in range(100):
        trip = [
            (crandom(rng, 3, 3), rs.random_block(*dims, rng)) for _ in range(3)
        ]
        p1, p2, p3 = trip
        j1 = rs.restricted_bracket(rs.restricted_bracket(p1, p2), p3)
        j2 = rs.restricted_bracket(rs.restricted_bracket(p2, p3), p1)
        j3 = rs.restricted_bracket(rs.restricted_bracket(p3, p1), p2)
        rho_sum = j1[0] + j2[0] + j3[0]
        x_sum = (j1[1] + j2[1]) + j3[1]
        worst = max(worst, float(np.max(np.abs(rho_sum))), float(np.max(np.abs(x_sum.to_full()))))
    assert worst < 1e-12


def test_bracket_antisymmetry_exact(rng):
    dims = (3, 2)
    a = (crandom(rng, 3, 3), rs.random_block(*dims, rng))
    b = (crandom(rng, 3, 3), rs.random_block(*dims, rng))
    f1, s1 = rs.restricted_bracket(a, b)
    f2, s2 = rs.restricted_bracket(b, a)
    assert np.max(np.abs(f1 + f2)) == 0.0
    assert np.max(np.abs((s1 + s2).to_full())) == 0.0


# ---------------------------------------------------------------------------
# dual maps
# ---------------------------------------------------------------------------


def test_dual_maps_brute_force_adjoints(rng):
    dims = (3, 2)
    n = 5
    eye = np.eye(n)
    worst = 0.0
    for _ in range(100):
        x = rs.random_block(*dims, rng)
        rho = crandom(rng, 3, 3)
        kappa = crandom(rng, 3, 3)
        phi_star, phidot_star, omega_star = rs.restricted_dual_maps(x, rho, kappa)
        for t in range(9):
            y = np.zeros((3, 3)); y[t // 3, t % 3] = 1.0
            lhs = np.trace(phi_star @ y)
            rhs = np.trace(kappa @ rs.restricted_phi(x, y))
            worst = max(worst, abs(lhs - rhs))
        for t in range(n * n):
            yb = rs.BlockOperator.from_full(np.outer(eye[t // n], eye[t % n]), 3)
            lhs = rs.block_pairing(phidot_star, yb)
            rhs = np.trace(kappa @ rs.restricted_phi(yb, rho))
            worst = max(worst, abs(lhs - rhs))
            lhs = rs.block_pairing(omega_star, yb)
            rhs = np.trace(kappa @ rs.restricted_omega(x, yb))
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_dual_map_block_shapes(rng):
    x = rs.random_block(3, 2, rng)
    rho, kappa = crandom(rng, 3, 3), crandom(rng, 3, 3)
    phi_star, phidot_star, omega_star = rs.restricted_dual_maps(x, rho, kappa)
    # the rho-slot dual is supported on the top-left block only
    assert np.max(np.abs(phidot_star.pm)) == 0.0
    assert np.max(np.abs(phidot_star.mp)) == 0.0
    assert np.max(np.abs(phidot_star.mm)) == 0.0
    assert np.allclose(phidot_star.pp, rho @ kappa - kappa @ rho)
    # the omega dual fills exactly the off-diagonal blocks
    assert np.allclose(omega_star.pm, kappa @ x.pm)
    assert np.allclose(omega_star.mp, -x.mp @ kappa)
    assert np.max(np.abs(omega_star.pp)) == 0.0
    assert np.max(np.abs(omega_star.mm)) == 0.0
    assert np.allclose(phi_star, -(x.pp @ kappa - kappa @ x.pp))


# ---------------------------------------------------------------------------
# Poisson bracket and Hamiltonian field
# ---------------------------------------------------------------------------


def test_poisson_linear_substitution_oracle(rng):
    dims = (3, 2)
    b = rand_state(rng, dims)
    kappa, sigma = restricted_split(b, dims)
    x1, x2 = rs.random_block(*dims, rng), rs.random_block(*dims, rng)
    zero = np.zeros((3, 3))
    f, g = linear_function(zero, x1), linear_function(zero, x2)
    value = rs.restricted_poisson_bracket(f, g, b, dims)
    first, second = rs.restricted_bracket((zero, x1), (zero, x2))
    expected = np.real(np.trace(kappa @ first) + np.trace(sigma @ second.to_full()))
    assert value == pytest.approx(float(expected))


def test_poisson_kappa_only_negative_commutator(rng):
    b = rand_state(rng)
    a1, a2 = crandom(rng, 3, 3), crandom(rng, 3, 3)
    zero_block = rs.BlockOperator.zero(3, 2)
    f = linear_function(a1, zero_block)
    g = linear_function(a2, zero_block)
    value = rs.restricted_poisson_bracket(f, g, b, (3, 2))
    # the ideal slot carries the negative commutator
    expected = np.real(np.trace(restricted_split(b, (3, 2))[0] @ (-(a1 @ a2 - a2 @ a1))))
    assert value == pytest.approx(float(expected))


def test_poisson_antisymmetry_random_draws(rng):
    dims = (2, 2)

    def _f(b):
        kappa = restricted_split(b, dims)[0]
        return float(np.real(np.trace(kappa @ kappa)))

    def _g(b):
        kappa, sigma = restricted_split(b, dims)
        return float(np.real(np.trace(sigma @ sigma))) + float(np.real(np.trace(kappa)))

    f, g = po.SmoothFunction(_f), po.SmoothFunction(_g)
    for _ in range(100):
        b = rand_state(rng, dims)
        fg = rs.restricted_poisson_bracket(f, g, b, dims)
        gf = rs.restricted_poisson_bracket(g, f, b, dims)
        assert abs(fg + gf) < 1e-10 * (1.0 + abs(fg))


def test_field_of_zero_hamiltonian(rng):
    b = rand_state(rng)
    h = po.SmoothFunction(eval=lambda b: 0.0, grad=lambda b: np.zeros(34, dtype=complex))
    assert np.max(np.abs(rs.restricted_hamiltonian_field(h, b, (3, 2)))) == 0.0


def test_field_linear_sigma_hamiltonian(rng):
    # h = Re <sigma, X0>: gradients dh/dsigma = X0, dh/dkappa = 0
    dims = (3, 2)
    b = rand_state(rng, dims)
    kappa, sigma = restricted_split(b, dims)
    x0 = rs.random_block(*dims, rng)
    h = named_restricted_hamiltonian("linear_sigma", {"X0": x0}, dims)
    kd, sd = restricted_split(rs.restricted_hamiltonian_field(h, b, dims), dims)
    _, _, omega_star = rs.restricted_dual_maps(x0, np.zeros((3, 3)), kappa)
    expected_kd = -(-(x0.pp @ kappa - kappa @ x0.pp))
    expected_sd = -omega_star.to_full() - (sigma @ x0.to_full() - x0.to_full() @ sigma)
    assert np.allclose(kd, expected_kd, atol=1e-13)
    assert np.max(np.abs(sd - expected_sd)) < 1e-13


def test_field_bracket_consistency(rng):
    dims = (3, 2)
    h = named_restricted_hamiltonian("quadratic", {}, dims)
    worst = 0.0
    for _ in range(20):
        b = rand_state(rng, dims)
        kd, sd = restricted_split(rs.restricted_hamiltonian_field(h, b, dims), dims)
        a0, x0 = crandom(rng, 3, 3), rs.random_block(*dims, rng)
        f = linear_function(a0, x0)
        # d/dt f along the field, from linearity of f
        ddt = float(np.real(np.trace(kd @ a0)) + np.real(np.trace(sd @ x0.to_full())))
        rhs = rs.restricted_poisson_bracket(f, h, b, dims)
        worst = max(worst, abs(ddt - rhs))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# the equivalent extension spec (cross-module)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_spec_compatibility(dims):
    spec = rs.restricted_extension_spec(*dims)
    rep = ex.check_compatibility(spec)
    assert rep.max_residual < 1e-12


def test_bracket_matches_extension_bracket(rng):
    dims = (3, 2)
    spec = rs.restricted_extension_spec(*dims)
    worst = 0.0
    for _ in range(20):
        b = rand_state(rng, dims)
        f = linear_function(crandom(rng, 3, 3), rs.random_block(*dims, rng))
        g = linear_function(crandom(rng, 3, 3), rs.random_block(*dims, rng))
        lhs = rs.restricted_poisson_bracket(f, g, b, dims)
        rhs = po.extension_poisson_bracket(f, g, b, spec)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_field_matches_extension_field(rng):
    dims = (3, 2)
    spec = rs.restricted_extension_spec(*dims)
    h = named_restricted_hamiltonian("quadratic", {}, dims)
    worst = 0.0
    for _ in range(10):
        b = rand_state(rng, dims)
        closed = rs.restricted_hamiltonian_field(h, b, dims)
        generic = po.extension_hamiltonian_field(h, b, spec)
        worst = max(worst, float(np.max(np.abs(closed - generic))))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_block_json_roundtrip(rng):
    x = rs.random_block(3, 2, rng)
    back = rs.block_from_json(rs.block_to_json(x))
    assert np.max(np.abs((back - x).to_full())) == 0.0
