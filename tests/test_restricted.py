import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson import cli
from liepoisson import extension as ex
from liepoisson import poisson as po
from liepoisson import restricted as rs

from closed_forms import (
    block_norm,
    block_pairing,
    block_to_json,
    named_restricted_hamiltonian,
    random_block,
    restricted_bracket,
    restricted_dual_maps,
    restricted_omega,
    restricted_phi,
    restricted_point,
    restricted_poisson_bracket,
    restricted_split,
)


def crandom(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_state(rng, dims=(3, 2)):
    return restricted_point(crandom(rng, dims[0], dims[0]), random_block(*dims, rng))


def diagonal(diag_plus, diag_minus):
    """Diagonal blocks from two coefficient lists, zero off-diagonal."""
    return np.diag(np.concatenate([diag_plus, diag_minus]))


def linear_function(a0, x0, dims=(3, 2)):
    """Re tr(kappa a0) + Re <sigma, x0>, with its analytic gradient."""
    grad = restricted_point(a0, x0)

    def _eval(b):
        kappa, sigma = restricted_split(b, dims)
        return float(np.real(np.trace(kappa @ a0)) + np.real(np.trace(sigma @ x0)))

    return po.SmoothFunction(eval=_eval, grad=lambda b: grad)


# ---------------------------------------------------------------------------
# blocks, norm, pairing
# ---------------------------------------------------------------------------


def test_block_norm_hilbert_schmidt_corner():
    x = np.zeros((4, 4))
    x[0, 2:] = [3.0, 4.0]
    assert block_norm(x, 2) == pytest.approx(5.0)


def test_block_norm_identity_block():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    assert block_norm(x, 2) == pytest.approx(1.0)


def test_block_norm_sums_contributions(rng):
    pp, pm, mp, mm = (crandom(rng, 2, 2) for _ in range(4))
    x = np.block([[pp, pm], [mp, mm]])
    expected = (
        np.linalg.norm(pp, 2)
        + np.linalg.norm(mm, 2)
        + np.linalg.norm(pm)
        + np.linalg.norm(mp)
    )
    assert block_norm(x, 2) == pytest.approx(expected)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(-4.0, 4.0))
def test_block_norm_axioms(seed, scale):
    rng = np.random.default_rng(seed)
    x = random_block(2, 2, rng)
    y = random_block(2, 2, rng)
    # homogeneity and the triangle inequality
    assert block_norm(scale * x, 2) == pytest.approx(abs(scale) * block_norm(x, 2), rel=1e-12)
    assert block_norm(x + y, 2) <= block_norm(x, 2) + block_norm(y, 2) + 1e-12


def test_block_pairing_examples(rng):
    e11 = np.zeros((4, 4)); e11[0, 0] = 1.0
    assert block_pairing(e11, e11, 2) == pytest.approx(1.0)
    u, v = crandom(rng, 2, 2), crandom(rng, 2, 2)
    sigma, x = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
    sigma[:2, 2:], x[2:, :2] = u, v
    assert block_pairing(sigma, x, 2) == pytest.approx(np.trace(u @ v))
    assert block_pairing(np.zeros((4, 4)), x, 2) == 0.0


def test_block_pairing_is_full_trace(rng):
    sigma, x = random_block(3, 2, rng), random_block(3, 2, rng)
    assert block_pairing(sigma, x, 3) == pytest.approx(np.trace(sigma @ x))


# ---------------------------------------------------------------------------
# phi and omega
# ---------------------------------------------------------------------------


def test_phi_eigenvalue_difference():
    x = np.diag([1.0, 0.0, 0.0, 0.0])
    e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
    assert np.allclose(restricted_phi(x, e12), e12)


def test_phi_vanishes_for_offdiagonal_x(rng):
    x = np.zeros((4, 4), dtype=complex)
    x[:2, 2:], x[2:, :2] = crandom(rng, 2, 2), crandom(rng, 2, 2)
    assert np.max(np.abs(restricted_phi(x, crandom(rng, 2, 2)))) == 0.0


def test_phi_is_derivation_of_negative_commutator(rng):
    # D[-ab+ba] = [-(Da)b + b(Da)] + [-a(Db) + (Db)a] with D = phi(X)
    x = random_block(3, 2, rng)
    worst = 0.0
    for _ in range(20):
        a, b = crandom(rng, 3, 3), crandom(rng, 3, 3)
        neg = lambda p, q: -(p @ q - q @ p)
        lhs = restricted_phi(x, neg(a, b))
        rhs = neg(restricted_phi(x, a), b) + neg(a, restricted_phi(x, b))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


def test_omega_block_product(rng):
    a, b = crandom(rng, 2, 2), crandom(rng, 2, 2)
    x1, x2 = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
    x1[:2, 2:], x2[2:, :2] = a, b
    assert np.allclose(restricted_omega(x1, x2, 2), a @ b)


def test_omega_skew_and_diagonal_cases(rng):
    x = random_block(2, 2, rng)
    assert np.max(np.abs(restricted_omega(x, x, 2))) < 1e-13
    d1 = diagonal(rng.normal(size=2), rng.normal(size=2))
    d2 = diagonal(rng.normal(size=2), rng.normal(size=2))
    assert np.max(np.abs(restricted_omega(d1, d2, 2))) == 0.0


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_pure_rho_slot(rng):
    rho, rho2 = crandom(rng, 2, 2), crandom(rng, 2, 2)
    zero = np.zeros((4, 4))
    first, second = restricted_bracket((rho, zero), (rho2, zero))
    assert np.allclose(first, -(rho @ rho2 - rho2 @ rho))
    assert np.max(np.abs(second)) == 0.0


def test_bracket_diagonal_operators(rng):
    d1 = diagonal(crandom(rng, 2), crandom(rng, 2))
    d2 = diagonal(crandom(rng, 2), crandom(rng, 2))
    zero = np.zeros((2, 2))
    first, second = restricted_bracket((zero, d1), (zero, d2))
    assert np.max(np.abs(first)) == 0.0
    assert np.allclose(second, d1 @ d2 - d2 @ d1)


def test_bracket_jacobi_random_draws(rng):
    dims = (3, 2)
    worst = 0.0
    for _ in range(100):
        trip = [
            (crandom(rng, 3, 3), random_block(*dims, rng)) for _ in range(3)
        ]
        p1, p2, p3 = trip
        j1 = restricted_bracket(restricted_bracket(p1, p2), p3)
        j2 = restricted_bracket(restricted_bracket(p2, p3), p1)
        j3 = restricted_bracket(restricted_bracket(p3, p1), p2)
        rho_sum = j1[0] + j2[0] + j3[0]
        x_sum = (j1[1] + j2[1]) + j3[1]
        worst = max(worst, float(np.max(np.abs(rho_sum))), float(np.max(np.abs(x_sum))))
    assert worst < 1e-12


def test_bracket_antisymmetry_exact(rng):
    dims = (3, 2)
    a = (crandom(rng, 3, 3), random_block(*dims, rng))
    b = (crandom(rng, 3, 3), random_block(*dims, rng))
    f1, s1 = restricted_bracket(a, b)
    f2, s2 = restricted_bracket(b, a)
    assert np.max(np.abs(f1 + f2)) == 0.0
    assert np.max(np.abs(s1 + s2)) == 0.0


# ---------------------------------------------------------------------------
# dual maps
# ---------------------------------------------------------------------------


def test_dual_maps_brute_force_adjoints(rng):
    dims = (3, 2)
    n = 5
    eye = np.eye(n)
    worst = 0.0
    for _ in range(100):
        x = random_block(*dims, rng)
        rho = crandom(rng, 3, 3)
        kappa = crandom(rng, 3, 3)
        phi_star, phidot_star, omega_star = restricted_dual_maps(x, rho, kappa)
        for t in range(9):
            y = np.zeros((3, 3)); y[t // 3, t % 3] = 1.0
            lhs = np.trace(phi_star @ y)
            rhs = np.trace(kappa @ restricted_phi(x, y))
            worst = max(worst, abs(lhs - rhs))
        for t in range(n * n):
            yb = np.outer(eye[t // n], eye[t % n])
            lhs = block_pairing(phidot_star, yb, 3)
            rhs = np.trace(kappa @ restricted_phi(yb, rho))
            worst = max(worst, abs(lhs - rhs))
            lhs = block_pairing(omega_star, yb, 3)
            rhs = np.trace(kappa @ restricted_omega(x, yb, 3))
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_dual_map_block_shapes(rng):
    x = random_block(3, 2, rng)
    rho, kappa = crandom(rng, 3, 3), crandom(rng, 3, 3)
    phi_star, phidot_star, omega_star = restricted_dual_maps(x, rho, kappa)
    # the rho-slot dual is supported on the top-left block only
    assert np.max(np.abs(phidot_star[:3, 3:])) == 0.0
    assert np.max(np.abs(phidot_star[3:, :3])) == 0.0
    assert np.max(np.abs(phidot_star[3:, 3:])) == 0.0
    assert np.allclose(phidot_star[:3, :3], rho @ kappa - kappa @ rho)
    # the omega dual fills exactly the off-diagonal blocks
    assert np.allclose(omega_star[:3, 3:], kappa @ x[:3, 3:])
    assert np.allclose(omega_star[3:, :3], -x[3:, :3] @ kappa)
    assert np.max(np.abs(omega_star[:3, :3])) == 0.0
    assert np.max(np.abs(omega_star[3:, 3:])) == 0.0
    assert np.allclose(phi_star, -(x[:3, :3] @ kappa - kappa @ x[:3, :3]))


# ---------------------------------------------------------------------------
# Poisson bracket and Hamiltonian field
# ---------------------------------------------------------------------------


def test_poisson_linear_substitution_oracle(rng):
    dims = (3, 2)
    b = rand_state(rng, dims)
    kappa, sigma = restricted_split(b, dims)
    x1, x2 = random_block(*dims, rng), random_block(*dims, rng)
    zero = np.zeros((3, 3))
    f, g = linear_function(zero, x1), linear_function(zero, x2)
    value = restricted_poisson_bracket(f, g, b, dims)
    first, second = restricted_bracket((zero, x1), (zero, x2))
    expected = np.real(np.trace(kappa @ first) + np.trace(sigma @ second))
    assert value == pytest.approx(float(expected))


def test_poisson_kappa_only_negative_commutator(rng):
    b = rand_state(rng)
    a1, a2 = crandom(rng, 3, 3), crandom(rng, 3, 3)
    zero_block = np.zeros((5, 5))
    f = linear_function(a1, zero_block)
    g = linear_function(a2, zero_block)
    value = restricted_poisson_bracket(f, g, b, (3, 2))
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
        fg = restricted_poisson_bracket(f, g, b, dims)
        gf = restricted_poisson_bracket(g, f, b, dims)
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
    x0 = random_block(*dims, rng)
    h = named_restricted_hamiltonian("linear_sigma", {"X0": x0}, dims)
    kd, sd = restricted_split(rs.restricted_hamiltonian_field(h, b, dims), dims)
    _, _, omega_star = restricted_dual_maps(x0, np.zeros((3, 3)), kappa)
    expected_kd = -(-(x0[:3, :3] @ kappa - kappa @ x0[:3, :3]))
    expected_sd = -omega_star - (sigma @ x0 - x0 @ sigma)
    assert np.allclose(kd, expected_kd, atol=1e-13)
    assert np.max(np.abs(sd - expected_sd)) < 1e-13


def test_field_bracket_consistency(rng):
    dims = (3, 2)
    h = named_restricted_hamiltonian("quadratic", {}, dims)
    worst = 0.0
    for _ in range(20):
        b = rand_state(rng, dims)
        kd, sd = restricted_split(rs.restricted_hamiltonian_field(h, b, dims), dims)
        a0, x0 = crandom(rng, 3, 3), random_block(*dims, rng)
        f = linear_function(a0, x0)
        # d/dt f along the field, from linearity of f
        ddt = float(np.real(np.trace(kd @ a0)) + np.real(np.trace(sd @ x0)))
        rhs = restricted_poisson_bracket(f, h, b, dims)
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
        f = linear_function(crandom(rng, 3, 3), random_block(*dims, rng))
        g = linear_function(crandom(rng, 3, 3), random_block(*dims, rng))
        lhs = restricted_poisson_bracket(f, g, b, dims)
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
    x = random_block(3, 2, rng)
    assert np.max(np.abs(cli._block(cli._Node(block_to_json(x, 3)), (3, 2), 0) - x)) == 0.0
    # the CLI's random_block constructor draws what the closed form draws
    for dims in ((3, 2), (2, 0)):
        for seed in (0, 7):
            node = cli._Node({"constructor": "random_block", "seed": seed})
            want = random_block(*dims, np.random.default_rng(seed))
            assert cli._block(node, dims, 0).tobytes() == want.tobytes()
