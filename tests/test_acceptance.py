"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run ``pytest -s`` to see them
for passing runs) and asserts at the stated tolerance.  Every tolerance
is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from liepoisson import algebra as la
from liepoisson import extension as ex
from liepoisson import functions as fn
from liepoisson import integrators as it
from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson import restricted as rs
from liepoisson import sequences as sq

from closed_forms import (
    coupled,
    linear_rho,
    named_restricted_hamiltonian,
    quadratic_v,
    restricted_pair_function,
)
from conftest import vector_rep_spec
from test_quantum import crandom, hermitian, linear_coordinate_functions
from test_sequences import random_exact_sequence

_T0 = time.monotonic()


def _check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# draw machinery for criterion 1
# ---------------------------------------------------------------------------


def _gauge_shift(n_alg, h_alg, phi0, lam):
    """Transform valid data (phi0, omega=0) by the section shift lam:
    phi(e) = phi0(e) + ad_{lam e},
    omega(e, e') = phi0(e) lam e' - phi0(e') lam e + [lam e, lam e']
                   - lam [e, e'];
    the result satisfies the compatibility identities for every lam."""
    dn, dh = n_alg.dim, h_alg.dim
    mats = np.zeros((dh, dn, dn))
    w = np.zeros((dn, dh, dh))
    eye = np.eye(dh)
    for i in range(dh):
        mats[i] = phi0[i] + n_alg.ad(lam @ eye[i])
    for i in range(dh):
        for j in range(i + 1, dh):
            val = (
                phi0[i] @ (lam @ eye[j])
                - phi0[j] @ (lam @ eye[i])
                + n_alg.bracket(lam @ eye[i], lam @ eye[j])
                - lam @ h_alg.bracket(eye[i], eye[j])
            )
            w[:, i, j] = val
            w[:, j, i] = -val
    return w, mats


def _draw_spec(pair_name, rng, valid):
    if pair_name == "abelian3_so3":
        n_alg, h_alg = la.abelian(3), la.so3()
        base_phi = np.stack([h_alg.ad(np.eye(3)[i]) for i in range(3)])
    else:
        n_alg, h_alg = la.gl(2), la.gl(2)
        base_phi = np.stack([n_alg.ad(np.eye(4)[i]) for i in range(4)])
    dn, dh = n_alg.dim, h_alg.dim
    if valid:
        phi0 = base_phi if rng.random() < 0.7 else np.zeros_like(base_phi)
        lam = 0.6 * rng.normal(size=(dn, dh))
        w, mats = _gauge_shift(n_alg, h_alg, phi0, lam)
    else:
        w = rng.normal(size=(dn, dh, dh))
        w = w - w.transpose(0, 2, 1)
        mats = rng.normal(size=(dh, dn, dn))
    return ex.ExtensionSpec(
        n_alg,
        h_alg,
        ex.SkewBilinearMap(h_alg, n_alg, w),
        ex.DerivationMap(h_alg, n_alg, mats),
        la.identity_pairing(n_alg),
        la.identity_pairing(h_alg),
    )


def test_criterion_01_extension_validity_iff_compatibility():
    rng = np.random.default_rng(101)
    worst_valid = 0.0
    agree = True
    in_band = 0
    for pair in ("abelian3_so3", "gl2_gl2"):
        for k in range(200):
            valid = k % 2 == 0
            spec = _draw_spec(pair, rng, valid)
            compat = ex.check_compatibility(spec).max_residual
            jacobi = la.check_structure(
                ex.build_extension(spec, force=True)
            ).jacobi_residual
            agree = agree and ((compat < 1e-10) == (jacobi < 1e-10))
            if 1e-8 < compat < 1e-6:
                in_band += 1
            if valid:
                worst_valid = max(worst_valid, compat, jacobi)
    _check(
        1,
        "extension-validity-iff-compatibility",
        agree and in_band == 0,
        f"200 draws per pair, worst valid residual {worst_valid:.2e}, {in_band} in band",
    )


def test_criterion_02_restricted_compatibility():
    worst = 0.0
    for dims in ((2, 2), (3, 2), (4, 3)):
        spec = rs.restricted_extension_spec(*dims)
        worst = max(worst, ex.check_compatibility(spec).max_residual)
    _check(2, "block-model-compatibility", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_03_dual_map_closed_forms():
    rng = np.random.default_rng(103)
    n = 5
    eye = np.eye(n)
    worst = 0.0
    for _ in range(100):
        x = rs.random_block(3, 2, rng)
        rho = crandom(rng, 3, 3)
        kappa = crandom(rng, 3, 3)
        phi_star, phidot_star, omega_star = rs.restricted_dual_maps(x, rho, kappa)
        for t in range(9):
            y = np.zeros((3, 3))
            y[t // 3, t % 3] = 1.0
            worst = max(
                worst,
                abs(np.trace(phi_star @ y) - np.trace(kappa @ rs.restricted_phi(x, y))),
            )
        for t in range(n * n):
            yb = rs.BlockOperator.from_full(np.outer(eye[t // n], eye[t % n]), 3)
            worst = max(
                worst,
                abs(
                    rs.block_pairing(phidot_star, yb)
                    - np.trace(kappa @ rs.restricted_phi(yb, rho))
                ),
                abs(
                    rs.block_pairing(omega_star, yb)
                    - np.trace(kappa @ rs.restricted_omega(x, yb))
                ),
            )
    _check(3, "dual-map-closed-forms", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_04_cross_module_oracle():
    rng = np.random.default_rng(104)
    dims = (3, 2)
    spec = rs.restricted_extension_spec(*dims)
    h = named_restricted_hamiltonian("quadratic", {}, dims)
    worst = 0.0
    for _ in range(50):
        state = rs.RestrictedState(crandom(rng, 3, 3), rs.random_block(*dims, rng))
        c0, a0 = rs.state_coordinates(state)
        # analytic linear test functions; a 1e-10 tolerance is out of reach
        # for finite differences
        a_mat, x_blk = crandom(rng, 3, 3), rs.random_block(*dims, rng)
        f = rs.RestrictedFunction(
            eval=lambda st, A=a_mat, X=x_blk: float(
                np.real(np.trace(st.kappa @ A)) + np.real(rs.block_pairing(st.sigma, X))
            ),
            grad_kappa=lambda st, A=a_mat: A,
            grad_sigma=lambda st, X=x_blk: X,
        )
        lhs = rs.restricted_poisson_bracket(f, h, state)
        rhs = po.extension_poisson_bracket(
            restricted_pair_function(f, dims), restricted_pair_function(h, dims), c0, a0, spec
        )
        worst = max(worst, abs(lhs - rhs))
        kd, sd = rs.restricted_hamiltonian_field(h, state)
        cd, ad_ = po.extension_hamiltonian_field(restricted_pair_function(h, dims), c0, a0, spec)
        worst = max(worst, float(np.max(np.abs(kd.reshape(-1) - cd))))
        worst = max(worst, float(np.max(np.abs(sd.to_full().reshape(-1) - ad_))))
    _check(4, "restricted-vs-generic-extension", worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_05_coadjoint_duality():
    rng = np.random.default_rng(105)
    worst = 0.0
    # a real semidirect example and the complex block model
    specs = [vector_rep_spec(), rs.restricted_extension_spec(2, 2)]
    for spec in specs:
        built = ex.build_extension(spec)
        pairing = ex.direct_sum_pairing(spec, built)
        dn, d = spec.n.dim, built.dim
        for _ in range(50):
            if built.scalar_field == "complex":
                xhat, bhat, yhat = (crandom(rng, d) for _ in range(3))
            else:
                xhat, bhat, yhat = (rng.normal(size=d) for _ in range(3))
            c_out, a_out = ex.coadjoint_extension(
                spec, (xhat[:dn], xhat[dn:]), (bhat[:dn], bhat[dn:])
            )
            lhs = pairing.pair(np.concatenate([c_out, a_out]), yhat)
            rhs = pairing.pair(bhat, la.bracket_eval(built, xhat, yhat))
            worst = max(worst, abs(lhs - rhs))
    _check(5, "coadjoint-duality", worst < 1e-10, f"max residual over 100 triples {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: the Poisson axioms on every bracket operation
# ---------------------------------------------------------------------------


class _World:
    """Uniform driver: a bracket operation plus function algebra."""

    def __init__(self, name, bracket, make_fn, rand_state):
        self.name = name
        self.bracket = bracket          # (f, g, state) -> float
        self.make_fn = make_fn          # (eval, grads...) -> function object
        self.rand_state = rand_state    # rng -> state

    def product(self, f, g):
        return self.make_fn(lambda s: f.eval(s) * g.eval(s))

    def nest(self, f, g):
        return self.make_fn(lambda s: self.bracket(f, g, s))


def _worlds():
    out = []

    # generic Lie-Poisson bracket on so(3)* and on gl(2)* (trace pairing)
    for alg, pairing, dim in (
        (la.so3(), la.identity_pairing(la.so3()), 3),
        (la.gl(2), la.trace_pairing(la.gl(2)), 4),
    ):
        def bracket(f, g, b, alg=alg, pairing=pairing):
            return po.lie_poisson_bracket(f, g, b, alg, pairing)

        world = _World(
            f"lie_poisson[{alg.name}]",
            bracket,
            lambda ev, grad=None: po.SmoothFunction(ev, grad),
            lambda rng, dim=dim: rng.normal(size=dim),
        )
        n = int(round(np.sqrt(dim))) if dim == 4 else None
        if dim == 3:
            world.polys = [
                fn.quadratic(pairing),
                fn.linear(pairing, np.array([0.4, -1.0, 0.2])),
                fn.rigid_body_energy([1.0, 2.0, 3.0]),
            ]
        else:
            world.polys = [
                fn.trace_polynomial(2, [1.0, 0.5]),
                fn.trace_polynomial(2, [0.0, 1.0, 0.2]),
                fn.linear(pairing, np.array([0.3, -1.0, 0.7, 0.1])),
            ]
        out.append(world)

    # product bracket on so(3)* x gl(2)*
    a1, p1 = la.so3(), la.identity_pairing(la.so3())
    a2, p2 = la.gl(2), la.trace_pairing(la.gl(2))

    def product_bracket(f, g, state):
        return po.product_bracket(f, g, state[0], state[1], a1, p1, a2, p2)

    world = _World(
        "product",
        product_bracket,
        lambda ev, grad=None: po.PairFunction(ev),
        lambda rng: (rng.normal(size=3), rng.normal(size=4)),
    )
    world.polys = [
        po.PairFunction(
            eval=lambda x, y: float(0.5 * (x @ x)),
            grad_c=lambda x, y: x,
            grad_a=lambda x, y: np.zeros(4),
        ),
        po.PairFunction(
            eval=lambda x, y: float(np.real(np.trace((y.reshape(2, 2)) @ (y.reshape(2, 2))))),
            grad_c=lambda x, y: np.zeros(3),
            grad_a=lambda x, y: 2.0 * y,
        ),
        po.PairFunction(
            eval=lambda x, y: float(x[0] * np.real(y[0])),
            grad_c=lambda x, y: np.array([float(np.real(y[0])), 0.0, 0.0]),
            grad_a=lambda x, y: np.linalg.solve(p2.gram, np.array([x[0], 0, 0, 0.0])),
        ),
    ]
    # product-world states are tuples; wrap bracket eval accordingly
    world.product = lambda f, g: po.PairFunction(
        lambda x, y: f.eval(x, y) * g.eval(x, y)
    )
    world.nest = lambda f, g: po.PairFunction(
        lambda x, y: product_bracket(f, g, (x, y))
    )
    out.append(world)

    # extension bracket on the semidirect example
    spec = vector_rep_spec()

    def ext_bracket(f, g, state):
        return po.extension_poisson_bracket(f, g, state[0], state[1], spec)

    world = _World(
        "extension",
        ext_bracket,
        lambda ev, grad=None: po.PairFunction(ev),
        lambda rng: (rng.normal(size=3), rng.normal(size=3)),
    )
    world.polys = [
        po.PairFunction(
            eval=lambda c, a: float(0.5 * (c @ c)),
            grad_c=lambda c, a: c,
            grad_a=lambda c, a: np.zeros(3),
        ),
        po.PairFunction(
            eval=lambda c, a: float(0.5 * (a @ a)),
            grad_c=lambda c, a: np.zeros(3),
            grad_a=lambda c, a: a,
        ),
        po.PairFunction(
            eval=lambda c, a: float(c @ a),
            grad_c=lambda c, a: a,
            grad_a=lambda c, a: c,
        ),
    ]
    world.product = lambda f, g: po.PairFunction(
        lambda c, a: f.eval(c, a) * g.eval(c, a)
    )
    world.nest = lambda f, g: po.PairFunction(lambda c, a: ext_bracket(f, g, (c, a)))
    out.append(world)

    # block-model bracket
    dims = (2, 2)

    def rest_bracket(f, g, state):
        return rs.restricted_poisson_bracket(f, g, state)

    world = _World(
        "restricted",
        rest_bracket,
        lambda ev, grad=None: rs.RestrictedFunction(ev),
        lambda rng: rs.RestrictedState(crandom(rng, 2, 2), rs.random_block(2, 2, rng)),
    )
    a0 = np.array([[0.3, -0.2 + 0.4j], [0.1j, 1.0]])
    world.polys = [
        rs.RestrictedFunction(
            eval=lambda st: float(0.5 * np.real(np.trace(st.kappa @ st.kappa))),
            grad_kappa=lambda st: st.kappa,
            grad_sigma=lambda st: rs.BlockOperator.zero(*dims),
        ),
        rs.RestrictedFunction(
            eval=lambda st: float(0.5 * np.real(rs.block_pairing(st.sigma, st.sigma))),
            grad_kappa=lambda st: np.zeros((2, 2), dtype=complex),
            grad_sigma=lambda st: st.sigma,
        ),
        rs.RestrictedFunction(
            eval=lambda st: float(np.real(np.trace(st.kappa @ a0))),
            grad_kappa=lambda st: a0,
            grad_sigma=lambda st: rs.BlockOperator.zero(*dims),
        ),
    ]
    out.append(world)

    # semidirect quantum bracket
    n = 3
    rng0 = np.random.default_rng(0)
    h0 = hermitian(rng0, n)
    a_h = hermitian(rng0, n)

    def qm_bracket(f, g, state):
        return qm.qm_bracket(f, g, state)

    world = _World(
        "semidirect_qm",
        qm_bracket,
        lambda ev, grad=None: qm.QMFunction(ev),
        lambda rng: qm.QState(crandom(rng, n), crandom(rng, n, n)),
    )
    world.polys = [linear_rho(h0), quadratic_v(a_h), coupled(h0, a_h, 0.4)]
    out.append(world)

    return out


def test_criterion_06_poisson_axioms():
    rng = np.random.default_rng(106)
    worst_anti = worst_leibniz = worst_jacobi = 0.0
    for world in _worlds():
        f, g, h = world.polys
        for _ in range(5):
            state = world.rand_state(rng)
            scale = 1.0 + abs(world.bracket(f, g, state))
            worst_anti = max(
                worst_anti,
                abs(world.bracket(f, g, state) + world.bracket(g, f, state)) / scale,
            )
            prod = world.product(f, g)
            lhs = world.bracket(prod, h, state)
            rhs = (
                f.eval(*state) if isinstance(state, tuple) else f.eval(state)
            ) * world.bracket(g, h, state)
            rhs += world.bracket(f, h, state) * (
                g.eval(*state) if isinstance(state, tuple) else g.eval(state)
            )
            worst_leibniz = max(worst_leibniz, abs(lhs - rhs) / (1.0 + abs(lhs)))
        for _ in range(2):
            state = world.rand_state(rng)
            total = (
                world.bracket(world.nest(f, g), h, state)
                + world.bracket(world.nest(g, h), f, state)
                + world.bracket(world.nest(h, f), g, state)
            )
            worst_jacobi = max(worst_jacobi, abs(total))
    ok = worst_anti < 1e-10 and worst_leibniz < 1e-6 and worst_jacobi < 1e-5
    _check(
        6,
        "poisson-axioms-all-brackets",
        ok,
        f"antisym {worst_anti:.2e}, leibniz {worst_leibniz:.2e}, jacobi {worst_jacobi:.2e}",
    )


def test_criterion_07_product_pullbacks_commute():
    rng = np.random.default_rng(107)
    a1, p1 = la.so3(), la.identity_pairing(la.so3())
    a2, p2 = la.gl(2), la.trace_pairing(la.gl(2))
    f = po.PairFunction(eval=lambda x, y: float(np.sin(x @ x) + x[1]))
    g = po.PairFunction(eval=lambda x, y: float(np.real(y @ y) ** 2 + np.real(y[2])))
    worst = 0.0
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=4)
        worst = max(worst, abs(po.product_bracket(f, g, x, y, a1, p1, a2, p2)))
    _check(7, "product-pullbacks-commute", worst < 1e-12, f"max bracket {worst:.2e}")


def test_criterion_08_semidirect_quantum_consistency():
    rng = np.random.default_rng(108)
    n = 4
    h0, a = hermitian(rng, n), hermitian(rng, n)
    hamiltonians = [linear_rho(h0), quadratic_v(a), coupled(h0, a, 0.7)]
    coords = linear_coordinate_functions(n)
    worst = 0.0
    for h in hamiltonians:
        for _ in range(3):
            state = qm.QState(crandom(rng, n), crandom(rng, n, n))
            vd, rd = qm.qm_hamilton_rhs(h, state)
            for f, ddt in coords:
                worst = max(worst, abs(ddt(vd, rd) - qm.qm_bracket(f, h, state)))
    _check(8, "semidirect-quantum-flow", worst < 1e-8, f"max |d/dt f - {{f,h}}| {worst:.2e}")


def test_criterion_09_sequences():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        seq = random_exact_sequence(rng)
        rep = sq.check_exact_sequence(sq.dual_sequence(seq))
        worst = max(
            worst,
            float(rep.injectivity_defect),
            float(rep.surjectivity_defect),
            rep.subspace_residual,
        )
    split = sq.wstar_central_split(sq.MatrixStarAlgebra((2, 3)), (0,))
    z_ok = np.array_equal(split.z, np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))
    ok = worst < 1e-10 and z_ok and split.max_residual < 1e-12
    _check(
        9,
        "dualized-sequences-and-central-split",
        ok,
        f"dual residual {worst:.2e}, split residual {split.max_residual:.2e}",
    )


def test_criterion_10_dynamics_sanity():
    alg = la.so3()
    pairing = la.identity_pairing(alg)
    h = fn.rigid_body_energy([1.0, 2.0, 3.0])
    cas = fn.norm_squared(pairing)
    traj = it.integrate_flow(
        lambda b: po.hamiltonian_vector_field(h, b, alg, pairing),
        np.array([0.2, -0.3, 0.9]),
        it.IntegratorConfig("midpoint", dt=1e-2, steps=1000),
        {"H": h.eval, "casimir": cas.eval},
    )
    rep = it.conservation_report(traj)
    elapsed = time.monotonic() - _T0
    ok = (
        rep["H"].max_drift < 1e-8
        and rep["casimir"].max_drift < 1e-6
        and elapsed < 60.0
    )
    _check(
        10,
        "rigid-body-conservation-and-runtime",
        ok,
        f"energy drift {rep['H'].max_drift:.2e}, casimir drift "
        f"{rep['casimir'].max_drift:.2e}, acceptance module time {elapsed:.1f}s",
    )
