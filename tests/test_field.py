"""The compiled Hamiltonian field against its references: the coadjoint
action, the closed-form restricted and semidirect fields, and the
trajectories ``simulate`` writes."""

import io
import json

import numpy as np
import pytest

from liepoisson import algebra as la
from liepoisson import cli
from liepoisson import extension as ext
from liepoisson import functions as fn
from liepoisson import integrators as it
from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson import restricted as rs


def _close(got, want, tol=1e-13):
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def _change_basis(alg: la.LieAlgebra, p: np.ndarray) -> la.LieAlgebra:
    """The same algebra in the basis given by the columns of p."""
    c = np.einsum("kx,kij,ia,jb->xab", np.linalg.inv(p).T, alg.structure_constants, p, p)
    c = 0.5 * (c - c.transpose(0, 2, 1))
    return la.LieAlgebra(c, scalar_field=alg.scalar_field)


def _cases():
    rng = np.random.default_rng(11)
    d4 = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    d4c = d4 + 0.3j * rng.normal(size=(4, 4))
    gl2 = la.gl(2)
    gl2c = la.gl(2, scalar_field="complex")
    yield "so3", la.so3(), np.eye(3)
    yield "heisenberg", la.heisenberg(), np.diag([1.0, 2.0, -1.0])
    yield "gl2-real-gram", _change_basis(gl2, d4), np.eye(4) + 0.4 * rng.normal(size=(4, 4))
    gram = np.eye(4) + 0.4 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    yield "gl2-complex-gram", _change_basis(gl2c, d4c), gram


@pytest.mark.parametrize("alg,gram", [c[1:] for c in _cases()], ids=[c[0] for c in _cases()])
def test_hamiltonian_field_is_minus_coadjoint(alg, gram):
    rng = np.random.default_rng(5)
    pairing = la.DualPairing(alg, gram)
    d = alg.dim

    def draw():
        v = rng.normal(size=d)
        return v + 1j * rng.normal(size=d) if alg.dtype is complex else v

    for h in (fn.linear(pairing, draw()), fn.quadratic(pairing)):
        field = po.hamiltonian_field(h, alg, pairing)
        for _ in range(5):
            b = draw()
            want = -la.ad_star(pairing, po.functional_derivative(h, b, pairing), b)
            _close(field(b), want)
            _close(po.hamiltonian_vector_field(h, b, alg, pairing), want)


def _stacked(f: po.PairFunction, dn: int) -> po.SmoothFunction:
    return po.SmoothFunction(
        lambda b: f.eval(b[:dn], b[dn:]),
        lambda b: np.concatenate([f.grad_c(b[:dn], b[dn:]), f.grad_a(b[:dn], b[dn:])]),
    )


def _extension_field(spec: ext.ExtensionSpec, f: po.PairFunction):
    e = ext.build_extension(spec)
    return po.hamiltonian_field(_stacked(f, spec.n.dim), e, ext.direct_sum_pairing(spec, e))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("name", ["linear_kappa", "linear_sigma", "quadratic"])
def test_field_matches_restricted_closed_form(dims, name):
    rng = np.random.default_rng(sum(dims))
    n_plus = dims[0]
    params = {
        "A": rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus)),
        "X0": rs.random_block(*dims, rng),
    }
    f = rs.named_restricted_hamiltonian(name, params, dims)
    field = _extension_field(rs.restricted_extension_spec(*dims), rs.as_pair_function(f, dims))
    for _ in range(3):
        kappa = rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus))
        state = rs.RestrictedState(kappa, rs.random_block(*dims, rng))
        kdot, sdot = rs.restricted_hamiltonian_field(f, state)
        want = np.concatenate(rs.state_coordinates(rs.RestrictedState(kdot, sdot)))
        _close(field(np.concatenate(rs.state_coordinates(state))), want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["linear_rho", "quadratic_v", "coupled"])
def test_field_matches_semidirect_closed_form(n, name):
    rng = np.random.default_rng(n)

    def cm():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    f = qm.NAMED_HAMILTONIANS[name]({"H0": cm(), "A": cm(), "coupling": 0.7})
    field = _extension_field(qm.semidirect_extension_spec(n), qm.as_pair_function(f, n))
    for _ in range(3):
        state = qm.QState(rng.normal(size=n) + 1j * rng.normal(size=n), cm())
        want = np.concatenate(qm.state_coordinates(qm.QState(*qm.qm_hamilton_rhs(f, state))))
        _close(field(np.concatenate(qm.state_coordinates(state))), want)


def _csv(text: str) -> tuple[list[str], np.ndarray]:
    header, _, body = text.partition("\n")
    return header.split(","), np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _simulate(tmp_path, doc) -> tuple[list[str], np.ndarray]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert cli.run_cli(["simulate", str(path), "--out", str(out)]) == 0
    return _csv(out.read_text())


def _cplx(m):
    m = np.asarray(m)
    return [[float(z.real), float(z.imag)] for z in m] if m.ndim == 1 else [_cplx(r) for r in m]


def test_restricted_simulate_follows_the_closed_form(tmp_path):
    """The CSV columns are (Re kappa, Im kappa, Re sigma, Im sigma), row-major,
    and the trajectory is RK4 on the closed-form field."""
    rng = np.random.default_rng(3)
    dims = (3, 2)
    kappa0 = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    sigma0 = rs.random_block(*dims, rng) * 0.5
    doc = {
        "system": "restricted",
        "restricted": {"n_plus": 3, "n_minus": 2, "kappa0": _cplx(kappa0),
                       "sigma0": rs.block_to_json(sigma0)},
        "hamiltonian": {"name": "quadratic"},
        "casimirs": ["kappa_frobenius_sq", "sigma_frobenius_sq"],
        "integrator": {"method": "rk4", "dt": 0.01, "steps": 20},
    }
    cols, rows = _simulate(tmp_path, doc)
    h = rs.named_restricted_hamiltonian("quadratic", {}, dims)

    def split(y):
        c, a = y[:9] + 1j * y[9:18], y[18:43] + 1j * y[43:]
        return rs.RestrictedState(c.reshape(3, 3), rs.BlockOperator.from_full(a.reshape(5, 5), 3))

    def flat(state):
        c, a = rs.state_coordinates(state)
        return np.concatenate([c.real, c.imag, a.real, a.imag])

    traj = it.integrate_flow(
        lambda y: flat(rs.RestrictedState(*rs.restricted_hamiltonian_field(h, split(y)))),
        flat(rs.RestrictedState(kappa0, sigma0)),
        it.IntegratorConfig("rk4", 0.01, 20),
    )
    assert cols[1:4] == ["kappa11_re", "kappa12_re", "kappa13_re"] and cols[10] == "kappa11_im"
    assert cols[-3:] == ["H", "kappa_frobenius_sq", "sigma_frobenius_sq"]
    _close(rows[:, 1:69], traj.states, 1e-12)
    _close(rows[:, -2], np.sum(traj.states[:, :18] ** 2, axis=1), 1e-12)
    _close(rows[:, -1], np.sum(traj.states[:, 18:] ** 2, axis=1), 1e-12)


def test_semidirect_simulate_follows_the_closed_form(tmp_path):
    rng = np.random.default_rng(4)
    n = 2
    v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    rho0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    doc = {
        "system": "semidirect_qm",
        "semidirect_qm": {"n": n, "v0": _cplx(v0), "rho0": _cplx(rho0)},
        "hamiltonian": {"name": "coupled", "H0": _cplx(h0), "A": _cplx(h0), "coupling": 0.3},
        "casimirs": ["v_norm_sq", "trace_rho_re", "rho_frobenius_sq"],
        "integrator": {"method": "rk4", "dt": 0.01, "steps": 30},
    }
    cols, rows = _simulate(tmp_path, doc)
    h = qm.coupled(h0, h0, 0.3)

    def field(y):
        state = qm.state_from_coordinates(y[: 2 * n], y[2 * n :], n)
        return np.concatenate(qm.state_coordinates(qm.QState(*qm.qm_hamilton_rhs(h, state))))

    y0 = np.concatenate(qm.state_coordinates(qm.QState(v0, rho0)))
    traj = it.integrate_flow(field, y0, it.IntegratorConfig("rk4", 0.01, 30))
    assert cols[1:5] == ["v1_re", "v2_re", "v1_im", "v2_im"]
    _close(rows[:, 1:13], traj.states, 1e-12)
    v = traj.states[:, :4]
    rho = traj.states[:, 4:]
    _close(rows[:, -3], np.sum(v**2, axis=1), 1e-12)
    _close(rows[:, -2], rho[:, 0] + rho[:, 3], 1e-12)
    _close(rows[:, -1], np.sum(rho**2, axis=1), 1e-12)


def test_complex_extension_simulates_with_midpoint_conservation(tmp_path):
    """A complex inline extension with a non-identity complex gram: columns
    per slot, real parts then imaginary parts, and midpoint keeping H and the
    central linear Casimir to the Newton tolerance per step."""
    steps = 100
    doc = {
        "system": "extension",
        "extension": {
            "n": {"dim": 1, "field": "complex"},
            "h": {"dim": 2, "field": "complex", "gram": [[1.0, [0.0, 0.5]], [[0.0, 0.5], 2.0]]},
            "omega": [[0, 0, 1, [1.0, 0.5]]],
            "initial": {"c": [[1.0, 0.2]], "a": [[0.5, -0.1], 0.25]},
        },
        "hamiltonian": {"name": "quadratic"},
        "casimirs": [{"name": "c_central", "fn": "linear", "coeffs": [1.0, 0.0, 0.0]}],
        "integrator": {"method": "midpoint", "dt": 0.01, "steps": steps},
    }
    cols, rows = _simulate(tmp_path, doc)
    assert cols == ["t", "c1_re", "c1_im", "a1_re", "a2_re", "a1_im", "a2_im", "H", "c_central"]
    assert rows.shape == (steps + 1, len(cols))
    assert rows[0, 1:7].tolist() == [1.0, 0.2, 0.5, 0.25, -0.1, 0.0]
    assert np.ptp(rows[:, 3]) > 1e-3  # the h slot moves
    bound = steps * it.IntegratorConfig().newton_tol
    for k in (-2, -1):
        assert np.max(np.abs(rows[:, k] - rows[0, k])) <= bound * max(1.0, abs(rows[0, k]))
