"""The compiled Hamiltonian field against its references: the coadjoint
action, the closed-form restricted and semidirect fields, and the
trajectories ``simulate`` writes."""

import io
import json
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson import algebra as la
from liepoisson import cli
from liepoisson import csvtext
from liepoisson import extension as ext
from liepoisson import functions as fn
from liepoisson import integrators as it
from liepoisson import poisson as po
from liepoisson import quantum as qm
from liepoisson import restricted as rs
from liepoisson.linalg import Coo
from liepoisson.tolerances import CSV_BLOCK_VALUES, VERIFICATION_TOL

from closed_forms import (
    QM_NAMED_HAMILTONIANS,
    block_to_json,
    coupled,
    named_restricted_hamiltonian,
    qm_point,
    random_block,
    restricted_point,
)


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


def _extension_field(spec: ext.ExtensionSpec, f: po.SmoothFunction):
    e = ext.build_extension(spec)
    return po.hamiltonian_field(f, e, ext.direct_sum_pairing(spec, e))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("name", ["linear_kappa", "linear_sigma", "quadratic"])
def test_field_matches_restricted_closed_form(dims, name):
    rng = np.random.default_rng(sum(dims))
    n_plus = dims[0]
    params = {
        "A": rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus)),
        "X0": random_block(*dims, rng),
    }
    f = named_restricted_hamiltonian(name, params, dims)
    field = _extension_field(rs.restricted_extension_spec(*dims), f)
    for _ in range(3):
        kappa = rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus))
        b = restricted_point(kappa, random_block(*dims, rng))
        _close(field(b), rs.restricted_hamiltonian_field(f, b, dims))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["linear_rho", "quadratic_v", "coupled"])
def test_field_matches_semidirect_closed_form(n, name):
    rng = np.random.default_rng(n)

    def cm():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    f = QM_NAMED_HAMILTONIANS[name]({"H0": cm(), "A": cm(), "coupling": 0.7})
    field = _extension_field(qm.semidirect_extension_spec(n), f)
    for _ in range(3):
        b = qm_point(rng.normal(size=n) + 1j * rng.normal(size=n), cm())
        _close(field(b), qm.qm_hamilton_rhs(f, b, n))


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
    sigma0 = random_block(*dims, rng) * 0.5
    doc = {
        "system": "restricted",
        "restricted": {"n_plus": 3, "n_minus": 2, "kappa0": _cplx(kappa0),
                       "sigma0": block_to_json(sigma0, 3)},
        "hamiltonian": {"name": "quadratic"},
        "casimirs": ["kappa_frobenius_sq", "sigma_frobenius_sq"],
        "integrator": {"method": "rk4", "dt": 0.01, "steps": 20},
    }
    cols, rows = _simulate(tmp_path, doc)
    h = named_restricted_hamiltonian("quadratic", {}, dims)

    def realify(b):
        c, a = b[:9], b[9:]
        return np.concatenate([c.real, c.imag, a.real, a.imag])

    def point(y):
        return np.concatenate([y[:9] + 1j * y[9:18], y[18:43] + 1j * y[43:]])

    traj = it.integrate_flow(
        lambda y: realify(rs.restricted_hamiltonian_field(h, point(y), dims)),
        realify(restricted_point(kappa0, sigma0)),
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
    h = coupled(h0, h0, 0.3)
    traj = it.integrate_flow(lambda y: qm.qm_hamilton_rhs(h, y, n), qm_point(v0, rho0),
                             it.IntegratorConfig("rk4", 0.01, 30))
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


# ---------------------------------------------------------------------------
# compiled affine fields, row-vectorized observables, CSV rows
# ---------------------------------------------------------------------------

_COMPLEX_EXTENSION = {
    "n": {"dim": 1, "field": "complex"},
    "h": {"dim": 2, "field": "complex", "gram": [[1.0, [0.0, 0.5]], [[0.0, 0.5], 2.0]]},
    "omega": [[0, 0, 1, [1.0, 0.5]]],
    "initial": {"c": [[1.0, 0.2]], "a": [[0.5, -0.1], 0.25]},
}
_HEISENBERG = {"n": "abelian1", "h": "abelian2", "omega": [[0, 0, 1, 1.0]]}


def _affine_hamiltonians():
    """(id, algebra, pairing, function) for every affine named Hamiltonian
    of every simulated system, with seeded parameters."""
    rng = np.random.default_rng(8)

    def cm(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    so3 = la.so3()
    p = la.identity_pairing(so3)
    yield "rigid_body", so3, p, fn.rigid_body_energy([1.0, 2.0, 3.5])
    yield "so3-linear", so3, p, fn.linear(p, rng.normal(size=3))
    yield "so3-quadratic-gram", so3, p, fn.quadratic(p, rng.normal(size=(3, 3)))
    for tag, body in (("heisenberg", _HEISENBERG), ("complex-extension", _COMPLEX_EXTENSION)):
        e, p = cli._built(cli._extension_spec_from_config(cli._Node(body)))
        draw = cm(3) if e.dtype is complex else rng.normal(size=3)
        yield f"{tag}-linear", e, p, fn.linear(p, draw)
        yield f"{tag}-quadratic", e, p, fn.quadratic(p)
    dims = (3, 2)
    e, p = cli._built(rs.restricted_extension_spec(*dims))
    params = {"A": cm(3, 3), "X0": cm(5, 5)}
    for name in ("linear_kappa", "linear_sigma", "quadratic"):
        yield f"restricted-{name}", e, p, cli._restricted_hamiltonian(name, params, dims, p)
    e, p = cli._built(qm.semidirect_extension_spec(2))
    for name in ("linear_rho", "quadratic_v"):
        h = cli._qm_hamiltonian(name, {"H0": cm(2, 2), "A": cm(2, 2)}, 2, p)
        yield f"semidirect-{name}", e, p, h


@pytest.mark.parametrize("alg,pairing,h", [c[1:] for c in _affine_hamiltonians()],
                         ids=[c[0] for c in _affine_hamiltonians()])
def test_compiled_affine_field_matches_the_gradient_path(alg, pairing, h):
    assert h.affine is not None
    compiled = po.hamiltonian_field(h, alg, pairing)
    per_call = po.hamiltonian_field(po.SmoothFunction(h.eval, h.grad), alg, pairing)
    rng = np.random.default_rng(alg.dim)
    for _ in range(4):
        b = rng.normal(size=alg.dim)
        b = b + 1j * rng.normal(size=alg.dim) if alg.dtype is complex else b
        _close(compiled(b), per_call(b))


def _restricted_point(rng, dims):
    kappa = rng.normal(size=(dims[0],) * 2) + 1j * rng.normal(size=(dims[0],) * 2)
    return restricted_point(kappa, random_block(*dims, rng))


@pytest.mark.parametrize("name", ["linear_kappa", "linear_sigma", "quadratic"])
def test_restricted_hamiltonians_match_the_closed_forms(name):
    rng = np.random.default_rng(21)
    dims = (3, 2)
    params = {"A": rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
              "X0": random_block(*dims, rng)}
    oracle = named_restricted_hamiltonian(name, params, dims)
    e, p = cli._built(rs.restricted_extension_spec(*dims))
    h = cli._restricted_hamiltonian(name, params, dims, p)
    field = po.hamiltonian_field(h, e, p)
    for _ in range(3):
        b = _restricted_point(rng, dims)
        _close(field(b), rs.restricted_hamiltonian_field(oracle, b, dims))
        assert h.eval(b) == pytest.approx(oracle.eval(b), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("name", ["linear_rho", "quadratic_v", "coupled"])
def test_semidirect_hamiltonians_match_the_closed_forms(name):
    rng = np.random.default_rng(22)
    n = 3

    def cm():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    params = {"H0": cm(), "A": cm(), "coupling": 0.7}
    oracle = QM_NAMED_HAMILTONIANS[name](params)
    e, p = cli._built(qm.semidirect_extension_spec(n))
    h = cli._qm_hamiltonian(name, params, n, p)
    field = po.hamiltonian_field(h, e, p)
    for _ in range(3):
        b = qm_point(rng.normal(size=n) + 1j * rng.normal(size=n), cm())
        _close(field(b), qm.qm_hamilton_rhs(oracle, b, n))
        assert h.eval(b) == pytest.approx(oracle.eval(b), rel=1e-13, abs=1e-13)


def _sim_docs():
    rng = np.random.default_rng(23)
    every = [{"name": f, "fn": f} for f in ("norm_squared", "quadratic")]
    yield "rigid_body", {
        "system": "rigid_body",
        "rigid_body": {"inertia": [1.0, 2.0, 3.0], "initial": [0.2, -0.3, 0.9]},
        "casimirs": every + [{"name": "lin", "fn": "linear", "coeffs": [0.3, -1.0, 2.0]},
                             {"name": "q", "fn": "quadratic", "gram": rng.normal(size=(3, 3)).tolist()}],
    }
    yield "abelian1+so3", {
        "system": "extension",
        "extension": {"n": "abelian1", "h": "so3", "initial": {"c": [1.0], "a": [1, 2, 3]}},
        "hamiltonian": {"name": "trace_poly", "coefficients": [0.5, -1.0, 0.25]},
        "casimirs": every,
    }
    yield "complex-extension", {
        "system": "extension", "extension": _COMPLEX_EXTENSION, "hamiltonian": {"name": "quadratic"},
        "casimirs": every + [{"name": "lin", "fn": "linear", "coeffs": [1.0, 0.5, -2.0]}],
    }
    yield "restricted", {
        "system": "restricted",
        "restricted": {"n_plus": 3, "n_minus": 2, "kappa0": {"constructor": "random"},
                       "sigma0": {"constructor": "random_block"}},
        "hamiltonian": {"name": "linear_kappa", "A": _cplx(rng.normal(size=(3, 3)))},
        "casimirs": sorted(cli._RESTRICTED_OBSERVABLES),
    }
    yield "semidirect", {
        "system": "semidirect_qm",
        "semidirect_qm": {"n": 2, "v0": [1.0, [0.0, 0.5]], "rho0": [[0.6, 0.1], [0.2, 0.4]]},
        "hamiltonian": {"name": "coupled", "H0": [[1.0, 0.0], [0.0, 0.3]],
                        "A": [[0.5, [0.0, 1.0]], [0.0, 2.0]], "coupling": 0.4},
        "casimirs": sorted(cli._QM_OBSERVABLES),
    }


@pytest.mark.parametrize("doc", [d for _, d in _sim_docs()], ids=[t for t, _ in _sim_docs()])
def test_tracked_columns_are_row_vectorized(doc):
    """Every tracked column, H included, maps a (T, dim) stack of flat states
    to the T values it takes on each row alone."""
    name, entry, body = cli._lookup(cli._Node(doc))
    system = entry.simulate(body, cli._Node(doc), 0)
    rng = np.random.default_rng(24)
    states = rng.normal(size=(7, system.state0.size))
    assert len(system.tracked) == 1 + len(doc["casimirs"])
    for column, f in system.tracked.items():
        stacked = f(states)
        assert stacked.shape == (7,), column
        rows = np.array([f(row) for row in states])
        assert np.allclose(stacked, rows, rtol=1e-14, atol=1e-14), column


def test_csv_rows_match_per_value_formatting():
    rng = np.random.default_rng(25)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, np.inf, -np.inf, np.nan]
    for shape in ((1, 1), (5, 3), (40, 13)):
        table = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        table.flat[: len(special)] = special[: table.size]
        want = "".join(",".join(f"{v:.17e}" for v in row) + "\n" for row in table)
        header = ",".join(["t"] * shape[1]) + "\n"
        assert "".join(cli._csv(["t"] * shape[1], table)) == header + want


def _csv_mismatches(table: np.ndarray) -> list[tuple[float, str]]:
    """The values whose field in ``cli._csv`` differs from ``f"{v:.17e}"``
    (all of them when the row structure differs)."""
    want = [[f"{v:.17e}" for v in row] for row in table.tolist()]
    lines = "".join(cli._csv(["c"] * table.shape[1], table)).split("\n")
    got = [line.split(",") for line in lines[1:-1]]
    if lines[-1] or [len(r) for r in got] != [len(r) for r in want]:
        return [(v, "") for v in table.ravel().tolist()]
    return [(v, g) for vs, gs, ws in zip(table.tolist(), got, want) for v, g, w in zip(vs, gs, ws) if g != w]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 400), st.integers(1, 24)),
    picks=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 2**64 - 1)), max_size=8),
)
def test_csv_matches_percent_formatting_on_raw_bit_patterns(seed, shape, picks):
    """Every float64 bit pattern, over the full exponent range: subnormals,
    |v| beyond 1e280, and NaN and infinities (random, and drawn picks)."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64)
    for i, pattern in picks:
        bits.flat[i % bits.size] = pattern
    assert _csv_mismatches(bits.view(np.float64)) == []


def _ties() -> list[float]:
    """Values m 2^-e, m odd, that sit exactly halfway between two 18-digit
    decimals (19 significant digits, the last a 5), which dtoa rounds to
    even; their 18th digits are both odd and even."""
    values = (m * 2.0**-e for m in [*range(1, 2**10, 2), 2**20 + 1, 2**40 + 1] for e in range(100))
    ties = [v for v in values if len(Decimal(v).as_tuple().digits) == 19]
    assert len(ties) > 500
    return ties


def _powers_of_ten() -> list[float]:
    out = []
    for j in range(-323, 309):
        x = float(f"1e{j}")
        down = up = x
        for _ in range(3):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            out += [float(down), float(up)]
        out.append(x)
    return [v for v in out if np.isfinite(v)]


@pytest.mark.parametrize(
    "values",
    [
        _ties(),
        _powers_of_ten(),
        [9.9999999999999999e5, 9.99999999999999999e-5, -9.999999999999999999e99, 1e23, 1e22],
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-280, -1e280, 1.7976931348623157e308],
        [1e100, -1e-100, 1.5e-123, 3.25e250, -7.0e-200, 1e99, 1e-99],
    ],
    ids=["ties", "powers-of-ten", "literals-read-as-powers", "zeros-subnormals-extremes", "three-digit-exponents"],
)
def test_csv_matches_percent_formatting_on_hard_values(values):
    for cols in (1, 7):
        assert _csv_mismatches(np.resize(values, (-(-len(values) // cols), cols))) == []


def test_csv_refuses_exponent_guesses_one_off(monkeypatch):
    """A guess of k one too high leaves floor(p + t) below 10^17, one too
    low lets N reach 10^18: both values are written by ``%``."""
    values = np.array([v for v in _powers_of_ten() if v > 0])
    true_k = np.array([int(f"{v:.17e}".partition("e")[2]) for v in values])

    def guess(a):
        """Nudged up or down by the last bit of the value itself, so that the
        guess does not depend on where a block starts."""
        odd = (a.view(np.uint64) & np.uint64(1)).astype(bool)
        return np.floor(np.log10(a * np.where(odd, 1 + 2.0**-40, 1 - 2.0**-40)))

    off = guess(values) - true_k
    assert (off == 1).sum() > 100 and (off == -1).sum() > 100
    monkeypatch.setattr(csvtext, "_exponent_guess", guess)
    assert _csv_mismatches(values.reshape(-1, 1)) == []


def test_csv_fields_of_zeros_subnormals_and_three_digit_exponents():
    """9.9999999999999999e5 reads as the double 1e6.  No double rounds up to
    10^18 at the right exponent: 18 digits are finer than their spacing."""
    table = np.array([[9.9999999999999999e5, -0.0, 1e100, 4.94e-324]])
    assert "".join(cli._csv(["a", "b", "c", "d"], table)) == (
        "a,b,c,d\n1.00000000000000000e+06,-0.00000000000000000e+00,"
        "1.00000000000000002e+100,4.94065645841246544e-324\n"
    )


def test_csv_blocks_with_fallbacks_on_their_edges_and_an_inf():
    """Several blocks of whole rows: ties on both sides of a block edge, an
    infinity and a subnormal each take ``%`` within their blocks."""
    cols = 7
    rows = 3 * (CSV_BLOCK_VALUES // cols) + 5
    table = np.random.default_rng(26).normal(size=(rows, cols)) * 1e3
    edge = CSV_BLOCK_VALUES // cols * cols
    table.flat[edge - 1] = 1 + 2.0**-18  # a tie, last value of the first block
    table.flat[edge] = 1 + 3 * 2.0**-18  # first value of the second block
    table.flat[2 * edge + 3] = np.inf
    table.flat[-1] = 5e-324
    assert _csv_mismatches(table) == []


def test_streamed_csv_peak_memory_is_one_block(tmp_path):
    """The shape of rk4-flows' semidirect_qm table, written to a file: the
    header and the blocks go out one at a time, so at most a block's text
    (as bytes and as str) and the kernel's 0.5 MB working set are held, not
    the 2.2 MB of the whole text."""
    table = np.random.default_rng(27).normal(size=(6001, 15))
    block = max(map(len, csvtext.row_blocks(table)))
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli._emit(cli._csv(["c"] * 15, table), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text()
    assert text == "".join(cli._csv(["c"] * 15, table))
    assert len(text) > 20 * block
    assert peak <= 2 * block + 2**19


def test_restricted_spectral_casimirs(tmp_path):
    """Every Re tr(kappa^k) is a Casimir of the restricted flow.  Midpoint
    keeps the quadratic one to the Newton tolerance per step; it does not
    keep the cubic and quartic ones, which RK4 follows within its bound of
    the verification tolerance per step."""
    rng = np.random.default_rng(26)
    steps = 80
    kappa = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sigma = random_block(3, 2, rng)
    scale = 4.0 / np.sqrt(np.sum(np.abs(kappa) ** 2) + np.sum(np.abs(sigma) ** 2))
    doc = {
        "system": "restricted",
        "restricted": {"n_plus": 3, "n_minus": 2, "kappa0": _cplx(scale * kappa),
                       "sigma0": block_to_json(sigma * scale, 3)},
        "hamiltonian": {"name": "quadratic"},
        "casimirs": ["kappa_trace_2", "kappa_trace_3", "kappa_trace_4"],
    }

    def drift(method, column):
        doc["integrator"] = {"method": method, "dt": 0.01, "steps": steps}
        cols, rows = _simulate(tmp_path, doc)
        s = rows[:, cols.index(column)]
        return np.max(np.abs(s - s[0])) / max(1.0, abs(s[0]))

    k3 = np.trace(np.linalg.matrix_power(scale * kappa, 3)).real
    assert abs(k3) > 0.1  # the cubic Casimir is not trivially 0
    assert drift("midpoint", "kappa_trace_2") <= steps * it.IntegratorConfig().newton_tol
    assert drift("midpoint", "H") <= steps * it.IntegratorConfig().newton_tol
    for column in ("kappa_trace_3", "kappa_trace_4"):
        assert drift("rk4", column) <= steps * VERIFICATION_TOL


# ---------------------------------------------------------------------------
# norm_squared's exact gradient, the cached coadjoint tensor
# ---------------------------------------------------------------------------


def _spd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T + d * np.eye(d)


def _norm_squared_pairings():
    """(id, algebra, pairing) with non-identity grams, real and complex."""
    so3 = la.so3()
    yield "so3-spd-gram", so3, la.DualPairing(so3, _spd(np.random.default_rng(31), 3))
    e, p = cli._built(cli._extension_spec_from_config(cli._Node(_COMPLEX_EXTENSION)))
    assert e.dtype is complex and np.any(p.gram.imag)
    yield "complex-extension", e, p


@pytest.mark.parametrize("alg,pairing", [c[1:] for c in _norm_squared_pairings()],
                         ids=[c[0] for c in _norm_squared_pairings()])
def test_norm_squared_gradient_matches_finite_differences(alg, pairing):
    f = fn.norm_squared(pairing)
    assert (f.affine is not None) == (alg.dtype is float)
    fd = po.SmoothFunction(f.eval)  # no gradient: the finite-difference path
    rng = np.random.default_rng(32)
    for _ in range(5):
        b = rng.normal(size=alg.dim)
        b = b + 1j * rng.normal(size=alg.dim) if alg.dtype is complex else b
        _close(po.functional_derivative(f, b, pairing),
               po.functional_derivative(fd, b, pairing), tol=1e-8)


def test_norm_squared_compiled_field_matches_the_gradient_path():
    rng = np.random.default_rng(33)
    so3 = la.so3()
    e, p = cli._built(cli._extension_spec_from_config(cli._Node(_HEISENBERG)))
    for alg, pairing in ((so3, la.DualPairing(so3, _spd(rng, 3))), (e, p)):
        h = fn.norm_squared(pairing)
        compiled = po.hamiltonian_field(h, alg, pairing)
        per_call = po.hamiltonian_field(po.SmoothFunction(h.eval, h.grad), alg, pairing)
        for _ in range(4):
            b = rng.normal(size=alg.dim)
            _close(compiled(b), per_call(b))


def test_norm_squared_heisenberg_flow_satisfies_the_bracket_contract():
    """d/dt f = {f, h} along the Heisenberg flow of h = |b|^2: the time
    derivative of f along an RK4 trajectory (central differences) and its
    exact value Re <X_h, Df> both match the bracket."""
    e, p = cli._built(cli._extension_spec_from_config(cli._Node(_HEISENBERG)))
    h = fn.norm_squared(p)
    field = po.hamiltonian_field(h, e, p)
    dt = 1e-3
    traj = it.integrate_flow(field, np.array([1.0, 0.6, -0.8]), it.IntegratorConfig("rk4", dt, 400))
    assert np.ptp(traj.states[:, 1]) > 0.1  # the h slot moves
    rng = np.random.default_rng(34)
    fs = [fn.linear(p, x) for x in np.eye(3)] + [fn.quadratic(p, rng.normal(size=(3, 3)))]
    for f in fs:
        values = f.eval(traj.states)
        for k in range(1, 400, 37):
            b = traj.states[k]
            bracket = po.lie_poisson_bracket(f, h, b, e, p)
            exact = p.real_pair(field(b), po.functional_derivative(f, b, p))
            assert abs(exact - bracket) <= 1e-12 * max(1.0, abs(bracket))
            assert abs((values[k + 1] - values[k - 1]) / (2 * dt) - bracket) <= 1e-5


def test_coadjoint_tensor_is_built_once_per_pairing(monkeypatch):
    e, p = cli._built(rs.restricted_extension_spec(3, 2))
    builds = []
    fold = la._coadjoint_entries
    monkeypatch.setattr(la, "_coadjoint_entries", lambda c, g: builds.append(c.shape) or fold(c, g))
    h = cli._restricted_hamiltonian("quadratic", {}, (3, 2), p)
    rng = np.random.default_rng(35)
    b = rng.normal(size=e.dim) + 1j * rng.normal(size=e.dim)
    first = po.hamiltonian_vector_field(h, b, e, p)
    second = po.hamiltonian_vector_field(h, b, e, p)
    compiled = po.hamiltonian_field(h, e, p)(b)
    assert builds == [(e.dim,) * 3]
    _close(second, first, tol=1e-15)
    _close(compiled, first)
    _close(first, -la.ad_star(p, po.functional_derivative(h, b, p), b))


def _scatter_reduce_field(q, lin, dtype, b):
    """The general form of a compiled affine field: every row's products
    summed by reduceat and scattered into zeros, then the linear part added."""
    (qm, qp, ql), qv = q.idx, q.values
    rows, starts = np.unique(qm, return_index=True)
    out = np.zeros(q.shape[0], dtype=dtype)
    if qv.size:
        out[rows] = np.add.reduceat(qv * b[qp] * b[ql], starts)
    return out if lin is None else out + lin @ b


@pytest.mark.parametrize("rows", ["all", "some", "none"])
@pytest.mark.parametrize("per_row", ["one", "several"])
@pytest.mark.parametrize("linear", [False, True])
def test_affine_field_fast_paths_equal_the_scatter_reduce_form(rows, per_row, linear):
    """Every row with a product (no scatter), one product per row (no sum)
    and no quadratic part (zeros plus the linear part) give the general
    form's result to the bit, signs of zero included."""
    rng = np.random.default_rng(7)
    d = 6
    kept = {"all": np.arange(d), "some": np.array([0, 2, 5]), "none": np.arange(0)}[rows]
    m = np.repeat(kept, 1 if per_row == "one" else 3)
    p = rng.integers(0, d, size=m.size)
    l = rng.integers(0, d, size=m.size)
    if per_row == "one":
        p, l = np.zeros_like(m), m  # one distinct (p, l) in each row
    q = Coo.of((d, d, d), (m, np.minimum(p, l), np.maximum(p, l)),
               rng.choice([-1.5, 0.25, 2.0], size=m.size))
    assert (np.unique(q.idx[0]).size == d) == (rows == "all")
    assert (q.values.size == np.unique(q.idx[0]).size) == (per_row == "one" or rows == "none")
    lin = None
    if linear:
        lin = rng.choice([-0.0, 0.0, 1.0, -2.0], size=(d, d))
        lin[0] = -0.0  # row 0 of lin @ b sums signed zeros only
    field = po.AffineField(q, lin, float)
    for b in (rng.normal(size=d), np.where(rng.random(d) < 0.5, -0.0, 0.0),
              np.array([-0.0, 1.0, -0.0, -2.0, 0.5, -0.0])):
        got, want = field(b), _scatter_reduce_field(q, lin, float, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
