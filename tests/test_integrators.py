import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson import algebra as la
from liepoisson import cli
from liepoisson import functions as fn
from liepoisson import integrators as it
from liepoisson import poisson as po
from liepoisson.errors import IntegratorFailureError, NumericBlowupError
from liepoisson.linalg import Coo
from liepoisson.tolerances import RK4_FLOAT_MAX_DIM


def rigid_body_field(inertia=(1.0, 2.0, 3.0)):
    alg = la.so3()
    pairing = la.identity_pairing(alg)
    h = fn.rigid_body_energy(inertia)
    return (
        lambda b: po.hamiltonian_vector_field(h, b, alg, pairing),
        h,
        fn.norm_squared(pairing),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        it.IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        it.IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        it.IntegratorConfig(steps=0)
    with pytest.raises(ValueError):
        it.IntegratorConfig(newton_tol=0.0)
    with pytest.raises(ValueError):
        it.IntegratorConfig(newton_max_iter=0)


def test_zero_hamiltonian_constant_trajectory():
    field = lambda y: np.zeros_like(y)
    y0 = np.array([1.0, -2.0, 0.5])
    traj = it.integrate_flow(field, y0, it.IntegratorConfig(steps=10))
    assert np.max(np.abs(traj.states - y0)) == 0.0
    assert len(traj.times) == 11


def test_rigid_body_midpoint_conservation():
    field, h, cas = rigid_body_field()
    b0 = np.array([0.2, -0.3, 0.9])
    cfg = it.IntegratorConfig(method="midpoint", dt=1e-2, steps=1000)
    traj = it.integrate_flow(field, b0, cfg, {"H": h.eval, "casimir": cas.eval})
    rep = it.conservation_report(traj)
    assert rep["H"].max_drift < 1e-8
    assert rep["casimir"].max_drift < 1e-6


def test_midpoint_preserves_quadratic_casimir_tightly():
    field, h, cas = rigid_body_field()
    b0 = np.array([1.0, 0.1, -0.4])
    cfg = it.IntegratorConfig(method="midpoint", dt=1e-2, steps=1000)
    traj = it.integrate_flow(field, b0, cfg, {"c": cas.eval})
    assert it.conservation_report(traj)["c"].max_drift < 1e-10


def test_rk4_drifts_more_than_midpoint():
    field, h, _ = rigid_body_field()
    b0 = np.array([1.0, 2.0, 1.5])
    obs = {"H": h.eval}
    mid = it.integrate_flow(
        field, b0, it.IntegratorConfig("midpoint", 0.1, 1000), obs
    )
    rk4 = it.integrate_flow(field, b0, it.IntegratorConfig("rk4", 0.1, 1000), obs)
    drift_mid = it.conservation_report(mid)["H"].max_drift
    drift_rk4 = it.conservation_report(rk4)["H"].max_drift
    assert drift_rk4 > 0.0
    assert drift_rk4 > drift_mid


def test_conservation_report_constant_and_line():
    times = np.linspace(0.0, 1.0, 11)
    traj = it.Trajectory(
        times,
        np.zeros((11, 1)),
        {"const": np.full(11, 3.25), "line": times.copy()},
    )
    rep = it.conservation_report(traj)
    assert rep["const"].max_drift == 0.0
    assert rep["const"].slope == pytest.approx(0.0, abs=1e-14)
    assert rep["line"].slope == pytest.approx(1.0)


def test_empty_trajectory_rejected():
    traj = it.Trajectory(np.array([]), np.zeros((0, 1)), {})
    with pytest.raises(ValueError):
        it.conservation_report(traj)


def test_newton_failure_reports_step():
    # one Newton iteration cannot solve the strongly nonlinear stage
    field = lambda y: np.array([100.0 * np.sin(50.0 * y[0]) + 1.0])
    cfg = it.IntegratorConfig("midpoint", dt=0.5, steps=3, newton_max_iter=1)
    with pytest.raises(IntegratorFailureError) as err:
        it.integrate_flow(field, np.array([0.3]), cfg)
    assert err.value.step >= 1


def test_blowup_reports_step():
    field = lambda y: y * y  # finite-time blowup of y' = y^2
    cfg = it.IntegratorConfig("rk4", dt=1.0, steps=50)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericBlowupError) as err:
            it.integrate_flow(field, np.array([2.0]), cfg)
    assert 1 <= err.value.step <= 50


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def counted(fn):
    """``fn`` with a call counter in ``.calls``."""

    def f(*args):
        f.calls += 1
        return fn(*args)

    f.calls = 0
    return f


def full_newton_step(f, y, dt, tol, max_iter=50):
    """Reference midpoint step: Newton with a fresh forward-difference
    Jacobian at every iteration, stopped on the relative residual test,
    stepping from the corrected iterate."""
    h = 0.5 * dt
    z = y + h * f(y)
    for _ in range(max_iter):
        fz = f(z)
        residual = z - y - h * fz
        eps = 1e-7 * max(1.0, np.linalg.norm(z))
        jac = np.column_stack([(f(z + eps * e) - fz) / eps for e in np.eye(y.size)])
        corrected = z - np.linalg.solve(np.eye(y.size) - h * jac, residual)
        if np.linalg.norm(residual) < tol * max(1.0, np.linalg.norm(z)):
            return 2.0 * corrected - y
        z = corrected
    raise AssertionError("reference Newton did not converge")


def swinging_field(y):
    """A rotation of (y0, y1) whose rate 40 cos(5 y2) swings with the clock
    y2 (y2' = 1): over a few steps of dt 0.05 the Jacobian changes by more
    than the kept iteration matrix can absorb."""
    k = 40.0 * np.cos(5.0 * y[2])
    return np.array([-k * y[1], k * y[0], 1.0])


def test_midpoint_on_shipped_rigid_body_at_most_5_evals_per_step():
    doc = json.loads((CONFIGS / "rigidbody.json").read_text())
    body, integ = doc["rigid_body"], doc["integrator"]
    alg = la.so3()
    field = counted(
        po.hamiltonian_field(fn.rigid_body_energy(body["inertia"]), alg, la.identity_pairing(alg))
    )
    cfg = it.IntegratorConfig(integ["method"], integ["dt"], integ["steps"])
    assert cfg.method == "midpoint"
    it.integrate_flow(field, np.array(body["initial"]), cfg)
    assert field.calls / cfg.steps <= 5.0


@pytest.mark.parametrize("max_iter", [3, 4, 50])
def test_sharp_jacobian_refreshes_and_matches_full_newton(monkeypatch, max_iter):
    builds = counted(it._fd_jacobian)
    monkeypatch.setattr(it, "_fd_jacobian", builds)
    cfg = it.IntegratorConfig("midpoint", dt=0.05, steps=200, newton_max_iter=max_iter)
    traj = it.integrate_flow(swinging_field, np.array([1.0, 0.0, 0.0]), cfg)
    assert builds.calls > 1  # the first build, then at least one refresh
    for y, y_next in zip(traj.states[:-1], traj.states[1:]):
        ref = full_newton_step(swinging_field, y, cfg.dt, cfg.newton_tol, max_iter)
        assert np.linalg.norm(y_next - ref) <= cfg.newton_tol * max(1.0, np.linalg.norm(ref))


def test_midpoint_order_two_on_rigid_body():
    field, _, _ = rigid_body_field()
    b0 = np.array([0.2, -0.3, 0.9])
    t_end = 1.0
    ref = it.integrate_flow(field, b0, it.IntegratorConfig("rk4", 1e-3, 1000)).states[-1]
    errors = []
    for n in (10, 20, 40, 80):
        cfg = it.IntegratorConfig("midpoint", t_end / n, n)
        errors.append(np.linalg.norm(it.integrate_flow(field, b0, cfg).states[-1] - ref))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1), orders


@pytest.mark.parametrize("config,bound", [("rigidbody.json", 3.75), ("semidirect_qm.json", 2.2)])
def test_warm_started_midpoint_evals_per_step_on_shipped_configs(config, bound):
    """Each stage starts from the last stage's increment, so a step on the
    shipped configs costs fewer evaluations than an Euler start allows."""
    doc = json.loads((CONFIGS / config).read_text())
    doc["integrator"]["method"] = "midpoint"
    root = cli._Node(doc)
    _, entry, body = cli._lookup(root)
    system = entry.simulate(body, root, 0)
    field = counted(system.field)
    cfg = cli._integrator_config(root)
    it.integrate_flow(field, system.state0, cfg)
    assert field.calls / cfg.steps <= bound


# --- RK4 on Python floats ---------------------------------------------------


def product_field(d, rows, v, p, l, lin=None):
    """An AffineField with the product v[k] * b[p[k]] * b[l[k]] in row
    rows[k] (ascending) and none in the other rows, plus ``lin @ b``; the
    values are kept as given, -0.0 included, which Coo.of would drop."""
    idx = tuple(np.asarray(a, dtype=np.intp) for a in (rows, p, l))
    return po.AffineField(Coo((d, d, d), idx, np.asarray(v, dtype=float)), lin, float)


def outcome(field, y0, cfg, observables=None):
    """The trajectory, or the step of the NumericBlowupError."""
    try:
        return it.integrate_flow(field, y0, cfg, observables)
    except NumericBlowupError as err:
        return err.step


def assert_same_outcome(got, want):
    if isinstance(want, int) or isinstance(got, int):
        assert got == want
        return
    assert got.tracked.keys() == want.tracked.keys()
    for a, b in [(got.times, want.times), (got.states, want.states),
                 *((got.tracked[k], want.tracked[k]) for k in want.tracked)]:
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


_FLOATS = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e150, -1e-300]) | st.floats(-3.0, 3.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_float_rk4_equals_the_numpy_step(data):
    """Random real fields with at most one product per row, rows missing,
    signed zeros and huge values in the coefficients and the initial
    state: the float path gives the numpy path's trajectory to the bit,
    signs of zero included, with and without observables, or a blow-up at
    the same step."""
    d = data.draw(st.integers(1, RK4_FLOAT_MAX_DIM))
    rows = sorted(data.draw(st.sets(st.integers(0, d - 1))))
    index = st.integers(0, d - 1)
    p = [data.draw(index) for _ in rows]
    l = [data.draw(index) for _ in rows]
    v = [data.draw(_FLOATS) for _ in rows]
    field = product_field(d, rows, v, p, l)
    y0 = np.array([data.draw(_FLOATS) for _ in range(d)])
    cfg = it.IntegratorConfig("rk4", dt=data.draw(st.sampled_from([1e-3, 0.05, 0.7])),
                              steps=data.draw(st.integers(1, 30)))
    assert it._rk4_floats(field, d, cfg.dt) is not None
    observables = {"sum_sq": lambda y: np.sum(y * y), "last": lambda y: y[-1]}
    for obs in (None, observables):
        with np.errstate(over="ignore", invalid="ignore"):
            want = outcome(lambda y: field(y), y0, cfg, obs)
        assert_same_outcome(outcome(field, y0, cfg, obs), want)


def test_float_rk4_blowup_reports_the_numpy_step():
    """y' = y^2 from 2 overflows; both paths stop at the same step."""
    field = product_field(1, [0], [1.0], [0], [0])
    cfg = it.IntegratorConfig("rk4", dt=1.0, steps=50)
    assert it._rk4_floats(field, 1, cfg.dt) is not None
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(lambda y: field(y), np.array([2.0]), cfg)
    got = outcome(field, np.array([2.0]), cfg)
    assert isinstance(want, int) and 1 <= want <= 50
    assert got == want


@pytest.mark.parametrize("system", ["rigid_body", "heisenberg"])
def test_workload_fields_take_the_float_path(system, monkeypatch):
    """The compiled rigid-body and Heisenberg fields qualify: the float
    path calls no AffineField, and gives the numpy path's trajectory."""
    alg = la.so3() if system == "rigid_body" else la.heisenberg()
    pairing = la.identity_pairing(alg)
    h = fn.rigid_body_energy([1.0, 2.0, 3.5]) if system == "rigid_body" else fn.quadratic(pairing)
    field = po.hamiltonian_field(h, alg, pairing)
    assert type(field) is po.AffineField and field.products is not None
    y0, cfg = np.array([0.3, -0.0, 0.9]), it.IntegratorConfig("rk4", dt=0.01, steps=200)
    want = it.integrate_flow(lambda y: field(y), y0, cfg, {"H": h.eval})
    calls = counted(po.AffineField.__call__)
    monkeypatch.setattr(po.AffineField, "__call__", calls)
    assert_same_outcome(it.integrate_flow(field, y0, cfg, {"H": h.eval}), want)
    assert calls.calls == 0


def test_wrapped_field_sees_four_calls_per_step():
    """A functools.wraps wrapper (which copies __dict__) does not qualify,
    so a counting wrapper sees RK4's 4 field calls per step."""
    field = product_field(3, [0, 1, 2], [1.0, -2.0, 0.5], [1, 0, 0], [2, 2, 1])

    @functools.wraps(field)
    def wrapped(y):
        wrapped.calls += 1
        return field(y)

    wrapped.calls = 0
    assert it._rk4_floats(wrapped, 3, 0.01) is None
    it.integrate_flow(wrapped, np.array([0.1, 0.2, 0.3]), it.IntegratorConfig("rk4", 0.01, 25))
    assert wrapped.calls == 100


def _numpy_path_fields():
    """(field, dim): fields that integrate_flow keeps on numpy."""
    lin = np.random.default_rng(3).normal(size=(3, 3))
    big = RK4_FLOAT_MAX_DIM + 1
    so3 = la.so3()
    per_call = fn.SmoothFunction(lambda b: 0.5 * b @ b, lambda b: b)
    return [
        pytest.param(product_field(3, [0, 1, 2], [1.0, -2.0, 0.5], [1, 0, 0], [2, 2, 1], lin), 3,
                     id="linear part"),
        pytest.param(product_field(3, [0, 0, 2], [1.0, 2.0, 0.5], [0, 1, 1], [1, 2, 1]), 3,
                     id="two products in a row"),
        pytest.param(product_field(big, range(big), np.ones(big), range(big), range(big)), big,
                     id="above the bound"),
        pytest.param(po.hamiltonian_field(per_call, so3, la.identity_pairing(so3)), 3,
                     id="per-call gradient"),
    ]


@pytest.mark.parametrize("field, dim", _numpy_path_fields())
def test_other_fields_take_the_numpy_path(field, dim):
    """A linear part, a row with two products, a dimension above
    RK4_FLOAT_MAX_DIM and a per-call gradient each keep the numpy step:
    the field is called 4 times per step and the trajectory is the numpy
    path's."""
    assert it._rk4_floats(field, dim, 0.01) is None
    calls = counted(field)
    y0, cfg = np.linspace(-0.5, 0.5, dim), it.IntegratorConfig("rk4", 0.01, 10)
    got = it.integrate_flow(calls, y0, cfg)
    assert calls.calls == 40
    assert_same_outcome(it.integrate_flow(field, y0, cfg), got)


def test_complex_field_has_no_float_form():
    q = Coo((2, 2, 2), (np.array([0, 1]), np.array([0, 1]), np.array([1, 1])),
            np.array([1.0 + 1j, -2.0]))
    field = po.AffineField(q, None, complex)
    assert field.products is None
    assert it._rk4_floats(field, 2, 0.01) is None
