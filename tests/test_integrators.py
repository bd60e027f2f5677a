import json
from pathlib import Path

import numpy as np
import pytest

from liepoisson import algebra as la
from liepoisson import cli
from liepoisson import functions as fn
from liepoisson import integrators as it
from liepoisson import poisson as po
from liepoisson.errors import IntegratorFailureError, NumericBlowupError


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
