import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path
from unittest import mock

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
from liepoisson.tolerances import RK4_BLOCK_STEPS, RK4_FLOAT_MAX_DIM


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
    _, state0, field, _ = cli._sim_system(root, 0)
    field = counted(field)
    cfg = cli._integrator_config(root)
    it.integrate_flow(field, state0, cfg)
    assert field.calls / cfg.steps <= bound


# --- RK4 against the allocating reference loop -----------------------------


def reference_rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_flow(field, state0, cfg, observables=None):
    """The plain loop that integrate_flow must reproduce to the bit: one
    allocating numpy RK4 (or midpoint) step at a time, each state checked
    for finiteness and then recorded with every observable.  Returns the
    trajectory, or the step of the NumericBlowupError."""
    observables = dict(observables or {})
    y = np.asarray(state0, dtype=float).copy()
    n = cfg.steps
    states = np.empty((n + 1, y.size))
    tracked = {name: np.empty(n + 1) for name in observables}
    midpoint = it._MidpointSolver(field, y.size, cfg) if cfg.method == "midpoint" else None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n + 1):
            if i:
                y = midpoint.step(y, i) if midpoint else reference_rk4_step(field, y, cfg.dt)
                if not np.all(np.isfinite(y)):
                    return i
            states[i] = y
            for name, fn in observables.items():
                tracked[name][i] = float(fn(states[i]))
    return it.Trajectory(np.linspace(0.0, cfg.dt * n, n + 1), states, tracked)


def oracle_field(field):
    """A compiled field as plain numpy, in the forms the reference loop was
    written against: the products scattered into zeros, and +0.0 added to a
    linear-only field's ``lin @ b``.  Any other field is its own oracle."""
    if type(field) is not po.AffineField:
        return field

    def f(y):
        if not field.qv.size and field.lin is not None:
            return np.zeros(field.dim) + field.lin @ y
        return field(y)

    return f


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


def numpy_outcome(field, y0, cfg, observables=None):
    """``outcome`` with the float path off: a compiled field takes the
    in-place numpy loop, blocks of steps included."""
    with mock.patch.object(it, "_rk4_floats", lambda *args: None):
        return outcome(field, y0, cfg, observables)


def assert_same_outcome(got, want):
    if isinstance(want, int) or isinstance(got, int):
        assert got == want
        return
    assert got.tracked.keys() == want.tracked.keys()
    for a, b in [(got.times, want.times), (got.states, want.states),
                 *((got.tracked[k], want.tracked[k]) for k in want.tracked)]:
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_paths_match_reference(field, y0, cfg, observables=None):
    """The float path (when the field has one), the in-place numpy loop and
    the one-step-per-check loop of a wrapped field all give the reference
    loop's outcome; returns it."""
    want = reference_flow(oracle_field(field), y0, cfg, observables)
    assert_same_outcome(outcome(field, y0, cfg, observables), want)
    assert_same_outcome(numpy_outcome(field, y0, cfg, observables), want)
    assert_same_outcome(outcome(lambda y: field(y), y0, cfg, observables), want)
    return want


_FLOATS = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e150, -1e-300]) | st.floats(-3.0, 3.0)
_COEFFS = _FLOATS | st.sampled_from([math.inf, -math.inf, math.nan])
_OBSERVABLES = {"sum_sq": lambda y: np.sum(y * y), "last": lambda y: y[-1]}


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_float_rk4_equals_the_numpy_step(data):
    """Random real fields with at most one product per row, rows missing,
    signed zeros and huge values in the coefficients and the initial state,
    infinities and NaNs in the coefficients: the float path and the
    in-place numpy loop give the reference loop's trajectory to the bit,
    signs of zero included, with and without observables, or a blow-up at
    the same step."""
    d = data.draw(st.integers(1, RK4_FLOAT_MAX_DIM))
    rows = sorted(data.draw(st.sets(st.integers(0, d - 1))))
    index = st.integers(0, d - 1)
    p = [data.draw(index) for _ in rows]
    l = [data.draw(index) for _ in rows]
    v = [data.draw(_COEFFS) for _ in rows]
    field = product_field(d, rows, v, p, l)
    y0 = np.array([data.draw(_FLOATS) for _ in range(d)])
    cfg = it.IntegratorConfig("rk4", dt=data.draw(st.sampled_from([1e-3, 0.05, 0.7])),
                              steps=data.draw(st.integers(1, 600)))
    assert it._rk4_floats(field, d, cfg.dt) is not None
    for obs in (None, _OBSERVABLES):
        assert_paths_match_reference(field, y0, cfg, obs)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_linear_and_summed_fields_equal_the_reference(data):
    """Fields the float path refuses: a linear part alone (np.matmul into a
    stage buffer), a linear part with products, and rows of several
    products, with signed zeros in ``lin``: the in-place numpy loop gives
    the reference loop's trajectory, whose linear-only field adds +0.0."""
    d = data.draw(st.integers(1, 20))
    index = st.integers(0, d - 1)
    rows = sorted(data.draw(st.lists(index, max_size=2 * d)))
    p = [data.draw(index) for _ in rows]
    l = [data.draw(index) for _ in rows]
    v = [data.draw(_FLOATS) for _ in rows]
    entries = st.sampled_from([-0.0, 0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0)
    lin = np.array([[data.draw(entries) for _ in range(d)] for _ in range(d)])
    field = product_field(d, rows, v, p, l, lin)
    y0 = np.array([data.draw(_FLOATS | st.just(-0.0)) for _ in range(d)])
    cfg = it.IntegratorConfig("rk4", dt=data.draw(st.sampled_from([1e-3, 0.05])),
                              steps=data.draw(st.integers(1, 300)))
    assert it._rk4_floats(field, d, cfg.dt) is None
    assert_paths_match_reference(field, y0, cfg, _OBSERVABLES)


def test_linear_only_matmul_reads_plus_zero():
    """A linear-only field's -0.0 products (lin = -I at b = 0) sum to +0.0
    in np.matmul, with and without ``out=``, as 0.0 + lin @ b does; so the
    compiled field and the numpy loop need no ``zero +``."""
    for d in (1, 2, 3, 12, 16, 33):
        lin = -np.eye(d)
        field = po.AffineField(Coo((d, d, d), (np.zeros(0, np.intp),) * 3, np.zeros(0)), lin, float)
        for b in (np.zeros(d), np.full(d, -0.0)):
            out = np.full(d, -1.0)
            for got in (lin @ b, np.matmul(lin, b, out=out), field(b)):
                assert np.array_equal(np.signbit(got), np.zeros(d, bool))
            assert np.array_equal(np.signbit(np.full((d, d), -0.0) @ np.ones(d)), np.zeros(d, bool))
        cfg = it.IntegratorConfig("rk4", 0.01, 5)
        traj = assert_paths_match_reference(field, np.full(d, -0.0), cfg)
        assert not np.signbit(traj.states[1:]).any()


def test_generic_fields_equal_the_reference():
    """Plain callables: each RK4 stage calls them, and every step is checked
    before the next, so a field is never called past a blow-up (it may
    raise there, or count); a field that returns its argument is never
    written into."""
    cfg = it.IntegratorConfig("rk4", 0.05, 40)
    for field, y0 in [(swinging_field, [1.0, 0.0, 0.0]), (lambda y: y, [1.0, -0.0, 2.0]),
                      (lambda y: -y[::-1], [0.5, -0.0, 1.5])]:
        want = reference_flow(field, np.array(y0), cfg, _OBSERVABLES)
        assert_same_outcome(outcome(field, np.array(y0), cfg, _OBSERVABLES), want)
    square = counted(lambda y: y * y)
    cfg = it.IntegratorConfig("rk4", dt=1.0, steps=50)
    want = reference_flow(lambda y: y * y, np.array([2.0]), cfg)
    assert outcome(square, np.array([2.0]), cfg) == want
    assert square.calls == 4 * want


def test_float_rk4_blowup_reports_the_numpy_step():
    """y' = y^2 overflows; every path stops at the reference's step, in the
    first block and in a later one, and observables see only the states
    before it."""
    field = product_field(1, [0], [1.0], [0], [0])
    assert it._rk4_floats(field, 1, 1.0) is not None
    for y0, dt, steps in [(2.0, 1.0, 50), (1e-3, 1.0, 2000)]:
        cfg = it.IntegratorConfig("rk4", dt=dt, steps=steps)
        seen = []
        observe = {"y": lambda y: seen.append(y[0]) or 0.0}
        want = assert_paths_match_reference(field, np.array([y0]), cfg, observe)
        assert isinstance(want, int) and 1 <= want <= steps
        assert len(seen) == 4 * want  # the reference and three paths, rows 0 .. want - 1
        assert (want > RK4_BLOCK_STEPS) == (y0 < 1.0)


def _simulate_systems():
    """(label, field, state0, cfg) of every shipped config and every
    simulate operation of the benchmark workloads at seeds 0 and 7."""
    sys.path.insert(0, str(CONFIGS.parent / "perfbench"))
    sys.dont_write_bytecode, keep = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = keep
        sys.path.remove(str(CONFIGS.parent / "perfbench"))
    docs = [(f"configs/{path.name}", json.loads(path.read_text()), seed)
            for path in sorted(CONFIGS.glob("*.json")) for seed in (0, 7)]
    docs += [(f"{name}/{op.label}", op.doc, seed) for seed in (0, 7)
             for name, make in workloads.WORKLOADS.items()
             for op in make(seed).ops if op.command == "simulate"]
    for label, doc, seed in docs:
        root = cli._Node(doc)
        _, entry, _ = cli._lookup(root)
        if entry.simulate is not None:
            _, state0, field, _ = cli._sim_system(root, seed)
            cfg = cli._integrator_config(root)
            yield f"{label} --seed {seed}", field, state0, cfg


def test_shipped_and_workload_flows_equal_the_reference():
    """Every shipped config (under its own method and under RK4) and every
    benchmark simulate operation: integrate_flow gives the reference loop's
    trajectory to the bit; under RK4, so does every path."""
    labels = []
    for label, field, y0, cfg in _simulate_systems():
        labels.append(label)
        want = reference_flow(oracle_field(field), y0, cfg)
        assert_same_outcome(outcome(field, y0, cfg), want)
        if cfg.method == "rk4":
            assert_paths_match_reference(field, y0, cfg)
        elif label.startswith("configs/"):
            rk4 = it.IntegratorConfig("rk4", cfg.dt, cfg.steps)
            assert_paths_match_reference(field, y0, rk4)
    assert len(labels) == 2 * 4 + 2 * (10 + 4 + 4)


@pytest.mark.parametrize("system", ["rigid_body", "heisenberg"])
def test_workload_fields_take_the_float_path(system, monkeypatch):
    """The compiled rigid-body and Heisenberg fields qualify: the float
    path calls no AffineField, and gives the reference trajectory."""
    alg = la.so3() if system == "rigid_body" else la.heisenberg()
    pairing = la.identity_pairing(alg)
    h = fn.rigid_body_energy([1.0, 2.0, 3.5]) if system == "rigid_body" else fn.quadratic(pairing)
    field = po.hamiltonian_field(h, alg, pairing)
    assert type(field) is po.AffineField and field.products is not None
    y0, cfg = np.array([0.3, -0.0, 0.9]), it.IntegratorConfig("rk4", dt=0.01, steps=600)
    want = reference_flow(field, y0, cfg, {"H": h.eval})
    calls = counted(po.AffineField.__call__)
    monkeypatch.setattr(po.AffineField, "__call__", calls)
    assert_same_outcome(it.integrate_flow(field, y0, cfg, {"H": h.eval}), want)
    assert calls.calls == 0


def test_float_path_holds_one_block_of_rows(monkeypatch):
    """A long rigid-body run: Python floats are copied into the trajectory
    one block at a time, so once the step is built (compiling it is a
    transient of its own) the traced peak is the trajectory's arrays plus
    one block of rows, not a row object per step."""
    field = po.hamiltonian_field(fn.rigid_body_energy([1.0, 2.0, 3.5]), la.so3(),
                                 la.identity_pairing(la.so3()))
    y0 = np.array([0.3, -0.4, 0.9])
    it.integrate_flow(field, y0, it.IntegratorConfig("rk4", 1e-3, 1000))  # first-use caches
    build = it._rk4_floats

    def built(*args):
        run = build(*args)
        tracemalloc.reset_peak()
        return run

    monkeypatch.setattr(it, "_rk4_floats", built)
    row = sys.getsizeof((0.0,) * 3) + 3 * sys.getsizeof(0.0) + 8  # tuple, floats, list slot
    tracemalloc.start()
    try:
        traj = it.integrate_flow(field, y0, it.IntegratorConfig("rk4", 1e-3, 20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= traj.states.nbytes + traj.times.nbytes + RK4_BLOCK_STEPS * row + 2**13


_STEP_TOKENS = re.compile(r"(?:[yabces]\d+|w\d+|half|full|sixth|step|def|return)\Z")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_generated_step_source_holds_only_its_names(data):
    """The generated step's text: the names y<r>, a/b/c/e/s<r> and w<k>, the
    step sizes, the literals 0.0 and 2.0 and fixed operators; no value of
    a coefficient or of dt is written into it."""
    d = data.draw(st.integers(1, RK4_FLOAT_MAX_DIM))
    rows = sorted(data.draw(st.sets(st.integers(0, d - 1))))
    index = st.integers(0, d - 1)
    products = (rows, [data.draw(_COEFFS) for _ in rows],
                [data.draw(index) for _ in rows], [data.draw(index) for _ in rows])
    text = it._rk4_float_source(products, d)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            assert _STEP_TOKENS.match(tok.string), tok.string
        elif tok.type == tokenize.NUMBER:
            assert tok.string in ("0.0", "2.0"), tok.string
        elif tok.type == tokenize.OP:
            assert tok.string in "()=*+,:", tok.string
        else:
            assert tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                tokenize.ENDMARKER), tok
    assert text.count("\n    ") == 7 * d + 1  # 4 stages and 3 arguments of d lines, and the return


def test_step_is_generated_in_integrate_flow_and_imports_nothing():
    """No step is built at import, and building and running one loads no
    module: sys.modules after ``import liepoisson.cli`` is what it was."""
    src = Path(it.__file__).resolve().parents[1]
    code = (
        "import sys, liepoisson.cli\n"
        "from liepoisson import integrators as it, poisson as po\n"
        "before = sorted(sys.modules)\n"
        "built = []\n"
        "source = it._rk4_float_source\n"
        "it._rk4_float_source = lambda *a: built.append(a) or source(*a)\n"
        "import liepoisson.algebra as la, liepoisson.functions as fn\n"
        "f = po.hamiltonian_field(fn.rigid_body_energy([1.0, 2.0, 3.0]), la.so3(),"
        " la.identity_pairing(la.so3()))\n"
        "it.integrate_flow(f, [0.1, 0.2, 0.3], it.IntegratorConfig('rk4', 0.01, 300))\n"
        "assert len(built) == 1, built\n"
        "print(sorted(set(sys.modules) - set(before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


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
