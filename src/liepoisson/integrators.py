"""Fixed-step time integration with conservation diagnostics.

Fields act on flat real state vectors; a system with complex predual
coordinates is integrated in their real and imaginary parts.  Two methods
are provided: classic RK4 as the baseline and the implicit midpoint rule,
whose stage equation

    z = y + (dt/2) f(z),        y_next = 2 z - y

is solved by simplified Newton (Hairer & Wanner, *Solving ODEs II*,
§IV.8): one iteration matrix ``M = inv(I - dt/2 J)`` serves every step of
an ``integrate_flow`` call, so an iteration costs one field evaluation and
one mat-vec, ``z <- z - M r``.  ``J`` is a finite-difference Jacobian,
rebuilt at the current iterate only when an iteration fails to shrink the
residual norm by ``tolerances.NEWTON_CONTRACTION``.  The iteration stops
when ``|r| < newton_tol * max(1, |z|)``, and the step is taken from the
corrected iterate ``z - M r``.  Each stage starts from the last one's
increment, ``z0 = y + (z_prev - y_prev)``, which costs no field
evaluation; the first stage starts from an explicit Euler step.  A stage
that simplified Newton cannot solve within ``newton_max_iter`` iterations
is solved again by full Newton, from an explicit Euler step and with a
fresh Jacobian at every iteration.

Midpoint conserves quadratic invariants of the flow (energy of quadratic
Hamiltonians, quadratic Casimirs) up to the Newton tolerance per step.

RK4 writes its states into the trajectory in blocks of
``tolerances.RK4_BLOCK_STEPS`` steps and checks each block for finiteness
once; a blow-up is reported at its first non-finite step, and observables
are evaluated on the rows before it.  A field that is not a compiled
:class:`~liepoisson.poisson.AffineField`, wrapped fields included, is
checked after every step instead, since it may raise on a non-finite
state or count its calls; a counting wrapper sees 4 calls per step.

RK4 runs on Python floats, not numpy arrays, for a compiled field that is
real, has no linear part, has at most one product ``v * y[p] * y[l]`` per
output row and has dimension at most ``tolerances.RK4_FLOAT_MAX_DIM``:
the rigid body and the Heisenberg extension.  Its step is straight-line
code generated for the field's products at the start of a run, every
coordinate a local variable and every coefficient a default argument
(never written into the text).  It is bit-identical to the numpy step:
every operation is an IEEE-754 double multiply or add, which CPython and
numpy's elementwise ufuncs round alike, made in the numpy step's order,
and a row without a product is +0.0 as numpy's zeros are.  A step of the
``rk4-flows`` rigid body takes 1.0-1.1 us, against 4.5-4.7 us for the
list-based float step before it and 13 us for the allocating numpy step.
Every other field runs on numpy, in place: the stage arguments and
``y + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` are formed in preallocated buffers
and the sum is written straight into the next row of the trajectory.  A
real field with only a linear part is evaluated as ``np.matmul(lin, t,
out=k)``, the BLAS ``gemv`` of the field's own call; it stays off the
float path because BLAS may fuse a multiply and an add.  Any other field
is called once per stage, and the array it returns is never written
into.  A row of several products is summed by ``np.add.reduceat`` in its
own order; a complex or per-call gradient field lists no products; above
the bound the float step is no faster.  Midpoint always runs on numpy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import IntegratorFailureError, NumericBlowupError
from .poisson import AffineField
from .tolerances import (JACOBIAN_FD_STEP, NEWTON_CONTRACTION, RK4_BLOCK_STEPS,
                         RK4_FLOAT_MAX_DIM)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "SeriesDrift",
    "integrate_flow",
    "conservation_report",
]

_METHODS = ("rk4", "midpoint")


@dataclass(frozen=True)
class IntegratorConfig:
    """A fixed-step run.  ``newton_tol`` is relative: a midpoint stage is
    solved once its residual norm is below ``newton_tol * max(1, |z|)``,
    within ``newton_max_iter`` iterations."""

    method: str = "midpoint"
    dt: float = 1e-2
    steps: int = 100
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")


@dataclass
class Trajectory:
    """Times, states (one row per time) and named tracked scalar series,
    all of equal length."""

    times: np.ndarray
    states: np.ndarray
    tracked: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.times)
        assert self.states.shape[0] == n
        for name, series in self.tracked.items():
            assert len(series) == n, f"series {name!r} has wrong length"


def _rk4_float_source(products, dim: int) -> str:
    """The text of one RK4 step on Python floats for a field whose row
    ``m`` is ``w * y[p] * y[l]`` for each ``(m, w, p, l)`` of ``products``
    and +0.0 in every other row.  Coordinates ``y<r>`` come in and the next
    state goes out as a tuple; the stages are ``a``, ``b``, ``c`` and ``e``,
    their arguments ``s``.  The coefficients ``w<k>`` and the step sizes
    ``half``, ``full`` and ``sixth`` are defaults bound from a namespace,
    never written into the text, so -0.0, inf and nan keep their bits."""
    m, _, p, l = products
    product = {r: (k, i, j) for k, (r, i, j) in enumerate(zip(m, p, l))}
    rows = range(dim)

    def row(r, arg):
        if r not in product:
            return "0.0"
        k, i, j = product[r]
        return f"w{k} * {arg}{i} * {arg}{j}"

    lines = [f"a{r} = {row(r, 'y')}" for r in rows]
    for prev, scale, out in (("a", "half", "b"), ("b", "half", "c"), ("c", "full", "e")):
        lines += [f"s{r} = y{r} + {scale} * {prev}{r}" for r in rows]
        lines += [f"{out}{r} = {row(r, 's')}" for r in rows]
    lines.append("return (" + ", ".join(
        f"y{r} + sixth * (((a{r} + 2.0 * b{r}) + 2.0 * c{r}) + e{r})" for r in rows) + ",)")
    params = [f"y{r}" for r in rows] + [f"{name}={name}" for name in (
        "half", "full", "sixth", *(f"w{k}" for k in range(len(m))))]
    return f"def step({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines)


def _rk4_floats(field_fn, dim: int, dt: float):
    """The RK4 block writer on Python floats, for a compiled field whose
    :attr:`~liepoisson.poisson.AffineField.products` are listed and whose
    dimension is ``dim``, at most ``RK4_FLOAT_MAX_DIM``; None for any other
    field, a wrapped one included.  The step is generated straight-line
    code that makes every multiply and add of :func:`_rk4_arrays`, in its
    order, so it is the same to the bit."""
    if not (type(field_fn) is AffineField and field_fn.products is not None
            and field_fn.dim == dim <= RK4_FLOAT_MAX_DIM):
        return None
    scope = {"half": 0.5 * dt, "full": dt, "sixth": dt / 6.0,
             **{f"w{k}": w for k, w in enumerate(field_fn.products[1])}}
    exec(_rk4_float_source(field_fn.products, dim), scope)
    step = scope["step"]

    def run(states, start, stop):
        y = states[start - 1].tolist()
        rows = []
        for _ in range(start, stop):
            y = step(*y)
            rows.append(y)
        states[start:stop] = rows

    return run


def _rk4_arrays(field_fn, dim: int, dt: float):
    """The RK4 block writer on numpy arrays: the stage arguments and the
    combination are formed in preallocated buffers and the next state is
    written into its row of ``states``.  A real :class:`AffineField` with
    only a linear part is evaluated as ``np.matmul(lin, t, out=k)``; any
    other field is called once per stage, and the array it returns is read,
    never written."""
    half, sixth = 0.5 * dt, dt / 6.0
    t2, t3, t4, k1, k2, k3, k4, acc, tmp = np.empty((9, dim))
    add, multiply = np.add, np.multiply
    if (type(field_fn) is AffineField and field_fn.dim == dim and field_fn.lin is not None
            and not field_fn.qv.size and field_fn.lin.dtype == np.float64):
        lin, matmul = field_fn.lin, np.matmul

        def stage(t, k):
            return matmul(lin, t, k)
    else:
        def stage(t, k):
            return field_fn(t)

    def run(states, start, stop):
        for i in range(start, stop):
            y = states[i - 1]
            a = stage(y, k1)
            b = stage(add(y, multiply(a, half, t2), t2), k2)
            c = stage(add(y, multiply(b, half, t3), t3), k3)
            e = stage(add(y, multiply(c, dt, t4), t4), k4)
            add(a, multiply(b, 2.0, acc), acc)
            add(acc, multiply(c, 2.0, tmp), acc)
            add(acc, e, acc)
            add(y, multiply(acc, sixth, acc), states[i])

    return run


def _fd_jacobian(f, z, f0, h):
    n = z.size
    jac = np.empty((n, n))
    for k in range(n):
        dz = np.zeros(n)
        dz[k] = h
        jac[:, k] = (f(z + dz) - f0) / h
    return jac


class _MidpointSolver:
    """Simplified Newton for the midpoint stages of one run; keeps the
    iteration matrix ``m = inv(I - dt/2 J)`` from step to step."""

    def __init__(self, f, dim: int, cfg: IntegratorConfig):
        self.f = f
        self.half_dt = 0.5 * cfg.dt
        self.tol = cfg.newton_tol
        self.max_iter = cfg.newton_max_iter
        self.eye = np.eye(dim)
        self.m = None
        self.increment = None  # z - y of the last solved stage

    def _refresh(self, z, fz, step_index):
        jac = _fd_jacobian(self.f, z, fz, JACOBIAN_FD_STEP * max(1.0, np.linalg.norm(z)))
        try:
            self.m = np.linalg.inv(self.eye - self.half_dt * jac)
        except np.linalg.LinAlgError as exc:
            raise IntegratorFailureError(f"singular Newton system: {exc}", step_index)

    def step(self, y, step_index):
        """One step from ``y``.  A stage that simplified Newton cannot
        solve is solved again by full Newton, which rebuilds the Jacobian
        at every iteration, so every stage full Newton solves is solved."""
        try:
            z = self._solve(y, step_index, fresh=False)
        except IntegratorFailureError:
            z = self._solve(y, step_index, fresh=True)
        self.increment = z - y
        return 2.0 * z - y

    def _solve(self, y, step_index, fresh: bool):
        """The stage ``z``.  It starts from the last stage's increment, or
        from an explicit Euler step on the first stage and in full Newton."""
        if fresh or self.increment is None:
            z = y + self.half_dt * self.f(y)
        else:
            z = y + self.increment
        prev = math.inf
        for _ in range(self.max_iter):
            fz = self.f(z)
            residual = z - y - self.half_dt * fz
            norm = math.sqrt(residual @ residual)
            # tol * max(1, |z|), with |z| formed only when norm >= tol
            done = norm < self.tol or norm < self.tol * math.sqrt(z @ z)
            contracted = not fresh and norm <= NEWTON_CONTRACTION * prev
            if self.m is None or not (done or contracted):
                self._refresh(z, fz, step_index)
            z = z - self.m @ residual
            if done:
                return z
            prev = norm
        raise IntegratorFailureError(
            f"Newton iteration did not reach tol {self.tol:g} in {self.max_iter} iterations",
            step_index,
        )


def integrate_flow(
    field_fn: Callable[[np.ndarray], np.ndarray],
    state0,
    cfg: IntegratorConfig,
    observables: Mapping[str, Callable[[np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate ``state' = field_fn(state)`` for cfg.steps fixed steps,
    recording each observable at every stored time (including t = 0)."""
    observables = list((observables or {}).items())
    y0 = np.asarray(state0, dtype=float)
    n_steps = cfg.steps
    times = np.linspace(0.0, cfg.dt * n_steps, n_steps + 1)
    states = np.empty((n_steps + 1, y0.size))
    states[0] = y0
    tracked = {name: np.empty(n_steps + 1) for name, _ in observables}

    def record(start, stop):
        for i in range(start, stop):
            for name, fn in observables:
                tracked[name][i] = float(fn(states[i]))

    record(0, 1)
    # the finiteness checks below report a blow-up; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.method == "midpoint":
            midpoint = _MidpointSolver(field_fn, y0.size, cfg)
            y = y0
            for i in range(1, n_steps + 1):
                y = midpoint.step(y, i)
                if not np.logical_and.reduce(np.isfinite(y)):  # ndarray.all goes through Python
                    raise NumericBlowupError("state left the range of finite floats", i)
                states[i] = y
                record(i, i + 1)
            return Trajectory(times, states, tracked)
        run = _rk4_floats(field_fn, y0.size, cfg.dt) or _rk4_arrays(field_fn, y0.size, cfg.dt)
        # another field may raise on a non-finite state, or count its calls
        block = RK4_BLOCK_STEPS if type(field_fn) is AffineField else 1
        for start in range(1, n_steps + 1, block):
            stop = min(start + block, n_steps + 1)
            run(states, start, stop)
            finite = np.isfinite(states[start:stop])
            if np.logical_and.reduce(finite, axis=None):
                record(start, stop)
                continue
            bad = start + int(np.argmin(np.logical_and.reduce(finite, axis=1)))
            record(start, bad)
            raise NumericBlowupError("state left the range of finite floats", bad)
    return Trajectory(times, states, tracked)


@dataclass(frozen=True)
class SeriesDrift:
    """Conservation diagnostics of one tracked series."""

    max_drift: float
    relative_drift: float
    slope: float

    def as_dict(self) -> dict:
        return asdict(self)


def conservation_report(traj: Trajectory) -> dict[str, SeriesDrift]:
    """Per series: max |s(t) - s(0)|, the same normalized by
    max(1, |s(0)|), and the least-squares slope in time."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    out = {}
    for name, series in traj.tracked.items():
        drift = float(np.max(np.abs(series - series[0])))
        rel = drift / max(1.0, abs(float(series[0])))
        slope = float(np.polyfit(traj.times, series, 1)[0]) if len(series) > 1 else 0.0
        out[name] = SeriesDrift(drift, rel, slope)
    return out
