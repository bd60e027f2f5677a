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

RK4 runs on Python floats, not numpy arrays, for a compiled
:class:`~liepoisson.poisson.AffineField` that is real, has no linear part,
has at most one product ``v * y[p] * y[l]`` per output row and has
dimension at most ``tolerances.RK4_FLOAT_MAX_DIM``: the rigid body and the
Heisenberg extension.  At such sizes a numpy step is mostly the fixed cost
of its ~35 calls.  The float step is bit-identical to the numpy one: every
operation is an IEEE-754 double multiply or add, which CPython and numpy's
elementwise ufuncs round alike, made in the numpy step's order, and a row
without a product is +0.0 as numpy's zeros are.  Every other field stays
on numpy: a linear part goes through BLAS ``gemv``, which may fuse a
multiply and an add, so a Python sum would not give its bits; a row of
several products is summed by ``np.add.reduceat`` in its own order; a
complex or per-call gradient field lists no products; above the bound
the float loop is no faster.  A wrapped field, even one made with
``functools.wraps``, is not an ``AffineField`` either, so a counting
wrapper sees 4 field calls per step.  Midpoint always runs on numpy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import IntegratorFailureError, NumericBlowupError
from .poisson import AffineField
from .tolerances import JACOBIAN_FD_STEP, NEWTON_CONTRACTION, RK4_FLOAT_MAX_DIM

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


def _rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_floats(field_fn, dim: int, dt: float):
    """:func:`_rk4_step` on a list of Python floats, for a compiled field
    whose :attr:`~liepoisson.poisson.AffineField.products` are listed and
    whose dimension is ``dim``, at most ``RK4_FLOAT_MAX_DIM``; None for any
    other field, a wrapped one included.  Every operation is the numpy
    step's, in its order, so the step is the same to the bit."""
    if not (type(field_fn) is AffineField and field_fn.products is not None
            and field_fn.dim == dim <= RK4_FLOAT_MAX_DIM):
        return None
    m, v, p, l = field_fn.products
    half, sixth = 0.5 * dt, dt / 6.0
    if len(m) == dim:
        terms = list(zip(v, p, l))

        def f(b):
            return [c * b[i] * b[j] for c, i, j in terms]
    else:  # a row without a product is +0.0, as numpy's zeros
        terms = list(zip(m, v, p, l))
        zeros = [0.0] * dim

        def f(b):
            out = zeros[:]
            for r, c, i, j in terms:
                out[r] = c * b[i] * b[j]
            return out

    def step(y):
        k1 = f(y)
        k2 = f([a + half * k for a, k in zip(y, k1)])
        k3 = f([a + half * k for a, k in zip(y, k2)])
        k4 = f([a + dt * k for a, k in zip(y, k3)])
        return [a + sixth * (((x1 + 2.0 * x2) + 2.0 * x3) + x4)
                for a, x1, x2, x3, x4 in zip(y, k1, k2, k3, k4)]

    return step


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
    observables = dict(observables or {})
    y = np.asarray(state0, dtype=float).copy()
    n_steps = cfg.steps
    times = np.linspace(0.0, cfg.dt * n_steps, n_steps + 1)
    states = np.empty((n_steps + 1, y.size))
    tracked = {name: np.empty(n_steps + 1) for name in observables}

    def record(i, y):
        states[i] = y
        for name, fn in observables.items():
            tracked[name][i] = float(fn(states[i]))

    record(0, y)
    float_step = _rk4_floats(field_fn, y.size, cfg.dt) if cfg.method == "rk4" else None
    if float_step is not None:
        y = y.tolist()
        for i in range(1, n_steps + 1):
            y = float_step(y)
            if not all(map(math.isfinite, y)):
                raise NumericBlowupError("state left the range of finite floats", i)
            record(i, y)
        return Trajectory(times, states, tracked)
    midpoint = _MidpointSolver(field_fn, y.size, cfg) if cfg.method == "midpoint" else None
    # the finiteness check below reports a blow-up; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            if cfg.method == "rk4":
                y = _rk4_step(field_fn, y, cfg.dt)
            else:
                y = midpoint.step(y, i)
            if not np.logical_and.reduce(np.isfinite(y)):  # ndarray.all goes through Python
                raise NumericBlowupError("state left the range of finite floats", i)
            record(i, y)
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
