"""Seeded config generators and the three benchmark workloads.

Every config is drawn from ``numpy.random.default_rng(seed)`` and written
to a scratch directory; the program only ever sees those files.  A
workload is a fixed list of CLI operations (one *pass*), plus untimed
probes that keep known defects in view.

Each workload has *focus* operations, which give it its purpose, and
light *companion* operations, so that every end-to-end metric is measured
on every workload and none reads zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RESTRICTED_SWEEP = ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4))


@dataclass(frozen=True)
class Op:
    """One CLI invocation on one generated config."""

    label: str
    command: str  # "verify" | "simulate" | "bracket-table"
    doc: dict
    steps: int = 0  # integration steps, simulate only
    method: str = ""  # integrator method, simulate only


@dataclass(frozen=True)
class Probe:
    """An untimed operation expected to hit a known defect."""

    label: str
    doc: dict
    expect: str  # the error text the defect produces
    note: str


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    probes: tuple[Probe, ...] = field(default=())


# ---------------------------------------------------------------------------
# config generators
# ---------------------------------------------------------------------------


def _cplx(m: np.ndarray):
    """Complex array to the CLI's [re, im] pair encoding."""
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_cplx(row) for row in m]


def _cgauss(rng, shape, scale: float) -> np.ndarray:
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _integrator(method: str, dt: float, steps: int) -> dict:
    return {"method": method, "dt": dt, "steps": steps}


def restricted_doc(rng, dims, method: str = "rk4", dt: float = 0.01, steps: int = 0,
                   norm: float = 4.0) -> dict:
    """Restricted block model with the quadratic Hamiltonian and a seeded
    (kappa0, sigma0) of flat norm ``norm``.  The fixed norm makes the
    midpoint Newton count the same for every seed (two iterations per
    step at norm 4), and keeps the quadratic field's finite-time growth
    far beyond the integrated horizon."""
    n_plus, n_minus = dims
    body = {"n_plus": n_plus, "n_minus": n_minus}
    doc = {"system": "restricted", "restricted": body}
    if steps:
        shapes = {"kappa0": (n_plus, n_plus), "pp": (n_plus, n_plus), "pm": (n_plus, n_minus),
                  "mp": (n_minus, n_plus), "mm": (n_minus, n_minus)}
        parts = {k: _cgauss(rng, shape, 1.0) for k, shape in shapes.items()}
        scale = norm / np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in parts.values()))
        parts = {k: _cplx(scale * m) for k, m in parts.items()}
        body["kappa0"] = parts.pop("kappa0")
        body["sigma0"] = parts
        doc["hamiltonian"] = {"name": "quadratic"}
        doc["integrator"] = _integrator(method, dt, steps)
    return doc


def rigid_body_doc(rng, method: str = "rk4", dt: float = 0.01, steps: int = 100) -> dict:
    inertia = np.sort(rng.uniform(1.0, 4.0, size=3))
    b0 = rng.normal(size=3)
    b0 /= np.linalg.norm(b0)
    return {
        "system": "rigid_body",
        "rigid_body": {"inertia": inertia.tolist(), "initial": b0.tolist()},
        "integrator": _integrator(method, dt, steps),
        "casimirs": [{"name": "casimir_b2", "fn": "norm_squared"}],
    }


def heisenberg_doc(rng, method: str = "rk4", dt: float = 0.01, steps: int = 100,
                   hamiltonian: str = "quadratic") -> dict:
    """abelian1 + abelian2 with omega(e1, e2) = w: the Heisenberg extension,
    with a seeded unit direction a0 and |c0| near 1, so the rotation rate
    (and with it the midpoint Newton count) is about the same for every
    seed.  ``norm_squared`` as Hamiltonian takes the finite-difference
    gradient path."""
    a0 = rng.normal(size=2)
    a0 /= np.linalg.norm(a0)
    c0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.25)
    return {
        "system": "extension",
        "extension": {
            "n": "abelian1",
            "h": "abelian2",
            "omega": [[0, 0, 1, float(rng.uniform(0.8, 1.25))]],
            "initial": {"c": [float(c0)], "a": a0.tolist()},
        },
        "hamiltonian": {"name": hamiltonian},
        "casimirs": [{"name": "c_central", "fn": "linear", "coeffs": [1.0, 0.0, 0.0]}],
        "integrator": _integrator(method, dt, steps),
    }


def _hermitian(rng, n: int) -> np.ndarray:
    m = _cgauss(rng, (n, n), 0.5)
    return 0.5 * (m + m.conj().T)


def semidirect_doc(rng, n: int = 2, method: str = "rk4", dt: float = 0.01, steps: int = 100,
                   unitary: bool = True) -> dict:
    """Semidirect quantum system with h = Re tr(rho H0).

    ``unitary`` takes H0 = i K with K hermitian: v and rho then evolve
    unitarily and stay bounded over long runs.  Otherwise H0 is hermitian,
    as in the shipped config, scaled to eigenvalue spread 0.5, so rho
    grows like exp(0.5 t) whatever the seed."""
    v0 = _cgauss(rng, n, 0.5)
    rho = _hermitian(rng, n) + n * np.eye(n)
    k = _hermitian(rng, n)
    if unitary:
        h0 = 1j * k
    else:
        ev = np.linalg.eigvalsh(k)
        h0 = 0.5 * k / (ev[-1] - ev[0])
    return {
        "system": "semidirect_qm",
        "semidirect_qm": {"n": n, "v0": _cplx(v0), "rho0": _cplx(rho)},
        "hamiltonian": {"name": "linear_rho", "H0": _cplx(h0)},
        "casimirs": [{"name": "trace_rho", "fn": "trace_rho_re"}],
        "integrator": _integrator(method, dt, steps),
    }


def sequence_doc(rng) -> dict:
    """A split short exact sequence R^a -> R^(a+b) -> R^b in seeded
    coordinates, plus a W*-split of a block-diagonal algebra."""
    a, b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    q, _ = np.linalg.qr(rng.normal(size=(a + b, a + b)))
    first = q[:, :a]  # injective
    second = q[:, a:].T  # kernel = span(first)
    dims = sorted(int(d) for d in rng.integers(1, 4, size=3))
    return {
        "system": "sequence",
        "sequence": {
            "first": first.tolist(),
            "second": second.tolist(),
            "wstar": {"block_dims": dims, "ideal_blocks": [0]},
        },
        "checks": ["exactness", "dual_map", "wstar_split"],
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# configs/semidirect_qm.json, reproduced here so the probe does not depend
# on files outside the benchmark.
SHIPPED_SEMIDIRECT = {
    "system": "semidirect_qm",
    "semidirect_qm": {
        "n": 2,
        "v0": [[1.0, 0.0], [0.0, 0.5]],
        "rho0": [[[0.6, 0.0], [0.1, 0.2]], [[0.1, -0.2], [0.4, 0.0]]],
    },
    "hamiltonian": {
        "name": "linear_rho",
        "H0": [[[1.0, 0.0], [0.0, 0.3]], [[0.0, -0.3], [2.0, 0.0]]],
    },
    "casimirs": [{"name": "trace_rho", "fn": "trace_rho_re"}],
}


def _simulate(tag: str, doc: dict) -> Op:
    integ = doc["integrator"]
    return Op(f"simulate:{tag}:{integ['method']}", "simulate", doc, integ["steps"], integ["method"])


def _with_companions(sims: list[Op]) -> list[Op]:
    """The simulate ops, each preceded by a verify of its config, and for
    the extension-type systems a bracket-table too: a user checks a system
    before integrating it.  The companions give the verify and
    bracket-table metrics a steady base on the flow workloads; they are a
    few percent of the pass."""
    ops = []
    for op in sims:
        tag = op.label.split(":")[1]
        ops.append(Op(f"verify:{tag}", "verify", op.doc))
        if op.doc["system"] != "rigid_body":
            ops.append(Op(f"bracket-table:{tag}", "bracket-table", op.doc))
        ops.append(op)
    return ops


def restricted_verify(seed: int) -> Workload:
    """Verify-side layers (restricted, algebra, extension, sequences) on
    dense d^3 and (dn, dh, dh, dh) tensors; almost no integration."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for dims in RESTRICTED_SWEEP:
        doc = restricted_doc(rng, dims)
        tag = f"restricted{dims[0]}x{dims[1]}"
        # companions: short RK4 rigid-body runs on the plain field path, so
        # the simulate metrics exist here too.  Spread over the pass, so
        # their sum samples the whole pass rather than one moment of it.
        for cmd in ("verify", "bracket-table"):
            ops.append(_simulate(f"rigid_body-before-{cmd}-{tag}", rigid_body_doc(rng, "rk4", 0.01, 300)))
            ops.append(Op(f"{cmd}:{tag}", cmd, doc))
    ops.append(Op("verify:heisenberg", "verify", heisenberg_doc(rng)))
    ops.append(Op("verify:semidirect_qm", "verify", semidirect_doc(rng, n=int(rng.integers(2, 4)))))
    ops.append(Op("verify:rigid_body", "verify", rigid_body_doc(rng)))
    ops.append(Op("verify:sequence", "verify", sequence_doc(rng)))
    return Workload(tuple(ops))


def midpoint_flows(seed: int) -> Workload:
    """Implicit midpoint: Newton with a finite-difference Jacobian dominates."""
    rng = np.random.default_rng([seed, 2])
    ops = _with_companions([
        _simulate("restricted3x2", restricted_doc(rng, (3, 2), "midpoint", 0.01, 80)),
        _simulate("rigid_body", rigid_body_doc(rng, "midpoint", 0.01, 2500)),
        _simulate("heisenberg", heisenberg_doc(rng, "midpoint", 0.01, 1000, "norm_squared")),
        _simulate("semidirect_qm", semidirect_doc(rng, 2, "midpoint", 0.01, 500, unitary=False)),
    ])
    probe = Probe(
        "probe:semidirect_qm:midpoint-shipped",
        {**SHIPPED_SEMIDIRECT, "integrator": _integrator("midpoint", 0.01, 1000)},
        expect="Newton iteration did not reach tol",
        note="absolute newton_tol (1e-12) against |y| ~ 1e4 from linear_rho growth; "
             "fails at step 965",
    )
    return Workload(tuple(ops), (probe,))


def rk4_flows(seed: int) -> Workload:
    """RK4 over long trajectories: 4 field evaluations per step, no Newton,
    and CSV formatting a visible share."""
    rng = np.random.default_rng([seed, 3])
    ops = _with_companions([
        _simulate("rigid_body", rigid_body_doc(rng, "rk4", 0.005, 12000)),
        _simulate("heisenberg", heisenberg_doc(rng, "rk4", 0.005, 8000)),
        _simulate("semidirect_qm", semidirect_doc(rng, 2, "rk4", 0.005, 6000, unitary=True)),
        _simulate("restricted3x2", restricted_doc(rng, (3, 2), "rk4", 0.005, 400)),
    ])
    return Workload(tuple(ops))


WORKLOADS = {
    "restricted-verify": restricted_verify,
    "midpoint-flows": midpoint_flows,
    "rk4-flows": rk4_flows,
}
