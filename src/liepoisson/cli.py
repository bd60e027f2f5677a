"""Command-line entry point.

Subcommands:

* ``verify <config>``: run the checks named in the config, or the system's
  default checks, and emit a JSON report.
* ``simulate <config>``: build the configured system, integrate its
  Hamiltonian flow, and emit a CSV trajectory with header
  ``t,<state coords...>,H,<casimirs...>``.
* ``bracket-table <config>``: emit the structure constants of the built
  extension as JSON.

Exit codes: 0 when every check passes, 1 when a residual exceeds its
threshold or a computation fails, 2 on a malformed config, with a
diagnostic that names the offending field.

Each system is one entry of ``_SYSTEMS``; a subcommand looks the system up
once and runs generic code.  Configs are validated when a system is built,
so the integrated field neither parses nor looks anything up.

``--seed`` fixes every randomized draw, making outputs byte-identical
across runs.  When the environment variable ``LIEPOISSON_OUTDIR`` is set,
relative ``--out`` paths are placed under it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import poisson, quantum, restricted
from .algebra import (
    DualPairing,
    LieAlgebra,
    algebra_from_json,
    algebra_to_json,
    builtin_algebra,
    check_structure,
    identity_pairing,
    so3,
)
from .errors import ConfigError, LiePoissonError, UnsupportedPresentationError
from .extension import (
    ExtensionSpec,
    SkewBilinearMap,
    DerivationMap,
    build_extension,
    check_compatibility,
    check_predual_closure,
    direct_sum_pairing,
)
from .functions import NAMED_FUNCTIONS, build_named_function, linear, quadratic, rigid_body_energy
from .integrators import IntegratorConfig, integrate_flow
from .linalg import orthonormal_columns
from .sequences import (
    LinearMapRec,
    MatrixStarAlgebra,
    SequenceSpec,
    Space,
    check_exact_sequence,
    dual_map,
    dual_sequence,
    wstar_central_split,
)
from .tolerances import (
    COMPATIBILITY_PASS,
    CONSTRUCTION_TOL,
    MAX_TRAJECTORY_VALUES,
    SUBSPACE_TOL,
    VERIFICATION_TOL,
)

__all__ = ["run_cli", "main"]

# check: (default threshold, the _System attributes any one of which enables it)
_CHECKS = {
    "structure": (VERIFICATION_TOL, ("spec", "algebras")),
    "compatibility": (COMPATIBILITY_PASS, ("spec",)),
    "predual_closure": (VERIFICATION_TOL, ("spec",)),
    "exactness": (SUBSPACE_TOL, ("sequence",)),
    "dual_map": (VERIFICATION_TOL, ("sequence",)),
    "wstar_split": (CONSTRUCTION_TOL, ("sequence",)),
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", "config")
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be a JSON object", "config")
    return doc


def _require(doc: dict, field: str, context: str = ""):
    if field not in doc:
        full = f"{context}.{field}" if context else field
        raise ConfigError("missing required field", full)
    return doc[field]


def _typed(node, kind: type, field: str):
    if not isinstance(node, kind):
        raise ConfigError(f"must be a JSON {'object' if kind is dict else 'list'}", field)
    return node


def _int(v, field: str, low: int) -> int:
    if type(v) is not int or v < low:
        raise ConfigError(f"must be an integer >= {low}, got {v!r}", field)
    return v


def _ints(node, field: str, low: int) -> tuple[int, ...]:
    return tuple(_int(v, field, low) for v in _typed(node, list, field))


def _is_number(v) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(v) in (int, float)


def _floats(node, n: int | None, field: str) -> np.ndarray:
    """A JSON list of ``n`` finite numbers (any number of them when ``n`` is None)."""
    if not (isinstance(node, list) and all(map(_is_number, node))):
        raise ConfigError(f"not a vector of numbers: {node!r}", field)
    try:
        v = np.asarray(node, dtype=float)
    except OverflowError as exc:
        raise ConfigError(f"not a vector of numbers: {exc}", field)
    if (n is not None and v.shape != (n,)) or not np.isfinite(v).all():
        raise ConfigError(f"needs {n or 'only'} finite numbers, got {node!r}", field)
    return v


def _scalar(v):
    """A JSON number, or an [re, im] pair of exactly two JSON numbers."""
    if _is_number(v):
        return float(v)
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        return complex(v[0], v[1])
    raise TypeError(f"{v!r} is not a number or an [re, im] pair of numbers")


def _cmatrix(rows, field: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A matrix given as a JSON list of rows, each a JSON list of finite scalars."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ConfigError(f"not a list of rows: {rows!r}", field)
    try:
        m = np.array([[_scalar(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"not a matrix of scalars: {exc}", field)
    if m.ndim != 2 or (shape is not None and m.shape != shape):
        raise ConfigError(f"needs a matrix of shape {shape or '(m, n)'}, got {m.shape}", field)
    if not np.isfinite(m).all():
        raise ConfigError(f"needs finite numbers, got {rows!r}", field)
    return m


def _cvector(vals, field: str) -> np.ndarray:
    return _cmatrix([_typed(vals, list, field)], field)[0]


def _algebra_ref(node, field: str) -> tuple[LieAlgebra, DualPairing]:
    try:
        if isinstance(node, str) or (isinstance(node, dict) and "builtin" in node):
            alg = builtin_algebra(node)
            return alg, identity_pairing(alg)
        if isinstance(node, dict) and "dim" in node:
            return algebra_from_json(node)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"bad algebra reference: {exc}", field)
    raise ConfigError("algebra reference must be a builtin name or an inline document", field)


def _to_field(values: np.ndarray, dtype, field: str) -> np.ndarray:
    """Cast parsed complex data to the algebra's scalar field."""
    if dtype is complex:
        return np.asarray(values, dtype=complex)
    if np.max(np.abs(np.imag(values)), initial=0.0) != 0.0:
        raise ConfigError("complex entries in a real-field document", field)
    return np.real(values)


def _extension_spec_from_config(body: dict) -> ExtensionSpec:
    n, n_pair = _algebra_ref(_require(body, "n", "system"), "n")
    h, h_pair = _algebra_ref(_require(body, "h", "system"), "h")

    w = np.zeros((n.dim, h.dim, h.dim), dtype=n.dtype)
    for entry in _typed(body.get("omega", []), list, "omega"):
        try:
            a, i, j, v = entry
            val = _to_field(np.array(_scalar(v)), n.dtype, "omega")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad omega triplet {entry!r}: {exc}", "omega")
        if not all(type(k) is int and 0 <= k < d for k, d in ((a, n.dim), (i, h.dim), (j, h.dim))):
            raise ConfigError(f"omega indices {entry[:3]} are not indices in range", "omega")
        w[a, i, j] = val
        w[a, j, i] = -val

    mats = np.zeros((h.dim, n.dim, n.dim), dtype=n.dtype)
    phi_rows = _typed(body.get("phi", []), list, "phi")
    if phi_rows:
        if len(phi_rows) != h.dim:
            raise ConfigError(f"phi must list {h.dim} matrices", "phi")
        for i, m in enumerate(phi_rows):
            mats[i] = _to_field(_cmatrix(m, "phi", (n.dim, n.dim)), n.dtype, "phi")

    try:
        return ExtensionSpec(
            n, h, SkewBilinearMap(h, n, w), DerivationMap(h, n, mats), n_pair, h_pair
        )
    except (LiePoissonError, ValueError) as exc:
        raise ConfigError(f"inconsistent extension data: {exc}", "system")


def _restricted_dims(body: dict) -> tuple[int, int]:
    n_plus, n_minus = (_require(body, key, "restricted") for key in ("n_plus", "n_minus"))
    return _int(n_plus, "restricted.n_plus", 1), _int(n_minus, "restricted.n_minus", 0)


def _qm_n(body: dict) -> int:
    return _int(_require(body, "n", "semidirect_qm"), "semidirect_qm.n", 1)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _residuals_ok(residuals: dict, threshold: float) -> bool:
    return all(abs(v) < threshold for v in residuals.values())


def _structure_residuals(named: dict[str, LieAlgebra]) -> dict:
    out = {}
    for key, alg in named.items():
        rep = check_structure(alg)
        out[f"{key}_antisymmetry"] = rep.antisymmetry_residual
        out[f"{key}_jacobi"] = rep.jacobi_residual
    return out


def _sequence_from_body(body: dict) -> SequenceSpec:
    first = _cmatrix(_require(body, "first", "sequence"), "first").real
    second = _cmatrix(_require(body, "second", "sequence"), "second").real
    nu, nv, nw = first.shape[1], first.shape[0], second.shape[0]
    if second.shape[1] != nv:
        raise ConfigError("sequence maps are not composable", "second")
    algebras = body.get("attach_algebras", {})

    def space(name, dim):
        alg = None
        if name in algebras:
            alg = _algebra_ref(algebras[name], f"attach_algebras.{name}")[0]
            if alg.dim != dim:
                raise ConfigError(
                    f"attached algebra has dim {alg.dim}, map needs {dim}",
                    f"attach_algebras.{name}",
                )
        return Space(dim, algebra=alg)

    u, v, w = space("u", nu), space("v", nv), space("w", nw)
    return SequenceSpec(LinearMapRec(first, u, v), LinearMapRec(second, v, w))


def _predual_basis(body: dict, key: str, alg: LieAlgebra) -> np.ndarray:
    """Columns spanning the designated predual of ``alg``: the rows of
    ``body[key]``, each ``alg.dim`` finite numbers of the algebra's field,
    and linearly independent; the whole space when the key is absent."""
    node = body.get(key)
    if node is None:
        return np.eye(alg.dim)
    rows = _to_field(_cmatrix(node, key), alg.dtype, key)
    try:
        if rows.shape[1] != alg.dim or rows.shape[0] > alg.dim:
            raise ValueError(f"needs at most {alg.dim} rows of {alg.dim} numbers")
        orthonormal_columns(rows.T)  # the independence test check_predual_closure makes
    except ValueError as exc:
        raise ConfigError(f"{exc}, got {node!r}", key)
    return rows.T


def _check_entry(entry) -> tuple[str, float]:
    """(name, threshold) of a ``checks`` entry: a check name, or an object
    {"name": ..., "threshold": ...} whose threshold is optional and, when
    given, a finite JSON number > 0."""
    entry = {"name": entry} if isinstance(entry, str) else entry
    name = entry.get("name") if isinstance(entry, dict) else None
    if not isinstance(name, str) or name not in _CHECKS:
        raise ConfigError(f"unknown check {entry!r}", "checks")
    threshold = entry.get("threshold", _CHECKS[name][0])
    if type(threshold) not in (int, float) or not 0 < threshold <= sys.float_info.max:
        raise ConfigError(
            f"threshold for {name!r} must be a finite number > 0, got {threshold!r}", "checks"
        )
    return name, float(threshold)


def _run_check(
    name: str, system: str, entry: _System, body: dict, spec, compat, rng: np.random.Generator
) -> dict:
    """Residuals of one check; ``compat()`` is the spec's compatibility
    report, computed on first use and shared by every check of the run."""
    if not any(getattr(entry, attr) for attr in _CHECKS[name][1]):
        raise ConfigError(f"system {system!r} has no {name} check", "checks")
    if name == "structure":
        if spec is None:
            return _structure_residuals(entry.algebras())
        named = {"n": spec.n, "h": spec.h}
        if compat().verdict == "pass":
            named["extension"] = build_extension(spec, report=compat())
        return _structure_residuals(named)
    if name == "compatibility":
        rep = compat()
        return {
            "derivation_residual": rep.derivation_residual,
            "cocycle_residual": rep.cocycle_residual,
            "representation_residual": rep.representation_residual,
        }
    if name == "predual_closure":
        c_sub = _predual_basis(body, "c_predual", spec.n)
        a_sub = _predual_basis(body, "a_predual", spec.h)
        return check_predual_closure(spec, c_sub, a_sub).as_dict()
    if name == "exactness":
        d = check_exact_sequence(_sequence_from_body(body)).as_dict()
        d.pop("exact")
        return d
    if name == "dual_map":
        seq = _sequence_from_body(body)
        dual = dual_sequence(seq)
        rep = check_exact_sequence(dual).as_dict()
        rep.pop("exact")
        out = {f"dual_{k}": float(v) for k, v in rep.items()}
        # adjoint identity on random probes
        worst = 0.0
        for m in (seq.first, seq.second):
            d = dual_map(m)
            for _ in range(100):
                y = rng.normal(size=m.target.dim)
                x = rng.normal(size=m.source.dim)
                lhs = (d.matrix @ y) @ (m.source.gram @ x)
                rhs = y @ (m.target.gram @ (m.matrix @ x))
                worst = max(worst, abs(lhs - rhs))
        out["adjoint_identity_residual"] = worst
        return out
    # wstar_split
    ws = _typed(_require(body, "wstar", "sequence"), dict, "sequence.wstar")
    dims = _ints(_require(ws, "block_dims", "wstar"), "sequence.wstar.block_dims", 1)
    ideal = _ints(_require(ws, "ideal_blocks", "wstar"), "sequence.wstar.ideal_blocks", 0)
    try:
        return wstar_central_split(MatrixStarAlgebra(dims), ideal).as_dict()
    except UnsupportedPresentationError as exc:
        raise ConfigError(str(exc), "sequence.wstar.ideal_blocks")


def run_verify(doc: dict, seed: int) -> tuple[dict, int]:
    system, entry, body = _lookup(doc)
    spec = entry.spec(body) if entry.spec is not None else None
    entries = _typed(doc.get("checks", list(entry.checks)), list, "checks")
    checks = [_check_entry(c) for c in entries]
    rng = np.random.default_rng(seed)
    compat = cache(partial(check_compatibility, spec))
    results = []
    all_ok = True
    for name, threshold in checks:
        residuals = _run_check(name, system, entry, body, spec, compat, rng)
        ok = _residuals_ok(residuals, threshold)
        all_ok = all_ok and ok
        results.append(
            {"name": name, "threshold": threshold, "residuals": residuals, "passed": ok}
        )
    report = {"system": system, "seed": seed, "checks": results, "passed": all_ok}
    return report, 0 if all_ok else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@dataclass
class _SimSystem:
    labels: list[str]
    state0: np.ndarray
    field: Callable[[np.ndarray], np.ndarray]
    # "H", then the casimirs columns: each maps a stack of states (..., dim)
    # to one value per state
    tracked: dict[str, Callable[[np.ndarray], np.ndarray]]


def _check_keys(entry: dict, allowed, field: str):
    """Refuse a key of a function entry that ``allowed`` does not list."""
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown key, expected one of {sorted(allowed)}", f"{field}.{key}")


def _observables(doc: dict, known: dict, make) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """The ``casimirs`` columns: each entry is a function name from
    ``known``, or an object {"name": column, "fn": function, params...}
    whose params ``known[function]`` lists; ``make(fn, params)`` returns
    the column's function of predual points."""
    out = {}
    for entry in _typed(doc.get("casimirs", []), list, "casimirs"):
        entry = {"fn": entry} if isinstance(entry, str) else _typed(entry, dict, "casimirs")
        fn = entry.get("fn")
        col = entry.get("name", fn)
        if not (isinstance(fn, str) and fn in known and isinstance(col, str)):
            raise ConfigError(f"bad entry {entry!r}: fn must be one of {sorted(known)}", "casimirs")
        _check_keys(entry, ("name", "fn", *known[fn]), "casimirs")
        out[col] = make(fn, {k: v for k, v in entry.items() if k not in ("name", "fn")})
    return out


def _named_function(name, params: dict, pairing: DualPairing, field: str):
    """build_named_function, with its parameters checked against the
    pairing and its errors naming ``field``."""
    d = pairing.predual_dim
    for key in ("coeffs", "inertia"):
        if key in params:
            params = {**params, key: _floats(params[key], d, f"{field}.{key}")}
    if "coefficients" in params:  # trace_poly: any number of them
        coefficients = _floats(params["coefficients"], None, f"{field}.coefficients")
        params = {**params, "coefficients": coefficients}
    if "gram" in params:  # quadratic
        gram = _cmatrix(params["gram"], f"{field}.gram", (d, d))
        params = {**params, "gram": _to_field(gram, pairing.algebra.dtype, f"{field}.gram")}
    try:
        return build_named_function(name, params, pairing)
    except ValueError as exc:
        raise ConfigError(str(exc), field)


def _hamiltonian(doc: dict, known: dict, parsers: dict, make):
    """The configured Hamiltonian ``make(name, params)``: a name from
    ``known`` with the params ``known[name]`` lists, each parameter with a
    parser parsed by ``parsers[key](value, field)``.  An unknown name is
    left to ``make`` to refuse."""
    ham_cfg = _typed(_require(doc, "hamiltonian"), dict, "hamiltonian")
    name = _require(ham_cfg, "name", "hamiltonian")
    if isinstance(name, str) and name in known:
        _check_keys(ham_cfg, ("name", *known[name]), "hamiltonian")
    params = {k: parsers[k](v, f"hamiltonian.{k}") if k in parsers else v
              for k, v in ham_cfg.items()}
    try:
        return make(name, params)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"unknown hamiltonian {name!r} or missing parameter {exc}", "hamiltonian")


def _sim(alg: LieAlgebra, pairing: DualPairing, labels, b0, h: poisson.SmoothFunction,
         observables: dict) -> _SimSystem:
    """A system on the predual of ``alg``, from its initial point ``b0``,
    Hamiltonian and observables (functions of predual points): the compiled
    field X_h(b) = -ad*_{Dh(b)} b, integrated in flat real coordinates.  A
    real point is its own flat state.  A complex one, which is a point of a
    built extension, is stored slot by slot (n, then h): the real parts,
    then the imaginary parts."""
    field = poisson.hamiltonian_field(h, alg, pairing)
    tracked = {"H": h.eval, **observables}
    if alg.dtype is float:
        return _SimSystem(labels, b0, field, tracked)
    dn, dh = alg.built_from.n.dim, alg.built_from.h.dim
    re = np.concatenate([np.arange(dn), dn + np.arange(dn, dn + dh)])
    im = re + np.repeat([dn, dh], [dn, dh])
    order = np.argsort(np.concatenate([re, im]))

    def point(y):
        return y[..., re] + 1j * y[..., im]

    def flat(b):
        return np.concatenate([b.real, b.imag])[order]

    def on_point(f):
        return lambda y: f(point(y))

    tracked = {name: on_point(f) for name, f in tracked.items()}
    return _SimSystem(labels, flat(b0), lambda y: flat(field(point(y))), tracked)


def _pairing_sim(doc: dict, alg, pairing, labels, b0, default_h=None) -> _SimSystem:
    """A system whose Hamiltonian and observables are named functions over
    ``pairing``."""
    if default_h is not None and doc.get("hamiltonian") is None:
        h = default_h
    else:
        h = _hamiltonian(doc, NAMED_FUNCTIONS, {},
                         partial(_named_function, pairing=pairing, field="hamiltonian"))
    observables = _observables(
        doc, NAMED_FUNCTIONS,
        lambda fn, params: _named_function(fn, params, pairing, "casimirs").eval,
    )
    return _sim(alg, pairing, labels, b0, h, observables)


def _built_sim(doc: dict, ext: LieAlgebra, pairing: DualPairing, labels, b0,
               h: poisson.SmoothFunction, table: dict) -> _SimSystem:
    """A system on the predual of a built extension whose observables come
    from ``table``, as functions of the (c, a) slots of predual points."""
    dn = ext.built_from.n.dim
    columns = _observables(
        doc, dict.fromkeys(table, ()),
        lambda fn, _params: lambda b, f=table[fn]: f(b[..., :dn], b[..., dn:]),
    )
    return _sim(ext, pairing, labels, b0, h, columns)


def _sim_rigid_body(body: dict, doc: dict, seed: int) -> _SimSystem:
    inertia = _floats(_require(body, "inertia", "rigid_body"), 3, "rigid_body.inertia")
    state0 = _floats(_require(body, "initial", "rigid_body"), 3, "rigid_body.initial")
    try:
        energy = rigid_body_energy(inertia)
    except ValueError as exc:
        raise ConfigError(str(exc), "rigid_body.inertia")
    alg = so3()
    return _pairing_sim(doc, alg, identity_pairing(alg), ["b1", "b2", "b3"], state0, energy)


def _complex_labels(name: str, shape: tuple[int, ...]) -> list[str]:
    """CSV columns of a complex array, row-major: real parts, then imaginary."""
    idx = ["".join(str(i + 1) for i in ix) for ix in np.ndindex(shape)]
    return [f"{name}{s}_re" for s in idx] + [f"{name}{s}_im" for s in idx]


def _built(spec: ExtensionSpec) -> tuple[LieAlgebra, DualPairing]:
    """The built extension of ``spec`` and its direct-sum pairing."""
    ext = build_extension(spec)
    return ext, direct_sum_pairing(spec, ext)


def _sim_extension(body: dict, doc: dict, seed: int) -> _SimSystem:
    spec = _extension_spec_from_config(body)
    ext, pairing = _built(spec)
    init = _typed(_require(body, "initial", "extension"), dict, "extension.initial")
    b0 = []
    for key, dim in (("c", spec.n.dim), ("a", spec.h.dim)):
        field, node = f"extension.initial.{key}", _require(init, key, "initial")
        # a complex extension also takes [re, im] pairs
        v = _floats(node, dim, field) if ext.dtype is float else _cvector(node, field)
        if v.shape != (dim,):
            raise ConfigError(f"needs {dim} finite numbers, got {node!r}", field)
        b0.append(v)
    if ext.dtype is float:
        labels = [f"c{i + 1}" for i in range(spec.n.dim)] + [f"a{i + 1}" for i in range(spec.h.dim)]
    else:
        labels = _complex_labels("c", (spec.n.dim,)) + _complex_labels("a", (spec.h.dim,))
    return _pairing_sim(doc, ext, pairing, labels, np.concatenate(b0))


# The semidirect system lives on its realified extension: a point is
# c = (Re v, Im v) and a = (Re rho, Im rho), rho row-major, and an algebra
# element (g_v, g_rho) has the same layout.  Observables are functions of
# (c, a); Hamiltonians take their parsed parameters, n and the pairing.
_QM_OBSERVABLES = {
    "v_norm_sq": lambda c, a: np.sum(c * c, axis=-1),
    "trace_rho_re": lambda c, a: np.trace(
        a[..., : a.shape[-1] // 2].reshape(*a.shape[:-1], c.shape[-1] // 2, -1),
        axis1=-2, axis2=-1),
    "rho_frobenius_sq": lambda c, a: np.sum(a * a, axis=-1),
}


# each semidirect Hamiltonian and the parameters it takes
_QM_HAMILTONIANS = {"linear_rho": ("H0",), "quadratic_v": ("A",), "coupled": ("H0", "A", "coupling")}


def _qm_hamiltonian(name: str, params: dict, n: int, pairing: DualPairing):
    """"linear_rho" Re trace(rho H0), "quadratic_v" 1/2 Re <v | A v> (with
    the hermitian part of A) and "coupled", their sum plus coupling
    Re <v | rho v>, whose gradient adds coupling ((rho + rho^H) v, v v^H)."""
    if name == "linear_rho":
        h0 = params["H0"]
        return linear(pairing, np.concatenate([np.zeros(2 * n), h0.real.ravel(), h0.imag.ravel()]))
    if name == "quadratic_v":
        a = 0.5 * (params["A"] + params["A"].conj().T)
        q = np.zeros((pairing.predual_dim,) * 2)
        q[: 2 * n, : 2 * n] = np.block([[a.real, -a.imag], [a.imag, a.real]])
        return quadratic(pairing, q)
    if name != "coupled":
        raise KeyError(f"unknown semidirect hamiltonian {name!r}")
    lin, quad = (_qm_hamiltonian(part, params, n, pairing) for part in ("linear_rho", "quadratic_v"))
    lam = params.get("coupling", 1.0)

    def parts(b):
        v = b[..., :n] + 1j * b[..., n : 2 * n]
        r = b[..., 2 * n : 2 * n + n * n] + 1j * b[..., 2 * n + n * n :]
        return v, r.reshape(*b.shape[:-1], n, n)

    def _eval(b):
        v, rho = parts(b)
        vrv = np.einsum("...i,...ij,...j->...", v.conj(), rho, v)
        return lin.eval(b) + quad.eval(b) + lam * np.real(vrv)

    def _grad(b):
        v, rho = parts(b)
        gv, gr = (rho + rho.conj().T) @ v, np.outer(v, v.conj())
        coupling = np.concatenate([gv.real, gv.imag, gr.real.ravel(), gr.imag.ravel()])
        return lin.grad(b) + quad.grad(b) + lam * coupling

    return poisson.SmoothFunction(_eval, _grad)


def _sim_semidirect_qm(body: dict, doc: dict, seed: int) -> _SimSystem:
    n = _qm_n(body)
    v0 = _cvector(_require(body, "v0", "semidirect_qm"), "v0")
    rho0 = _cmatrix(_require(body, "rho0", "semidirect_qm"), "rho0", (n, n))
    if v0.size != n:
        raise ConfigError("v0 length does not match n", "semidirect_qm.v0")
    ext, pairing = _built(quantum.semidirect_extension_spec(n))
    square = partial(_cmatrix, shape=(n, n))
    h = _hamiltonian(
        doc, _QM_HAMILTONIANS,
        {"H0": square, "A": square, "coupling": lambda v, field: _floats([v], 1, field)[0]},
        partial(_qm_hamiltonian, n=n, pairing=pairing),
    )
    labels = _complex_labels("v", (n,)) + _complex_labels("rho", (n, n))
    b0 = np.concatenate([v0.real, v0.imag, rho0.real.ravel(), rho0.imag.ravel()])
    return _built_sim(doc, ext, pairing, labels, b0, h, _QM_OBSERVABLES)


def _kappa_trace(c, k: int):
    """Re trace(kappa^k) of row-major kappa slots c."""
    n = math.isqrt(c.shape[-1])
    power = np.linalg.matrix_power(c.reshape(*c.shape[:-1], n, n), k)
    return np.real(np.trace(power, axis1=-2, axis2=-1))


# functions of c = kappa and a = sigma, both row-major; every Re tr(kappa^k)
# is a Casimir, since the flow moves kappa by conjugation
_RESTRICTED_OBSERVABLES = {
    "kappa_frobenius_sq": lambda c, a: np.sum(np.abs(c) ** 2, axis=-1),
    "sigma_frobenius_sq": lambda c, a: np.sum(np.abs(a) ** 2, axis=-1),
    **{f"kappa_trace_{k}": lambda c, a, k=k: _kappa_trace(c, k) for k in (2, 3, 4)},
}


def _block_from_config(node, dims: tuple[int, int], seed: int, field: str):
    if isinstance(node, dict) and "constructor" in node:
        kind = node["constructor"]
        if kind != "random_block":
            raise ConfigError(f"unknown constructor {kind!r}", field)
        rng = np.random.default_rng(_int(node.get("seed", seed), f"{field}.seed", 0))
        block = restricted.random_block(*dims, rng)
    else:
        try:
            block = restricted.block_from_json(node)
        except (KeyError, TypeError, ValueError, IndexError, LiePoissonError) as exc:
            raise ConfigError(f"bad block operator: {exc}", field)
    if block.dims != dims:
        raise ConfigError(f"block has dims {block.dims}, the system has {dims}", field)
    return block.to_full()


# each restricted Hamiltonian and the parameters it takes
_RESTRICTED_HAMILTONIANS = {"linear_kappa": ("A",), "linear_sigma": ("X0",), "quadratic": ()}


def _restricted_hamiltonian(name: str, params: dict, dims, pairing: DualPairing):
    """The named Hamiltonians over the (kappa, sigma) coordinates of the
    built extension: "linear_kappa" Re tr(kappa A), "linear_sigma"
    Re tr(sigma X0), "quadratic" 1/2 Re (tr kappa^2 + tr sigma^2), which is
    1/2 Re <b, b> in the trace pairing."""
    dn, da = dims[0] ** 2, sum(dims) ** 2
    if name == "linear_kappa":
        return linear(pairing, np.concatenate([params["A"].ravel(), np.zeros(da)]))
    if name == "linear_sigma":
        return linear(pairing, np.concatenate([np.zeros(dn), params["X0"].ravel()]))
    if name == "quadratic":
        return quadratic(pairing, pairing.gram)
    raise KeyError(f"unknown restricted hamiltonian {name!r}")


def _sim_restricted(body: dict, doc: dict, seed: int) -> _SimSystem:
    dims = n_plus, n_minus = _restricted_dims(body)
    kappa_node = _require(body, "kappa0", "restricted")
    if isinstance(kappa_node, dict) and kappa_node.get("constructor") == "random":
        rng = np.random.default_rng(_int(kappa_node.get("seed", seed), "restricted.kappa0.seed", 0))
        kappa0 = rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus))
    else:
        kappa0 = _cmatrix(kappa_node, "restricted.kappa0", (n_plus, n_plus))
    sigma0 = _block_from_config(_require(body, "sigma0", "restricted"), dims, seed,
                                "restricted.sigma0")
    ext, pairing = _built(restricted.restricted_extension_spec(*dims))
    h = _hamiltonian(
        doc, _RESTRICTED_HAMILTONIANS,
        {
            "A": partial(_cmatrix, shape=(n_plus, n_plus)),
            "X0": lambda v, field: _block_from_config(v, dims, seed, field),
        },
        partial(_restricted_hamiltonian, dims=dims, pairing=pairing),
    )
    n = n_plus + n_minus
    labels = _complex_labels("kappa", (n_plus, n_plus)) + _complex_labels("sigma", (n, n))
    b0 = np.concatenate([kappa0.ravel(), sigma0.ravel()])
    return _built_sim(doc, ext, pairing, labels, b0, h, _RESTRICTED_OBSERVABLES)


def _integrator_config(doc: dict) -> IntegratorConfig:
    cfg = _typed(doc.get("integrator", {}), dict, "integrator")

    def number(key: str, default: float) -> float:
        return float(_floats([cfg.get(key, default)], 1, f"integrator.{key}")[0])

    def count(key: str, default: int) -> int:
        return _int(cfg.get(key, default), f"integrator.{key}", 1)

    try:
        return IntegratorConfig(
            method=cfg.get("method", "midpoint"),
            dt=number("dt", 1e-2),
            steps=count("steps", 100),
            newton_tol=number("newton_tol", 1e-12),
            newton_max_iter=count("newton_max_iter", 50),
        )
    except ValueError as exc:
        raise ConfigError(f"bad integrator settings: {exc}", "integrator")


def _csv(columns: list[str], table: np.ndarray) -> str:
    """CSV text: the header, then one line per row of ``table``, each entry
    formatted ``%.17e``.  Rows are converted one at a time, so no Python
    copy of the whole table is held next to the text."""
    line = ",".join(["%.17e"] * table.shape[1]) + "\n"
    return "".join([",".join(columns) + "\n", *(line % tuple(row.tolist()) for row in table)])


def run_simulate(doc: dict, seed: int) -> str:
    name, entry, body = _lookup(doc)
    if entry.simulate is None:
        raise ConfigError(f"system {name!r} cannot be simulated", "system")
    system = entry.simulate(body, doc, seed)
    cfg = _integrator_config(doc)
    values = (cfg.steps + 1) * (1 + len(system.labels) + len(system.tracked))
    if values > MAX_TRAJECTORY_VALUES:
        raise ConfigError(
            f"{cfg.steps} steps would store {values} values, more than {MAX_TRAJECTORY_VALUES}",
            "integrator.steps",
        )
    traj = integrate_flow(system.field, system.state0, cfg)
    series = [f(traj.states) for f in system.tracked.values()]
    table = np.column_stack([traj.times, traj.states, *series])
    return _csv(["t", *system.labels, *system.tracked], table)


def run_bracket_table(doc: dict) -> dict:
    system, entry, body = _lookup(doc)
    if entry.spec is None:
        raise ConfigError(f"system {system!r} has no bracket table", "system")
    spec = entry.spec(body)
    report = check_compatibility(spec)
    table = algebra_to_json(build_extension(spec, report=report))
    table["compatibility"] = report.as_dict()
    return table


@dataclass(frozen=True)
class _System:
    """What the subcommands need from one system; a missing builder means
    the subcommand does not apply to it.  Builders take the system's config
    body and reach library functions through their module when called, so
    a wrapper installed on a module attribute sees every call."""

    checks: tuple[str, ...]  # default verify checks
    spec: Callable[[dict], ExtensionSpec] | None = None  # verify, bracket-table
    algebras: Callable[[], dict[str, LieAlgebra]] | None = None  # structure without a spec
    sequence: bool = False  # the body describes an exact sequence
    simulate: Callable[[dict, dict, int], _SimSystem] | None = None  # (body, doc, seed)


_SPEC_CHECKS = ("structure", "compatibility", "predual_closure")

_SYSTEMS = {
    "extension": _System(_SPEC_CHECKS, _extension_spec_from_config, simulate=_sim_extension),
    "restricted": _System(
        _SPEC_CHECKS,
        lambda body: restricted.restricted_extension_spec(*_restricted_dims(body)),
        simulate=_sim_restricted,
    ),
    "semidirect_qm": _System(
        ("structure", "compatibility"),
        lambda body: quantum.semidirect_extension_spec(_qm_n(body)),
        simulate=_sim_semidirect_qm,
    ),
    "rigid_body": _System(
        ("structure",), algebras=lambda: {"so3": so3()}, simulate=_sim_rigid_body
    ),
    "sequence": _System(("exactness", "dual_map"), sequence=True),
}


def _lookup(doc: dict) -> tuple[str, _System, dict]:
    """The system's name, its table entry and its config body."""
    system = _require(doc, "system")
    entry = _SYSTEMS.get(system) if isinstance(system, str) else None
    if entry is None:
        raise ConfigError(f"unknown system {system!r}", "system")
    return system, entry, _typed(doc.get(system, {}), dict, system)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    p = Path(out)
    env = os.environ.get("LIEPOISSON_OUTDIR")
    if env and not p.is_absolute():
        p = Path(env) / p
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(text: str, out: str | None):
    p = _resolve_out(out)
    if p is None:
        sys.stdout.write(text)
    else:
        p.write_text(text)


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liepoisson",
        description="Verify and integrate finite-dimensional Lie-Poisson systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run structural checks from a config, emit a JSON report"),
        ("simulate", "integrate the configured flow, emit a CSV trajectory"),
        ("bracket-table", "emit the structure constants of the built extension"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON config")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized draws")

    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"must be a non-negative integer, got {args.seed}", "--seed")
        doc = _load_config(args.config)
        if args.command == "verify":
            report, code = run_verify(doc, args.seed)
            _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
            if code != 0:
                for chk in report["checks"]:
                    if not chk["passed"]:
                        for key, value in sorted(chk["residuals"].items()):
                            if abs(value) >= chk["threshold"]:
                                print(
                                    f"verify: FAIL {chk['name']}: {key}="
                                    f"{value:.3e} exceeds {chk['threshold']:.1e}",
                                    file=sys.stderr,
                                )
            return code
        if args.command == "simulate":
            _emit(run_simulate(doc, args.seed), args.out)
            return 0
        _emit(
            json.dumps(run_bracket_table(doc), indent=2, sort_keys=True) + "\n",
            args.out,
        )
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LiePoissonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run_cli(argv))


if __name__ == "__main__":
    main()
