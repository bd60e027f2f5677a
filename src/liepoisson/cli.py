"""Command-line entry point.

Subcommands:

* ``verify <config>``: run the checks named in the config, or the system's
  default checks, and emit a JSON report.
* ``simulate <config>``: build the configured system, integrate its
  Hamiltonian flow, and emit a CSV trajectory with header
  ``t,<state coords...>,H,<casimirs...>``.
* ``bracket-table <config>``: emit the structure constants of the built
  extension as JSON.

Both JSON outputs are ``json.dumps(doc, indent=2, sort_keys=True)`` to the
byte, with the structure-constant rows written from one row template.

Exit codes: 0 when every check passes, 1 when a residual exceeds its
threshold or a computation fails, 2 on a malformed config, with a
diagnostic that names the offending field by its dotted path in the
document (see ``_Node``, through which every JSON value is read).  Inputs
whose builders would write, or whose checks would pair in one join, more
than ``MAX_SPARSE_TERMS`` terms exit 2 before they are formed; so does an
input whose Jacobi, derivation, cocycle or representation residual would
pair more than ``MAX_LEAD_TERMS`` products at one lead index (each runs
in blocks of lead indices).

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
import re
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import csvtext, poisson, quantum, restricted
from .algebra import (
    DualPairing,
    LieAlgebra,
    algebra_to_json,
    builtin_algebra,
    check_structure,
    identity_pairing,
    so3,
)
from .errors import (
    ConfigError,
    DegeneratePairingError,
    LiePoissonError,
    SizeLimitError,
    UnsupportedPresentationError,
)
from .extension import (
    ExtensionSpec,
    SkewBilinearMap,
    DerivationMap,
    build_extension,
    check_compatibility,
    check_predual_closure,
    direct_sum_pairing,
)
from .functions import linear, norm_squared, quadratic, rigid_body_energy, trace_polynomial
from .integrators import IntegratorConfig, integrate_flow
from .linalg import Coo, orthonormal_columns
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
    MAX_SPARSE_TERMS,
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

_ABSENT = object()  # the value of a key that the document leaves out


@dataclass(frozen=True)
class _Node:
    """A JSON value of the config document and its dotted path, from which
    every reader's ConfigError takes its field: a key's path extends its
    parent's, an entry of a list carries its list's path, and a key left out
    is an absent node whose children are absent too and carry its path, so
    reading any of them names the first missing key."""

    value: object
    path: str = ""

    def error(self, message: str) -> ConfigError:
        return ConfigError(message, self.path or "config")

    def __getitem__(self, key: str) -> _Node:
        if self.value is _ABSENT:
            return self
        return _Node(self.obj().get(key, _ABSENT), f"{self.path}.{key}" if self.path else key)

    def get(self, key: str, default) -> _Node:
        child = self[key]
        return _Node(default, child.path) if child.value is _ABSENT else child

    def required(self):
        if self.value is _ABSENT:
            raise self.error("missing required field")
        return self.value

    def obj(self) -> dict:
        if not isinstance(self.required(), dict):
            raise self.error("must be a JSON object")
        return self.value

    def only(self, allowed) -> dict:
        """The object, refusing a key that ``allowed`` does not list."""
        for key in self.obj():
            if key not in allowed:
                raise self[key].error(f"unknown key, expected one of {sorted(allowed)}")
        return self.value

    def entries(self) -> list[_Node]:
        if not isinstance(self.required(), list):
            raise self.error("must be a JSON list")
        return [_Node(v, self.path) for v in self.value]

    def count(self, low: int) -> int:
        v = self.required()
        if type(v) is not int or v < low:
            raise self.error(f"must be an integer >= {low}, got {v!r}")
        return v

    def bounded(self, values: int):
        if values > MAX_SPARSE_TERMS:
            raise self.error(f"would write {values} values, more than {MAX_SPARSE_TERMS}")

    def floats(self, n: int | None = None) -> np.ndarray:
        """A JSON list of ``n`` finite numbers (any number of them when ``n`` is None)."""
        if not (isinstance(self.required(), list) and all(map(_is_number, self.value))):
            raise self.error(f"not a vector of numbers: {self.value!r}")
        return self.cvector(n, float)

    def number(self) -> float:
        return float(_Node([self.required()], self.path).floats(1)[0])

    def cmatrix(self, shape: tuple[int, int] | None = None, dtype=complex) -> np.ndarray:
        """A matrix given as a JSON list of rows, each a JSON list of finite
        scalars; for a real ``dtype`` every imaginary part must be zero."""
        rows = self.required()
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise self.error(f"not a list of rows: {rows!r}")
        try:
            m = np.array([[_scalar(v) for v in row] for row in rows], dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise self.error(f"not a matrix of scalars: {exc}")
        if m.ndim != 2 or (shape is not None and m.shape != shape):
            raise self.error(f"needs a matrix of shape {shape or '(m, n)'}, got {m.shape}")
        if not np.isfinite(m).all():
            raise self.error(f"needs finite numbers, got {rows!r}")
        if dtype is complex:
            return m
        if np.max(np.abs(m.imag), initial=0.0) != 0.0:
            raise self.error("complex entries in a real-field document")
        return m.real

    def cvector(self, n: int | None = None, dtype=complex) -> np.ndarray:
        v = _Node([self.required()], self.path).cmatrix(dtype=dtype)[0]
        if n is not None and v.shape != (n,):
            raise self.error(f"needs {n} finite numbers, got {self.value!r}")
        return v

    def triplets(self, full: tuple[int, int, int], dtype) -> Coo:
        """The array of shape ``full`` of antisymmetric [k, i, j, value]
        entries, value at [k, i, j] and -value at [k, j, i]; a later entry
        overwrites an earlier one."""
        out = {}
        for entry in self.entries():
            e = entry.value
            if not (isinstance(e, list) and len(e) == 4 and e[1] != e[2]
                    and all(type(x) is int and 0 <= x < d for x, d in zip(e, full))):
                raise entry.error(f"needs [k, i, j, value], i != j, below {full}: {e!r}")
            out[e[0], e[1], e[2]] = val = _Node([[e[3]]], entry.path).cmatrix(dtype=dtype)[0, 0]
            out[e[0], e[2], e[1]] = -val
        return _coo(full, out, dtype)

    def algebra(self, beside: int = 0) -> tuple[LieAlgebra, DualPairing]:
        """An algebra reference and its pairing: a builtin name ("so3",
        "heisenberg", "glN", "abelianN"), the form {"builtin": name, "n": N},
        or an inline document as algebra_to_json writes it.  An extension by
        an algebra of dimension ``beside`` has a (beside + dim)^2 gram, more
        than its nonzero constants, bounded before the algebra is built."""
        ref = self.required()
        if isinstance(ref, dict) and "builtin" in ref:
            name = ref["builtin"]
            sized = "n" in ref and name in ("gl", "abelian")
            ref = f"{name}{self['n'].count(1)}" if sized else name
        if isinstance(ref, str):
            try:
                m = re.fullmatch(r"(gl|abelian)(\d+)", ref)
                d = int(m[2]) ** (2 if m[1] == "gl" else 1) if m else 3  # so3, heisenberg
                self.bounded((beside + d) ** 2)
                alg = builtin_algebra(ref)
            except (KeyError, ValueError) as exc:
                raise self.error(f"bad algebra reference: {exc}")
            return alg, identity_pairing(alg)
        if not (isinstance(ref, dict) and "dim" in ref):
            raise self.error("algebra reference must be a builtin name or an inline document")
        field = self.get("field", "real")
        if field.value not in ("real", "complex"):
            raise field.error(f"must be \"real\" or \"complex\", got {field.value!r}")
        dtype = complex if field.value == "complex" else float
        d = self["dim"].count(1)
        self["dim"].bounded((beside + d) ** 2)
        c = self.get("structure_constants", []).triplets((d, d, d), dtype)
        labels = tuple(e.value for e in self.get("basis_labels", []).entries())
        try:
            alg = LieAlgebra(c, labels, self.get("name", "").value, field.value)
        except (ValueError, LiePoissonError) as exc:  # Jacobi, the number of labels
            raise self.error(str(exc))
        gram = self.get("gram", None)
        g = None if gram.value is None else gram.cmatrix((d, d), dtype)
        try:
            return alg, DualPairing(alg, g)
        except DegeneratePairingError as exc:
            raise gram.error(str(exc))


def _coo(shape: tuple[int, ...], entries: dict, dtype) -> Coo:
    """The array of ``shape`` with ``entries[index]`` at each index."""
    idx = np.array(list(entries), dtype=np.intp).reshape(-1, len(shape)).T
    return Coo.of(shape, idx, np.array(list(entries.values()), dtype=dtype))


def _load_config(path: str) -> _Node:
    """The document's root node; its first lookup refuses a non-object."""
    try:
        return _Node(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "config")
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", "config")


def _is_number(v) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(v) in (int, float)


def _scalar(v):
    """A JSON number, or an [re, im] pair of exactly two JSON numbers."""
    if _is_number(v):
        return float(v)
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        return complex(v[0], v[1])
    raise TypeError(f"{v!r} is not a number or an [re, im] pair of numbers")


def _extension_spec_from_config(body: _Node) -> ExtensionSpec:
    n, n_pair = body["n"].algebra()
    h, h_pair = body["h"].algebra(beside=n.dim)
    w = body.get("omega", []).triplets((n.dim, h.dim, h.dim), n.dtype)

    phi = body.get("phi", [])
    if (rows := phi.entries()) and len(rows) != h.dim:
        raise phi.error(f"phi must list {h.dim} matrices")
    mats = {(i, *ab): v for i, m in enumerate(rows)
            for ab, v in np.ndenumerate(m.cmatrix((n.dim, n.dim), n.dtype)) if v != 0}
    phi_map = DerivationMap(h, n, _coo((h.dim, n.dim, n.dim), mats, n.dtype))
    return ExtensionSpec(n, h, SkewBilinearMap(h, n, w), phi_map, n_pair, h_pair)


def _restricted_dims(body: _Node) -> tuple[int, int]:
    dims = body["n_plus"].count(1), body["n_minus"].count(0)
    d = dims[0] ** 2 + sum(dims) ** 2  # the built extension's dimension
    _restricted_size(body).bounded(d * d)  # its gram; it has fewer nonzero constants
    return dims


def _restricted_size(body: _Node) -> _Node:
    """The larger of the two dims, which sizes a restricted system."""
    return body["n_plus" if body["n_plus"].value >= body["n_minus"].value else "n_minus"]


def _qm_n(body: _Node) -> int:
    n = body["n"].count(1)
    body["n"].bounded((2 * n + 2 * n * n) ** 2)  # the built extension's gram
    return n


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _structure_residuals(named: dict[str, LieAlgebra]) -> dict:
    out = {}
    for key, alg in named.items():
        rep = check_structure(alg)
        out[f"{key}_antisymmetry"] = rep.antisymmetry_residual
        out[f"{key}_jacobi"] = rep.jacobi_residual
    return out


def _sequence_from_body(body: _Node) -> SequenceSpec:
    first = body["first"].cmatrix(dtype=float)
    second = body["second"].cmatrix(dtype=float)
    nu, nv, nw = first.shape[1], first.shape[0], second.shape[0]
    if second.shape[1] != nv:
        raise body["second"].error("sequence maps are not composable")
    algebras = body.get("attach_algebras", {})
    for key in algebras.obj():
        if key not in ("u", "v", "w"):
            raise algebras[key].error("unknown space, expected one of ['u', 'v', 'w']")

    def space(name, dim):
        ref = algebras[name]
        if ref.value is _ABSENT:
            return Space(dim)
        alg = ref.algebra()[0]
        if alg.dim != dim:
            raise ref.error(f"attached algebra has dim {alg.dim}, map needs {dim}")
        return Space(dim, algebra=alg)

    u, v, w = space("u", nu), space("v", nv), space("w", nw)
    return SequenceSpec(LinearMapRec(first, u, v), LinearMapRec(second, v, w))


def _predual_basis(node: _Node, alg: LieAlgebra) -> np.ndarray:
    """Columns spanning the designated predual of ``alg``: the rows of
    ``node``, each ``alg.dim`` finite numbers of the algebra's field, and
    linearly independent; the whole space when the node is null."""
    if node.value is None:
        return np.eye(alg.dim)
    rows = node.cmatrix(dtype=alg.dtype)
    try:
        if rows.shape[1] != alg.dim or rows.shape[0] > alg.dim:
            raise ValueError(f"needs at most {alg.dim} rows of {alg.dim} numbers")
        orthonormal_columns(rows.T)  # the independence test check_predual_closure makes
    except ValueError as exc:
        raise node.error(f"{exc}, got {node.value!r}")
    return rows.T


def _check_entry(node: _Node, system: str, entry: _System) -> tuple[str, float]:
    """(name, threshold) of a ``checks`` entry that ``system`` has: a check
    name, or an object {"name": ..., "threshold": ...} whose threshold is
    optional and, when given, a finite JSON number > 0."""
    spec = {"name": node.value} if isinstance(node.value, str) else node.value
    name = spec.get("name") if isinstance(spec, dict) else None
    if not isinstance(name, str) or name not in _CHECKS:
        raise node.error(f"unknown check {spec!r}")
    threshold = spec.get("threshold", _CHECKS[name][0])
    if type(threshold) not in (int, float) or not 0 < threshold <= sys.float_info.max:
        raise node.error(f"threshold for {name!r} must be a finite number > 0, got {threshold!r}")
    if not any(getattr(entry, attr) for attr in _CHECKS[name][1]):
        raise node.error(f"system {system!r} has no {name} check")
    return name, float(threshold)


def _run_check(
    name: str, entry: _System, body: _Node, spec, compat, rng: np.random.Generator
) -> dict:
    """Residuals of one check; ``compat()`` is the spec's compatibility
    report, computed on first use and shared by every check of the run."""
    if name == "structure":
        if spec is None:
            return _structure_residuals(entry.algebras())
        named = {"n": spec.n, "h": spec.h}
        if compat().verdict == "pass":
            named["extension"] = build_extension(spec, report=compat())
        return _structure_residuals(named)
    if name == "compatibility":
        rep = compat().as_dict()
        keys = ("derivation_residual", "cocycle_residual", "representation_residual")
        return {k: rep[k] for k in keys}
    if name == "predual_closure":
        c_sub = _predual_basis(body.get("c_predual", None), spec.n)
        a_sub = _predual_basis(body.get("a_predual", None), spec.h)
        return check_predual_closure(spec, c_sub, a_sub).as_dict()
    if name == "exactness":
        rep = check_exact_sequence(_sequence_from_body(body)).as_dict()
        return {k: v for k, v in rep.items() if k != "exact"}
    if name == "dual_map":
        seq = _sequence_from_body(body)
        dual = dual_sequence(seq)
        rep = check_exact_sequence(dual).as_dict()
        out = {f"dual_{k}": float(v) for k, v in rep.items() if k != "exact"}
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
    ws = body["wstar"]
    dims = tuple(e.count(1) for e in ws["block_dims"].entries())
    ideal = ws["ideal_blocks"]
    # the basis holds sum(d^2) matrices of the full size
    ws["block_dims"].bounded(sum(dims) ** 2 * sum(d * d for d in dims))
    blocks = tuple(e.count(0) for e in ideal.entries())
    try:
        return wstar_central_split(MatrixStarAlgebra(dims), blocks).as_dict()
    except UnsupportedPresentationError as exc:
        raise ideal.error(str(exc))


def run_verify(doc: _Node, seed: int) -> tuple[dict, int]:
    system, entry, body = _lookup(doc)
    spec = entry.spec(body) if entry.spec is not None else None
    entries = doc.get("checks", list(entry.checks)).entries()
    checks = [_check_entry(c, system, entry) for c in entries]
    rng = np.random.default_rng(seed)
    compat = cache(partial(check_compatibility, spec))
    results = []
    for name, threshold in checks:
        residuals = _run_check(name, entry, body, spec, compat, rng)
        ok = all(abs(v) < threshold for v in residuals.values())
        results.append(
            {"name": name, "threshold": threshold, "residuals": residuals, "passed": ok}
        )
    all_ok = all(r["passed"] for r in results)
    report = {"system": system, "seed": seed, "checks": results, "passed": all_ok}
    return report, 0 if all_ok else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Slot:
    """One slot of a simulated point: its CSV name, shape, offset in the
    point, and layout, which says how the point stores the entries,
    row-major: as "real" or "complex" numbers, or "realified", real parts
    then imaginary parts.  The flat real state of a complex point holds
    each slot realified."""

    name: str
    shape: tuple[int, ...]
    offset: int
    layout: str

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def span(self) -> slice:
        """The slot's coordinates in the point."""
        return slice(self.offset, self.offset + self.size * (2 if self.layout == "realified" else 1))

    def labels(self) -> list[str]:
        """CSV columns, real parts then imaginary parts for complex entries.
        The 1-based indices are joined by "_" when an axis is longer than 9,
        so (1, 11) and (11, 1) name different columns."""
        sep = "_" if max(self.shape) > 9 else ""
        idx = [sep.join(str(i + 1) for i in ix) for ix in np.ndindex(self.shape)]
        parts = [""] if self.layout == "real" else ["_re", "_im"]
        return [f"{self.name}{s}{part}" for part in parts for s in idx]

    def point(self, value) -> np.ndarray:
        """The coordinates of an array of the slot's shape."""
        v = np.ravel(value)
        return np.concatenate([v.real, v.imag]) if self.layout == "realified" else v

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Where a complex point's flat state holds the entries' real and imaginary parts."""
        re = 2 * self.offset + np.arange(self.size)
        return re, re + self.size

    def entries(self, b, real=False) -> np.ndarray:
        """The slot's entries in a stack of points, shaped (..., *shape); of
        a realified slot, only the real parts when ``real`` is true."""
        x = b[..., self.span]
        if self.layout == "realified":
            x = x[..., : self.size] if real else x[..., : self.size] + 1j * x[..., self.size :]
        return x.reshape(*x.shape[:-1], *self.shape)

    def operator(self, a) -> np.ndarray:
        """The matrix acting on the slot's coordinates as ``a`` acts on its entries."""
        if self.layout != "realified":
            return a
        return np.block([[a.real, -a.imag], [a.imag, a.real]])

    def linear(self, pairing: DualPairing, m) -> poisson.SmoothFunction:
        """Re <b, x> for the point x holding ``m`` in this slot, zero elsewhere."""
        piece = self.point(m)
        x = np.zeros(pairing.predual_dim, dtype=piece.dtype)
        x[self.span] = piece
        return linear(pairing, x)

    def frobenius_sq(self) -> poisson.SmoothFunction:
        """The sum of the squares of the slot's entries' moduli."""
        return poisson.SmoothFunction(lambda b: np.sum(np.abs(b[..., self.span]) ** 2, axis=-1))

    def trace(self, k: int) -> poisson.SmoothFunction:
        """Re tr(M^k) of the slot's matrix M.  Re tr M takes the real parts
        alone: forming re + 1j im would turn a -0.0 into +0.0."""

        def _eval(b):
            power = np.linalg.matrix_power(self.entries(b, real=k == 1), k)
            return np.real(np.trace(power, axis1=-2, axis2=-1))

        return poisson.SmoothFunction(_eval)


def _slots(layout: str, *shapes: tuple[str, tuple[int, ...]]) -> list[_Slot]:
    """Consecutive slots of one layout, from (name, shape) pairs."""
    out, offset = [], 0
    for name, shape in shapes:
        out.append(_Slot(name, shape, offset, layout))
        offset = out[-1].span.stop
    return out


@dataclass(frozen=True)
class _Declared:
    """What a system declares for ``simulate``: the pairing of its predual,
    its slots and their initial values, and its tables {config name:
    (parameter readers, builder)} of Hamiltonians and of observables.  A
    builder takes the parameters an entry gives, in the order of its
    readers (an optional one last), and returns a SmoothFunction."""

    pairing: DualPairing
    slots: list[_Slot]
    initial: list[np.ndarray]
    hamiltonians: dict
    observables: dict
    default_h: poisson.SmoothFunction | None = None  # without a hamiltonian entry


# the function parameters that an entry may leave out
_OPTIONAL_PARAMS = ("gram", "coefficients", "coupling")


def _function(entry: _Node, name: str, table: dict, keys: tuple[str, ...]):
    """The function ``table[name]`` of a ``hamiltonian`` or ``casimirs``
    entry, which gives, besides ``keys``, each of the function's parameters
    that is not optional and no other key; a builder's ValueError names it."""
    readers, build = table[name]
    entry.only((*keys, *readers))
    for key in readers:
        if key not in entry.value and key not in _OPTIONAL_PARAMS:
            raise entry[key].error(f"missing parameter of {name!r}")
    params = [read(entry[key]) for key, read in readers.items() if key in entry.value]
    try:
        return build(*params)
    except ValueError as exc:
        raise entry.error(str(exc))


def _sim_system(doc: _Node, seed: int) -> tuple[list[str], np.ndarray, Callable, dict]:
    """The configured system's state labels, flat initial state, compiled
    field X_h(b) = -ad*_{Dh(b)} b in flat real coordinates, and tracked
    columns: "H", the Hamiltonian {"name": ..., params...}, then the
    ``casimirs``, each a name or {"name": column, "fn": function, params...}
    whose column is new to the header, not empty, and free of commas,
    quotes and line breaks.  Each column maps a stack of flat states to
    one value per state."""
    system, registered, body = _lookup(doc)
    if registered.simulate is None:
        raise doc["system"].error(f"system {system!r} cannot be simulated")
    sim = registered.simulate(body, seed)
    labels = [label for slot in sim.slots for label in slot.labels()]
    b0 = np.concatenate([slot.point(v) for slot, v in zip(sim.slots, sim.initial)])
    if sim.default_h is not None and doc.get("hamiltonian", None).value is None:
        h = sim.default_h
    else:
        name = doc["hamiltonian"]["name"]
        if not (isinstance(name.required(), str) and name.value in sim.hamiltonians):
            raise name.error(f"unknown function {name.value!r}")
        h = _function(doc["hamiltonian"], name.value, sim.hamiltonians, ("name",))
    tracked, header = {"H": h.eval}, {"t", *labels}
    known = sim.observables
    for entry in doc.get("casimirs", []).entries():
        if isinstance(entry.value, str):
            entry = _Node({"fn": entry.value}, entry.path)
        fn = entry.obj().get("fn")
        col = entry.value.get("name", fn)
        if not (isinstance(fn, str) and fn in known and isinstance(col, str)):
            raise entry.error(f"bad entry {entry.value!r}: fn must be one of {sorted(known)}")
        f = _function(entry, fn, known, ("name", "fn"))
        if not col or col in header or col in tracked or any(c in col for c in ',"\r\n'):
            raise entry["name"].error(f"column name {col!r} must be new to the header, "
                                      "non-empty, and free of , \" CR and LF")
        tracked[col] = f.eval
    alg = sim.pairing.algebra
    field = poisson.hamiltonian_field(h, alg, sim.pairing)
    if alg.dtype is float:
        return labels, b0, field, tracked
    re, im = (np.concatenate(parts) for parts in zip(*(slot.flat() for slot in sim.slots)))
    order = np.argsort(np.concatenate([re, im]))

    def point(y):
        return y[..., re] + 1j * y[..., im]

    def flat(b):
        return np.concatenate([b.real, b.imag])[order]

    tracked = {name: (lambda y, f=f: f(point(y))) for name, f in tracked.items()}
    return labels, flat(b0), lambda y: flat(field(point(y))), tracked


def _pairing_functions(pairing: DualPairing) -> dict:
    """The table of functions over ``pairing`` that rigid_body and extension
    configs name, as Hamiltonians and as casimirs."""
    d = pairing.predual_dim
    vector = partial(_Node.floats, n=d)
    gram = partial(_Node.cmatrix, shape=(d, d), dtype=pairing.algebra.dtype)

    def trace_poly(coefficients=(1.0,)):
        if math.isqrt(d) ** 2 != d:
            raise ValueError(f"trace_poly needs a square predual dimension, got {d}")
        return trace_polynomial(math.isqrt(d), coefficients)

    return {
        "linear": ({"coeffs": vector}, partial(linear, pairing)),
        "quadratic": ({"gram": gram}, partial(quadratic, pairing)),
        "rigid_body": ({"inertia": vector}, rigid_body_energy),
        "trace_poly": ({"coefficients": _Node.floats}, trace_poly),  # any number of coefficients
        "norm_squared": ({}, partial(norm_squared, pairing)),
    }


def _sim_rigid_body(body: _Node, seed: int) -> _Declared:
    inertia = body["inertia"]
    moments = inertia.floats(3)
    state0 = body["initial"].floats(3)
    try:
        energy = rigid_body_energy(moments)
    except ValueError as exc:
        raise inertia.error(str(exc))
    pairing = identity_pairing(so3())
    functions = _pairing_functions(pairing)
    return _Declared(pairing, _slots("real", ("b", (3,))), [state0], functions, functions, energy)


def _built(spec: ExtensionSpec) -> tuple[LieAlgebra, DualPairing]:
    """The built extension of ``spec`` and its direct-sum pairing."""
    ext = build_extension(spec)
    return ext, direct_sum_pairing(spec, ext)


def _sim_extension(body: _Node, seed: int) -> _Declared:
    spec = _extension_spec_from_config(body)
    ext, pairing = _built(spec)
    layout = "real" if ext.dtype is float else "complex"
    slots = _slots(layout, ("c", (spec.n.dim,)), ("a", (spec.h.dim,)))
    read = _Node.floats if ext.dtype is float else _Node.cvector  # complex: [re, im] pairs too
    initial = [read(body["initial"][slot.name], slot.size) for slot in slots]
    functions = _pairing_functions(pairing)
    return _Declared(pairing, slots, initial, functions, functions)


def _sim_semidirect_qm(body: _Node, seed: int) -> _Declared:
    """The semidirect system on its realified extension, v then rho, with
    two Hamiltonians of its own: "quadratic_v" 1/2 Re <v | A v> (with the
    hermitian part of A), and "coupled", Re trace(rho H0) plus that plus
    coupling Re <v | rho v>, whose gradient adds coupling ((rho + rho^H) v, v v^H)."""
    n = _qm_n(body)
    v0 = body["v0"].cvector(n)
    rho0 = body["rho0"].cmatrix((n, n))
    _, pairing = _built(quantum.semidirect_extension_spec(n))
    v, rho = _slots("realified", ("v", (n,)), ("rho", (n, n)))

    def quadratic_v(a):
        q = np.zeros((pairing.predual_dim,) * 2)
        q[v.span, v.span] = v.operator(0.5 * (a + a.conj().T))
        return quadratic(pairing, q)

    def coupled(h0, a, coupling=1.0):
        lin, quad = rho.linear(pairing, h0), quadratic_v(a)

        def _eval(b):
            vb, rb = v.entries(b), rho.entries(b)
            vrv = np.einsum("...i,...ij,...j->...", vb.conj(), rb, vb)
            return lin.eval(b) + quad.eval(b) + coupling * np.real(vrv)

        def _grad(b):
            vb, rb = v.entries(b), rho.entries(b)
            gv, gr = (rb + rb.conj().T) @ vb, np.outer(vb, vb.conj())
            return lin.grad(b) + quad.grad(b) + coupling * np.concatenate([v.point(gv), rho.point(gr)])

        return poisson.SmoothFunction(_eval, _grad)

    square = partial(_Node.cmatrix, shape=(n, n))
    hamiltonians = {
        "linear_rho": ({"H0": square}, partial(rho.linear, pairing)),
        "quadratic_v": ({"A": square}, quadratic_v),
        "coupled": ({"H0": square, "A": square, "coupling": _Node.number}, coupled),
    }
    observables = {
        "v_norm_sq": ({}, v.frobenius_sq),
        "trace_rho_re": ({}, partial(rho.trace, 1)),
        "rho_frobenius_sq": ({}, rho.frobenius_sq),
    }
    return _Declared(pairing, [v, rho], [v0, rho0], hamiltonians, observables)


def _block(node: _Node, dims: tuple[int, int], seed: int) -> np.ndarray:
    """The full matrix of a block operator at ``dims``: the constructor
    {"constructor": "random_block", "seed": s}, or the four blocks
    {"pp", "pm", "mp", "mm"} as complex matrices; any other key is refused."""
    p, m = dims
    shapes = {"pp": (p, p), "pm": (p, m), "mp": (m, p), "mm": (m, m)}
    if isinstance(node.value, dict) and "constructor" in node.value:
        node.only(("constructor", "seed"))
        kind = node["constructor"]
        if kind.value != "random_block":
            raise kind.error(f"unknown constructor {kind.value!r}")
        rng = np.random.default_rng(node.get("seed", seed).count(0))
        # independent standard complex gaussian blocks, each real part drawn first
        b = {k: rng.normal(size=s) + 1j * rng.normal(size=s) for k, s in shapes.items()}
    else:
        node.only(shapes)
        b = {key: node[key].cmatrix(shape) for key, shape in shapes.items()}
    return np.block([[b["pp"], b["pm"]], [b["mp"], b["mm"]]])


def _sim_restricted(body: _Node, seed: int) -> _Declared:
    dims = n_plus, n_minus = _restricted_dims(body)
    kappa = body["kappa0"]
    if isinstance(kappa.required(), dict) and kappa.value.get("constructor") == "random":
        rng = np.random.default_rng(kappa.get("seed", seed).count(0))
        kappa0 = rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus))
    else:
        kappa0 = kappa.cmatrix((n_plus, n_plus))
    sigma0 = _block(body["sigma0"], dims, seed)
    _, pairing = _built(restricted.restricted_extension_spec(*dims))
    c, a = _slots("complex", ("kappa", (n_plus, n_plus)), ("sigma", (n_plus + n_minus,) * 2))
    hamiltonians = {
        "linear_kappa": ({"A": partial(_Node.cmatrix, shape=(n_plus, n_plus))},
                         partial(c.linear, pairing)),
        "linear_sigma": ({"X0": lambda node: _block(node, dims, seed)}, partial(a.linear, pairing)),
        # 1/2 Re (tr kappa^2 + tr sigma^2), which is 1/2 Re <b, b> in the trace pairing
        "quadratic": ({}, partial(quadratic, pairing, pairing.gram)),
    }
    # every Re tr(kappa^k) is a Casimir, since the flow moves kappa by conjugation
    observables = {
        "kappa_frobenius_sq": ({}, c.frobenius_sq),
        "sigma_frobenius_sq": ({}, a.frobenius_sq),
        **{f"kappa_trace_{k}": ({}, partial(c.trace, k)) for k in (2, 3, 4)},
    }
    return _Declared(pairing, [c, a], [kappa0, sigma0], hamiltonians, observables)


def _integrator_config(doc: _Node) -> IntegratorConfig:
    cfg = doc.get("integrator", {})
    try:
        return IntegratorConfig(
            method=cfg.get("method", "midpoint").value,
            dt=cfg.get("dt", 1e-2).number(),
            steps=cfg.get("steps", 100).count(1),
            newton_tol=cfg.get("newton_tol", 1e-12).number(),
            newton_max_iter=cfg.get("newton_max_iter", 50).count(1),
        )
    except ValueError as exc:  # each message opens with the setting's name
        raise cfg[str(exc).split()[0]].error(f"bad integrator settings: {exc}")


def _csv(columns: list[str], table: np.ndarray) -> Iterator[str]:
    """CSV text in pieces: the header, then the blocks of
    :func:`csvtext.row_blocks`, one line per row of ``table``, each entry
    formatted ``%.17e``, byte for byte as ``%`` writes it."""
    yield ",".join(columns) + "\n"
    yield from csvtext.row_blocks(table)


def _rows_text(rows) -> str | None:
    """A top-level list of ``[k, i, j, v]`` rows, ``v`` a scalar or an
    ``[re, im]`` pair, as ``json.dumps(..., indent=2)`` nests it, from one
    ``%`` over a repeated row template; None for any other value, or when a
    scalar is not an exact int or a finite exact float."""
    if not (type(rows) is list and rows and all(type(r) is list and len(r) == 4 for r in rows)):
        return None
    pair = type(rows[0][3]) is list
    if pair and not all(type(r[3]) is list and len(r[3]) == 2 for r in rows):
        return None
    flat = [x for r in rows for x in (r[:3] + r[3] if pair else r)]
    try:  # a NaN or an inf makes the sum non-finite; an int beyond the floats overflows it
        if not ({*map(type, flat)} <= {int, float} and math.isfinite(sum(flat))):
            return None
    except OverflowError:
        return None
    scalar = "\n      %r"
    v = "\n      [\n        %r,\n        %r\n      ]" if pair else scalar
    row = "\n    [" + ",".join([scalar] * 3 + [v]) + "\n    ]"
    return "[" + ",".join([row] * len(rows)) % tuple(flat) + "\n  ]"


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``: a top-level value of
    rows from :func:`_rows_text`, any other value dumped alone and indented
    one level (an encoded string holds no raw newline); a document without
    rows, such as a verify report, is dumped whole."""
    rows = {k: _rows_text(v) for k, v in doc.items()} if type(doc) is dict else {}
    if not (any(rows.values()) and all(type(k) is str for k in doc)):
        return json.dumps(doc, indent=2, sort_keys=True)
    items = (f"  {json.dumps(k)}: " + (rows[k] or json.dumps(
        doc[k], indent=2, sort_keys=True).replace("\n", "\n  ")) for k in sorted(doc))
    return "{\n" + ",\n".join(items) + "\n}"


def run_simulate(doc: _Node, seed: int) -> Iterator[str]:
    """The CSV of the configured flow, in pieces; the trajectory is
    integrated before this returns, the text is formed as it is read."""
    labels, state0, field, tracked = _sim_system(doc, seed)
    cfg = _integrator_config(doc)
    values = (cfg.steps + 1) * (1 + len(labels) + len(tracked))
    if values > MAX_TRAJECTORY_VALUES:
        raise doc["integrator"]["steps"].error(
            f"{cfg.steps} steps would store {values} values, more than {MAX_TRAJECTORY_VALUES}"
        )
    traj = integrate_flow(field, state0, cfg)
    series = [f(traj.states) for f in tracked.values()]
    table = np.column_stack([traj.times, traj.states, *series])
    return _csv(["t", *labels, *tracked], table)


def run_bracket_table(doc: _Node) -> dict:
    system, entry, body = _lookup(doc)
    if entry.spec is None:
        raise doc["system"].error(f"system {system!r} has no bracket table")
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
    spec: Callable[[_Node], ExtensionSpec] | None = None  # verify, bracket-table
    algebras: Callable[[], dict[str, LieAlgebra]] | None = None  # structure without a spec
    sequence: bool = False  # the body describes an exact sequence
    simulate: Callable[[_Node, int], _Declared] | None = None  # (body, seed)
    sized_by: Callable[[_Node], _Node] = lambda body: body  # named when a join is refused


_SPEC_CHECKS = ("structure", "compatibility", "predual_closure")

_SYSTEMS = {
    "extension": _System(_SPEC_CHECKS, _extension_spec_from_config, simulate=_sim_extension),
    "restricted": _System(
        _SPEC_CHECKS,
        lambda body: restricted.restricted_extension_spec(*_restricted_dims(body)),
        simulate=_sim_restricted,
        sized_by=_restricted_size,
    ),
    "semidirect_qm": _System(
        ("structure", "compatibility"),
        lambda body: quantum.semidirect_extension_spec(_qm_n(body)),
        simulate=_sim_semidirect_qm,
        sized_by=lambda body: body["n"],
    ),
    "rigid_body": _System(
        ("structure",), algebras=lambda: {"so3": so3()}, simulate=_sim_rigid_body
    ),
    "sequence": _System(("exactness", "dual_map"), sequence=True),
}


def _lookup(doc: _Node) -> tuple[str, _System, _Node]:
    """The system's name, its table entry and its config body (maybe absent)."""
    system = doc["system"]
    name = system.required()
    entry = _SYSTEMS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise system.error(f"unknown system {name!r}")
    body = doc[name]
    if body.value is not _ABSENT:
        body.obj()
    return name, entry, body


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(pieces: Iterable[str], out: str | None):
    """Write the text ``pieces`` one at a time to stdout, or to the file
    ``out``, placed under LIEPOISSON_OUTDIR when that is set and ``out``
    is relative."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    p = Path(os.environ.get("LIEPOISSON_OUTDIR", ""), out)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", "--out")


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of the process."""
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
    return parser


def run_cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"must be a non-negative integer, got {args.seed}", "--seed")
        doc = _load_config(args.config)
        if args.command == "verify":
            report, code = run_verify(doc, args.seed)
            _emit([_json_text(report) + "\n"], args.out)
            for chk in report["checks"]:  # a passed check has no residual at its threshold
                for key, value in sorted(chk["residuals"].items()):
                    if not chk["passed"] and abs(value) >= chk["threshold"]:
                        print(f"verify: FAIL {chk['name']}: {key}={value:.3e} exceeds "
                              f"{chk['threshold']:.1e}", file=sys.stderr)
            return code
        if args.command == "simulate":
            _emit(run_simulate(doc, args.seed), args.out)
            return 0
        _emit([_json_text(run_bracket_table(doc)) + "\n"], args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:  # a join of the checks or the field outgrew the bound
        _, entry, body = _lookup(doc)
        print(f"error: {ConfigError(str(exc), entry.sized_by(body).path)}", file=sys.stderr)
        return 2
    except LiePoissonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run_cli(argv))


if __name__ == "__main__":
    main()
