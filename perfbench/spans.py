"""Spans around liepoisson's public functions, recorded from outside.

``instrument`` swaps each listed function for a wrapper in every loaded
``liepoisson`` module that binds it (modules import each other's functions
by name, so patching one attribute is not enough), and returns the undo.
Spans live in flat arrays in memory: name, start, end, parent span and
operation id, plus a flag for a span nested inside another of the same
name.  ``layer_metrics`` turns them into per-layer totals, self times and
counts; ``save`` writes them out once the run is over.  ``compat_peak_mb``
measures check_compatibility's allocations in calls of its own, outside
every span, so that no span time includes tracemalloc.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, function, span name).  Inclusive span times are reported as
# ``<span>_s``; names listed twice share one span name on purpose.
TRACED = (
    ("restricted", "restricted_extension_spec", "restricted.extension_spec"),
    ("algebra", "builtin_algebra", "algebra.builtin"),
    ("algebra", "so3", "algebra.builtin"),
    ("algebra", "gl", "algebra.builtin"),
    ("algebra", "heisenberg", "algebra.builtin"),
    ("algebra", "abelian", "algebra.builtin"),
    ("algebra", "jacobi_residual", "algebra.jacobi"),
    ("algebra", "check_structure", "algebra.check_structure"),
    ("algebra", "algebra_to_json", "algebra.to_json"),
    ("algebra", "ad_star", "algebra.ad_star"),
    ("extension", "build_extension", "extension.build"),
    ("extension", "check_predual_closure", "extension.predual_closure"),
    ("sequences", "check_exact_sequence", "sequences.exactness"),
    ("sequences", "wstar_central_split", "sequences.wstar_split"),
    ("poisson", "hamiltonian_vector_field", "poisson.field"),
    ("poisson", "fd_gradient", "poisson.fd_gradient"),
    ("restricted", "restricted_hamiltonian_field", "restricted.field"),
    ("quantum", "qm_hamilton_rhs", "quantum.rhs"),
)


class Tracer:
    """Spans in flat arrays; a call made inside an open span gets it as parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.op_id = -1
        self.steps = 0
        self.compat_specs: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nested.append(self._open[nid] > 0)
        self._open[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open[self.name[idx]] -= 1

    def wrap(self, fn, span: str):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def wrap_compatibility(self, fn):
        """check_compatibility, keeping each input for ``compat_peak_mb``."""
        traced = self.wrap(fn, "extension.check_compatibility")

        @functools.wraps(fn)
        def keep(spec):
            self.compat_specs.append(spec)
            return traced(spec)

        return keep

    def wrap_integrate(self, fn):
        """integrate_flow, with spans around each field and observable call."""
        nid = self.name_id("integrators.integrate")

        @functools.wraps(fn)
        def traced(field_fn, state0, cfg, observables=None):
            field = self.wrap(field_fn, "integrators.field")
            obs = {k: self.wrap(f, "integrators.observable") for k, f in (observables or {}).items()}
            idx = self.begin(nid)
            try:
                traj = fn(field, state0, cfg, obs)
            finally:
                self.finish(idx)
            self.steps += len(traj.times) - 1
            return traj

        return traced

    def reset(self):
        """Drop recorded spans and counters; keep the name table."""
        for col in (self.name, self.start, self.end, self.parent, self.op, self.nested):
            del col[:]
        self.steps = 0
        self.compat_specs = []

    def save(self, path, op_labels: list[str]):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            op_labels=np.array(op_labels),
        )


def instrument(tracer: Tracer):
    """Swap the traced functions in; return a callable that swaps them back."""
    import liepoisson.extension
    import liepoisson.integrators

    mods = [m for k, m in sys.modules.items() if k == "liepoisson" or k.startswith("liepoisson.")]
    swaps = [
        (liepoisson.extension.check_compatibility,
         tracer.wrap_compatibility(liepoisson.extension.check_compatibility)),
        (liepoisson.integrators.integrate_flow,
         tracer.wrap_integrate(liepoisson.integrators.integrate_flow)),
    ]
    for modname, fname, span in TRACED:
        orig = getattr(sys.modules[f"liepoisson.{modname}"], fname)
        swaps.append((orig, tracer.wrap(orig, span)))
    undo = []
    for orig, wrapped in swaps:
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))

    def restore():
        for mod, attr, orig in undo:
            setattr(mod, attr, orig)

    return restore


def compat_peak_mb(check_compatibility, specs) -> float:
    """Largest tracemalloc peak of one ``check_compatibility`` call, in MB.

    Untimed: one call per distinct set of input shapes and dtypes (its
    temporaries depend on nothing else), made after the traced pass."""
    peak = 0
    seen = set()
    for spec in specs:
        arrays = (spec.h.structure_constants, spec.n.structure_constants, spec.omega.coeffs, spec.phi.mats)
        key = tuple((a.shape, a.dtype.str) for a in arrays)
        if key in seen:
            continue
        seen.add(key)
        tracemalloc.start()
        try:
            check_compatibility(spec)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per span name: inclusive seconds (outermost spans of that name
    only), self seconds (span minus its direct children) and call count."""
    n = len(tracer.start)
    names = np.frombuffer(tracer.name, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    outer = np.frombuffer(tracer.nested, dtype=np.int8) == 0
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    k = len(tracer.names)
    out = {}
    total = np.bincount(names[outer], weights=dur[outer], minlength=k)
    selfs = np.bincount(names, weights=self_t, minlength=k)
    calls = np.bincount(names, minlength=k)
    for i, name in enumerate(tracer.names):
        out[f"{name}_s"] = float(total[i])
        out[f"{name}_self_s"] = float(selfs[i])
        out[f"{name}_calls"] = int(calls[i])
    return out


def calls_per_op(tracer: Tracer, span: str, n_ops: int) -> np.ndarray:
    """Number of ``span`` spans recorded under each of ``n_ops`` operations."""
    if span not in tracer.names or not len(tracer.op):
        return np.zeros(n_ops, dtype=int)
    names = np.frombuffer(tracer.name, dtype=np.int32)
    ops = np.frombuffer(tracer.op, dtype=np.int32)
    return np.bincount(ops[names == tracer.names.index(span)], minlength=n_ops)
