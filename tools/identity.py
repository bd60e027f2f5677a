"""Output fingerprint of the CLI, for checking that a change leaves every
output byte-identical.

Run from the root of a source checkout, once per source tree:

    python3 tools/identity.py --src /path/to/base/src > base.txt
    python3 tools/identity.py --src src > head.txt
    diff base.txt head.txt

The runs are ``configs/*.json`` x {verify, simulate, bracket-table} x
``--seed`` {0, 7}, then every operation of the three benchmark workloads
at seeds 0 and 7, generated by this checkout's ``perfbench/workloads.py``
(read, not changed; no bytecode is written next to it), then the
``simulate`` documents of ``function_docs`` under RK4 and midpoint at
seeds 0 and 7: every Hamiltonian and casimir name of every system.
Each run is one ``python -m liepoisson.cli`` process on the package
under ``--src``, writing to stdout.  A config path is relative to the run's working
directory, so a message that quotes it is the same for any two trees.
One line per run: the label, the exit code and the sha256 of stdout and
of stderr, separated by tabs.  Exit status 2 when ``--src`` does not
hold the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7)
COMMANDS = ("verify", "simulate", "bracket-table")


def _workloads():
    """This checkout's perfbench/workloads.py, imported without writing bytecode."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def _cplx(m):
    """A complex matrix as a config writes it, entries as [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in m]


def function_docs():
    """(label, simulate document) for every Hamiltonian of every system,
    each with every casimir name of its system, 10 steps each; the rigid
    body's (non-square) ``trace_poly`` exits 2."""
    def named(d):  # the named functions over a pairing of dimension d, with parameters
        return {"linear": {"coeffs": [0.3, -1.0, 2.0, 0.5][:d]},
                "quadratic": {"gram": [[1.0 + i * j + (i == j) for j in range(d)] for i in range(d)]},
                "rigid_body": {"inertia": [1.0, 2.0, 3.0, 1.5][:d]},
                "trace_poly": {"coefficients": [0.5, -1.0, 0.25]},
                "norm_squared": {}}

    def every(params, names):
        return [{"name": f"{fn}_col", "fn": fn, **params.get(fn, {})} for fn in names]

    rigid = {"rigid_body": {"inertia": [1.0, 2.0, 3.0], "initial": [0.2, -0.3, 0.9]}}
    square = {"extension": {"n": "abelian1", "h": "so3", "initial": {"c": [1.0], "a": [0.5, -0.2, 0.8]}}}
    cplx = {"extension": {"n": {"dim": 1, "field": "complex"}, "h": {"dim": 2, "field": "complex"},
                          "omega": [[0, 0, 1, [1.0, 0.5]]],
                          "initial": {"c": [[1.0, 0.2]], "a": [[0.5, -0.1], 0.25]}}}
    restricted = {"restricted": {"n_plus": 2, "n_minus": 1, "kappa0": {"constructor": "random"},
                                 "sigma0": {"constructor": "random_block"}}}
    qm = {"semidirect_qm": {"n": 2, "v0": [1.0, [0.0, 0.5]], "rho0": _cplx([[0.6, 0.1j], [-0.1j, 0.4]])}}
    h0, a = _cplx([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]]), _cplx([[0.5, 1j], [0.0, 2.0]])
    qm_h = {"linear_rho": {"H0": h0}, "quadratic_v": {"A": a},
            "coupled": {"H0": h0, "A": a, "coupling": 0.4}, "coupled-default": {"H0": h0, "A": a}}
    x0 = {"constructor": "random_block", "seed": 3}
    restricted_h = {"linear_kappa": {"A": _cplx([[0.2, 1j], [-1.0, 0.5]])}, "linear_sigma": {"X0": x0},
                    "quadratic": {}}
    named3, named4 = named(3), named(4)
    systems = [
        ("rigid_body", "rigid_body", rigid, {"default": None, **named3},
         every(named3, ["linear", "quadratic", "rigid_body", "norm_squared"])),
        ("extension abelian1+so3", "extension", square, named4, every(named4, named4)),
        ("extension complex", "extension", cplx, {"quadratic": {}, "norm_squared": {}},
         every(named3, ["linear", "quadratic", "norm_squared"])),
        ("restricted (2,1)", "restricted", restricted, restricted_h,
         ["kappa_frobenius_sq", "sigma_frobenius_sq", "kappa_trace_2", "kappa_trace_3", "kappa_trace_4"]),
        ("semidirect_qm n=2", "semidirect_qm", qm, qm_h, ["v_norm_sq", "trace_rho_re", "rho_frobenius_sq"]),
    ]
    for tag, system, body, hamiltonians, casimirs in systems:
        for label, params in hamiltonians.items():
            doc = {"system": system, **body, "casimirs": casimirs}
            if params is not None:
                doc["hamiltonian"] = {"name": label.split("-")[0], **params}
            yield f"{tag} {label}", doc


def runs(workdir: Path):
    """(label, CLI arguments, working directory) of every run; the
    workload configs are written to ``workdir``."""
    for seed in SEEDS:
        for cfg in sorted((ROOT / "configs").glob("*.json")):
            for command in COMMANDS:
                yield (f"configs/{cfg.name} {command} --seed {seed}",
                       [command, f"configs/{cfg.name}", "--seed", str(seed)], ROOT)
    workloads = _workloads().WORKLOADS
    for seed in SEEDS:
        for name, make in workloads.items():
            for i, op in enumerate(make(seed).ops):
                cfg = f"{name}-{seed}-{i}.json"
                (workdir / cfg).write_text(json.dumps(op.doc))
                yield f"{name} --seed {seed} op {i} {op.label}", [op.command, cfg, "--seed", str(seed)], workdir
    for seed in SEEDS:
        for method in ("rk4", "midpoint"):
            for i, (label, doc) in enumerate(function_docs()):
                cfg = f"function-{method}-{seed}-{i}.json"
                doc = {**doc, "integrator": {"method": method, "dt": 0.01, "steps": 10}}
                (workdir / cfg).write_text(json.dumps(doc))
                yield f"{label} {method} --seed {seed}", ["simulate", cfg, "--seed", str(seed)], workdir


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the source tree holding the liepoisson package")
    src = Path(ap.parse_args(argv).src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    where = subprocess.run([sys.executable, "-c", "import liepoisson; print(liepoisson.__file__)"],
                           env=env, capture_output=True, text=True)
    if where.returncode != 0 or not Path(where.stdout.strip()).resolve().is_relative_to(src):
        print(f"identity: no liepoisson package under {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, cwd in runs(Path(tmp)):
            run = subprocess.run([sys.executable, "-m", "liepoisson.cli", *args],
                                 cwd=cwd, env=env, capture_output=True)
            digests = (hashlib.sha256(part).hexdigest() for part in (run.stdout, run.stderr))
            print(label, run.returncode, *digests, sep="\t", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
