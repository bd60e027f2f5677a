"""Size sweep of the restricted block model: wall time and traced memory of
``verify``, a 10-step RK4 ``simulate`` and ``bracket-table`` at each
``(n, n)``.

Run from the root of a source checkout:

    python3 tools/sweep.py                       # CLI (2,2)..(14,14), library (16,16)
    python3 tools/sweep.py --cli-max 6 --library # CLI (2,2)..(6,6) only

Each point runs in its own process, on the package under ``src/`` of this
checkout.  Up to ``--cli-max`` a point is one ``liepoisson.cli.run_cli``
call on the config below; the CLI admits sizes up to (14,14).  The
``--library`` sizes, beyond what the CLI admits, call the library
functions that the CLI would call: for verify the structure residuals of
n, h and the built extension, the compatibility residuals and the
whole-space predual closure; for simulate the compiled field of the
quadratic Hamiltonian, integrated in real coordinates from the same
random initial point; for bracket-table the compatibility report, the
built extension's ``algebra_to_json`` document and the CLI's JSON writer.

    {"system": "restricted", "hamiltonian": {"name": "quadratic"},
     "restricted": {"n_plus": n, "n_minus": n, "kappa0": {"constructor": "random"},
                    "sigma0": {"constructor": "random_block"}},
     "integrator": {"method": "rk4", "dt": 1e-3, "steps": 10}}

``wall_s`` is the best of ``REPEATS`` untraced calls, so that neighbouring
sizes can be ordered, and ``traced_peak_mb`` the ``tracemalloc`` peak of
one more call.  The points are printed one JSON line each, and
the whole sweep is written to ``--out`` when given.  Exit status 1 when a
point does not exit 0 or its traced peak exceeds ``BOUND_MB``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS, DT = 10, 1e-3
BOUND_MB = 128  # traced peak bound per point
REPEATS = 3  # untraced calls per point; wall_s is the fastest


def config(n) -> dict:
    return {
        "system": "restricted",
        "hamiltonian": {"name": "quadratic"},
        "restricted": {"n_plus": n, "n_minus": n, "kappa0": {"constructor": "random"},
                       "sigma0": {"constructor": "random_block"}},
        "integrator": {"method": "rk4", "dt": DT, "steps": STEPS},
    }


def cli_call(n: int, command: str, workdir: Path):
    """One run_cli call on the sweep config; returns its exit code."""
    from liepoisson import cli

    cfg = workdir / f"restricted{n}.json"
    cfg.write_text(json.dumps(config(n)))
    return lambda: cli.run_cli([command, str(cfg), "--out", str(workdir / f"{command}.out")])


def library_call(n: int, command: str, workdir: Path):
    """The library calls behind one CLI call; returns 0 when every residual
    passes the CLI's default threshold (simulate: always 0)."""
    import numpy as np

    from liepoisson import cli, poisson, restricted
    from liepoisson.algebra import algebra_to_json, check_structure
    from liepoisson.extension import (
        build_extension, check_compatibility, check_predual_closure, direct_sum_pairing,
    )
    from liepoisson.functions import quadratic
    from liepoisson.integrators import IntegratorConfig, integrate_flow
    from liepoisson.tolerances import COMPATIBILITY_PASS, VERIFICATION_TOL

    def verify() -> int:
        spec = restricted.restricted_extension_spec(n, n)
        compat = check_compatibility(spec)
        algebras = [spec.n, spec.h]
        if compat.verdict == "pass":
            algebras.append(build_extension(spec, report=compat))
        structure = [v for alg in algebras for v in check_structure(alg).as_dict().values()]
        closure = check_predual_closure(spec, np.eye(spec.n.dim), np.eye(spec.h.dim))
        ok = (compat.max_residual < COMPATIBILITY_PASS and max(structure) < VERIFICATION_TOL
              and closure.max_residual < VERIFICATION_TOL and len(algebras) == 3)
        return 0 if ok else 1

    def simulate() -> int:
        rng = np.random.default_rng(0)  # the CLI's draws at --seed 0
        kappa0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rng = np.random.default_rng(0)
        shape = (n, n)
        blocks = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4)]
        sigma0 = np.block([blocks[:2], blocks[2:]])
        spec = restricted.restricted_extension_spec(n, n)
        ext = build_extension(spec)
        pairing = direct_sum_pairing(spec, ext)
        h = quadratic(pairing, pairing.gram)
        field = poisson.hamiltonian_field(h, ext, pairing)
        d = ext.dim

        def flat_field(y):
            f = field(y[:d] + 1j * y[d:])
            return np.concatenate([f.real, f.imag])

        b0 = np.concatenate([kappa0.ravel(), sigma0.ravel()])
        traj = integrate_flow(flat_field, np.concatenate([b0.real, b0.imag]),
                              IntegratorConfig("rk4", DT, STEPS))
        h.eval(traj.states[:, :d] + 1j * traj.states[:, d:])
        return 0

    def bracket_table() -> int:
        spec = restricted.restricted_extension_spec(n, n)
        compat = check_compatibility(spec)
        table = algebra_to_json(build_extension(spec, report=compat))
        table["compatibility"] = compat.as_dict()
        (workdir / "bracket-table.out").write_text(cli._json_text(table) + "\n")
        return 0 if compat.verdict == "pass" else 1

    return {"verify": verify, "simulate": simulate, "bracket-table": bracket_table}[command]


def point(n: int, command: str, via: str) -> dict:
    """Time ``REPEATS`` calls, then trace the peak of one more."""
    sys.path.insert(0, str(ROOT / "src"))
    make = cli_call if via == "cli" else library_call
    with tempfile.TemporaryDirectory() as tmp:
        call = make(n, command, Path(tmp))
        wall = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            code = call()
            wall = min(wall, time.perf_counter() - start)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"n": n, "command": command, "via": via, "exit": code,
            "wall_s": round(wall, 3), "traced_peak_mb": round(peak / 2**20, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cli-max", type=int, default=14, help="largest n run through the CLI")
    ap.add_argument("--library", type=int, nargs="*", default=[16],
                    help="sizes run through the library calls (none when given empty)")
    ap.add_argument("--out", help="write the sweep as JSON to this file")
    ap.add_argument("--point", nargs=3, metavar=("N", "COMMAND", "VIA"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point:
        n, command, via = args.point
        print(json.dumps(point(int(n), command, via)))
        return 0
    plan = [(n, "cli") for n in range(2, args.cli_max + 1)] + [(n, "library") for n in args.library]
    points, failed = [], False
    for n, via in plan:
        for command in ("verify", "simulate", "bracket-table"):
            run = subprocess.run(
                [sys.executable, __file__, "--point", str(n), command, via],
                capture_output=True, text=True,
            )
            if run.returncode != 0:
                result = {"n": n, "command": command, "via": via, "exit": None,
                          "stderr": run.stderr.strip()[-500:]}
            else:
                result = json.loads(run.stdout.strip().splitlines()[-1])
            failed |= result["exit"] != 0 or result.get("traced_peak_mb", 0) > BOUND_MB
            points.append(result)
            print(json.dumps(result), flush=True)
    if args.out:
        sweep = {"config": config("n"), "bound_mb": BOUND_MB, "points": points}
        Path(args.out).write_text(json.dumps(sweep, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
