"""liepoisson benchmark: seeded workloads through the public CLI entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload restricted-verify --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory; nothing is
installed.  One closed-loop client calls ``liepoisson.cli.run_cli`` on
generated configs, one operation after another, in passes over the
workload's operation list until ``--seconds`` is used up (at least two
passes, or one pair with ``--trace 1``).  Every output is checked (see
``gate.py``).  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics, medians over passes;
* ``--trace 1``: untraced and traced passes alternate; the per-layer
  metrics come from the traced ones, with the tracing overhead as the
  difference of the two pass walls.  The spans of the last traced pass
  are written to ``.perfbench/spans-<workload>.npz``.

Exit status 2, without a result, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# BLAS threads: fixed at one, well under nproc, so a run does not compete
# with itself for the two cores and timings stay steady.
BLAS_THREADS = 1
SETUP_SAMPLES = 4  # before the passes, and as many again after them
MIN_PASSES = 2
ROOT_SPANS = {"verify": "cli.verify", "simulate": "cli.simulate", "bracket-table": "cli.bracket_table"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "bracket_table_s": "s",
    "simulate_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metrics and their units.  ``<span>_s`` is inclusive span time,
# ``*_self_s`` excludes direct child spans (see spans.layer_metrics).
PER_LAYER_UNITS = {
    "restricted.extension_spec_s": "s",
    "algebra.builtin_s": "s",
    "algebra.jacobi_s": "s",
    "algebra.jacobi_calls": "count",
    "algebra.check_structure_s": "s",
    "algebra.to_json_s": "s",
    "algebra.ad_star_calls": "count",
    "extension.check_compatibility_s": "s",
    "extension.check_compatibility_calls": "count",
    "extension.check_compatibility_per_restricted_verify": "calls/op",
    "extension.build_s": "s",
    "extension.predual_closure_s": "s",
    "extension.peak_mb": "MB",
    "sequences.exactness_s": "s",
    "sequences.wstar_split_s": "s",
    "integrators.integrate_s": "s",
    "integrators.self_s": "s",
    "integrators.steps": "count",
    "integrators.field_evals": "count",
    "integrators.field_evals_per_step": "evals/step",
    "integrators.observable_s": "s",
    "poisson.field_s": "s",
    "poisson.field_calls": "count",
    "poisson.fd_gradient_calls": "count",
    "restricted.field_s": "s",
    "restricted.field_calls": "count",
    "quantum.rhs_s": "s",
    "quantum.rhs_calls": "count",
    "cli.verify_self_s": "s",
    "cli.bracket_table_self_s": "s",
    "cli.simulate_self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "probe.known_defects": "count",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_samples(src: Path, n: int) -> list[float]:
    """Wall times of ``n`` fresh interpreters importing liepoisson."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import liepoisson; print(liepoisson.__file__)"]

    def once() -> float:
        t = perf_counter()
        r = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        dt = perf_counter() - t
        if r.returncode != 0 or not Path(r.stdout.strip()).resolve().is_relative_to(src):
            fail(f"importing liepoisson from {src} failed: {r.stderr.strip()[-300:]}")
        return dt

    return [once() for _ in range(n)]


class Runner:
    """Runs passes over one workload's operations and judges their outputs."""

    def __init__(self, workload, workdir: Path, seed: int):
        from liepoisson.cli import run_cli

        self.run_cli = run_cli
        self.ops = workload.ops
        self.seed = seed
        self.cfgs = [workdir / f"op{i}.json" for i in range(len(self.ops))]
        self.outs = [workdir / f"op{i}.out" for i in range(len(self.ops))]
        for path, op in zip(self.cfgs, self.ops):
            path.write_text(json.dumps(op.doc))
        self.first_digest: list[str | None] = [None] * len(self.ops)
        self.verdicts: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> dict:
        """One pass; returns the pass wall, per-command sums, steps and bytes."""
        for out in self.outs:
            out.unlink(missing_ok=True)
        root_ids = {k: tracer.name_id(v) for k, v in ROOT_SPANS.items()} if tracer else {}
        times, codes = [], []
        t0 = perf_counter()
        for i, op in enumerate(self.ops):
            argv = [op.command, str(self.cfgs[i]), "--out", str(self.outs[i]), "--seed", str(self.seed)]
            if tracer is not None:
                tracer.op_id = i
                span = tracer.begin(root_ids[op.command])
            s = perf_counter()
            try:
                code = self.run_cli(argv)
            except (Exception, SystemExit) as exc:  # a traceback is a failed operation
                code = f"raised {exc!r}"
            times.append(perf_counter() - s)
            if tracer is not None:
                tracer.finish(span)
            codes.append(code)
        wall = perf_counter() - t0
        return self._judge(wall, times, codes)

    def _judge(self, wall, times, codes) -> dict:
        import gate

        sums = {"verify": 0.0, "bracket-table": 0.0, "simulate": 0.0}
        steps = 0
        nbytes = 0
        for i, op in enumerate(self.ops):
            sums[op.command] += times[i]
            data = self.outs[i].read_bytes() if self.outs[i].exists() else b""
            nbytes += len(data)
            digest = hashlib.sha256(repr(codes[i]).encode() + data).hexdigest()
            if self.first_digest[i] is None:
                self.first_digest[i] = digest
            if digest not in self.verdicts:
                if isinstance(codes[i], str):
                    self.verdicts[digest] = codes[i]
                else:
                    self.verdicts[digest] = gate.check(
                        op.command, data.decode(errors="replace"), codes[i], op.steps, op.method
                    )
            reason = self.verdicts[digest]
            if reason is None and digest != self.first_digest[i]:
                reason = "output differs from the first pass"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{op.label}: {reason}")
            elif op.command == "simulate":
                steps += op.steps
        return {"wall": wall, "sums": sums, "steps": steps, "bytes": nbytes}


def run_probes(workload, workdir: Path, seed: int) -> int:
    """Untimed probes; returns how many still reproduce their known defect."""
    from liepoisson.cli import run_cli

    reproduced = 0
    for k, probe in enumerate(workload.probes):
        cfg = workdir / f"probe{k}.json"
        cfg.write_text(json.dumps(probe.doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = run_cli(["simulate", str(cfg), "--out", str(workdir / f"probe{k}.out"),
                                "--seed", str(seed)])
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
        hit = code == 1 and probe.expect in err.getvalue()
        reproduced += hit
        status = "reproduces" if hit else f"no longer reproduces (exit {code})"
        print(f"{probe.label}: known defect {status}: {err.getvalue().strip()} [{probe.note}]")
    return reproduced


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(passes: list[dict], setup_s: float, runner: Runner) -> dict:
    def steps_per_s(p):
        return p["steps"] / p["sums"]["simulate"] if p["sums"]["simulate"] > 0 else 0.0

    values = {
        "setup_s": setup_s,
        "wall_s": median_of(passes, lambda p: p["wall"]),
        "verify_s": median_of(passes, lambda p: p["sums"]["verify"]),
        "bracket_table_s": median_of(passes, lambda p: p["sums"]["bracket-table"]),
        "simulate_s": median_of(passes, lambda p: p["sums"]["simulate"]),
        "steps_per_s": median_of(passes, steps_per_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_summary(tracer, runner: Runner, p: dict) -> dict:
    """The span-derived per-layer metrics of one traced pass; called once
    the traced functions are swapped back."""
    import spans
    from liepoisson.extension import check_compatibility

    lm = spans.layer_metrics(tracer)
    compat = spans.calls_per_op(tracer, "extension.check_compatibility", len(runner.ops))
    rv = [i for i, op in enumerate(runner.ops)
          if op.command == "verify" and op.doc["system"] == "restricted"]
    evals = lm.get("integrators.field_calls", 0)
    out = {name: lm.get(name, 0) for name in PER_LAYER_UNITS}
    out.update({
        "extension.check_compatibility_per_restricted_verify": float(compat[rv].mean()) if rv else 0.0,
        "extension.peak_mb": spans.compat_peak_mb(check_compatibility, tracer.compat_specs),
        "integrators.self_s": lm.get("integrators.integrate_self_s", 0.0),
        "integrators.steps": tracer.steps,
        "integrators.field_evals": evals,
        "integrators.field_evals_per_step": evals / tracer.steps if tracer.steps else 0.0,
        "cli.output_bytes": p["bytes"],
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "liepoisson" / "__init__.py").is_file():
        fail(f"no program at {src / 'liepoisson'}; run from the root of a liepoisson checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not args.trace:
        setup_samples(src, 1)  # fills the bytecode cache; not counted
        setup = setup_samples(src, SETUP_SAMPLES)

    import liepoisson
    import numpy
    import scipy

    if not Path(liepoisson.__file__).resolve().is_relative_to(src):
        fail(f"liepoisson imported from {liepoisson.__file__}, not from {src}")
    import spans

    workload = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    machine = {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(f"machine: {json.dumps(machine, sort_keys=True)}")

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        runner = Runner(workload, workdir, args.seed)
        plain, traced = [], []
        tracer = spans.Tracer() if args.trace else None
        start = perf_counter()
        while True:
            plain.append(runner.run_pass())
            if tracer is not None:
                tracer.reset()
                restore = spans.instrument(tracer)
                try:
                    p = runner.run_pass(tracer)
                finally:
                    restore()
                traced.append((p, traced_summary(tracer, runner, p)))
            elapsed = perf_counter() - start
            per_round = elapsed / len(plain)
            enough = len(plain) >= (1 if tracer is not None else MIN_PASSES)
            if enough and elapsed + per_round > args.seconds:
                break
        known = run_probes(workload, workdir, args.seed)
    if not args.trace:
        setup += setup_samples(src, SETUP_SAMPLES)

    if runner.failures:
        print("failures: " + "; ".join(runner.failures))
    if tracer is None:
        metrics = end_to_end(plain, statistics.median(setup), runner)
    else:
        tracer.save(out_dir / f"spans-{args.workload}.npz", [op.label for op in workload.ops])
        values = {name: statistics.median(s[name] for _, s in traced) for name in PER_LAYER_UNITS}
        values["trace.overhead_s"] = (median_of([p for p, _ in traced], lambda p: p["wall"])
                                      - median_of(plain, lambda p: p["wall"]))
        values["probe.known_defects"] = known
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
