"""Smoke check of the benchmark in its short mode (``--seconds 1``: the
fewest passes a run makes).

Run from the root of a source checkout:

    python3 perfbench/smoke.py

For each workload of BENCHMARK.json it makes one untraced
and two traced runs with the same seed, and checks that

* every end-to-end and per-layer metric of BENCHMARK.json is reported,
  with the unit BENCHMARK.json gives it, and nothing else is;
* every output passed the correctness gate;
* the per-layer counts repeat exactly between the two traced runs.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
The machine (nproc, BLAS threads, Python, numpy and scipy versions) and
the counts go to ``.perfbench/smoke.json``.  Exit status 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 7
RUN = [sys.executable, "perfbench/run.py"]
TIMEOUT = 300


def run(root: Path, workload: str, trace: int, cwd: Path | None = None) -> subprocess.CompletedProcess:
    argv = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd or root, capture_output=True, text=True, timeout=TIMEOUT)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(final JSON object, machine record) of a finished run."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    machine = next(json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("machine:"))
    return json.loads(lines[-1]), machine


def check_names(got: dict, spec: list[dict], what: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in spec}
    errors = [f"{what}: {n} missing" for n in want if n not in got]
    errors += [f"{what}: {n} not in BENCHMARK.json" for n in got if n not in want]
    errors += [f"{what}: {n} in {got[n]['unit']}, BENCHMARK.json says {want[n]}"
               for n in want if n in got and got[n]["unit"] != want[n]]
    return errors


def is_count(unit: str) -> bool:
    return unit in ("count", "bytes", "calls/op", "evals/step")


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    errors: list[str] = []
    record: dict = {"seed": SEED, "workloads": {}}

    for wl in names:
        print(f"smoke: {wl}", flush=True)
        try:
            plain, machine = result(run(root, wl, 0))
            first, _ = result(run(root, wl, 1))
            second, _ = result(run(root, wl, 1))
        except (RuntimeError, subprocess.TimeoutExpired, StopIteration, ValueError) as exc:
            errors.append(f"{wl}: run failed: {exc}")
            continue
        record["machine"] = machine
        errors += check_names(plain["metrics"], bench["end_to_end"], f"{wl} end_to_end")
        errors += check_names(first["metrics"], bench["per_layer"], f"{wl} per_layer")
        for res in (plain, first, second):
            if not res["correct"] or res["failed"]:
                errors.append(f"{wl}: {res['failed']} of {res['attempted']} operations failed")
        counts = {}
        for name, m in first["metrics"].items():
            if is_count(m["unit"]):
                counts[name] = m["value"]
                again = second["metrics"].get(name, {}).get("value")
                if again != m["value"]:
                    errors.append(f"{wl}: {name} read {m['value']} then {again}")
        record["workloads"][wl] = counts

    # Without the program the benchmark must refuse: no result, non-zero exit.
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(root, names[0], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            errors.append("benchmark ran without the program")

    out = root / ".perfbench" / "smoke.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"machine: {json.dumps(record.get('machine'), sort_keys=True)}")
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAIL" if errors else "ok") + f" ({out})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
