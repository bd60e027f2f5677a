"""Output fingerprint of the CLI, for checking that a change leaves every
output byte-identical.

Run from the root of a source checkout, once per source tree:

    python3 tools/identity.py --src /path/to/base/src > base.txt
    python3 tools/identity.py --src src > head.txt
    diff base.txt head.txt

The runs are ``configs/*.json`` x {verify, simulate, bracket-table} x
``--seed`` {0, 7}, then every operation of the three benchmark workloads
at seeds 0 and 7, generated by this checkout's ``perfbench/workloads.py``
(read, not changed; no bytecode is written next to it).  Each run is one
``python -m liepoisson.cli`` process on the package under ``--src``,
writing to stdout.  A config path is relative to the run's working
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
