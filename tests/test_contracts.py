"""Contracts that outlive any one implementation: verify and bracket-table
bytes, the config boundary of the predual rows, storage of the structure
constants, and the library functions the benchmark wraps by name."""

import hashlib
import importlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from liepoisson import algebra as la
from liepoisson import cli
from liepoisson import extension as ext
from liepoisson import restricted as rs

ROOT = Path(__file__).resolve().parents[1]

# sha256 of stdout at --seed 0.  Every residual in these reports is an exact
# 0, so the bytes do not depend on rounding.
PINNED = {
    ("heisenberg.json", "verify"):
        "4e7b7121028e487fa3c5876298a6e51a44784b71af4f424bc36ff4b6aa5b63f5",
    ("restricted.json", "verify"):
        "5e28afeee2ae9e7c91bd8c8f81c96217651d514e75ee7048615485ed81a65485",
    ("rigidbody.json", "verify"):
        "ae3b258bacd30320b5331fe3b419527b5e610fe35518ead629520ed6c1b32e6d",
    ("semidirect_qm.json", "verify"):
        "457e26c91ddd46df9c24920fc760fc3f50e1ef2fbd195ae3bfb0632b8fad8436",
    ("sequence.json", "verify"):
        "1ddc8e9121b5567f7e8a51915115430d2056baef29d45d9cf62f67dbb817965b",
    ("heisenberg.json", "bracket-table"):
        "42dca27d230d622037ac8f4f97eee5c6b3d157c05cc919c5333bd64173262d61",
    ("restricted.json", "bracket-table"):
        "577f73bc9e83180ce4b01a3d0fca062eb0c41799c97a902178007fa4baf8c1b2",
    ("semidirect_qm.json", "bracket-table"):
        "84ca378aec7a68637b39a1cea2d54f7b75048bdc4b9dcc42c8830c71dd19fa79",
}


@pytest.mark.parametrize("config,command", sorted(PINNED), ids=lambda v: v)
def test_shipped_config_output_bytes(capsys, config, command):
    assert cli.run_cli([command, str(ROOT / "configs" / config), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[config, command]


PREDUAL_ROWS = [  # (id, key, rows); n is abelian1 and h abelian2, both real
    ("c-row-length", "c_predual", [[1.0, 0.0]]),
    ("a-row-length", "a_predual", [[1.0]]),
    ("c-dependent", "c_predual", [[0.0]]),
    ("a-dependent", "a_predual", [[1.0, 0.0], [2.0, 0.0]]),
    ("a-too-many-rows", "a_predual", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    ("c-complex-row", "c_predual", [[[1.0, 0.5]]]),
    ("a-complex-row", "a_predual", [[[1.0, 0.5], 0.0]]),
    ("c-not-finite", "c_predual", [[float("nan")]]),
    ("c-empty-row", "c_predual", [[]]),
]


@pytest.mark.filterwarnings("error")  # a complex row cast to real warns
@pytest.mark.parametrize(
    "key,rows", [p[1:] for p in PREDUAL_ROWS], ids=[p[0] for p in PREDUAL_ROWS]
)
def test_malformed_predual_rows_exit_2(tmp_path, capsys, key, rows):
    doc = json.loads((ROOT / "configs" / "heisenberg.json").read_text())
    doc["extension"][key] = rows
    doc["checks"] = ["predual_closure"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.run_cli(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert f"(field: {key})" in err


def test_constants_are_owned_once():
    """A read-only array is kept without a copy (build_extension hands over
    the one it builds); a caller's writeable array is copied, not frozen."""
    c = la.so3().structure_constants.copy()
    alg = la.LieAlgebra(c)
    assert c.flags.writeable and not np.shares_memory(alg.structure_constants, c)
    c.setflags(write=False)
    assert la.LieAlgebra(c).structure_constants is c

    spec = rs.restricted_extension_spec(3, 3)
    report = ext.check_compatibility(spec)
    tracemalloc.start()
    try:
        built = ext.build_extension(spec, report=report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not built.structure_constants.flags.writeable
    assert peak < 1.5 * built.structure_constants.nbytes


def test_benchmark_hooks_resolve():
    """perfbench/spans.py wraps library functions by module and name."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, function, _span in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"liepoisson.{module}"), function))
