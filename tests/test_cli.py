import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson import cli
from liepoisson.errors import ConfigError, LiePoissonError


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def rigid_config():
    return {
        "system": "rigid_body",
        "rigid_body": {"inertia": [1.0, 2.0, 3.0], "initial": [0.2, -0.3, 0.9]},
        "integrator": {"method": "midpoint", "dt": 0.01, "steps": 50},
        "casimirs": [{"name": "casimir_b2", "fn": "norm_squared"}],
    }


def heisenberg_config():
    return {
        "system": "extension",
        "extension": {
            "n": "abelian1",
            "h": "abelian2",
            "omega": [[0, 0, 1, 1.0]],
            "initial": {"c": [1.0], "a": [0.5, -0.25]},
        },
        "hamiltonian": {"name": "quadratic"},
        "checks": [
            {"name": "structure", "threshold": 1e-10},
            {"name": "compatibility", "threshold": 1e-10},
            {"name": "predual_closure", "threshold": 1e-10},
        ],
        "integrator": {"method": "rk4", "dt": 0.01, "steps": 20},
    }


def broken_omega_config(seed=0):
    rng = np.random.default_rng(seed)
    triplets = []
    for a in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                triplets.append([a, i, j, float(rng.normal())])
    phi = [rng.normal(size=(3, 3)).tolist() for _ in range(3)]
    return {
        "system": "extension",
        "extension": {"n": "abelian3", "h": "so3", "omega": triplets, "phi": phi},
        "checks": [{"name": "compatibility", "threshold": 1e-8}],
    }


def test_verify_heisenberg_passes(tmp_path, capsys):
    code = cli.run_cli(["verify", write(tmp_path, "h.json", heisenberg_config())])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    for chk in report["checks"]:
        for value in chk["residuals"].values():
            assert abs(value) < 1e-10


def test_verify_broken_omega_fails_naming_cocycle(tmp_path, capsys):
    code = cli.run_cli(["verify", write(tmp_path, "b.json", broken_omega_config())])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    residuals = report["checks"][0]["residuals"]
    assert residuals["cocycle_residual"] > 1e-3
    assert "cocycle_residual" in captured.err


def test_verify_malformed_config_exits_2(tmp_path, capsys):
    code = cli.run_cli(
        ["verify", write(tmp_path, "bad.json", {"system": "extension", "extension": {"n": "so3"}})]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "h" in captured.err


def test_verify_unknown_system_exits_2(tmp_path, capsys):
    code = cli.run_cli(["verify", write(tmp_path, "u.json", {"system": "nope"})])
    assert code == 2
    assert "system" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    for data in (b"{not json", b"\xff\xfe", b"[" * 100000):  # not JSON, not UTF-8, too deep
        p.write_bytes(data)
        assert cli.run_cli(["verify", str(p)]) == 2
    capsys.readouterr()


def test_simulate_rigid_body_csv_schema(tmp_path):
    out = tmp_path / "traj.csv"
    code = cli.run_cli(
        ["simulate", write(tmp_path, "rb.json", rigid_config()), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,b1,b2,b3,H,casimir_b2"
    assert len(lines) == 52  # header + initial + 50 steps
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == pytest.approx([0.2, -0.3, 0.9])


def test_simulate_conserves_energy(tmp_path):
    out = tmp_path / "traj.csv"
    cfg = rigid_config()
    cfg["integrator"]["steps"] = 200
    cli.run_cli(["simulate", write(tmp_path, "rb.json", cfg), "--out", str(out)])
    lines = out.read_text().strip().splitlines()[1:]
    h_values = [float(l.split(",")[4]) for l in lines]
    assert max(abs(h - h_values[0]) for h in h_values) < 1e-10


def test_simulate_deterministic(tmp_path):
    cfg = {
        "system": "restricted",
        "restricted": {
            "n_plus": 2,
            "n_minus": 2,
            "kappa0": {"constructor": "random", "seed": 3},
            "sigma0": {"constructor": "random_block", "seed": 4},
        },
        "hamiltonian": {"name": "quadratic"},
        "integrator": {"method": "rk4", "dt": 0.005, "steps": 20},
        "casimirs": [{"name": "khs", "fn": "kappa_frobenius_sq"}],
    }
    p = write(tmp_path, "r.json", cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run_cli(["simulate", p, "--seed", "7", "--out", str(out1)]) == 0
    assert cli.run_cli(["simulate", p, "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # JSON reports are byte-identical too
    cfg["checks"] = [{"name": "compatibility", "threshold": 1e-12}]
    p = write(tmp_path, "rv.json", cfg)
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.run_cli(["verify", p, "--seed", "7", "--out", str(rep1)]) == 0
    assert cli.run_cli(["verify", p, "--seed", "7", "--out", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()


def test_simulate_semidirect_qm(tmp_path):
    cfg = {
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
        "integrator": {"method": "rk4", "dt": 0.01, "steps": 50},
    }
    out = tmp_path / "qm.csv"
    assert cli.run_cli(["simulate", write(tmp_path, "qm.json", cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and header[-2] == "H" and header[-1] == "trace_rho"
    # trace of rho is conserved for a rho-only hamiltonian
    tr = [float(l.split(",")[-1]) for l in lines[1:]]
    assert max(abs(x - tr[0]) for x in tr) < 1e-9


def test_simulate_extension_heisenberg(tmp_path):
    out = tmp_path / "h.csv"
    code = cli.run_cli(
        ["simulate", write(tmp_path, "h.json", heisenberg_config()), "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,c1,a1,a2,H"


def test_simulate_bad_integrator_exits_2(tmp_path, capsys):
    cfg = rigid_config()
    cfg["integrator"]["dt"] = -1.0
    assert cli.run_cli(["simulate", write(tmp_path, "rb.json", cfg)]) == 2
    assert "(field: integrator.dt)" in capsys.readouterr().err


def test_verify_sequence_system(tmp_path, capsys):
    cfg = {
        "system": "sequence",
        "sequence": {
            "first": [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]],
            "second": [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
            "wstar": {"block_dims": [2, 3], "ideal_blocks": [0]},
        },
        "checks": ["exactness", "dual_map", "wstar_split"],
    }
    code = cli.run_cli(["verify", write(tmp_path, "s.json", cfg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["exactness", "dual_map", "wstar_split"]
    assert report["passed"]


def test_verify_sequence_with_attached_algebras(tmp_path, capsys):
    # so(3) -> so(3) + gl(2) -> gl(2): inclusion and projection are Lie
    # homomorphisms, so the hom residuals appear and vanish
    from liepoisson import algebra as la
    from liepoisson import extension as ex

    so3, gl2 = la.so3(), la.gl(2)
    direct_sum = ex.build_extension(
        ex.ExtensionSpec(
            so3, gl2,
            ex.SkewBilinearMap.zero(gl2, so3),
            ex.DerivationMap.zero(gl2, so3),
            la.identity_pairing(so3), la.identity_pairing(gl2),
        )
    )
    cfg = {
        "system": "sequence",
        "sequence": {
            "first": np.vstack([np.eye(3), np.zeros((4, 3))]).tolist(),
            "second": np.hstack([np.zeros((4, 3)), np.eye(4)]).tolist(),
            "attach_algebras": {
                "u": "so3",
                "v": la.algebra_to_json(direct_sum),
                "w": "gl2",
            },
        },
        "checks": ["exactness"],
    }
    code = cli.run_cli(["verify", write(tmp_path, "sa.json", cfg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    residuals = report["checks"][0]["residuals"]
    assert residuals["hom_residual_first"] == 0.0
    assert residuals["hom_residual_second"] == 0.0
    assert report["passed"]


def test_verify_restricted_system(tmp_path, capsys):
    cfg = {
        "system": "restricted",
        "restricted": {"n_plus": 2, "n_minus": 2},
        "checks": [{"name": "compatibility", "threshold": 1e-12}],
    }
    assert cli.run_cli(["verify", write(tmp_path, "r.json", cfg)]) == 0
    capsys.readouterr()


def test_bracket_table_heisenberg(tmp_path, capsys):
    code = cli.run_cli(["bracket-table", write(tmp_path, "h.json", heisenberg_config())])
    table = json.loads(capsys.readouterr().out)
    assert code == 0
    assert table["dim"] == 3
    # the only nonzero bracket is [h:e1, h:e2] = n:e1
    assert table["structure_constants"] == [[0, 1, 2, 1.0]]
    assert table["compatibility"]["verdict"] == "pass"


def test_outdir_environment_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LIEPOISSON_OUTDIR", str(tmp_path / "outputs"))
    code = cli.run_cli(
        ["verify", write(tmp_path, "h.json", heisenberg_config()), "--out", "nested/report.json"]
    )
    assert code == 0
    target = tmp_path / "outputs" / "nested" / "report.json"
    assert target.exists()
    assert json.loads(target.read_text())["passed"]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
SHIPPED = {p.name: json.loads(p.read_text()) for p in CONFIGS}
NO_OUTPUT = {
    ("rigidbody.json", "bracket-table"),
    ("sequence.json", "simulate"),
    ("sequence.json", "bracket-table"),
}


@pytest.mark.parametrize("command", ["verify", "simulate", "bracket-table"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_exit_codes(tmp_path, capsys, config, command):
    out = tmp_path / "out"
    code = cli.run_cli([command, str(config), "--out", str(out)])
    err = capsys.readouterr().err
    if (config.name, command) in NO_OUTPUT:
        assert code == 2 and "(field: system)" in err
    else:
        assert code == 0, err
        assert out.stat().st_size > 0


def test_shipped_configs_run_without_scipy():
    """Every shipped config under every subcommand exits as in a normal run
    in an interpreter where importing scipy fails."""
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from liepoisson import cli\n"
        "codes = {}\n"
        "for cfg in sys.argv[1:]:\n"
        "    for cmd in ('verify', 'simulate', 'bracket-table'):\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            code = cli.run_cli([cmd, cfg])\n"
        "        codes[f'{cfg} {cmd}'] = [code, bool(out.getvalue()), err.getvalue()]\n"
        "print(json.dumps(codes))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", script, *map(str, CONFIGS)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert run.returncode == 0, run.stderr
    codes = json.loads(run.stdout)
    for config in CONFIGS:
        for command in ("verify", "simulate", "bracket-table"):
            code, wrote, err = codes[f"{config} {command}"]
            if (config.name, command) in NO_OUTPUT:
                assert code == 2 and "(field: system)" in err
            else:
                assert (code, wrote, err) == (0, True, ""), (config.name, command, err)


def _with(doc, path, value):
    """A copy of ``doc`` with the dotted ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _zero_blocks(n_plus, n_minus, first):
    """The four zero blocks of a block operator, [re, im] pairs, with
    ``first`` at pp[0][0]."""
    shapes = {"pp": (n_plus, n_plus), "pm": (n_plus, n_minus),
              "mp": (n_minus, n_plus), "mm": (n_minus, n_minus)}
    doc = {key: [[[0.0, 0.0]] * c for _ in range(r)] for key, (r, c) in shapes.items()}
    doc["pp"][0][0] = first
    return doc


MALFORMED = [  # (id, command, config, field named in the diagnostic)
    ("inertia-length", "simulate",
     _with(rigid_config(), "rigid_body.inertia", [1.0, 2.0]), "rigid_body.inertia"),
    ("inertia-negative", "simulate",
     _with(rigid_config(), "rigid_body.inertia", [1.0, -2.0, 3.0]), "rigid_body.inertia"),
    ("initial-text", "simulate",
     _with(rigid_config(), "rigid_body.initial", ["a", 0.0, 1.0]), "rigid_body.initial"),
    ("omega-float-index", "verify",
     _with(heisenberg_config(), "extension.omega", [[0, 0.5, 1, 1.0]]), "extension.omega"),
    ("builtin-gl0", "verify", _with(heisenberg_config(), "extension.n", "gl0"), "extension.n"),
    ("n_plus-text", "verify",
     {"system": "restricted", "restricted": {"n_plus": "x", "n_minus": 2}}, "restricted.n_plus"),
    ("check-entry-number", "verify", _with(heisenberg_config(), "checks", [5]), "checks"),
    ("system-list", "verify", {"system": ["a"]}, "system"),
    ("casimir-unknown-fn", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "c", "fn": "bogus"}]), "casimirs"),
    ("linear-coeffs-length", "simulate",
     _with(rigid_config(), "hamiltonian", {"name": "linear", "coeffs": [1.0, 2.0]}),
     "hamiltonian.coeffs"),
    ("inline-dim0", "verify",
     _with(heisenberg_config(), "extension.n", {"dim": 0, "structure_constants": []}),
     "extension.n.dim"),
    ("omega-value-empty", "verify",
     _with(heisenberg_config(), "extension.omega", [[0, 0, 1, []]]), "extension.omega"),
    ("sequence-first-empty", "verify", {"system": "sequence", "sequence": {"first": []}},
     "sequence.first"),
    ("wstar-dim-zero", "verify",
     {"system": "sequence", "sequence": {"wstar": {"block_dims": [0, 2], "ideal_blocks": [0]}},
      "checks": ["wstar_split"]}, "sequence.wstar.block_dims"),
    ("wstar-ideal-missing-block", "verify",
     {"system": "sequence", "sequence": {"wstar": {"block_dims": [1, 2], "ideal_blocks": [5]}},
      "checks": ["wstar_split"]}, "sequence.wstar.ideal_blocks"),
    ("initial-null", "simulate",
     _with(rigid_config(), "rigid_body.initial", [None, 0.0, 1.0]), "rigid_body.initial"),
    ("initial-string-numbers", "simulate",
     _with(rigid_config(), "rigid_body.initial", ["0.2", "-0.3", "0.9"]), "rigid_body.initial"),
    ("trace_poly-nonsquare-hamiltonian", "simulate",
     _with(SHIPPED["rigidbody.json"], "hamiltonian", {"name": "trace_poly"}), "hamiltonian"),
    ("trace_poly-nonsquare-casimir", "simulate",
     _with(SHIPPED["rigidbody.json"], "casimirs", [{"name": "t", "fn": "trace_poly"}]),
     "casimirs"),
    ("trace_poly-coefficients-text", "simulate",
     _with(SHIPPED["rigidbody.json"], "casimirs",
           [{"name": "t", "fn": "trace_poly", "coefficients": "ab"}]), "casimirs.coefficients"),
    ("v0-string", "simulate", _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", "12"),
     "semidirect_qm.v0"),
    ("v0-string-numbers", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", ["1", "2"]), "semidirect_qm.v0"),
    ("v0-bool", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", [True, 0.5]), "semidirect_qm.v0"),
    ("v0-long-pair", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", [[1.0, 0.0, 7.0], 0.5]),
     "semidirect_qm.v0"),
    ("rho0-string-numbers", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.rho0", [["0.6", 0.0], [0.1, 0.2]]),
     "semidirect_qm.rho0"),
    ("H0-bool", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "hamiltonian.H0", [[True, 0.0], [0.0, 0.3]]),
     "hamiltonian.H0"),
    ("kappa0-long-pair", "simulate",
     _with(SHIPPED["restricted.json"], "restricted.kappa0",
           [[1.0, 0.0, 0.0], [0.0, [1.0, 0.0, 7.0], 0.0], [0.0, 0.0, 1.0]]), "restricted.kappa0"),
    ("c_predual-string-numbers", "verify",
     _with(SHIPPED["heisenberg.json"], "extension.c_predual", [["1"]]), "extension.c_predual"),
    ("newton-max-iter-zero", "simulate",
     _with(rigid_config(), "integrator.newton_max_iter", 0), "integrator.newton_max_iter"),
    ("newton-tol-negative", "simulate",
     _with(rigid_config(), "integrator.newton_tol", -1.0), "integrator.newton_tol"),
    ("dt-zero", "simulate", _with(rigid_config(), "integrator.dt", 0), "integrator.dt"),
    ("method-unknown", "simulate",
     _with(rigid_config(), "integrator.method", "euler"), "integrator.method"),
    ("steps-bool", "simulate", _with(rigid_config(), "integrator.steps", True), "integrator.steps"),
    ("dt-string", "simulate", _with(rigid_config(), "integrator.dt", "0.01"), "integrator.dt"),
    ("omega-value-bool", "verify",
     _with(heisenberg_config(), "extension.omega", [[0, 0, 1, True]]), "extension.omega"),
    ("quadratic-gram-shape", "simulate",
     _with(SHIPPED["rigidbody.json"], "hamiltonian",
           {"name": "quadratic", "gram": [[1, 0], [0, 1]]}), "hamiltonian.gram"),
    ("quadratic-gram-text", "simulate",
     _with(SHIPPED["rigidbody.json"], "hamiltonian",
           {"name": "quadratic", "gram": [[1, 0, 0], [0, "1", 0], [0, 0, 1]]}), "hamiltonian.gram"),
    ("quadratic-gram-complex-in-real", "simulate",
     _with(SHIPPED["rigidbody.json"], "hamiltonian",
           {"name": "quadratic", "gram": [[1, 0, 0], [0, [1, 1], 0], [0, 0, 1]]}),
     "hamiltonian.gram"),
    ("casimir-gram-shape", "simulate",
     _with(SHIPPED["rigidbody.json"], "casimirs",
           [{"name": "q", "fn": "quadratic", "gram": [[1, 0, 0]]}]), "casimirs.gram"),
    ("rho0-shape", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.rho0", [[1.0, 0.0, 0.0]] * 3),
     "semidirect_qm.rho0"),
    ("v0-infinite", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", [float("inf"), 0.5]),
     "semidirect_qm.v0"),
    ("steps-beyond-storage", "simulate",
     _with(rigid_config(), "integrator.steps", 10**12), "integrator.steps"),
    ("quadratic-gramm", "simulate",
     _with(SHIPPED["rigidbody.json"], "hamiltonian",
           {"name": "quadratic", "gramm": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}), "hamiltonian.gramm"),
    ("norm_squared-casimir-gram", "simulate",
     _with(SHIPPED["rigidbody.json"], "casimirs",
           [{"name": "c", "fn": "norm_squared", "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]),
     "casimirs.gram"),
    ("restricted-quadratic-H0", "simulate",
     _with(SHIPPED["restricted.json"], "hamiltonian.H0", [[1.0, 0.0], [0.0, 1.0]]),
     "hamiltonian.H0"),
    ("kappa_trace_2-param", "simulate",
     _with(SHIPPED["restricted.json"], "casimirs",
           [{"name": "k2", "fn": "kappa_trace_2", "power": 3}]), "casimirs.power"),
    ("semidirect-linear_rho-A", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "hamiltonian.A", [[1.0, 0.0], [0.0, 1.0]]),
     "hamiltonian.A"),
    ("restricted-linear_kappa-no-A", "simulate",
     _with(SHIPPED["restricted.json"], "hamiltonian", {"name": "linear_kappa"}), "hamiltonian.A"),
    ("restricted-unknown-name", "simulate",
     _with(SHIPPED["restricted.json"], "hamiltonian", {"name": "bogus"}), "hamiltonian.name"),
    ("semidirect-linear_rho-no-H0", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "hamiltonian", {"name": "linear_rho"}),
     "hamiltonian.H0"),
    ("semidirect-coupled-no-A", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "hamiltonian.name", "coupled"), "hamiltonian.A"),
    ("casimir-linear-no-coeffs", "simulate",
     _with(SHIPPED["rigidbody.json"], "casimirs", [{"fn": "linear"}]), "casimirs.coeffs"),
    ("section-absent", "verify", {"system": "restricted"}, "restricted"),
    ("initial-absent", "simulate",
     {**heisenberg_config(), "extension": {"n": "abelian1", "h": "abelian2"}}, "extension.initial"),
    ("initial-key-absent", "simulate",
     _with(heisenberg_config(), "extension.initial", {"c": [1.0]}), "extension.initial.a"),
    ("inline-dim-float", "verify",
     _with(heisenberg_config(), "extension.n", {"dim": 2.5}), "extension.n.dim"),
    ("inline-dim-string", "verify",
     _with(heisenberg_config(), "extension.n", {"dim": "1"}), "extension.n.dim"),
    ("inline-negative-index", "verify",
     _with(heisenberg_config(), "extension.h",
           {"dim": 2, "structure_constants": [[0, 0, -1, 1.0]]}),
     "extension.h.structure_constants"),
    ("inline-field-quaternion", "verify",
     _with(heisenberg_config(), "extension.n", {"dim": 1, "field": "quaternion"}),
     "extension.n.field"),
    ("inline-gram-negative-zero", "verify",
     _with(heisenberg_config(), "extension.n", {"dim": 1, "gram": [[-0.0]]}), "extension.n.gram"),
    ("inline-labels-length", "verify",
     _with(heisenberg_config(), "extension.n", {"dim": 1, "basis_labels": ["a", "b"]}),
     "extension.n"),
    ("builtin-dict-string-n", "verify",
     _with(heisenberg_config(), "extension.n", {"builtin": "gl", "n": "2"}), "extension.n.n"),
    ("sigma0-long-pair", "simulate",
     _with(SHIPPED["restricted.json"], "restricted.sigma0", _zero_blocks(3, 2, [1.0, 0.0, 7.0])),
     "restricted.sigma0.pp"),
    ("sigma0-bool-pair", "simulate",
     _with(SHIPPED["restricted.json"], "restricted.sigma0", _zero_blocks(3, 2, [True, 0])),
     "restricted.sigma0.pp"),
    ("sigma0-nan", "simulate",
     _with(SHIPPED["restricted.json"], "restricted.sigma0", _zero_blocks(3, 2, float("nan"))),
     "restricted.sigma0.pp"),
    ("X0-infinite", "simulate",
     _with(SHIPPED["restricted.json"], "hamiltonian",
           {"name": "linear_sigma", "X0": _zero_blocks(3, 2, float("inf"))}), "hamiltonian.X0.pp"),
    ("sigma0-unknown-key", "simulate",
     _with(SHIPPED["restricted.json"], "restricted.sigma0",
           {**_zero_blocks(3, 2, 0.0), "dims": [3, 2]}), "restricted.sigma0.dims"),
    ("X0-misspelt-block", "simulate",
     _with(SHIPPED["restricted.json"], "hamiltonian",
           {"name": "linear_sigma", "X0": {**_zero_blocks(3, 2, 0.0), "Pm": [[0.0, 0.0]] * 3}}),
     "hamiltonian.X0.Pm"),
    ("attach-algebras-list", "verify",
     _with(SHIPPED["sequence.json"], "sequence.attach_algebras", [1]), "sequence.attach_algebras"),
    ("attach-algebras-unknown-space", "verify",
     _with(SHIPPED["sequence.json"], "sequence.attach_algebras", {"x": "so3"}),
     "sequence.attach_algebras.x"),
    ("sequence-first-complex", "verify",
     _with(SHIPPED["sequence.json"], "sequence.first",
           [[[1, 5], *SHIPPED["sequence.json"]["sequence"]["first"][0][1:]],
            *SHIPPED["sequence.json"]["sequence"]["first"][1:]]),
     "sequence.first"),
    ("casimir-name-H", "simulate",
     _with(SHIPPED["rigidbody.json"], "casimirs", [{"name": "H", "fn": "norm_squared"}]),
     "casimirs.name"),
    ("casimir-name-t", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "t", "fn": "norm_squared"}]), "casimirs.name"),
    ("casimir-name-state-label", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "b2", "fn": "norm_squared"}]), "casimirs.name"),
    ("casimir-name-duplicate", "simulate",
     _with(rigid_config(), "casimirs", ["norm_squared", {"name": "norm_squared", "fn": "quadratic"}]),
     "casimirs.name"),
    ("casimir-name-comma", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "a,b", "fn": "norm_squared"}]), "casimirs.name"),
    ("casimir-name-newline", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "a\nb", "fn": "norm_squared"}]), "casimirs.name"),
    ("casimir-name-empty", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "", "fn": "norm_squared"}]), "casimirs.name"),
    ("casimir-name-quote", "simulate",
     _with(rigid_config(), "casimirs", [{"name": 'a"b', "fn": "norm_squared"}]), "casimirs.name"),
    ("casimir-name-carriage-return", "simulate",
     _with(rigid_config(), "casimirs", [{"name": "a\rb", "fn": "norm_squared"}]), "casimirs.name"),
]


@pytest.mark.parametrize(
    "command,doc,field", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, command, doc, field):
    code = cli.run_cli([command, write(tmp_path, "bad.json", doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert f"(field: {field})" in err


_NAMED = {"linear", "quadratic", "rigid_body", "trace_poly", "norm_squared"}
ACCEPTED = {  # system: (its Hamiltonian names, its casimir names)
    "rigid_body": (_NAMED, _NAMED),
    "extension": (_NAMED, _NAMED),
    "restricted": ({"linear_kappa", "linear_sigma", "quadratic"},
                   {"kappa_frobenius_sq", "sigma_frobenius_sq", "kappa_trace_2", "kappa_trace_3",
                    "kappa_trace_4"}),
    "semidirect_qm": ({"linear_rho", "quadratic_v", "coupled"},
                      {"v_norm_sq", "trace_rho_re", "rho_frobenius_sq"}),
}
# system: (a Hamiltonian name and a casimir name of another system)
FOREIGN = {"rigid_body": ("linear_rho", "kappa_trace_2"), "extension": ("quadratic_v", "v_norm_sq"),
           "restricted": ("coupled", "norm_squared"), "semidirect_qm": ("linear_kappa", "trace_poly")}


def _accepted_docs():
    """A base document of each simulated system, and the parameters of each
    of its function names (abelian1 + so3 has a square dimension, 4)."""
    eye2, eye3 = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    extension = {"system": "extension", "hamiltonian": {"name": "quadratic"}, "extension": {
        "n": "abelian1", "h": "so3", "initial": {"c": [1.0], "a": [0.5, -0.2, 0.8]}}}
    bases = {"rigid_body": (SHIPPED["rigidbody.json"], 3), "extension": (extension, 4),
             "restricted": (SHIPPED["restricted.json"], None), "semidirect_qm": (SHIPPED["semidirect_qm.json"], None)}
    for system, (base, d) in bases.items():
        params = {"linear": {"coeffs": [1.0] * (d or 0)}, "rigid_body": {"inertia": [1.0] * (d or 0)},
                  "linear_kappa": {"A": eye3}, "linear_sigma": {"X0": {"constructor": "random_block"}},
                  "linear_rho": {"H0": eye2}, "quadratic_v": {"A": eye2},
                  "coupled": {"H0": eye2, "A": eye2}}
        doc = _with(base, "integrator", {"method": "rk4", "dt": 0.01, "steps": 2})
        yield system, doc, params


def test_each_system_accepts_exactly_its_function_names(tmp_path, capsys):
    """Every Hamiltonian and casimir name that a system takes is listed here,
    each runs, and a name of another system exits 2 naming the entry."""
    for system, doc, params in _accepted_docs():
        hamiltonians, casimirs = ACCEPTED[system]
        sim = cli._SYSTEMS[system].simulate(cli._Node(doc[system]), 0)
        assert (set(sim.hamiltonians), set(sim.observables)) == (hamiltonians, casimirs)
        runs = [(name, _with(doc, "hamiltonian", {"name": name, **params.get(name, {})}))
                for name in sorted(hamiltonians)]
        runs += [(name, _with(doc, "casimirs", [{"name": "col", "fn": name, **params.get(name, {})}]))
                 for name in sorted(casimirs)]
        for name, run in runs:
            code = cli.run_cli(["simulate", write(tmp_path, "ok.json", run)])
            err = capsys.readouterr().err
            if (system, name) == ("rigid_body", "trace_poly"):  # known, but 3 is not a square
                assert code == 2 and "square predual dimension" in err
            else:
                assert code == 0, (system, name, err)
        foreign_h, foreign_c = FOREIGN[system]
        assert foreign_h not in hamiltonians and foreign_c not in casimirs
        for path, value, field in (("hamiltonian", {"name": foreign_h}, "hamiltonian.name"),
                                   ("casimirs", [foreign_c], "casimirs")):
            assert cli.run_cli(["simulate", write(tmp_path, "bad.json", _with(doc, path, value))]) == 2
            assert capsys.readouterr().err.endswith(f"(field: {field})\n"), (system, path)


def test_shipped_semidirect_midpoint_1000_steps(tmp_path):
    # |y| grows to about 1e4 under linear_rho; the relative Newton
    # tolerance keeps every stage solvable
    doc = _with(SHIPPED["semidirect_qm.json"], "integrator", {"method": "midpoint", "steps": 1000})
    out = tmp_path / "qm.csv"
    assert cli.run_cli(["simulate", write(tmp_path, "qm.json", doc), "--out", str(out)]) == 0
    header, *lines = out.read_text().strip().splitlines()
    assert len(lines) == 1001
    tr = np.array([float(line.split(",")[header.split(",").index("trace_rho")]) for line in lines])
    tol = cli.IntegratorConfig().newton_tol
    assert np.max(np.abs(tr - tr[0])) / max(1.0, abs(tr[0])) <= 1000 * tol


def test_storage_bound_is_checked_before_integrating(tmp_path, capsys, monkeypatch):
    reached = []

    def stop(field, state0, cfg, observables=None):
        reached.append(cfg.steps)
        raise LiePoissonError("stopped before integrating")

    monkeypatch.setattr(cli, "integrate_flow", stop)
    # a row of configs/restricted.json holds t, 68 state coordinates, H and kappa_hs
    largest = cli.MAX_TRAJECTORY_VALUES // 71 - 1
    for steps, code in ((10**12, 2), (largest + 1, 2), (largest, 1)):
        doc = _with(SHIPPED["restricted.json"], "integrator.steps", steps)
        assert cli.run_cli(["simulate", write(tmp_path, "cfg.json", doc)]) == code
    err = capsys.readouterr().err
    assert err.count("(field: integrator.steps)") == 2
    assert reached == [largest]


def test_structure_bound_is_checked_before_building(tmp_path, capsys, monkeypatch):
    built = []

    def stop(*sizes):
        built.append(sizes)
        raise LiePoissonError("stopped before building")

    monkeypatch.setattr(cli.restricted, "restricted_extension_spec", stop)
    monkeypatch.setattr(cli.quantum, "semidirect_extension_spec", stop)
    monkeypatch.setattr(cli, "builtin_algebra", stop)
    # every builtin, restricted and semidirect size is refused by the d^2
    # values of the built extension's gram, which outnumber its nonzeros
    cases = [  # (system, body, exit code, field of a refusal)
        ("restricted", {"n_plus": 15, "n_minus": 15}, 2, "restricted.n_plus"),
        ("restricted", {"n_plus": 40, "n_minus": 40}, 2, "restricted.n_plus"),
        ("restricted", {"n_plus": 1, "n_minus": 31}, 2, "restricted.n_minus"),
        ("restricted", {"n_plus": 3, "n_minus": 2}, 1, None),
        ("semidirect_qm", {"n": 23}, 2, "semidirect_qm.n"),
        ("semidirect_qm", {"n": 2}, 1, None),
        ("extension", {"n": "gl1000", "h": "so3"}, 2, "extension.n"),
        ("extension", {"n": {"dim": 3}, "h": "gl32"}, 2, "extension.h"),
        ("extension", {"n": {"builtin": "abelian", "n": 2000}, "h": "so3"}, 2, "extension.n"),
        ("extension", {"n": {"dim": 10**6}, "h": "so3"}, 2, "extension.n.dim"),
        ("extension", {"n": {"dim": 3}, "h": {"dim": 1100}}, 2, "extension.h.dim"),
    ]
    for system, body, code, field in cases:
        doc = {"system": system, system: body, "checks": ["compatibility"]}
        assert cli.run_cli(["verify", write(tmp_path, "cfg.json", doc)]) == code, body
        err = capsys.readouterr().err
        assert field is None or f"(field: {field})" in err, err
    assert built == [(3, 2), (2,)]
    for workload_size in ((4, 4), (14, 14)):  # the largest benchmark size, the largest admitted
        assert cli._restricted_dims(cli._Node(dict(zip(("n_plus", "n_minus"), workload_size))))

    # a dense inline algebra of dim 20: its Jacobi join pairs 2.9 million
    # nonzero products, 144 400 at each lead index, which the blocks admit;
    # it is refused for its Jacobi defect, within the memory bound
    rng = np.random.default_rng(3)
    dense = [[k, i, j, float(rng.normal())]
             for k in range(20) for i in range(20) for j in range(i + 1, 20)]
    doc = {"system": "extension", "extension": {"n": {"dim": 20, "structure_constants": dense},
                                                "h": "abelian1"}}
    tracemalloc.start()
    try:
        code = cli.run_cli(["verify", write(tmp_path, "dense.json", doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "(field: extension.n)" in capsys.readouterr().err
    assert peak < 64 * 2**20


def test_join_beyond_the_bound_names_the_size(tmp_path, capsys):
    """The Jacobi join runs in blocks of whole runs of the lead index, so
    only a lead index whose products alone outgrow a block is refused,
    before they are formed, with an exit 2 naming the field: a dense inline
    algebra of dim 24 pairs 552 * 552 = 304 704 products at each."""
    rng = np.random.default_rng(5)
    dense = [[k, i, j, float(rng.normal())]
             for k in range(24) for i in range(24) for j in range(i + 1, 24)]
    doc = {"system": "extension", "extension": {"n": {"dim": 24, "structure_constants": dense},
                                                "h": "abelian1"}}
    tracemalloc.start()
    try:
        code = cli.run_cli(["verify", write(tmp_path, "big.json", doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert "304704 nonzero products" in err and "(field: extension.n)" in err, err
    assert peak < 32 * 2**20


def test_parser_is_built_once_and_keeps_usage(capsys):
    """The argument parser is built on the first call of the process and
    reused: --help and usage errors print and exit as on the first call."""
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["verify", "--help"], [], ["bogus"], ["verify"]):
            with pytest.raises(SystemExit) as exit_:
                cli.run_cli(argv)
            outputs.append((exit_.value.code, *capsys.readouterr()))
    assert outputs[:5] == outputs[5:]
    assert [code for code, _, _ in outputs[:5]] == [0, 0, 2, 2, 2]
    assert cli._parser() is cli._parser()


def test_builtin_dict_form_verifies(tmp_path, capsys):
    doc = {"system": "extension",
           "extension": {"n": "abelian1", "h": {"builtin": "gl", "n": 2}}}
    assert cli.run_cli(["verify", write(tmp_path, "dict.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_repeated_triplets_last_write_wins(tmp_path, capsys):
    """[k, i, j, v] sets v at (k, i, j) and -v at (k, j, i); a later entry at
    either index overwrites both."""
    for omega, value in (([[0, 0, 1, 1.0], [0, 1, 0, 3.0]], -3.0),
                         ([[0, 1, 0, 3.0], [0, 0, 1, 1.0]], 1.0),
                         ([[0, 0, 1, 1.0], [0, 0, 1, 0.0]], None)):
        doc = {"system": "extension",
               "extension": {"n": "abelian1", "h": "abelian2", "omega": omega}}
        assert cli.run_cli(["bracket-table", write(tmp_path, "t.json", doc)]) == 0
        table = json.loads(capsys.readouterr().out)["structure_constants"]
        assert table == ([] if value is None else [[0, 1, 2, value]])


def test_blown_up_flow_prints_only_the_error(tmp_path, capsys):
    """A flow that leaves the finite floats exits 1 with one diagnostic;
    numpy's overflow warnings on the way there are not printed."""
    doc = _with(SHIPPED["restricted.json"], "integrator.dt", 1.5)
    assert cli.run_cli(["simulate", write(tmp_path, "blow.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: state left the range of finite floats")
    assert err.count("\n") == 1, err


def test_failed_simulate_leaves_no_output_file(tmp_path, capsys):
    """``--out`` is opened only once the trajectory exists, so a run that
    blows up writes no file, not even an empty or partial one."""
    doc = _with(SHIPPED["restricted.json"], "integrator.dt", 1.5)
    out = tmp_path / "out" / "blow.csv"
    assert cli.run_cli(["simulate", write(tmp_path, "blow.json", doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: state left the range of finite floats")
    assert not out.parent.exists()


def test_cli_module_exits_2_without_traceback(tmp_path):
    """Run as a program, so that a traceback would reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    attach = _with(SHIPPED["sequence.json"], "sequence.attach_algebras", "uvw")
    cases = [
        (["verify", write(tmp_path, "s.json", attach)], "sequence.attach_algebras"),
        (["verify", str(CONFIGS[0]), "--out", str(tmp_path)], "--out"),
    ]
    for argv, field in cases:
        run = subprocess.run([sys.executable, "-m", "liepoisson.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert f"(field: {field})" in run.stderr


def _json_paths(node, prefix=()):
    """Every key and list entry under ``node``, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    return [p for k, v in items for p in ((*prefix, k), *_json_paths(v, (*prefix, k)))]


def _on_document(doc, path: str) -> bool:
    """Whether a diagnostic's field is on the document: it resolves, with a
    list standing for any of its entries, or names a missing key of an
    object that is present (at the top level, a key a config may have)."""
    if path in ("config", "--seed", "--out"):
        return True

    def entries(nodes):
        return [e for n in nodes for e in (entries(n) if isinstance(n, list) else [n])]

    nodes, keys = [doc], path.split(".")
    for i, key in enumerate(keys):
        parents = [n for n in entries(nodes) if isinstance(n, dict)]
        nodes = [n[key] for n in parents if key in n]
        if not nodes:
            top = {"system", "hamiltonian", "integrator", "casimirs", "checks", *cli._SYSTEMS}
            return bool(parents) and i == len(keys) - 1 and (i > 0 or key in top)
    return True


_DELETE = object()
# sizes that the structure bound refuses; other integers stay small
_SIZE_KEYS = {"n_plus", "n_minus", "n", "dim", "block_dims"}


def _mutation_values(path) -> st.SearchStrategy:
    ints = st.integers(-2, 4)
    if _SIZE_KEYS & set(path):
        ints = ints | st.just(10**6)
    return st.one_of(
        st.just(_DELETE), st.none(), st.booleans(), ints,
        st.sampled_from([0.5, -1.5, float("nan"), float("inf"), -float("inf")]),
        st.sampled_from(["x", "gl2", "gl1000"]),
        st.sampled_from([[], {}, [1], [[1.0, 0.0, 7.0]], {"x": 1}]),
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=70)
@given(data=st.data())
def test_mutated_configs_exit_0_1_or_2_naming_a_field_on_the_document(fuzz_dir, data):
    """One or two keys of a shipped config deleted or set to another type,
    NaN, inf, an index out of range or a refused size; steps capped at 20.
    Numpy may warn on stderr only on the way to exit 1 (a blown-up flow)."""
    doc = json.loads(json.dumps(SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))]))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(_json_paths(doc) or [()]))
        if not path:
            break
        *parents, last = path
        node = functools.reduce(lambda n, k: n[k], parents, doc)
        value = data.draw(_mutation_values(path))
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    integ = doc.get("integrator")
    if isinstance(integ, dict) and type(integ.get("steps")) is int:
        integ["steps"] = min(integ["steps"], 20)
    cfg = fuzz_dir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for command in ("verify", "simulate", "bracket-table"):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.run_cli([command, str(cfg)])
        assert code in (0, 1, 2)
        assert code == 1 or not caught, [str(w.message) for w in caught]
        if code == 2:
            field = re.search(r"\(field: (.*)\)$", err.getvalue().strip()).group(1)
            assert _on_document(doc, field), (command, field, doc)


def test_quadratic_uses_the_symmetric_part_of_its_gram(tmp_path):
    """f = 1/2 b^T Q b sees only (Q + Q^T)/2, so the gradient must too: H
    then drifts under RK4 as little as for the symmetric matrix itself."""
    rows = {}
    for tag, gram in (("skew", [[1, 2, 0], [0, 2, 0], [0, 0, 3]]),
                      ("sym", [[1, 1, 0], [1, 2, 0], [0, 0, 3]])):
        doc = _with(SHIPPED["rigidbody.json"], "hamiltonian", {"name": "quadratic", "gram": gram})
        doc["integrator"] = {"method": "rk4", "dt": 0.01, "steps": 2000}
        out = tmp_path / f"{tag}.csv"
        assert cli.run_cli(["simulate", write(tmp_path, f"{tag}.json", doc), "--out", str(out)]) == 0
        rows[tag] = np.loadtxt(out, delimiter=",", skiprows=1)
    h = rows["skew"][:, 4]
    assert np.max(np.abs(h - h[0])) < 1e-9
    assert np.max(np.abs(rows["skew"] - rows["sym"])) < 1e-12


# ---------------------------------------------------------------------------
# the JSON writer and the CSV labels
# ---------------------------------------------------------------------------

_EDGE_VALUES = [1.0, -2.0, 3, -4, 0.5, -1.25, 1 / 3, -0.0, 1e-300, -1e-300, 1e300, -1e300]


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _table(alg) -> dict:
    """A bracket table as ``run_bracket_table`` writes it."""
    from liepoisson.algebra import algebra_to_json

    return {**algebra_to_json(alg), "compatibility": {"verdict": "pass", "max_residual": 0.0}}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_json_text_equals_json_dumps_on_random_bracket_tables(data):
    """Tables of random real and complex constants, with integer,
    non-integer, signed-zero, tiny and huge values, exact ints among them."""
    from liepoisson.algebra import LieAlgebra

    field = data.draw(st.sampled_from(["real", "complex"]))
    d = data.draw(st.integers(2, 5))
    values = st.sampled_from(_EDGE_VALUES) | st.floats(-1e6, 1e6, allow_nan=False)
    c = np.zeros((d, d, d), dtype=complex if field == "complex" else float)
    for k, i, j in data.draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * 3), min_size=1)):
        if i != j:
            re = data.draw(values)
            v = complex(re, data.draw(values)) if field == "complex" else re
            c[k, i, j], c[k, j, i] = v, -v
    table = _table(LieAlgebra(c, scalar_field=field, validate=False))
    for row in table["structure_constants"]:  # exact ints and signed zeros the library never writes
        if field == "real" and data.draw(st.booleans()):
            row[3] = data.draw(st.sampled_from([-0.0, 0, 7, -(2**70)]))
    assert cli._json_text(table) == _dumps(table)


def test_json_text_equals_json_dumps_off_the_row_form():
    """An abelian algebra (no constants), non-ASCII and escaped labels, and
    rows that break the [k, i, j, v] form, alone or beside rows that keep
    it, all take json.dumps itself."""
    from liepoisson.algebra import LieAlgebra, abelian, so3

    labelled = LieAlgebra(so3().constants, ("ξ₁", "e\n\"2\"", "\u2028"), "ñ", validate=False)
    tables = [_table(abelian(3)), _table(labelled)]
    odd = [[[0, 1, 2, float("nan")]], [[0, 1, 2, float("inf")]], [[0, 1, 2, [1.0, -float("inf")]]],
           [[0, 1, 2, True]], [[0, 1, 2, np.float64(1.5)]], [[0, 1, 2]], [[0, 1, 2, 1.0], [0, 1]],
           [[0, 1, 2, [1.0]]], [[0, 1, 2, [1.0, 2.0]], [0, 1, 2, 3.0]], [(0, 1, 2, 1.0)],
           [[0, 1, 2, 2**2000]], [[0, 1, 2, 1e308], [0, 1, 2, 1e308]], [[0, 1, 2, "x"]], [1, 2]]
    for rows in odd:
        alone, beside = _table(abelian(1)), _table(labelled)
        alone["structure_constants"] = beside["other"] = rows
        tables += [alone, beside]
    tables += [{}, {"a": []}, {"b": {}, "a": [[]]}]
    for table in tables:
        assert cli._json_text(table) == _dumps(table)


@pytest.mark.parametrize("config", ["heisenberg.json", "restricted.json", "semidirect_qm.json"])
def test_bracket_table_round_trips_as_an_inline_algebra(tmp_path, capsys, config):
    """A bracket table fed back as the inline ``extension.n`` of a trivial
    extension rebuilds its constants exactly: the n-block of the new table
    equals the old one, row for row."""
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / config)
    assert cli.run_cli(["bracket-table", cfg]) == 0
    table = json.loads(capsys.readouterr().out)
    h = {"dim": 1, "field": table["field"]}
    doc = {"system": "extension", "extension": {"n": table, "h": h}}
    assert cli.run_cli(["bracket-table", write(tmp_path, "round.json", doc)]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["dim"] == table["dim"] + 1
    assert again["structure_constants"] == table["structure_constants"]


def _admitted(read, body) -> bool:
    try:
        read(cli._Node(body))
    except ConfigError:
        return False
    return True


def _complex_labels(name, shape):
    return cli._Slot(name, shape, 0, "complex").labels()


def test_csv_labels_are_distinct_for_every_admitted_shape():
    """Restricted (n+, n-) and semidirect_qm n admitted by the structure
    bound name every state column once; up to 9 per axis the indices are
    joined without a separator, as before."""
    shapes = [[("kappa", (p, p)), ("sigma", (p + m, p + m))] for p in range(1, 40)
              for m in range(40) if _admitted(cli._restricted_dims, {"n_plus": p, "n_minus": m})]
    shapes += [[("v", (n,)), ("rho", (n, n))] for n in range(1, 40)
               if _admitted(cli._qm_n, {"n": n})]
    assert max(s[1][1][0] for s in shapes) < 39  # the ranges reach past every admitted size
    assert any(max(s[1][1]) > 9 for s in shapes)
    for slots in shapes:
        labels = [x for name, shape in slots for x in _complex_labels(name, shape)]
        assert len(set(labels)) == len(labels), slots
    assert _complex_labels("sigma", (9, 9))[9] == "sigma21_re"
    assert _complex_labels("sigma", (11, 11))[10] == "sigma1_11_re"
    assert _complex_labels("sigma", (11, 11))[11] == "sigma2_1_re"
