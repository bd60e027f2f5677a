import json
from pathlib import Path

import numpy as np
import pytest

from liepoisson import cli
from liepoisson.errors import LiePoissonError


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
    p.write_text("{not json")
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
    assert "integrator" in capsys.readouterr().err


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


def _with(doc, path, value):
    """A copy of ``doc`` with the dotted ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


MALFORMED = [  # (id, command, config, field named in the diagnostic)
    ("inertia-length", "simulate",
     _with(rigid_config(), "rigid_body.inertia", [1.0, 2.0]), "rigid_body.inertia"),
    ("inertia-negative", "simulate",
     _with(rigid_config(), "rigid_body.inertia", [1.0, -2.0, 3.0]), "rigid_body.inertia"),
    ("initial-text", "simulate",
     _with(rigid_config(), "rigid_body.initial", ["a", 0.0, 1.0]), "rigid_body.initial"),
    ("omega-float-index", "verify",
     _with(heisenberg_config(), "extension.omega", [[0, 0.5, 1, 1.0]]), "omega"),
    ("builtin-gl0", "verify", _with(heisenberg_config(), "extension.n", "gl0"), "n"),
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
     _with(heisenberg_config(), "extension.n", {"dim": 0, "structure_constants": []}), "n"),
    ("omega-value-empty", "verify",
     _with(heisenberg_config(), "extension.omega", [[0, 0, 1, []]]), "omega"),
    ("sequence-first-empty", "verify", {"system": "sequence", "sequence": {"first": []}}, "first"),
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
    ("v0-string", "simulate", _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", "12"), "v0"),
    ("v0-string-numbers", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", ["1", "2"]), "v0"),
    ("v0-bool", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", [True, 0.5]), "v0"),
    ("v0-long-pair", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", [[1.0, 0.0, 7.0], 0.5]), "v0"),
    ("rho0-string-numbers", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.rho0", [["0.6", 0.0], [0.1, 0.2]]),
     "rho0"),
    ("H0-bool", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "hamiltonian.H0", [[True, 0.0], [0.0, 0.3]]),
     "hamiltonian.H0"),
    ("kappa0-long-pair", "simulate",
     _with(SHIPPED["restricted.json"], "restricted.kappa0",
           [[1.0, 0.0, 0.0], [0.0, [1.0, 0.0, 7.0], 0.0], [0.0, 0.0, 1.0]]), "restricted.kappa0"),
    ("c_predual-string-numbers", "verify",
     _with(SHIPPED["heisenberg.json"], "extension.c_predual", [["1"]]), "c_predual"),
    ("newton-max-iter-zero", "simulate",
     _with(rigid_config(), "integrator.newton_max_iter", 0), "integrator.newton_max_iter"),
    ("newton-tol-negative", "simulate",
     _with(rigid_config(), "integrator.newton_tol", -1.0), "integrator"),
    ("steps-bool", "simulate", _with(rigid_config(), "integrator.steps", True), "integrator.steps"),
    ("dt-string", "simulate", _with(rigid_config(), "integrator.dt", "0.01"), "integrator.dt"),
    ("omega-value-bool", "verify",
     _with(heisenberg_config(), "extension.omega", [[0, 0, 1, True]]), "omega"),
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
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.rho0", [[1.0, 0.0, 0.0]] * 3), "rho0"),
    ("v0-infinite", "simulate",
     _with(SHIPPED["semidirect_qm.json"], "semidirect_qm.v0", [float("inf"), 0.5]), "v0"),
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
