"""The sparse verify path against loop and dense oracles.

The library evaluates every identity over the nonzeros of its inputs and
builds the named algebras by index arithmetic; the oracles here are the
plain loop and dense-einsum forms of the same definitions, kept only in
the tests.
"""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from liepoisson import algebra as la
from liepoisson import cli
from liepoisson import extension as ex
from liepoisson import linalg, poisson
from liepoisson import restricted as rs
from liepoisson.errors import SizeLimitError
from liepoisson.linalg import Coo, as_coo, complement_residual
from liepoisson.tolerances import BLOCK_TERMS

from closed_forms import restricted_omega

REL = 1e-12


def close(value, oracle):
    assert abs(value - oracle) <= REL * abs(oracle), (value, oracle)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def jacobi_oracle(c):
    j = (
        np.einsum("lij,mlk->mijk", c, c)
        + np.einsum("ljk,mli->mijk", c, c)
        + np.einsum("lki,mlj->mijk", c, c)
    )
    return float(np.max(np.abs(j)))


def compatibility_oracle(ch, cn, w, m):
    """(derivation, cocycle, representation) residuals by explicit loops."""
    dh, dn = ch.shape[0], cn.shape[0]
    deriv = 0.0
    for i in range(dh):
        for c in range(dn):
            for a in range(dn):
                for b in range(dn):
                    v = sum(
                        m[i, c, l] * cn[l, a, b]
                        - cn[c, l, b] * m[i, l, a]
                        - cn[c, a, l] * m[i, l, b]
                        for l in range(dn)
                    )
                    deriv = max(deriv, abs(v))

    def omega_bracket(a, i, j, k):  # omega([e_i, e_j], e_k)_a
        return sum(ch[l, i, j] * w[a, l, k] for l in range(dh))

    def phi_omega(a, i, j, k):  # (phi(e_i) omega(e_j, e_k))_a
        return sum(m[i, a, b] * w[b, j, k] for b in range(dn))

    cocycle = 0.0
    for a in range(dn):
        for i in range(dh):
            for j in range(dh):
                for k in range(dh):
                    v = 0.0
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        v += omega_bracket(a, x, y, z) - phi_omega(a, x, y, z)
                    cocycle = max(cocycle, abs(v))

    rep = 0.0
    for i in range(dh):
        for j in range(dh):
            ad_omega = np.einsum("cab,a->cb", cn, w[:, i, j])
            phi_bracket = sum(ch[k, i, j] * m[k] for k in range(dh))
            commutator = m[i] @ m[j] - m[j] @ m[i]
            rep = max(rep, float(np.max(np.abs(ad_omega + phi_bracket - commutator))))
    return deriv, cocycle, rep


def closure_oracle(spec, c_sub, a_sub):
    """One dual-map image and one solve per (column, basis element)."""
    gn, gh = spec.n_pairing.gram, spec.h_pairing.gram
    cq = np.linalg.qr(c_sub)[0]
    eye_h, eye_n = np.eye(spec.h.dim), np.eye(spec.n.dim)
    phi_v, omega_v, slot_v = [], [], []
    for u in cq.T:
        for i in range(spec.h.dim):
            phi_v.append(np.linalg.solve(gn.T, spec.phi(eye_h[i]).T @ (gn.T @ u)))
            omega_v.append(
                np.linalg.solve(gh.T, spec.omega.contract_left(eye_h[i]).T @ (gn.T @ u))
            )
        for j in range(spec.n.dim):
            slot_v.append(
                np.linalg.solve(gh.T, spec.phi.applied_to(eye_n[j]).T @ (gn.T @ u))
            )
    return (
        complement_residual(np.column_stack(phi_v), cq),
        complement_residual(np.column_stack(slot_v), a_sub),
        complement_residual(np.column_stack(omega_v), a_sub),
    )


def gl_loop(n, sign=1.0, dtype=float):
    d = n * n
    c = np.zeros((d, d, d), dtype=dtype)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a, b = i * n + j, k * n + l
                    if j == k:
                        c[i * n + l, a, b] += sign
                    if l == i:
                        c[k * n + j, a, b] -= sign
    return c


def restricted_loop(n_plus, n_minus):
    """(omega, phi) coefficients from the closed forms, one basis pair at a time."""
    n = n_plus + n_minus
    dn, dh = n_plus * n_plus, n * n
    eye = np.eye(n, dtype=complex)
    blocks = [np.outer(eye[i // n], eye[i % n]) for i in range(dh)]
    w = np.zeros((dn, dh, dh), dtype=complex)
    mats = np.zeros((dh, dn, dn), dtype=complex)
    for i in range(dh):
        for j in range(dh):
            w[:, i, j] = restricted_omega(blocks[i], blocks[j], n_plus).reshape(-1)
        xpp = blocks[i][:n_plus, :n_plus]
        mats[i] = np.kron(xpp, np.eye(n_plus)) - np.kron(np.eye(n_plus), xpp.T)
    return w, mats


def random_skew(rng, shape, cplx):
    x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0)
    return x - x.transpose(0, 2, 1)


def random_spec(rng, dn, dh, cplx, grams=False):
    """Random broken cocycle data on random broken algebras."""
    field = "complex" if cplx else "real"
    n = la.LieAlgebra(random_skew(rng, (dn,) * 3, cplx), scalar_field=field, validate=False)
    h = la.LieAlgebra(random_skew(rng, (dh,) * 3, cplx), scalar_field=field, validate=False)
    w = random_skew(rng, (dn, dh, dh), cplx)
    m = rng.normal(size=(dh, dn, dn)) + (1j * rng.normal(size=(dh, dn, dn)) if cplx else 0)

    def pairing(alg):
        d = alg.dim
        return la.DualPairing(alg, rng.normal(size=(d, d)) + 3 * np.eye(d) if grams else None)

    return ex.ExtensionSpec(
        n, h, ex.SkewBilinearMap(h, n, w), ex.DerivationMap(h, n, m), pairing(n), pairing(h)
    )


# ---------------------------------------------------------------------------
# residuals against the oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 7, 12])
@pytest.mark.parametrize("cplx", [False, True])
def test_jacobi_residual_matches_dense_oracle(rng, d, cplx):
    c = random_skew(rng, (d,) * 3, cplx)
    close(la.jacobi_residual(c), jacobi_oracle(c))


def test_jacobi_residual_of_sparse_broken_constants():
    c = la.gl(3).structure_constants.copy()
    c[4, 0, 1] += 0.25
    c[4, 1, 0] -= 0.25
    close(la.jacobi_residual(c), jacobi_oracle(c))


@pytest.mark.parametrize("dn,dh,cplx", [(3, 3, False), (2, 4, True), (4, 3, True)])
def test_compatibility_residuals_match_loop_oracle(rng, dn, dh, cplx):
    spec = random_spec(rng, dn, dh, cplx)
    rep = ex.check_compatibility(spec)
    deriv, cocycle, curvature = compatibility_oracle(
        spec.h.structure_constants, spec.n.structure_constants, spec.omega.coeffs, spec.phi.mats
    )
    close(rep.derivation_residual, deriv)
    close(rep.cocycle_residual, cocycle)
    close(rep.representation_residual, curvature)
    close(spec.phi.derivation_residual(), deriv)


@pytest.mark.parametrize("dn,dh,cplx", [(3, 4, False), (4, 3, True)])
def test_predual_closure_matches_loop_oracle(rng, dn, dh, cplx):
    spec = random_spec(rng, dn, dh, cplx, grams=True)
    dtype = complex if cplx else float
    c_sub = rng.normal(size=(dn, dn - 1)).astype(dtype)
    a_sub = rng.normal(size=(dh, dh - 2)).astype(dtype)
    rep = ex.check_predual_closure(spec, c_sub, a_sub)
    phi, slot, omega = closure_oracle(spec, c_sub, a_sub)
    close(rep.phi_star_into_c, phi)
    close(rep.phi_slot_star_into_a, slot)
    close(rep.omega_star_into_a, omega)
    assert min(phi, slot, omega) > 1e-3  # proper subspaces: nothing vanishes


@pytest.mark.parametrize("dims", [(3, 2), (4, 4)])
def test_complement_closure_on_restricted_subspaces(rng, dims):
    """Random subspaces of codimension 3 of the restricted preduals, and the
    whole space for c: the complement coordinates against the loop oracle."""
    spec = rs.restricted_extension_spec(*dims)
    dn, dh = spec.n.dim, spec.h.dim
    c_sub = rng.normal(size=(dn, dn - 3)) + 1j * rng.normal(size=(dn, dn - 3))
    a_sub = rng.normal(size=(dh, dh - 3)) + 1j * rng.normal(size=(dh, dh - 3))
    for c in (c_sub, np.eye(dn)):
        rep = ex.check_predual_closure(spec, c, a_sub)
        oracle = closure_oracle(spec, c, a_sub)  # (phi, slot, omega), as ClosureReport
        for value, expected in zip(rep.as_dict().values(), oracle):
            close(value, expected)
        assert min(oracle[1:]) > 1e-3
    assert rep.phi_star_into_c == 0.0  # c the whole space: exactly 0


def test_whole_space_closure_forms_nothing(monkeypatch):
    """Whole-space preduals (square monomial bases) give exactly 0 with no
    QR, no solve and no column formed."""
    spec = rs.restricted_extension_spec(4, 4)
    calls = []
    for name in ("qr", "solve"):
        def counted(*args, original=getattr(np.linalg, name), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    perm = np.eye(spec.h.dim)[::-1] * 2.0
    rep = ex.check_predual_closure(spec, np.eye(spec.n.dim), perm)
    assert rep.as_dict() == {"phi_star_into_c": 0.0, "phi_slot_star_into_a": 0.0,
                             "omega_star_into_a": 0.0}
    assert calls == []


@pytest.mark.parametrize("slot", ["c", "a"])
def test_near_dependent_monomial_predual_refused(slot):
    """A square monomial basis skips the QR but not the independence test:
    diag(1, ..., 1e-13) is refused as a QR of it would be."""
    spec = rs.restricted_extension_spec(2, 2)
    subs = {"c": np.eye(spec.n.dim), "a": np.eye(spec.h.dim)}
    subs[slot][-1, -1] = 1e-13
    with pytest.raises(ValueError, match="not linearly independent"):
        linalg.orthonormal_columns(subs[slot])
    with pytest.raises(ValueError, match="not linearly independent"):
        ex.check_predual_closure(spec, subs["c"], subs["a"])


def test_build_extension_alone_refuses_incompatible_data(rng):
    spec = random_spec(rng, 2, 3, False)
    with pytest.raises(ex.InvalidExtensionError):
        ex.build_extension(spec)


# ---------------------------------------------------------------------------
# constructors against their loop forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gl_and_negative_commutator_match_loops(n):
    assert np.array_equal(la.gl(n).structure_constants, gl_loop(n))
    neg = rs._negative_commutator_algebra(n).structure_constants
    assert neg.dtype == complex
    assert np.array_equal(neg, gl_loop(n, sign=-1.0, dtype=complex))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_restricted_spec_matches_loop_form(dims):
    spec = rs.restricted_extension_spec(*dims)
    w, mats = restricted_loop(*dims)
    assert np.array_equal(spec.omega.coeffs, w)
    assert np.array_equal(spec.phi.mats, mats)


@pytest.mark.parametrize("alg", [
    *(la.gl(n, field) for n in range(1, 7) for field in ("real", "complex")),
    *(rs._negative_commutator_algebra(n) for n in range(1, 5)),
    la.so3(),
    la.heisenberg(),
    la.abelian(3),
    la.realify(la.gl(3, "complex")),
], ids=lambda alg: f"{alg.name}-{alg.scalar_field}")
def test_named_constructors_are_exact_lie_algebras(alg):
    """The named constructors skip the validation at construction; their
    antisymmetry and Jacobi residuals are exactly 0."""
    rep = la.check_structure(alg)
    assert rep.antisymmetry_residual == 0.0
    assert rep.jacobi_residual == 0.0


def test_algebra_to_json_triplet_order():
    ext = ex.build_extension(rs.restricted_extension_spec(2, 1))
    c = ext.structure_constants
    expected = [
        [k, i, j, [float(c[k, i, j].real), float(c[k, i, j].imag)]]
        for k in range(ext.dim)
        for i in range(ext.dim)
        for j in range(i + 1, ext.dim)
        if c[k, i, j] != 0
    ]
    assert la.algebra_to_json(ext)["structure_constants"] == expected
    real = la.algebra_to_json(la.so3())["structure_constants"]
    assert real == [[0, 1, 2, 1.0], [1, 0, 2, -1.0], [2, 0, 1, 1.0]]


# ---------------------------------------------------------------------------
# every identity residual in blocks of its lead index
# ---------------------------------------------------------------------------

ONE_BLOCK = 2**40  # a block target that puts every lead index in one block


def largest_run(c):
    """The most products that one lead index m of the Jacobi join of c pairs."""
    a, b, _ = c.idx
    per_q = np.bincount(a, minlength=c.shape[0])[b]
    return int(np.bincount(a, weights=per_q, minlength=c.shape[0]).max())


def sizes_total(c):
    """All products of the Jacobi join of c."""
    a, b, _ = c.idx
    return int(np.bincount(a, minlength=c.shape[0])[b].sum())


def counted_joins(monkeypatch):
    """Record the size of every pairing that linalg forms: a whole join, or
    the join of one factor of one block of max_abs_by_lead."""
    sizes = []
    original = linalg._pairs

    def pairs(*args):
        p, q = original(*args)
        sizes.append(p.size)
        return p, q

    monkeypatch.setattr(linalg, "_pairs", pairs)
    return sizes


@pytest.mark.parametrize("case", ["real", "complex", "restricted4x4", "restricted4x4-scaled"])
def test_blocked_jacobi_equals_one_block(rng, monkeypatch, case):
    """Blocks as small as whole runs of the lead index allow, and blocks of
    the default target, give bit for bit the residual of one join over all
    products."""
    if case.startswith("restricted"):
        c = ex.build_extension(rs.restricted_extension_spec(4, 4)).constants
        if case.endswith("scaled"):  # non-integer constants with a nonzero defect
            c = Coo.of(c.shape, c.idx, c.values * (1 + rng.random(c.values.size)))
    else:
        c = as_coo(random_skew(rng, (9,) * 3, case == "complex"))
    sizes = counted_joins(monkeypatch)
    monkeypatch.setattr(linalg, "BLOCK_TERMS", ONE_BLOCK)
    one_block = la.jacobi_residual(c)
    assert len(sizes) == 1
    monkeypatch.setattr(linalg, "BLOCK_TERMS", largest_run(c))
    assert la.jacobi_residual(c) == one_block
    assert len(sizes) > 5 and max(sizes[1:]) <= largest_run(c)
    assert sum(sizes[1:]) == sizes[0]
    assert (one_block == 0.0) == (case == "restricted4x4")
    del sizes[:]
    monkeypatch.setattr(linalg, "BLOCK_TERMS", BLOCK_TERMS)
    assert la.jacobi_residual(c) == one_block
    assert max(sizes) <= max(BLOCK_TERMS, largest_run(c)) and sum(sizes) == sizes_total(c)


@pytest.mark.parametrize("dn,dh,cplx", [(3, 4, False), (4, 3, True), (5, 5, True)])
def test_blocked_compatibility_equals_one_block(rng, monkeypatch, dn, dh, cplx):
    """The derivation, cocycle and representation residuals of random
    non-integer data are, bit for bit, the same in blocks of one lead index
    and in one block."""
    spec = random_spec(rng, dn, dh, cplx)
    monkeypatch.setattr(linalg, "BLOCK_TERMS", ONE_BLOCK)
    sizes = counted_joins(monkeypatch)
    one_block = ex.check_compatibility(spec)
    joins = len(sizes)  # 3 derivation, 2 cocycle and 4 representation factors
    assert joins == 9
    monkeypatch.setattr(linalg, "BLOCK_TERMS", 1)
    blocked = ex.check_compatibility(spec)
    assert blocked == one_block
    assert len(sizes) - joins == 7 * dh + 2 * dn  # a block per lead index of each
    assert min(one_block.derivation_residual, one_block.cocycle_residual,
               one_block.representation_residual) > 1e-3


def test_a_lead_index_beyond_the_bound_is_refused_unformed(monkeypatch):
    """Only a lead index whose products alone exceed MAX_LEAD_TERMS is
    refused, before any product is formed, and the message counts them."""
    c = ex.build_extension(rs.restricted_extension_spec(3, 3)).constants
    sizes = counted_joins(monkeypatch)
    monkeypatch.setattr(linalg, "MAX_LEAD_TERMS", largest_run(c))
    la.jacobi_residual(c)
    del sizes[:]
    monkeypatch.setattr(linalg, "MAX_LEAD_TERMS", largest_run(c) - 1)
    with pytest.raises(SizeLimitError, match=f"would pair {largest_run(c)} nonzero products"):
        la.jacobi_residual(c)
    assert sizes == []


# ---------------------------------------------------------------------------
# the CLI computes each fact once, within a memory bound
# ---------------------------------------------------------------------------


def restricted_config(tmp_path, n_plus, n_minus):
    p = tmp_path / f"restricted{n_plus}x{n_minus}.json"
    p.write_text(json.dumps(
        {"system": "restricted", "restricted": {"n_plus": n_plus, "n_minus": n_minus}}
    ))
    return str(p)


@pytest.mark.parametrize("command", ["verify", "bracket-table"])
def test_one_compatibility_check_per_command(tmp_path, capsys, monkeypatch, command):
    calls = []
    original = ex.check_compatibility

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(cli, "check_compatibility", counted)
    monkeypatch.setattr(ex, "check_compatibility", counted)
    assert cli.run_cli([command, restricted_config(tmp_path, 2, 2)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_restricted_5x5_within_memory_bound(tmp_path, capsys):
    cfg = restricted_config(tmp_path, 5, 5)
    tracemalloc.start()
    try:
        codes = [cli.run_cli([cmd, cfg]) for cmd in ("verify", "bracket-table")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert codes == [0, 0]
    assert peak < 256 * 2**20


def test_restricted_6x6_within_memory_bound(tmp_path, capsys):
    """verify and a 10-step RK4 simulate on restricted (6, 6), each under a
    96 MB traced peak: nothing of size d^3 or d^4 is built."""
    doc = {"system": "restricted", "hamiltonian": {"name": "quadratic"},
           "restricted": {"n_plus": 6, "n_minus": 6, "kappa0": {"constructor": "random"},
                          "sigma0": {"constructor": "random_block"}},
           "integrator": {"method": "rk4", "dt": 1e-3, "steps": 10}}
    cfg = tmp_path / "r6.json"
    cfg.write_text(json.dumps(doc))
    for cmd in ("verify", "simulate"):
        tracemalloc.start()
        try:
            code = cli.run_cli([cmd, str(cfg), "--out", str(tmp_path / cmd)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 96 * 2**20, (cmd, peak)


def test_blocked_verify_and_large_simulate_within_memory_bound(tmp_path, capsys, monkeypatch):
    """verify on restricted (8, 8), whose residuals span many blocks, and
    a 10-step RK4 simulate on (12, 12), which validates no constructor,
    each under a 96 MB traced peak."""
    sizes, whole = counted_joins(monkeypatch), []
    for module in (la, poisson):  # the whole joins, as against the blocks of residuals
        def counted(*args, original=module.join):
            p, q = original(*args)
            whole.append(p.size)
            return p, q

        monkeypatch.setattr(module, "join", counted)
    counts = {}
    for n, cmd in ((8, "verify"), (12, "simulate")):
        doc = {"system": "restricted", "hamiltonian": {"name": "quadratic"},
               "restricted": {"n_plus": n, "n_minus": n, "kappa0": {"constructor": "random"},
                              "sigma0": {"constructor": "random_block"}},
               "integrator": {"method": "rk4", "dt": 1e-3, "steps": 10}}
        cfg = tmp_path / f"r{n}.json"
        cfg.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code = cli.run_cli([cmd, str(cfg), "--out", str(tmp_path / cmd)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 96 * 2**20, (cmd, peak)
        for size in whole:
            sizes.remove(size)
        counts[cmd] = len(whole), max(sizes)
        sizes[:], whole[:] = [], []
    # verify: every residual in blocks of at most the target (no lead index
    # of (8, 8) pairs more); simulate: the two joins of the coadjoint tensor
    # and the one of the compiled field, and build_extension's compatibility
    # check in blocks
    assert counts["verify"][0] == 0 and counts["verify"][1] <= BLOCK_TERMS
    assert counts["simulate"][0] == 3 and counts["simulate"][1] <= BLOCK_TERMS


def test_restricted_8x8_verify_in_a_small_working_set(tmp_path, capsys):
    """verify on restricted (8, 8) under a 16 MB traced peak: every identity
    residual is formed in blocks of the working-set target, and the
    whole-space predual closure forms nothing."""
    cfg = restricted_config(tmp_path, 8, 8)
    tracemalloc.start()
    try:
        code = cli.run_cli(["verify", cfg, "--out", str(tmp_path / "verify.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# CLI boundary
# ---------------------------------------------------------------------------


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency: no import of scipy in src/."""
    for path in Path(la.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)


def test_import_loads_no_scipy():
    src = Path(la.__file__).resolve().parents[1]
    code = (
        "import liepoisson, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_negative_seed_exits_2(capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "sequence.json"
    code = cli.run_cli(["verify", str(config), "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "--seed" in err


@pytest.mark.parametrize(
    "threshold",
    [0, -1, 0.0, "nan", "1e-8", True, None, float("nan"), float("inf"), 10**400],
    ids=["zero", "minus-one", "zero-float", "nan-text", "number-text", "bool", "null",
         "nan", "inf", "huge-int"],
)
def test_bad_threshold_exits_2(tmp_path, capsys, threshold):
    doc = {
        "system": "extension",
        "extension": {"n": "abelian1", "h": "abelian2", "omega": [[0, 0, 1, 1.0]]},
        "checks": [{"name": "compatibility", "threshold": threshold}],
    }
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    code = cli.run_cli(["verify", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "(field: checks)" in captured.err


def test_integer_threshold_accepted(tmp_path, capsys):
    doc = {
        "system": "extension",
        "extension": {"n": "abelian1", "h": "abelian2", "omega": [[0, 0, 1, 1.0]]},
        "checks": [{"name": "compatibility", "threshold": 1}],
    }
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    assert cli.run_cli(["verify", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["threshold"] == 1.0
