import numpy as np
import pytest

from liepoisson import algebra as la
from liepoisson.errors import (
    DegeneratePairingError,
    DimensionMismatchError,
)


def test_so3_bracket_is_cross_product(so3):
    assert np.allclose(la.bracket_eval(so3, [1, 0, 0], [0, 1, 0]), [0, 0, 1])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(la.bracket_eval(so3, x, y), np.cross(x, y))


def test_abelian_bracket_is_zero():
    alg = la.abelian(3)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=3), rng.normal(size=3)
    assert np.all(la.bracket_eval(alg, x, y) == 0)


def test_gl2_elementary_commutator(gl2):
    # [E11, E12] = E12
    e11 = np.eye(4)[0]
    e12 = np.eye(4)[1]
    assert np.allclose(la.bracket_eval(gl2, e11, e12), e12)


def test_bracket_dimension_mismatch(so3):
    with pytest.raises(DimensionMismatchError):
        la.bracket_eval(so3, [1, 0], [0, 1, 0])


def test_construction_rejects_broken_antisymmetry():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # missing the mirrored -1
    with pytest.raises(ValueError, match="antisymmetric"):
        la.LieAlgebra(c)


def test_construction_rejects_broken_jacobi():
    c = la.gl(2).structure_constants.copy()
    c[1, 0, 1] += 1e-3
    c[1, 1, 0] -= 1e-3
    with pytest.raises(ValueError, match="Jacobi"):
        la.LieAlgebra(c)


def test_basis_pair_antisymmetry_exact(so3, gl2, h3):
    for alg in (so3, gl2, h3):
        eye = np.eye(alg.dim)
        for i in range(alg.dim):
            for j in range(alg.dim):
                total = la.bracket_eval(alg, eye[i], eye[j]) + la.bracket_eval(
                    alg, eye[j], eye[i]
                )
                assert np.max(np.abs(total)) == 0.0


def test_check_structure_clean_algebras(so3, gl2, h3):
    for alg in (so3, gl2, h3):
        rep = la.check_structure(alg)
        assert rep.antisymmetry_residual == 0.0
        assert rep.jacobi_residual == 0.0


def _jacobi_by_loops(alg):
    """Independent triple-loop evaluation of the Jacobi defect."""
    d = alg.dim
    eye = np.eye(d, dtype=alg.dtype)
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                s = (
                    alg.bracket(alg.bracket(eye[i], eye[j]), eye[k])
                    + alg.bracket(alg.bracket(eye[j], eye[k]), eye[i])
                    + alg.bracket(alg.bracket(eye[k], eye[i]), eye[j])
                )
                worst = max(worst, float(np.max(np.abs(s))))
    return worst


def test_perturbed_so3_jacobi_flagged(so3):
    c = so3.structure_constants.copy()
    c[2, 0, 1] += 1e-3  # breaks antisymmetry, hence Jacobi over repeated triples
    broken = la.LieAlgebra(c, validate=False)
    rep = la.check_structure(broken)
    assert rep.jacobi_residual > 1e-6
    assert rep.antisymmetry_residual == pytest.approx(1e-3)
    assert rep.jacobi_residual == pytest.approx(_jacobi_by_loops(broken), rel=1e-12)


def test_jacobi_residual_matches_loops_on_random_constants(rng):
    c = rng.normal(size=(4, 4, 4))
    c = c - c.transpose(0, 2, 1)
    alg = la.LieAlgebra(c, validate=False)
    assert la.check_structure(alg).jacobi_residual == pytest.approx(
        _jacobi_by_loops(alg), rel=1e-12
    )


def test_ad_star_so3_cross_identity(so3, rng):
    pairing = la.identity_pairing(so3)
    for _ in range(20):
        x, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(la.ad_star(pairing, x, b), np.cross(b, x), atol=1e-14)


def test_ad_star_gl_trace_pairing(gl2, rng):
    # brute-force check of <ad*_x b, y> = <b, [x, y]> over all basis pairs
    pairing = la.trace_pairing(gl2)
    x, b = rng.normal(size=4), rng.normal(size=4)
    bs = la.ad_star(pairing, x, b)
    eye = np.eye(4)
    for i in range(4):
        lhs = pairing.pair(bs, eye[i])
        rhs = pairing.pair(b, la.bracket_eval(gl2, x, eye[i]))
        assert abs(lhs - rhs) < 1e-12
    # and the closed form [b, x] in matrix shape
    B, X = b.reshape(2, 2), x.reshape(2, 2)
    assert np.allclose(bs.reshape(2, 2), B @ X - X @ B, atol=1e-13)


def test_ad_star_abelian_is_zero(rng):
    alg = la.abelian(4)
    pairing = la.identity_pairing(alg)
    assert np.all(la.ad_star(pairing, rng.normal(size=4), rng.normal(size=4)) == 0)


@pytest.mark.parametrize("maker", [la.so3, la.heisenberg, lambda: la.gl(2)])
def test_duality_identity_random_probes(maker, rng):
    alg = maker()
    pairing = la.identity_pairing(alg)
    for _ in range(100):
        x = rng.normal(size=alg.dim)
        b = rng.normal(size=alg.dim)
        y = rng.normal(size=alg.dim)
        lhs = pairing.pair(la.ad_star(pairing, x, b), y)
        rhs = pairing.pair(b, la.bracket_eval(alg, x, y))
        assert abs(lhs - rhs) < 1e-12


def test_ad_star_linearity(so3, rng):
    pairing = la.identity_pairing(so3)
    x1, x2, b1, b2 = (rng.normal(size=3) for _ in range(4))
    a, c = 0.37, -1.91
    lhs = la.ad_star(pairing, a * x1 + c * x2, b1)
    rhs = a * la.ad_star(pairing, x1, b1) + c * la.ad_star(pairing, x2, b1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    lhs = la.ad_star(pairing, x1, a * b1 + c * b2)
    rhs = a * la.ad_star(pairing, x1, b1) + c * la.ad_star(pairing, x1, b2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_center_of_gl2_is_identity_span(gl2):
    center = la.center_of(gl2)
    assert len(center) == 1
    direction = center[0] / np.linalg.norm(center[0])
    identity = np.eye(4)[0] + np.eye(4)[3]
    assert abs(abs(direction @ identity) - np.linalg.norm(identity)) < 1e-12


def test_center_of_so3_trivial(so3):
    assert la.center_of(so3) == []


def test_center_of_block_sum():
    # M2 + M3 as a Lie algebra: the center is spanned by the two block identities
    from liepoisson import extension as ext

    g2, g3 = la.gl(2), la.gl(3)
    spec = ext.ExtensionSpec(
        g2,
        g3,
        ext.SkewBilinearMap.zero(g3, g2),
        ext.DerivationMap.zero(g3, g2),
        la.trace_pairing(g2),
        la.trace_pairing(g3),
    )
    alg = ext.build_extension(spec)
    center = la.center_of(alg)
    assert len(center) == 2
    eye = np.eye(alg.dim)
    for eta in center:
        worst = max(
            float(np.max(np.abs(alg.bracket(eta, eye[j])))) for j in range(alg.dim)
        )
        assert worst < 1e-10
    # the expected span: I2 in the first block, I3 in the second
    i2 = np.zeros(13)
    i2[0] = i2[3] = 1.0
    i3 = np.zeros(13)
    i3[4] = i3[8] = i3[12] = 1.0
    basis = np.column_stack(center)
    for v in (i2, i3):
        coeff = basis @ (basis.conj().T @ v)
        assert np.linalg.norm(coeff - v) < 1e-10


def test_degenerate_gram_rejected(so3):
    with pytest.raises(DegeneratePairingError):
        la.DualPairing(so3, np.diag([1.0, 1.0, 1e-14]))


def test_builtin_constructors():
    assert la.builtin_algebra("so3").dim == 3
    assert la.builtin_algebra("gl3").dim == 9
    assert la.builtin_algebra("abelian5").dim == 5
    assert la.builtin_algebra({"builtin": "gl", "n": 2}).dim == 4
    with pytest.raises(KeyError):
        la.builtin_algebra("sp4")


def test_json_roundtrip(h3):
    doc = la.algebra_to_json(h3, la.identity_pairing(h3))
    alg, pairing = la.algebra_from_json(doc)
    assert np.array_equal(alg.structure_constants, h3.structure_constants)
    assert np.array_equal(pairing.gram, np.eye(3))
    assert alg.basis_labels == h3.basis_labels


def test_json_complex_roundtrip():
    alg = la.gl(2, scalar_field="complex")
    doc = la.algebra_to_json(alg)
    back, _ = la.algebra_from_json(doc)
    assert back.scalar_field == "complex"
    assert np.array_equal(back.structure_constants, alg.structure_constants)


def test_realified_algebra_matches_complex_bracket(rng):
    alg = la.gl(2, scalar_field="complex")
    real = la.realify(alg)
    assert real.dim == 8
    assert la.check_structure(real).jacobi_residual == 0.0
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = la.bracket_eval(alg, x, y)
    xr = np.concatenate([x.real, x.imag])
    yr = np.concatenate([y.real, y.imag])
    zr = la.bracket_eval(real, xr, yr)
    assert np.max(np.abs(zr - np.concatenate([z.real, z.imag]))) < 1e-13


def test_realified_pairing_is_real_part(rng):
    alg = la.gl(2, scalar_field="complex")
    pairing = la.trace_pairing(alg)
    real = la.realify(alg)
    rp = la.realify_pairing(pairing, real)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    lhs = rp.pair(
        np.concatenate([b.real, b.imag]), np.concatenate([x.real, x.imag])
    )
    assert abs(lhs - np.real(pairing.pair(b, x))) < 1e-13
