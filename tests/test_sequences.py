import numpy as np
import pytest
import scipy.linalg

from liepoisson import algebra as la
from liepoisson import sequences as sq
from liepoisson.errors import DimensionMismatchError, UnsupportedPresentationError
from liepoisson.linalg import complement_residual, null_space, orth

from closed_forms import predual_restriction_residual


def canonical_sequence(nu=2, nw=3):
    """0 -> R^nu -> R^(nu+nw) -> R^nw -> 0 by inclusion and projection."""
    nv = nu + nw
    u, v, w = sq.Space(nu), sq.Space(nv), sq.Space(nw)
    first = sq.LinearMapRec(np.vstack([np.eye(nu), np.zeros((nw, nu))]), u, v)
    second = sq.LinearMapRec(np.hstack([np.zeros((nw, nu)), np.eye(nw)]), v, w)
    return sq.SequenceSpec(first, second)


def random_exact_sequence(rng, nu=2, nw=3, random_grams=True):
    """Random injective first map; second map kills exactly its image."""
    nv = nu + nw
    first = rng.normal(size=(nv, nu))
    second = scipy.linalg.null_space(first.T).T

    def gram(n):
        m = rng.normal(size=(n, n))
        return m @ m.T + n * np.eye(n)

    g = gram if random_grams else (lambda n: np.eye(n))
    u, v, w = sq.Space(nu, g(nu)), sq.Space(nv, g(nv)), sq.Space(nw, g(nw))
    return sq.SequenceSpec(
        sq.LinearMapRec(first, u, v), sq.LinearMapRec(second, v, w)
    )


def low_rank(rng, shape, rank, cplx):
    def draw(size):
        return rng.normal(size=size) + (1j * rng.normal(size=size) if cplx else 0)

    return draw((shape[0], rank)) @ draw((rank, shape[1]))


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("shape,rank", [
    ((5, 3), 3), ((3, 5), 3), ((6, 6), 2), ((4, 7), 1), ((7, 4), 0), ((3, 3), 0),
    ((0, 4), 0), ((4, 0), 0), ((0, 0), 0),
])
def test_orth_and_null_space_match_scipy(rng, shape, rank, cplx):
    """The numpy-only range and kernel bases span what scipy.linalg's do,
    under the same rank rule."""
    a = low_rank(rng, shape, rank, cplx)
    for ours, theirs in ((orth(a), scipy.linalg.orth(a)),
                         (null_space(a), scipy.linalg.null_space(a))):
        assert ours.shape == theirs.shape
        assert np.max(np.abs(ours @ ours.conj().T - theirs @ theirs.conj().T), initial=0.0) < 1e-12
    assert orth(a).shape[1] == rank
    assert null_space(a).shape[1] == shape[1] - rank


def test_canonical_sequence_exact():
    rep = sq.check_exact_sequence(canonical_sequence())
    assert rep.injectivity_defect == 0
    assert rep.surjectivity_defect == 0
    assert rep.subspace_residual == 0.0
    assert rep.exact


def test_rank_deficient_second_map_flagged():
    seq = canonical_sequence()
    m = seq.second.matrix.copy()
    m[2] = 0.0  # rank 2 onto R^3
    bad = sq.SequenceSpec(seq.first, sq.LinearMapRec(m, seq.second.source, seq.second.target))
    rep = sq.check_exact_sequence(bad)
    assert rep.surjectivity_defect == 1
    assert not rep.exact


def test_image_kernel_mismatch_flagged():
    # enlarge the kernel of the second map by one dimension
    u, v, w = sq.Space(2), sq.Space(5), sq.Space(2)
    first = sq.LinearMapRec(np.vstack([np.eye(2), np.zeros((3, 2))]), u, v)
    second = sq.LinearMapRec(np.hstack([np.zeros((2, 3)), np.eye(2)]), v, w)
    rep = sq.check_exact_sequence(sq.SequenceSpec(first, second))
    assert rep.injectivity_defect == 0 and rep.surjectivity_defect == 0
    assert rep.subspace_residual > 0.5
    assert not rep.exact


def test_non_composable_rejected():
    u, v, w = sq.Space(2), sq.Space(5), sq.Space(3)
    first = sq.LinearMapRec(np.zeros((5, 2)), u, v)
    second = sq.LinearMapRec(np.zeros((3, 4)), sq.Space(4), w)
    with pytest.raises(DimensionMismatchError):
        sq.SequenceSpec(first, second)


def test_dual_of_inclusion_is_projection():
    seq = canonical_sequence(2, 3)
    d = sq.dual_map(seq.first)
    assert np.allclose(d.matrix, seq.first.matrix.T)
    assert d.source.dim == 5 and d.target.dim == 2


def test_adjoint_identity_random_probes(rng):
    src = sq.Space(3, np.diag([1.0, 2.0, 3.0]))
    tgt = sq.Space(4, np.diag([2.0, 1.0, 0.5, 4.0]))
    m = sq.LinearMapRec(rng.normal(size=(4, 3)), src, tgt)
    d = sq.dual_map(m)
    for _ in range(100):
        y = rng.normal(size=4)
        x = rng.normal(size=3)
        lhs = (d.matrix @ y) @ (src.gram @ x)
        rhs = y @ (tgt.gram @ (m.matrix @ x))
        assert abs(lhs - rhs) < 1e-12


def test_dual_sequence_of_exact_is_exact(rng):
    for _ in range(50):
        seq = random_exact_sequence(rng)
        assert sq.check_exact_sequence(seq).exact
        rep = sq.check_exact_sequence(sq.dual_sequence(seq))
        assert rep.injectivity_defect == 0
        assert rep.surjectivity_defect == 0
        assert rep.subspace_residual < 1e-10


def test_hom_residual_detects_broken_map(so3):
    space = sq.Space(3, algebra=so3)
    good = sq.LinearMapRec(np.eye(3), space, space)
    seq = sq.SequenceSpec(
        sq.LinearMapRec(np.zeros((3, 0)), sq.Space(0), space), good
    )
    rep = sq.check_exact_sequence(seq)
    assert rep.hom_residual_second == 0.0
    scaled = sq.LinearMapRec(2.0 * np.eye(3), space, space)
    rep = sq.check_exact_sequence(
        sq.SequenceSpec(sq.LinearMapRec(np.zeros((3, 0)), sq.Space(0), space), scaled)
    )
    # 2 id is not a homomorphism of so(3): [2x, 2y] = 4 [x, y]
    assert rep.hom_residual_second == pytest.approx(2.0)


def test_wstar_split_m2_m3():
    alg = sq.MatrixStarAlgebra((2, 3))
    rep = sq.wstar_central_split(alg, (0,))
    assert np.allclose(rep.z, np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))
    assert rep.max_residual < 1e-12
    assert rep.projection_iso_defect == 0


def test_wstar_split_complement_selection():
    rep = sq.wstar_central_split(sq.MatrixStarAlgebra((2, 3)), (1,))
    assert np.allclose(rep.z, np.diag([0.0, 0.0, 1.0, 1.0, 1.0]))
    assert rep.max_residual < 1e-12


def test_wstar_cross_products_vanish(rng):
    alg = sq.MatrixStarAlgebra((2, 3))
    rep = sq.wstar_central_split(alg, (0,))
    z = rep.z
    one_minus_z = np.eye(5) - z
    for _ in range(20):
        x = z @ rng.normal(size=(5, 5)) @ z
        y = one_minus_z @ rng.normal(size=(5, 5)) @ one_minus_z
        assert np.max(np.abs(x @ y)) == 0.0
        assert np.max(np.abs(y @ x)) == 0.0


def wstar_split_loop(g, ideal):
    """The residuals of the W*-split, one pair of basis matrices at a time."""
    n = g.total_dim
    z = np.zeros((n, n))
    for b in ideal:
        sl = g.block_slice(b)
        z[sl, sl] = np.eye(g.block_dims[b])
    one_minus_z = np.eye(n) - z
    basis = g.basis()
    central = max(float(np.max(np.abs(z @ x - x @ z))) for x in basis)
    ideal_basis = np.column_stack([x.ravel() for x in basis if np.allclose(z @ x @ z, x)])
    z_image = np.column_stack([(z @ x @ z).ravel() for x in basis])
    z_image = z_image[:, np.linalg.norm(z_image, axis=0) > 0]
    cross = split = 0.0
    for x in basis:
        x1, x2 = z @ x @ z, one_minus_z @ x @ one_minus_z
        for y in basis:
            y1, y2 = z @ y @ z, one_minus_z @ y @ one_minus_z
            cross = max(cross, float(np.max(np.abs(x1 @ y2))), float(np.max(np.abs(y2 @ x1))))
            lhs = x @ y - y @ x
            rhs = (x1 @ y1 - y1 @ x1) + (x2 @ y2 - y2 @ x2)
            split = max(split, float(np.max(np.abs(lhs - rhs))))
    comp_basis = np.column_stack([(one_minus_z @ x @ one_minus_z).ravel() for x in basis])
    comp_basis = comp_basis[:, np.linalg.norm(comp_basis, axis=0) > 0]
    comp_dim = sum(d * d for b, d in enumerate(g.block_dims) if b not in ideal)
    return z, {
        "idempotent_residual": float(np.max(np.abs(z @ z - z))),
        "central_residual": central,
        "image_residual": max(complement_residual(z_image, ideal_basis),
                              complement_residual(ideal_basis, z_image)),
        "cross_product_residual": cross,
        "bracket_split_residual": split,
        "projection_iso_defect": comp_dim - int(np.linalg.matrix_rank(comp_basis)),
    }


def test_wstar_split_equals_the_pairwise_loop(rng):
    """The split batched over y for each x reports what the loop over every
    pair of basis matrices reports: the shipped config's (2, 3) split of
    block 0, and random block dims and ideals."""
    cases = [((2, 3), (0,))]
    for _ in range(6):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(2, 5)))
        ideal = tuple(int(b) for b in rng.choice(len(dims), rng.integers(1, len(dims)),
                                                 replace=False))
        cases.append((dims, tuple(sorted(ideal))))
    for dims, ideal in cases:
        g = sq.MatrixStarAlgebra(dims)
        rep = sq.wstar_central_split(g, ideal)
        z, expected = wstar_split_loop(g, ideal)
        assert np.array_equal(rep.z, z)
        assert rep.as_dict() == expected, (dims, ideal)


def test_wstar_split_rejects_bad_selection():
    alg = sq.MatrixStarAlgebra((2, 3))
    with pytest.raises(UnsupportedPresentationError):
        sq.wstar_central_split(alg, ())
    with pytest.raises(UnsupportedPresentationError):
        sq.wstar_central_split(alg, (0, 1))
    with pytest.raises(UnsupportedPresentationError):
        sq.wstar_central_split(alg, (5,))


def test_predual_restriction_residual():
    # dual of the projection maps the W-predual into the V-predual slot
    seq = canonical_sequence(2, 3)
    dual_second = sq.dual_map(seq.second)  # W* -> V*
    w_sub = np.eye(3)
    v_sub = np.vstack([np.zeros((2, 3)), np.eye(3)])
    assert predual_restriction_residual(dual_second, w_sub, v_sub) == 0.0
    # shrinking the target subspace breaks containment
    v_bad = np.vstack([np.zeros((2, 2)), np.eye(3)[:, :2]])
    assert predual_restriction_residual(dual_second, w_sub, v_bad) > 0.5


def test_component_pairing_gram_is_block_diagonal(so3, gl2):
    # the pairing of a direct sum built component-wise has exactly
    # block-diagonal gram, so it restricts correctly to the components
    from liepoisson import extension as ext

    spec = ext.ExtensionSpec(
        so3,
        gl2,
        ext.SkewBilinearMap.zero(gl2, so3),
        ext.DerivationMap.zero(gl2, so3),
        la.identity_pairing(so3),
        la.trace_pairing(gl2),
    )
    alg = ext.build_extension(spec)
    pairing = ext.direct_sum_pairing(spec, alg)
    assert np.array_equal(pairing.gram[:3, :3], np.eye(3))
    assert np.array_equal(pairing.gram[3:, 3:], la.trace_pairing(gl2).gram)
    assert np.all(pairing.gram[:3, 3:] == 0)
    assert np.all(pairing.gram[3:, :3] == 0)
