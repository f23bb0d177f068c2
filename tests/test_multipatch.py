import numpy as np
import pytest

from igakron.assembly import assemble_stiffness
from igakron.bspline import SplineSpace1D
from igakron.geometry import affine_map
from igakron.multipatch import (
    ConformityError,
    Patch,
    _merged_subdomain,
    assemble_multipatch_load,
    assemble_multipatch_stiffness,
    build_multipatch,
    l_shape_domain,
    merge_spaces,
    schwarz_setup,
)
from igakron.pcg import pcg


def square_patch(p, q, offset, scale=(1.0, 1.0)):
    spaces = [SplineSpace1D.uniform(p, q) for _ in range(2)]
    return Patch(spaces, affine_map(np.diag(scale), offset))


def two_squares(p, q):
    a = square_patch(p, q, (0.0, 0.0))
    b = square_patch(p, q, (1.0, 0.0))
    return build_multipatch([a, b], [(0, (0, 1), 1, (0, 0))])


def greville(kv):
    p = kv.p
    return np.array([kv.knots[i + 1 : i + p + 1].mean() for i in range(kv.m)])


def test_two_squares_dof_count_small():
    dom = two_squares(1, 2)
    # interior anchors of the 2x1 rectangle at h=1/2: (0.5,.5), (1,.5), (1.5,.5)
    assert dom.N == 3


@pytest.mark.parametrize("p,q", [(1, 4), (2, 4), (3, 5)])
def test_two_squares_dof_count_oracle(p, q):
    dom = two_squares(p, q)
    g = greville(SplineSpace1D.uniform(p, q))
    anchors = set()
    boundary = set()
    for k, off in enumerate([(0.0, 0.0), (1.0, 0.0)]):
        for i1, x in enumerate(g):
            for i2, y in enumerate(g):
                a = (round(x + off[0], 9), round(y + off[1], 9))
                anchors.add(a)
                if i2 in (0, len(g) - 1) or (k == 0 and i1 == 0) or (k == 1 and i1 == len(g) - 1):
                    boundary.add(a)
    assert dom.N == len(anchors) - len(boundary)


@pytest.mark.parametrize("p,q", [(1, 4), (2, 6)])
def test_l_shape_dof_count_oracle(p, q):
    dom = l_shape_domain(p, q)
    g = greville(SplineSpace1D.uniform(p, q))
    offsets = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    anchors = set()
    boundary = set()

    def on_lshape_boundary(x, y):
        if x == 0.0 or y == 0.0 or x == 2.0 or y == 2.0:
            return True
        return (x >= 1.0 and y == 1.0) or (x == 1.0 and y >= 1.0)

    for off in offsets:
        for x in g:
            for y in g:
                a = (round(x + off[0], 9), round(y + off[1], 9))
                anchors.add(a)
                if on_lshape_boundary(*a):
                    boundary.add(a)
    assert dom.N == len(anchors) - len(boundary)


def test_single_patch_reduces_to_tensor_count():
    p, q = 2, 5
    pa = square_patch(p, q, (0.0, 0.0))
    dom = build_multipatch([pa], [])
    assert dom.N == pa.spaces[0].n * pa.spaces[1].n


def test_nonconforming_interface_rejected():
    a = square_patch(2, 4, (0.0, 0.0))
    b = square_patch(2, 5, (1.0, 0.0))
    with pytest.raises(ConformityError):
        build_multipatch([a, b], [(0, (0, 1), 1, (0, 0))])
    c = square_patch(2, 4, (5.0, 0.0))  # geometrically detached
    with pytest.raises(ConformityError):
        build_multipatch([a, c], [(0, (0, 1), 1, (0, 0))])


def test_merged_knot_vector():
    p, q = 2, 3
    kv = SplineSpace1D.uniform(p, q)
    merged = merge_spaces(kv, kv)
    assert merged.m == 2 * kv.m - 1
    # interface knot has multiplicity p (C^0)
    assert int((merged.knots == 0.5).sum()) == p


@pytest.mark.parametrize("p,q", [(1, 4), (2, 4), (3, 4)])
def test_two_patches_equal_one_rectangle(p, q):
    dom = two_squares(p, q)
    A_multi = assemble_multipatch_stiffness(dom)
    dofs, spaces = _merged_subdomain(dom, dom.interfaces[0])
    assert np.array_equal(np.sort(dofs), np.arange(dom.N))  # 2 patches cover all
    rect = Patch(spaces, affine_map(np.diag([2.0, 1.0]), (0.0, 0.0)))
    A_single = assemble_stiffness(rect.spaces, rect.geo)
    got = A_multi[dofs][:, dofs].toarray()
    want = A_single.toarray()
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("spans", [(3, 5), (5, 2)])
@pytest.mark.parametrize("left_first", [True, False])
def test_3d_pair_with_unequal_spans_is_one_box(axis, spans, left_first):
    # two unit cubes glued along ``axis``, with their own span counts there:
    # the subdomain's block of the glued matrix is the stiffness of the merged
    # space on the box of length 2, whichever patch the interface names first
    p = 2
    dims_l, dims_r = [4, 3, 2], [4, 3, 2]
    dims_l[axis], dims_r[axis] = spans
    offset = np.eye(3)[axis]
    left = Patch([SplineSpace1D.uniform(p, q) for q in dims_l], affine_map(np.eye(3), np.zeros(3)))
    right = Patch([SplineSpace1D.uniform(p, q) for q in dims_r], affine_map(np.eye(3), offset))
    iface = (0, (axis, 1), 1, (axis, 0)) if left_first else (1, (axis, 0), 0, (axis, 1))
    dom = build_multipatch([left, right], [iface])
    dofs, spaces = _merged_subdomain(dom, iface)
    assert np.array_equal(np.sort(dofs), np.arange(dom.N))
    want = assemble_stiffness(spaces, affine_map(np.diag(1.0 + offset), np.zeros(3))).toarray()
    got = assemble_multipatch_stiffness(dom)[dofs][:, dofs].toarray()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_multipatch_matrix_symmetric_spd():
    dom = l_shape_domain(2, 4)
    A = assemble_multipatch_stiffness(dom)
    Ad = A.toarray()
    np.testing.assert_allclose(Ad, Ad.T, atol=1e-12 * np.abs(Ad).max())
    assert np.linalg.eigvalsh(Ad).min() > 0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_l_shape_matrix_is_the_sum_of_its_patches(p):
    # every entry sums at most two patch entries, so the scatter is exact in
    # any order; exact zeros are not stored
    dom = l_shape_domain(p, 4)
    want = np.zeros((dom.N, dom.N))
    for patch, gmap in zip(dom.patches, dom.dof_maps):
        Ak = assemble_stiffness(patch.spaces, patch.geo, dirichlet=False).toarray()
        keep = np.flatnonzero(gmap >= 0)
        np.add.at(want, np.ix_(gmap[keep], gmap[keep]), Ak[np.ix_(keep, keep)])
    A = assemble_multipatch_stiffness(dom)
    assert np.array_equal(A.toarray(), want)
    assert A.nnz == np.count_nonzero(want)
    assert A.has_sorted_indices


def test_load_scatter_matches_rectangle():
    p, q = 2, 4
    dom = two_squares(p, q)
    f = lambda x: np.sin(x[:, 0]) + x[:, 1]
    b_multi = assemble_multipatch_load(dom, f)
    dofs, spaces = _merged_subdomain(dom, dom.interfaces[0])
    rect = Patch(spaces, affine_map(np.diag([2.0, 1.0]), (0.0, 0.0)))
    from igakron.assembly import assemble_load

    b_single = assemble_load(rect.spaces, rect.geo, f)
    np.testing.assert_allclose(b_multi[dofs], b_single, rtol=1e-10)


def test_schwarz_single_subdomain_is_exact_inverse():
    dom = two_squares(2, 4)
    A = assemble_multipatch_stiffness(dom)
    prec = schwarz_setup(dom, A, mode="exact")
    assert len(prec.subdomains) == 1
    rng = np.random.default_rng(0)
    b = rng.standard_normal(dom.N)
    res = pcg(A, prec, b, tol=1e-10)
    assert res.iterations == 1 and res.converged


def test_schwarz_subdomain_structure_l_shape():
    p, q = 2, 4
    dom = l_shape_domain(p, q)
    A = assemble_multipatch_stiffness(dom)
    prec = schwarz_setup(dom, A, mode="exact")
    assert len(prec.subdomains) == 2
    m = q + p
    expected = (2 * m - 3) * (m - 2)
    for dofs, _ in prec.subdomains:
        assert dofs.size == expected
        assert np.unique(dofs).size == dofs.size  # restriction is injective
    covered = np.zeros(dom.N, dtype=bool)
    for dofs, _ in prec.subdomains:
        covered[dofs] = True
    assert covered.all()


def test_schwarz_apply_symmetric():
    dom = l_shape_domain(1, 6)
    A = assemble_multipatch_stiffness(dom)
    rng = np.random.default_rng(1)
    r, t = rng.standard_normal(dom.N), rng.standard_normal(dom.N)
    for mode in ("exact", "fd"):
        prec = schwarz_setup(dom, A, mode=mode)
        lhs = r @ prec.apply(t)
        rhs = t @ prec.apply(r)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))


def test_l_shape_exact_schwarz_converges_fast():
    # the preconditioned spectrum is {1, 2} plus a handful of splitting
    # outliers; CG resolves it in a few iterations independent of size
    dom = l_shape_domain(2, 16)
    A = assemble_multipatch_stiffness(dom)
    prec = schwarz_setup(dom, A, mode="exact")
    rng = np.random.default_rng(2)
    b = rng.standard_normal(dom.N)
    res = pcg(A, prec, b, tol=1e-8, maxit=50)
    assert res.converged and res.iterations <= 8


def pair_dofs(dom, pair):
    """Global dofs supported only on the given patches, read from the dof maps."""
    inside = np.concatenate([dom.dof_maps[k] for k in pair])
    outside = np.concatenate([dom.dof_maps[k] for k in range(len(dom.patches)) if k not in pair])
    dofs = np.setdiff1d(inside, outside)
    return dofs[dofs >= 0]


@pytest.mark.parametrize("q", [8, 16])
def test_l_shape_exact_schwarz_dense_spectrum(q):
    # The evidence behind criterion 11a's bound (docs/decisions.md): exact mode
    # is the textbook additive operator, and its spectrum is {1, 2} plus more
    # outliers than 4 CG steps can resolve to 1e-8.
    p = 2
    dom = l_shape_domain(p, q)
    A = assemble_multipatch_stiffness(dom)
    Ad = A.toarray()
    prec = schwarz_setup(dom, A, mode="exact")
    P = np.column_stack([prec.apply(e) for e in np.eye(dom.N)])
    want = np.zeros_like(Ad)
    for pair in [(0, 1), (0, 2)]:
        dofs = pair_dofs(dom, pair)
        ix = np.ix_(dofs, dofs)
        want[ix] += np.linalg.inv(Ad[ix])
    assert np.linalg.norm(P - want) <= 1e-13 * np.linalg.norm(want)

    L = np.linalg.cholesky(Ad)
    S = L.T @ P @ L  # similar to P A
    ev = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert abs(ev.max() - 2.0) <= 1e-10
    # eigenvalue 2 belongs to the overlap: the interior dofs of patch 0
    assert np.sum(np.abs(ev - 2.0) <= 1e-10) == (q + p - 2) ** 2
    outliers = np.minimum(np.abs(ev - 1.0), np.abs(ev - 2.0)) > 1e-3
    assert outliers.sum() > 4


def test_l_shape_inexact_schwarz_iteration_band():
    for p, q in [(1, 16), (3, 16)]:
        dom = l_shape_domain(p, q)
        A = assemble_multipatch_stiffness(dom)
        prec = schwarz_setup(dom, A, mode="fd")
        rng = np.random.default_rng(3)
        b = rng.standard_normal(dom.N)
        res = pcg(A, prec, b, tol=1e-8, maxit=100)
        assert res.converged
        assert 12 <= res.iterations <= 26


def test_unknown_schwarz_mode_raises():
    dom = l_shape_domain(2, 8)
    A = assemble_multipatch_stiffness(dom)
    with pytest.raises(ValueError, match="fd_pcg"):
        schwarz_setup(dom, A, mode="fd_pcg")
