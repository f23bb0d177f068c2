import numpy as np
import pytest

from igakron.assembly import assemble_load, assemble_stiffness, condition_bound
from igakron.bspline import SplineSpace1D
from igakron.geometry import (
    SINGULAR_TOL,
    DOMAINS,
    GeometryMap,
    abs_det_masked,
    builtin,
    eval_Q_masked,
    identity_map,
    affine_map,
)

ALL_DOMAINS = list(DOMAINS)


def random_points(rng, n, dim, lo=0.0, hi=1.0):
    return rng.uniform(lo, hi, size=(n, dim))


def test_identity_map_Q_is_identity():
    geo = identity_map(2)
    z = np.array([[0.3, 0.7], [0.1, 0.9]])
    Q, sing = eval_Q_masked(geo, zeta=z)
    assert not sing.any()
    np.testing.assert_allclose(Q, np.broadcast_to(np.eye(2), (2, 2, 2)), atol=1e-14)


def test_affine_stretch_Q():
    a, b = 2.0, 0.5
    geo = affine_map(np.diag([a, b]), [0.0, 0.0])
    Q, sing = eval_Q_masked(geo, zeta=np.array([[0.4, 0.6]]))
    assert not sing.any()
    np.testing.assert_allclose(Q[0], np.diag([b / a, a / b]), rtol=1e-14)


def test_quarter_annulus_map_corners():
    geo = builtin("quarter_annulus")
    x = geo.evaluate(np.array([[0.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(x[0], [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(x[1], [0.0, 2.0], atol=1e-13)


def test_quarter_annulus_Q_eigenvalues():
    geo = builtin("quarter_annulus")
    rng = np.random.default_rng(0)
    z = random_points(rng, 50, 2)
    Q, sing = eval_Q_masked(geo, zeta=z)
    assert not sing.any()
    ev = np.sort(np.linalg.eigvalsh(Q), axis=1)
    r = 1.0 + z[:, 0]
    want = np.sort(np.column_stack((np.pi * r / 2.0, 2.0 / (np.pi * r))), axis=1)
    np.testing.assert_allclose(ev, want, rtol=1e-10)


def test_quarter_annulus_conditioning_ratio():
    geo = builtin("quarter_annulus")
    g = np.linspace(0.0, 1.0, 50)
    zz = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
    Q, sing = eval_Q_masked(geo, zeta=zz)
    assert not sing.any()
    ev = np.linalg.eigvalsh(Q)
    ratio = ev[:, -1].max() / ev[:, 0].min()
    assert abs(ratio - np.pi**2) < 0.05 * np.pi**2


def test_collapsed_triangle_edge():
    geo = builtin("collapsed_triangle")
    for t in (0.0, 0.3, 0.8, 1.0):
        x = geo.evaluate(np.array([[t, 1.0]]))
        np.testing.assert_allclose(x[0], [0.0, 1.0], atol=1e-14)
    Q, sing = eval_Q_masked(geo, zeta=np.array([[0.5, 1.0], [0.5, 0.5]]))
    assert sing[0] and not sing[1]
    # a singular point contributes nothing: its Q is zero
    assert not Q[0].any() and Q[1].any()


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_jacobian_consistency(domain):
    geo = builtin(domain)
    rng = np.random.default_rng(42)
    z = random_points(rng, 100, geo.dim, 0.05, 0.95)
    J = geo.jacobian(z)
    assert J.shape == (geo.dim, geo.dim, len(z))
    h = 1e-6
    for k in range(geo.dim):
        dz = np.zeros(geo.dim)
        dz[k] = h
        fd = (geo.evaluate(z + dz) - geo.evaluate(z - dz)) / (2 * h)
        # column k of every Jacobian, J[i, k] = dx_i/dz_k, as (N, d)
        Jk = J[:, k].T
        scale = max(1.0, np.abs(Jk).max())
        np.testing.assert_allclose(Jk, fd, atol=1e-5 * scale)


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_Q_spd_on_random_points(domain):
    geo = builtin(domain)
    rng = np.random.default_rng(7)
    z = random_points(rng, 1000, geo.dim)
    Q, sing = eval_Q_masked(geo, zeta=z)
    ok = ~sing
    ev = np.linalg.eigvalsh(Q[ok])
    assert ev[:, 0].min() > 0
    # symmetry
    assert np.abs(Q - np.swapaxes(Q, 1, 2)).max() < 1e-12


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_orientation_preserving(domain):
    geo = builtin(domain)
    rng = np.random.default_rng(3)
    z = random_points(rng, 500, geo.dim)
    det = np.linalg.det(np.moveaxis(geo.jacobian(z), -1, 0))
    assert det.min() >= -1e-14


def test_unit_square_and_cube():
    sq = builtin("unit_square")
    z = np.array([[0.2, 0.8]])
    np.testing.assert_allclose(sq.evaluate(z), z)
    np.testing.assert_allclose(sq.jacobian(z)[:, :, 0], np.eye(2))
    cube = builtin("unit_cube")
    assert cube.dim == 3


def test_unknown_domain_is_refused_with_the_names():
    with pytest.raises(ValueError, match="moebius") as err:
        builtin("moebius")
    assert all(name in str(err.value) for name in DOMAINS)


def test_point_major_jacobian_layout_is_refused():
    # a custom map that still returns one (d, d) Jacobian per point, (N, d, d),
    # fails with an error naming the expected layout, not with wrong numbers
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    geo = GeometryMap(2, lambda z: np.asarray(z) @ A.T, lambda z: np.repeat(A[None], len(z), axis=0), name="old")
    spaces = [SplineSpace1D.uniform(2, 4)] * 2
    z = np.full((5, 2), 0.5)
    calls = [
        lambda: eval_Q_masked(geo, zeta=z),
        lambda: abs_det_masked(geo, z),
        lambda: assemble_stiffness(spaces, geo),
        lambda: assemble_load(spaces, geo, lambda x: x[:, 0]),
        lambda: condition_bound(geo, z),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"shape \(d, d, N\) = \(2, 2, \d+\), got shape \(\d+, 2, 2\)"):
            call()


def test_thick_ring_third_direction_trivial():
    geo = builtin("thick_quarter_ring")
    z = np.array([[0.3, 0.4, 0.25], [0.3, 0.4, 0.75]])
    x = geo.evaluate(z)
    np.testing.assert_allclose(x[0][:2], x[1][:2], atol=1e-14)
    np.testing.assert_allclose(x[:, 2], [0.25, 0.75])


def test_revolved_ring_start_section():
    geo = builtin("revolved_quarter_ring")
    ann = builtin("quarter_annulus")
    z2 = np.array([[0.2, 0.7]])
    z3 = np.array([[0.2, 0.7, 0.0]])
    xy = ann.evaluate(z2)[0]
    x = geo.evaluate(z3)[0]
    np.testing.assert_allclose(x, [xy[0], xy[1], 0.0], atol=1e-13)


def _Q_reference(geo, z):
    """|det J| J^{-T} J^{-1} by batched inverse, zero where the Hadamard
    ratio |det J| / prod_k ||J e_k|| is at most SINGULAR_TOL."""
    J = np.moveaxis(geo.jacobian(z), -1, 0)
    det = np.linalg.det(J)
    singular = np.abs(det) <= SINGULAR_TOL * np.prod(np.linalg.norm(J, axis=1), axis=1)
    J[singular] = np.eye(geo.dim)
    Jinv = np.linalg.inv(J)
    Q = np.abs(det)[:, None, None] * np.einsum("nji,njl->nil", Jinv, Jinv)
    Q[singular] = 0.0
    return Q, singular


@pytest.mark.parametrize("domain", ALL_DOMAINS + ["shear"])
def test_closed_form_Q_matches_inverse_reference(domain):
    geo = affine_map([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0]) if domain == "shear" else builtin(domain)
    rng = np.random.default_rng(11)
    z = random_points(rng, 400, geo.dim)
    # whole faces z_k in {0, 1}, the collapsed-triangle edge z_2 = 1 among them
    for k in range(geo.dim):
        z[20 * k : 20 * k + 10, k] = 0.0
        z[20 * k + 10 : 20 * k + 20, k] = 1.0
    Q, sing = eval_Q_masked(geo, zeta=z)
    Qref, sing_ref = _Q_reference(geo, z)
    assert np.array_equal(sing, sing_ref)
    scale = np.abs(Qref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(Q - Qref) <= 1e-13 * np.maximum(scale, 1e-300))
    absdet, sing_det = abs_det_masked(geo, z)
    assert np.array_equal(sing_det, sing_ref)
    np.testing.assert_allclose(absdet, np.where(sing_ref, 0.0, np.abs(np.linalg.det(np.moveaxis(geo.jacobian(z), -1, 0)))), rtol=1e-13)
    if domain == "collapsed_triangle":
        assert sing.sum() == 10 and np.all(z[sing, 1] == 1.0)


# ROADMAP item 1: eval_Q_masked forms adj(J)^T adj(J) / |det J|, the pull-back
# through J^T; only maps whose Jacobian is not symmetric show it
_TRANSPOSED = ("quarter_annulus", "collapsed_triangle", "thick_quarter_ring", "revolved_quarter_ring", "shear")
_TRANSPOSED_XFAIL = pytest.mark.xfail(raises=AssertionError, strict=True, reason="Q pulls back through J^T")


@pytest.mark.parametrize(
    "domain",
    [pytest.param(d, marks=_TRANSPOSED_XFAIL if d in _TRANSPOSED else ()) for d in ALL_DOMAINS + ["shear"]],
)
def test_Q_pulls_back_physical_gradients(domain):
    # with J_ik = dx_i/dz_k the chain rule gives grad_x = J^{-T} grad_z, so the
    # stiffness integrand |det J| grad_x u . grad_x v is g_u^T Q g_v for the
    # parametric gradients g; the reference forms it by solves, sharing no
    # code with eval_Q_masked
    geo = affine_map([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0]) if domain == "shear" else builtin(domain)
    rng = np.random.default_rng(5)
    z = random_points(rng, 200, geo.dim, 0.05, 0.95)
    G = rng.standard_normal((200, geo.dim, 4))
    J = np.moveaxis(geo.jacobian(z), -1, 0)
    absdet = np.abs(np.linalg.det(J))[:, None, None]
    X = np.linalg.solve(np.swapaxes(J, 1, 2), G)
    ref = absdet * np.einsum("nai,naj->nij", X, X)
    Q, sing = eval_Q_masked(geo, zeta=z)
    assert not sing.any()
    got = np.einsum("nai,nab,nbj->nij", G, Q, G)
    norms = np.linalg.norm(X, axis=1)
    assert np.all(np.abs(got - ref) <= 1e-12 * absdet * norms[:, :, None] * norms[:, None, :])
