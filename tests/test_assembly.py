from functools import reduce

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from _strategies import random_open_space
from igakron import assembly
from igakron.assembly import (
    BoundScreen,
    _CSRRows,
    assemble_load,
    assemble_pencil_1d,
    assemble_stiffness,
    condition_bound,
    gauss_points_on_intervals,
    gauss_rule,
    quadrature_grid,
    l2_error,
    write_matrix_market,
)
from igakron.bspline import SplineSpace1D
from igakron.fd import fd_setup
from igakron.geometry import (
    DOMAINS,
    GeometryMap,
    abs_det_masked,
    affine_map,
    builtin,
    eval_Q_masked,
    identity_map,
)
from igakron.kron import KroneckerSum
from igakron.pcg import pcg


def spaces_2d(p, q):
    return [SplineSpace1D.uniform(p, q), SplineSpace1D.uniform(p, q)]


def gauss_points(spaces):
    """The (N, d) tensor Gauss points, p + 1 per span of each direction, in C order."""
    axes = [gauss_rule(s, s.p + 1).points.ravel() for s in spaces]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def test_gauss_midpoint_rule():
    pts, wts = gauss_points_on_intervals([0.0, 1.0], 1)
    np.testing.assert_allclose(pts, [[0.5]])
    np.testing.assert_allclose(wts, [[1.0]])


def test_gauss_two_point_nodes():
    pts, _ = gauss_points_on_intervals([0.0, 1.0], 2)
    d = 1.0 / (2 * np.sqrt(3.0))
    np.testing.assert_allclose(np.sort(pts[0]), [0.5 - d, 0.5 + d], rtol=1e-14)


def test_gauss_cubic_exactness():
    pts, wts = gauss_points_on_intervals([0.0, 1.0], 2)
    val = float(np.sum(wts * pts**3))
    assert abs(val - 0.25) < 1e-15


def test_gauss_rule_properties():
    s = SplineSpace1D.uniform(3, 5)
    rule = gauss_rule(s, 4)
    assert len(rule.points) == len(rule.weights) == 5
    assert (rule.weights > 0).all()
    breaks = s.breakpoints()
    for e in range(5):
        assert (rule.points[e] > breaks[e]).all() and (rule.points[e] < breaks[e + 1]).all()


def test_quadrature_grid_needs_a_point_per_span():
    # zero points per span is refused, as by gauss_rule, not replaced by p + 1
    with pytest.raises(ValueError, match="at least one quadrature point"):
        quadrature_grid(spaces_2d(2, 4), 0)


def test_pencil_p1_uniform_rows():
    q = 8
    h = 1.0 / q
    s = SplineSpace1D.uniform(1, q)
    K, M = assemble_pencil_1d(s)
    Kd, Md = K.toarray(), M.toarray()
    n = s.n
    for i in range(1, n - 1):
        np.testing.assert_allclose(Md[i, i - 1 : i + 2], [h / 6, 2 * h / 3, h / 6], rtol=1e-12)
        np.testing.assert_allclose(Kd[i, i - 1 : i + 2], [-1 / h, 2 / h, -1 / h], rtol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_pencil_spd_and_rowsums(p):
    s = SplineSpace1D.uniform(p, 9)
    K, M = assemble_pencil_1d(s)
    for B in (K, M):
        ev = np.linalg.eigvalsh(B.toarray())
        assert ev.min() > 0
    # the constant lies in the full space: K * 1 has nonzeros only within the
    # first/last p rows (where the removed boundary functions overlapped)
    ones = np.ones(s.n)
    r = K.toarray() @ ones
    assert np.abs(r[p : s.n - p]).max() < 1e-12
    assert np.abs(r[:p]).max() > 1e-8


def kron_sum_dense(K1, M1, K2, M2):
    return np.kron(K1.toarray(), M2.toarray()) + np.kron(M1.toarray(), K2.toarray())


@pytest.mark.parametrize("p,q", [(1, 6), (2, 6), (3, 5), (4, 5)])
def test_identity_geometry_collapses_to_kronecker_sum_2d(p, q):
    sp = spaces_2d(p, q)
    A = assemble_stiffness(sp, identity_map(2)).toarray()
    K1, M1 = assemble_pencil_1d(sp[0])
    K2, M2 = assemble_pencil_1d(sp[1])
    P = kron_sum_dense(K1, M1, K2, M2)
    np.testing.assert_allclose(A, P, rtol=1e-10, atol=1e-12 * np.abs(P).max())


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_identity_geometry_collapses_to_kronecker_sum_3d(p):
    sp = [SplineSpace1D.uniform(p, 4) for _ in range(3)]
    A = assemble_stiffness(sp, identity_map(3)).toarray()
    pencils = [assemble_pencil_1d(s) for s in sp]
    P = KroneckerSum(pencils).toarray()
    np.testing.assert_allclose(A, P, rtol=1e-10, atol=1e-12 * np.abs(P).max())


def test_stiffness_symmetric_and_spd_small():
    sp = spaces_2d(2, 5)
    A = assemble_stiffness(sp, builtin("quarter_annulus"))
    Ad = A.toarray()
    np.testing.assert_allclose(Ad, Ad.T, atol=1e-12 * np.abs(Ad).max())
    assert np.linalg.eigvalsh(Ad).min() > 0


def test_stiffness_nnz_bound():
    p, q = 2, 8
    sp = spaces_2d(p, q)
    A = assemble_stiffness(sp, builtin("quarter_annulus"))
    N = A.shape[0]
    assert A.nnz <= (2 * p + 1) ** 2 * N
    # equality order on finer meshes: boundary truncation becomes negligible
    sp = spaces_2d(p, 64)
    A = assemble_stiffness(sp, builtin("quarter_annulus"))
    assert A.nnz >= 0.8 * (2 * p + 1) ** 2 * A.shape[0]


def test_pattern_identity_with_kronecker_sum():
    sp = spaces_2d(3, 6)
    A = assemble_stiffness(sp, builtin("quarter_annulus"))
    P = assemble_stiffness(sp, identity_map(2))
    A.sort_indices()
    P.sort_indices()
    assert np.array_equal(A.indptr, P.indptr)
    assert np.array_equal(A.indices, P.indices)


def test_load_zero_and_linearity():
    sp = spaces_2d(2, 5)
    geo = builtin("quarter_annulus")
    zero = assemble_load(sp, geo, lambda x: np.zeros(len(x)))
    np.testing.assert_allclose(zero, 0.0)
    f = lambda x: x[:, 0] + 2.0 * x[:, 1]
    b1 = assemble_load(sp, geo, f)
    b2 = assemble_load(sp, geo, lambda x: 2.0 * f(x))
    np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-13)


def manufactured_f(x):
    return 2.0 * (x[:, 0] ** 2 - x[:, 0]) + 2.0 * (x[:, 1] ** 2 - x[:, 1])


def manufactured_u(x):
    return -(x[:, 0] ** 2 - x[:, 0]) * (x[:, 1] ** 2 - x[:, 1])


def test_manufactured_solution_rate_p1():
    geo = identity_map(2)
    errs = []
    for q in (8, 16, 32):
        sp = spaces_2d(1, q)
        A = assemble_stiffness(sp, geo)
        b = assemble_load(sp, geo, manufactured_f)
        u = scipy.sparse.linalg.spsolve(A.tocsc(), b)
        errs.append(l2_error(sp, geo, u, manufactured_u))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 2.0) < 0.3)


def test_manufactured_solution_exact_for_p2():
    # the manufactured solution is a tensor quadratic, hence lies in the
    # spline space for p >= 2: the Galerkin solution reproduces it to roundoff
    geo = identity_map(2)
    sp = spaces_2d(2, 8)
    A = assemble_stiffness(sp, geo)
    b = assemble_load(sp, geo, manufactured_f)
    u = scipy.sparse.linalg.spsolve(A.tocsc(), b)
    assert l2_error(sp, geo, u, manufactured_u) < 1e-12


# a fixed non-uniform mesh of [0, 1]: spans from 0.05 to 0.25
NONUNIFORM_BREAKS = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.7, 0.9, 1.0])


def sine_u(x):
    return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])


def sine_f(x):
    return 2.0 * np.pi**2 * sine_u(x)


@pytest.mark.parametrize("p", [2, 3])
def test_manufactured_solution_rate_on_nonuniform_mesh(p):
    # unit square, identity map; each level halves every span of the last,
    # from 14 spans (at 7, p = 3 is still pre-asymptotic: rate 4.33) to 112
    geo = identity_map(2)
    breaks, errs = NONUNIFORM_BREAKS, []
    for _ in range(4):
        breaks = np.sort(np.r_[breaks, (breaks[:-1] + breaks[1:]) / 2])
        space = SplineSpace1D(np.r_[[0.0] * p, breaks, [1.0] * p], p)
        spaces = [space, space]
        A = assemble_stiffness(spaces, geo)
        b = assemble_load(spaces, geo, sine_f)
        res = pcg(A, fd_setup(KroneckerSum([assemble_pencil_1d(space)] * 2)), b, tol=1e-12)
        assert res.converged
        errs.append(l2_error(spaces, geo, res.x, sine_u))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - (p + 1)) <= 0.3), rates


def test_condition_bound_identity_and_annulus(monkeypatch):
    z = gauss_points(spaces_2d(2, 8))
    cb = condition_bound(identity_map(2), z)
    assert not cb.singular and abs(cb.bound - 1.0) < 1e-10
    cb2 = condition_bound(builtin("quarter_annulus"), z)
    assert abs(cb2.bound - np.pi**2) < 0.05 * np.pi**2
    # chunked evaluation gives the single-shot value
    for chunk in (7, 24, 100):
        monkeypatch.setattr(assembly, "_BOUND_CHUNK", chunk)
        cb = condition_bound(builtin("quarter_annulus"), z)
        assert not cb.singular and cb.bound == cb2.bound


def test_condition_bound_singular_domain(monkeypatch):
    grid = gauss_points(spaces_2d(2, 6))
    z = np.vstack([grid, [[0.5, 1.0]]])  # force a point on the collapsed edge
    cb = condition_bound(builtin("collapsed_triangle"), z)
    assert cb.singular and np.isinf(cb.bound)
    # the only singular point alone in the last chunk still gives the sentinel
    for chunk in (18, len(grid)):
        monkeypatch.setattr(assembly, "_BOUND_CHUNK", chunk)
        cb = condition_bound(builtin("collapsed_triangle"), z)
        assert cb.singular and np.isinf(cb.bound)


def test_condition_bound_without_points_raises():
    with pytest.raises(ValueError, match="at least one sample point"):
        condition_bound(builtin("quarter_annulus"), np.zeros((0, 2)))


@pytest.mark.parametrize("chunk", [1, 7, 143, 145, 1000])
def test_condition_bound_visits_grid_then_extra_points(chunk, monkeypatch):
    # every point once, in the given order (the Gauss grid, then the
    # corners: 148 points), in chunks of _BOUND_CHUNK, boundaries anywhere
    spaces = [SplineSpace1D.uniform(2, 3), SplineSpace1D.uniform(3, 4)]
    z = np.vstack([gauss_points(spaces), corners(2)])
    seen = []

    def record(geo, *, zeta):
        seen.append(np.array(zeta))
        return eval_Q_masked(geo, zeta=zeta)

    monkeypatch.setattr(assembly, "_BOUND_CHUNK", chunk)
    monkeypatch.setattr(assembly, "eval_Q_masked", record)
    cb = condition_bound(builtin("quarter_annulus"), z)
    assert not cb.singular
    assert [len(c) for c in seen] == [len(z[i : i + chunk]) for i in range(0, len(z), chunk)]
    assert np.array_equal(np.vstack(seen), z)


# _sum_factorize evaluates Q once per group of G = _BOUND_CHUNK // (q R)
# leading elements, R = (2p + 1) m the trailing rows (more than the q E
# trailing points): 31 of the 72 at p = 3, 1/h = 72 (so the last group
# holds 10), 9 of the 256 at 1/h = 256 and all 64 at p = 2, 1/h = 64; not
# once per element
@pytest.mark.parametrize("p, h_inv, calls", [(3, 72, 3), (3, 256, 29), (2, 64, 1)])
def test_stiffness_pass_evaluates_Q_once_a_group(p, h_inv, calls, monkeypatch):
    spaces = [SplineSpace1D.uniform(p, h_inv)] * 2
    seen = []

    def record(geo, *, zeta):
        seen.append(np.array(zeta))
        return eval_Q_masked(geo, zeta=zeta)

    monkeypatch.setattr(assembly, "eval_Q_masked", record)
    assemble_stiffness(spaces, builtin("quarter_annulus"), screen=BoundScreen())
    G = assembly._group_size(h_inv, p + 1, (p + 1) * h_inv, (2 * p + 1) * spaces[1].m)
    assert len(seen) == calls == -(-h_inv // G)
    plane = (p + 1) ** 2 * h_inv
    assert [len(z) for z in seen] == [min(G, h_inv - e) * plane for e in range(0, h_inv, G)]
    # together the calls visit every Gauss point once
    got, grid = np.vstack(seen), gauss_points(spaces)
    assert np.array_equal(got[np.lexsort(got.T)], grid[np.lexsort(grid.T)])


def _dense_from_band(BB, ms, p):
    """Full-space dense matrix with A[i, i + o] = BB[i_1, o_1 + p, ..., i_d, o_d + p]."""
    d = len(ms)
    A = np.zeros((int(np.prod(ms)),) * 2)
    for i in np.ndindex(*ms):
        for o in np.ndindex(*([2 * p + 1] * d)):
            j = tuple(ik + ok - p for ik, ok in zip(i, o))
            if all(0 <= jk < m for jk, m in zip(j, ms)):
                idx = tuple(x for pair in zip(i, o) for x in pair)
                A[np.ravel_multi_index(i, ms), np.ravel_multi_index(j, ms)] = BB[idx]
    return A


# (4, 6) and (5, 4, 6) at p = 2, 3 leave at most 2p leading rows, each
# within p of both ends of the box
@pytest.mark.parametrize("ms,p", [((7, 6), 2), ((5, 6, 4), 1), ((6, 5, 7), 2), ((4, 6), 2), ((5, 4, 6), 3)])
@pytest.mark.parametrize("dirichlet", [True, False])
def test_band_to_csr_matches_dense_reference(ms, p, dirichlet):
    rng = np.random.default_rng(5)
    BB = rng.uniform(0.5, 1.5, size=[x for m in ms for x in (m, 2 * p + 1)])
    ranges = [(1, m - 1) if dirichlet else (0, m) for m in ms]
    rows = _CSRRows(ms, ranges, p)
    scratch = np.empty(BB.shape[1:])
    for i in range(ms[0]):
        # the sink must copy what it keeps: the kernel reuses the rows it passes
        scratch[...] = BB[i]
        rows.write(i, scratch.reshape(2 * p + 1, -1))
        scratch[...] = np.nan
    A = rows.matrix()
    inside = [np.arange(lo, hi) for lo, hi in ranges]
    idx = np.ravel_multi_index([g.ravel() for g in np.meshgrid(*inside, indexing="ij")], ms)
    ref = scipy.sparse.csr_matrix(_dense_from_band(BB, ms, p)[np.ix_(idx, idx)])
    assert A.shape == ref.shape
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    np.testing.assert_allclose(A.data, ref.data, rtol=1e-13)


def test_orientation_reversing_map_matches_identity():
    # x = (1 - z_1, z_2) maps the unit square onto itself with det J = -1
    sp = spaces_2d(2, 8)
    flip = affine_map(np.diag([-1.0, 1.0]), [1.0, 0.0])
    A = assemble_stiffness(sp, flip)
    A0 = assemble_stiffness(sp, identity_map(2))
    assert np.array_equal(A.indptr, A0.indptr) and np.array_equal(A.indices, A0.indices)
    np.testing.assert_allclose(A.data, A0.data, rtol=1e-13, atol=1e-13 * np.abs(A0.data).max())
    # manufactured_f is symmetric under x_1 -> 1 - x_1
    b = assemble_load(sp, flip, manufactured_f)
    b0 = assemble_load(sp, identity_map(2), manufactured_f)
    np.testing.assert_allclose(b, b0, rtol=1e-13, atol=1e-13 * np.abs(b0).max())
    res = pcg(A, fd_setup(KroneckerSum([assemble_pencil_1d(s) for s in sp])), b, tol=1e-10)
    assert res.converged
    err = l2_error(sp, flip, res.x, manufactured_u)
    assert np.isfinite(err) and err < 1e-9


def test_matrix_market_roundtrip(tmp_path):
    sp = spaces_2d(2, 4)
    A = assemble_stiffness(sp, builtin("quarter_annulus"))
    path = tmp_path / "A.mtx"
    write_matrix_market(A, path)
    B = scipy.io.mmread(path).tocsr()
    assert (A != B).nnz == 0
    b = assemble_load(sp, builtin("quarter_annulus"), manufactured_f)
    path_b = tmp_path / "b.mtx"
    write_matrix_market(b, path_b)
    b2 = scipy.io.mmread(path_b).ravel()
    np.testing.assert_array_equal(b, b2)


# ---------------------------------------------------------------------------
# the sum-factorized kernel against brute-force dense quadrature


@st.composite
def open_knot_vector(draw, p, max_breaks, max_mult):
    """Open knot vector on a 1/20 grid with repeated interior knots."""
    k = draw(st.integers(1, max_breaks))
    breaks = sorted(draw(st.lists(st.integers(1, 19), min_size=k, max_size=k, unique=True)))
    mult = draw(st.lists(st.integers(1, max_mult), min_size=k, max_size=k))
    interior = np.repeat(np.array(breaks) / 20.0, mult)
    return SplineSpace1D(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p)


def dense_quadrature(spaces, geo, f):
    """Dense A and b by Gauss quadrature over every nonempty span.

    Basis values and derivatives come from scipy's BSpline, the tensor
    basis from Kronecker products of the dense 1D tables.
    """
    d = len(spaces)
    pts, wts, V, D = [], [], [], []
    for s in spaces:
        x, w = np.polynomial.legendre.leggauss(s.p + 1)
        br = np.unique(s.knots)
        a, b = br[:-1, None], br[1:, None]
        z = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
        spline = BSpline(s.knots, np.eye(s.m), s.p)
        pts.append(z)
        wts.append((0.5 * (b - a) * w).ravel())
        V.append(spline(z))
        D.append(spline.derivative()(z))
    zeta = np.column_stack([g.ravel() for g in np.meshgrid(*pts, indexing="ij")])
    w = reduce(np.multiply.outer, wts).ravel()
    Q, _ = eval_Q_masked(geo, zeta=zeta)
    G = [reduce(np.kron, [D[k] if k == c else V[k] for k in range(d)]) for c in range(d)]
    A = sum(G[c].T @ ((w * Q[:, c, e])[:, None] * G[e]) for c in range(d) for e in range(d))
    absdet, _ = abs_det_masked(geo, zeta)
    b = reduce(np.kron, V).T @ (w * absdet * f(geo.evaluate(zeta)))
    return A, b


@settings(max_examples=40)
@given(data=st.data())
@pytest.mark.parametrize("d", [2, 3])
def test_kernel_matches_dense_quadrature(d, data):
    p = data.draw(st.integers(1, 4), label="p")
    # keep the 3D dense reference small: at most 2 breakpoints of multiplicity 2
    max_breaks, max_mult = (3, p) if d == 2 else (2, min(p, 2))
    spaces = [data.draw(open_knot_vector(p, max_breaks, max_mult)) for _ in range(d)]
    geo = builtin("quarter_annulus" if d == 2 else "revolved_quarter_ring")
    dirichlet = data.draw(st.booleans(), label="dirichlet")
    f = lambda x: np.cos(x[:, 0]) + x[:, -1] ** 2
    A_ref, b_ref = dense_quadrature(spaces, geo, f)
    if dirichlet:
        inner = [np.arange(1, s.m - 1) for s in spaces]
        keep = np.ravel_multi_index([g.ravel() for g in np.meshgrid(*inner, indexing="ij")], [s.m for s in spaces])
        A_ref, b_ref = A_ref[np.ix_(keep, keep)], b_ref[keep]
    A = assemble_stiffness(spaces, geo, dirichlet=dirichlet).toarray()
    b = assemble_load(spaces, geo, f, dirichlet=dirichlet)
    np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-12 * np.abs(A_ref).max())
    np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12 * np.abs(b_ref).max())


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=60)
@given(data=st.data())
def test_stiffness_spd_and_kronecker_identity_on_random_knots(d, data):
    # one degree per example, every direction its own open knot vector and n
    p = data.draw(st.integers(1, 5), label="p")
    max_n = 24 if d == 2 else 9
    spaces = [data.draw(random_open_space(max_n, p), label="space%d" % k) for k in range(d)]
    A = assemble_stiffness(spaces, identity_map(d)).toarray()
    P = KroneckerSum([assemble_pencil_1d(s) for s in spaces]).toarray()
    assert np.abs(A - P).max() <= 1e-13 * np.abs(P).max()
    A = assemble_stiffness(spaces, builtin("quarter_annulus" if d == 2 else "revolved_quarter_ring")).toarray()
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
    assert np.linalg.eigvalsh(A)[0] > 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("dirichlet", [True, False])
def test_kernel_leading_knot_of_multiplicity_p(d, dirichlet):
    # the leading direction's first active function jumps by p at the
    # repeated knot, so p rows of the kernel's ring are passed on at once
    p = 3
    lead = SplineSpace1D(np.r_[np.zeros(p + 1), 0.25, [0.5] * p, 0.75, np.ones(p + 1)], p)
    spaces = [lead] + [SplineSpace1D.uniform(p, 2 + k) for k in range(d - 1)]
    geo = builtin("quarter_annulus" if d == 2 else "revolved_quarter_ring")
    f = lambda x: np.cos(x[:, 0]) + x[:, -1] ** 2
    A_ref, b_ref = dense_quadrature(spaces, geo, f)
    if dirichlet:
        inner = [np.arange(1, s.m - 1) for s in spaces]
        keep = np.ravel_multi_index([g.ravel() for g in np.meshgrid(*inner, indexing="ij")], [s.m for s in spaces])
        A_ref, b_ref = A_ref[np.ix_(keep, keep)], b_ref[keep]
    A = assemble_stiffness(spaces, geo, dirichlet=dirichlet).toarray()
    b = assemble_load(spaces, geo, f, dirichlet=dirichlet)
    np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-12 * np.abs(A_ref).max())
    np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12 * np.abs(b_ref).max())


def test_scaled_map_is_not_singular():
    # |det J| = 1e-15 is below an absolute 1e-14 but the map is a plain
    # scaling: Q = 1e-5 I everywhere
    spaces = [SplineSpace1D.uniform(2, 4) for _ in range(3)]
    geo = affine_map(1e-5 * np.eye(3), np.zeros(3))
    A = assemble_stiffness(spaces, geo)
    A0 = assemble_stiffness(spaces, identity_map(3))
    assert abs(A - 1e-5 * A0).max() <= 1e-12 * 1e-5 * abs(A0).max()
    cb = condition_bound(geo, gauss_points(spaces))
    assert not cb.singular and cb.bound == 1.0


@pytest.mark.parametrize("domain", list(DOMAINS))
@pytest.mark.parametrize("with_corners", [False, True])
@pytest.mark.parametrize("chunk", [None, 500])
def test_condition_bound_matches_eigvalsh(domain, with_corners, chunk, monkeypatch):
    # the thick ring has a double eigenvalue wherever lmax is taken, where
    # the closed-form screen is least accurate
    geo = builtin(domain)
    spaces = [SplineSpace1D.uniform(3, 8 + k) for k in range(geo.dim)]
    _, z, _ = quadrature_grid(spaces, 4)
    if with_corners:
        z = np.vstack([z, corners(geo.dim)])
    if chunk:
        monkeypatch.setattr(assembly, "_BOUND_CHUNK", chunk)
    cb = condition_bound(geo, z)
    Q, sing = eval_Q_masked(geo, zeta=z)
    if sing.any():
        assert cb.singular and np.isinf(cb.bound)
        return
    ev = np.linalg.eigvalsh(Q)
    ref = ev[:, -1].max() / ev[:, 0].min()
    assert not cb.singular
    assert abs(cb.bound - ref) <= 1e-12 * ref


def _interior_singular_map(z_star):
    # x = (z_1, (z_2 - z*)^3 / 3): det J = (z_2 - z*)^2 vanishes only on the
    # line z_2 = z*, which holds Gauss points when z* is one of them
    def evaluate(z):
        z = np.asarray(z)
        return np.column_stack((z[:, 0], (z[:, 1] - z_star) ** 3 / 3.0))

    def jacobian(z):
        J = np.zeros((2, 2, len(z)))
        J[0, 0] = 1.0
        J[1, 1] = (np.asarray(z)[:, 1] - z_star) ** 2
        return J

    return GeometryMap(2, evaluate, jacobian, name="interior_singular")


def corners(d):
    return np.array(np.meshgrid(*([[0.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T


@pytest.mark.parametrize("domain", list(DOMAINS) + ["shear", "interior_singular"])
@pytest.mark.parametrize("chunk", [None, 500])
def test_stiffness_pass_bound_equals_grid_bound(domain, chunk, monkeypatch):
    # the bound screened in the stiffness pass and finished with the corners
    # is condition_bound over the whole Gauss grid plus the corners, bitwise;
    # a chunk of 500 also collapses the 3D rings' thousands of candidates to
    # the exact extremes on the way
    if domain == "shear":
        geo = affine_map([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])
    elif domain == "interior_singular":
        geo = _interior_singular_map(gauss_rule(SplineSpace1D.uniform(3, 9), 4).points[2, 1])
    else:
        geo = builtin(domain)
    spaces = [SplineSpace1D.uniform(3, 8 + k) for k in range(geo.dim)]
    if chunk:
        monkeypatch.setattr(assembly, "_BOUND_CHUNK", chunk)
    screen = BoundScreen()
    A = assemble_stiffness(spaces, geo, screen=screen)
    # only the interior-singular map has a singular Gauss point
    assert screen.singular == (domain == "interior_singular")
    cb = condition_bound(geo, corners(geo.dim), screen)
    ref = condition_bound(geo, np.vstack([gauss_points(spaces), corners(geo.dim)]))
    assert cb == ref
    singular = domain in ("interior_singular", "collapsed_triangle")
    assert cb.singular == singular and np.isinf(cb.bound) == singular
    # the screen leaves A as it is
    A0 = assemble_stiffness(spaces, geo)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, attr), getattr(A0, attr))


# ---------------------------------------------------------------------------
# the pull-back orientation defect (ROADMAP item 1): expected to fail until
# eval_Q_masked forms |det J| J^-1 J^-T for J_ik = dx_i / dz_k

PULLBACK_DEFECT = "ROADMAP item 1: eval_Q_masked forms the pull-back in the transposed orientation"


@pytest.mark.xfail(strict=True, reason=PULLBACK_DEFECT)
def test_shear_map_energy_of_linear_function():
    # x = (z_1 + z_2, z_2) maps the unit square onto a parallelogram of area
    # 1; u = x_2 = z_2 has |grad u| = 1, so its energy is the area
    sp = spaces_2d(2, 4)
    A = assemble_stiffness(sp, affine_map([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0]), dirichlet=False)
    kv = sp[1]
    greville = np.array([kv.knots[i + 1 : i + kv.p + 1].mean() for i in range(kv.m)])
    c = np.tile(greville, sp[0].m)
    assert abs(c @ (A @ c) - 1.0) < 1e-12


def annulus_u(x):
    s = x[:, 0] ** 2 + x[:, 1] ** 2
    return x[:, 0] * x[:, 1] * (s - 1.0) * (s - 4.0)


def annulus_f(x):
    # -laplace(x y g(s)) = -x y (12 g'(s) + 4 s g''(s)) with g(s) = (s - 1)(s - 4)
    s = x[:, 0] ** 2 + x[:, 1] ** 2
    return x[:, 0] * x[:, 1] * (60.0 - 32.0 * s)


@pytest.mark.xfail(strict=True, reason=PULLBACK_DEFECT)
@pytest.mark.parametrize("p", [2, 3])
def test_quarter_annulus_manufactured_rate(p):
    # u vanishes on the whole boundary of the quarter annulus
    geo = builtin("quarter_annulus")
    errs = []
    for h_inv in (8, 16, 32):
        sp = spaces_2d(p, h_inv)
        u = scipy.sparse.linalg.spsolve(assemble_stiffness(sp, geo).tocsc(), assemble_load(sp, geo, annulus_f))
        errs.append(l2_error(sp, geo, u, annulus_u))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - (p + 1)) < 0.3), rates


def ring_u(x):
    s = x[:, 0] ** 2 + x[:, 1] ** 2
    z = x[:, 2]
    return x[:, 0] * x[:, 1] * z * (1.0 - z) * (s - 1.0) * (s - 4.0)


def ring_f(x):
    # -laplace(z (1 - z) w(x, y)) = z (1 - z) (-laplace w) + 2 w, w as annulus_u
    s = x[:, 0] ** 2 + x[:, 1] ** 2
    z = x[:, 2]
    return x[:, 0] * x[:, 1] * (z * (1.0 - z) * (60.0 - 32.0 * s) + 2.0 * (s - 1.0) * (s - 4.0))


@pytest.mark.xfail(strict=True, reason=PULLBACK_DEFECT)
def test_thick_quarter_ring_manufactured_rate():
    # u vanishes on the whole boundary of the thick quarter ring
    geo = builtin("thick_quarter_ring")
    p, errs = 2, []
    for h_inv in (4, 8, 16):
        sp = [SplineSpace1D.uniform(p, h_inv) for _ in range(3)]
        u = scipy.sparse.linalg.spsolve(assemble_stiffness(sp, geo).tocsc(), assemble_load(sp, geo, ring_f))
        errs.append(l2_error(sp, geo, u, ring_u))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - (p + 1)) < 0.3), rates


def revolved_u(x):
    # the map rotates the cross-section point (w, 1), w = r cos(theta) + 1,
    # by beta about the axis, so rho^2 = (x + 1)^2 + (z + 1)^2 = w^2 + 1:
    # beta = 0 is the plane z = 0, beta = pi/2 the plane x = -2, theta = 0
    # the plane y = 0, theta = pi/2 the cylinder rho^2 = 2, and r = 1, 2
    # the curved faces r^2 = (w - 1)^2 + y^2 = 1, 4
    y, z = x[:, 1], x[:, 2]
    rho2 = (x[:, 0] + 1.0) ** 2 + (z + 1.0) ** 2
    r2 = (np.sqrt(rho2 - 1.0) - 1.0) ** 2 + y**2
    return y * z * (x[:, 0] + 2.0) * (rho2 - 2.0) * (r2 - 1.0) * (r2 - 4.0)


def revolved_f(x, step=1e-3):
    # -laplace(u) by 4th-order central differences along each axis; their
    # error, about step^4 u^(6), is far below the errors the test checks
    f = np.zeros(len(x))
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        u = [revolved_u(x + j * e) for j in (-2, -1, 0, 1, 2)]
        f -= (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (12 * step**2)
    return f


@pytest.mark.xfail(strict=True, reason=PULLBACK_DEFECT)
def test_revolved_quarter_ring_manufactured_rate():
    # u vanishes on all six faces of the revolved quarter ring
    geo = builtin("revolved_quarter_ring")
    p, errs = 2, []
    for h_inv in (4, 8, 16):
        sp = [SplineSpace1D.uniform(p, h_inv) for _ in range(3)]
        u = scipy.sparse.linalg.spsolve(assemble_stiffness(sp, geo).tocsc(), assemble_load(sp, geo, revolved_f))
        errs.append(l2_error(sp, geo, u, revolved_u))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - (p + 1)) < 0.3), rates
