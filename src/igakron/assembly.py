"""Gauss quadrature and Galerkin assembly for tensor-product spline spaces.

The stiffness matrix is

    A[i, j] = int (grad B_i)^T Q grad B_j dz,    Q = |det J| J^{-T} K J^{-1},

assembled by tensor-product Gauss quadrature, with Q from the closed-form
pull-back of the geometry module.  The element loop is blocked: Q is
evaluated once per plane of elements in the leading direction, each slab (a
row of elements in the leading directions) is contracted with batched matmuls,
and the result is accumulated into a dense block-banded array.  CSR over the
interior (Dirichlet) or full index range is emitted straight from that array.
Quadrature points with a singular geometry Jacobian contribute zero (see the
geometry module).

Degrees of freedom are linearized in C order, last direction fastest.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse

from .banded import BandedSymMatrix
from .bspline import basis_tables
from .geometry import abs_det_masked, eval_Q_masked

__all__ = [
    "QuadratureRule1D",
    "gauss_points_on_intervals",
    "gauss_rule",
    "assemble_pencil_1d",
    "assemble_stiffness",
    "assemble_load",
    "condition_bound",
    "ConditionBound",
    "quadrature_grid",
    "l2_error",
    "write_matrix_market",
]


class QuadratureRule1D:
    """Per-knot-span Gauss-Legendre rule.

    Attributes:
        spans: knot-span index of each nonempty span, shape (E,)
        points: nodes, shape (E, q)
        weights: positive weights, shape (E, q)
    """

    def __init__(self, spans, points, weights):
        self.spans = spans
        self.points = points
        self.weights = weights

    @property
    def num_elements(self):
        return self.spans.size

    @property
    def points_per_span(self):
        return self.points.shape[1]


def gauss_points_on_intervals(breaks, q):
    """Gauss-Legendre nodes/weights on each interval [breaks[k], breaks[k+1]].

    Returns arrays of shape (len(breaks)-1, q).
    """
    if q < 1:
        raise ValueError("need at least one quadrature point per span")
    breaks = np.asarray(breaks, dtype=float)
    xi, w = np.polynomial.legendre.leggauss(q)
    a = breaks[:-1, None]
    b = breaks[1:, None]
    pts = 0.5 * (a + b) + 0.5 * (b - a) * xi[None, :]
    wts = 0.5 * (b - a) * w[None, :]
    return pts, wts


def gauss_rule(space, points_per_span):
    """Per-span Gauss rule for a spline space (exact for degree 2q-1 >= 2p+1)."""
    kv = space.kv
    spans = kv.span_indices()
    breaks = kv.breakpoints()
    pts, wts = gauss_points_on_intervals(breaks, points_per_span)
    return QuadratureRule1D(spans=spans, points=pts, weights=wts)


def _direction_tables(space, rule):
    """Tabulated basis data per element of one direction.

    Returns (first, vals, ders): first active basis index per element (E,),
    and value/derivative tables of shape (E, q, p+1).
    """
    kv = space.kv
    E, q = rule.points.shape
    spans, vals, ders = basis_tables(kv, rule.points.ravel())
    first = (spans.reshape(E, q)[:, 0] - kv.p).astype(np.int64)
    return first, vals.reshape(E, q, kv.p + 1), ders.reshape(E, q, kv.p + 1)


def _default_q(space):
    return space.p + 1


def _interior_band(ab, m):
    """Restrict full-space band storage to the interior basis functions."""
    p = ab.shape[0] - 1
    abi = ab[:, 1 : m - 1].copy()
    # zero the slots that referenced the dropped first basis function
    for c in range(min(p, abi.shape[1])):
        abi[: p - c, c] = 0.0
    return BandedSymMatrix(abi)


def assemble_pencil_1d(space, points_per_span=None):
    """Univariate stiffness/mass pencil over the interior basis functions.

    Returns:
        (K, M): BandedSymMatrix pair of order n = m - 2 and bandwidth p with
        K[i,j] = int B_i' B_j' dz and M[i,j] = int B_i B_j dz.
    """
    q = points_per_span or _default_q(space)
    rule = gauss_rule(space, q)
    first, vals, ders = _direction_tables(space, rule)
    p, m = space.p, space.m
    a = p + 1

    abK = np.zeros((p + 1, m))
    abM = np.zeros((p + 1, m))
    w = rule.weights
    elK = np.einsum("eqi,eqj,eq->eij", ders, ders, w)
    elM = np.einsum("eqi,eqj,eq->eij", vals, vals, w)
    ii, jj = np.meshgrid(np.arange(a), np.arange(a), indexing="ij")
    rows = first[:, None, None] + ii
    cols = first[:, None, None] + jj
    upper = np.broadcast_to(ii <= jj, rows.shape)
    np.add.at(abK, (p + rows[upper] - cols[upper], cols[upper]), elK[upper])
    np.add.at(abM, (p + rows[upper] - cols[upper], cols[upper]), elM[upper])
    return _interior_band(abK, m), _interior_band(abM, m)


def quadrature_grid(spaces, points_per_span=None):
    """Tensor quadrature grid: per-direction rules plus the flattened points.

    Returns:
        (rules, zeta, w): the 1D rules, the (Ntot, d) array of tensor points
        (C order, last direction fastest) and the corresponding weights.
    """
    rules = [gauss_rule(s, points_per_span or _default_q(s)) for s in spaces]
    axes = [r.points.ravel() for r in rules]
    wts = [r.weights.ravel() for r in rules]
    grids = np.meshgrid(*axes, indexing="ij")
    zeta = np.column_stack([g.ravel() for g in grids])
    w = wts[0]
    for wl in wts[1:]:
        w = np.multiply.outer(w, wl)
    return rules, zeta, np.asarray(w).ravel()


def _band_to_csr(BB, ranges, p):
    """CSR straight from the block-banded accumulator, over an index box.

    ``BB[i_1, o_1 + p, ..., i_d, o_d + p]`` holds A[i, i + o].  ``ranges``
    gives a (lo, hi) index range per direction: (1, m - 1) keeps the interior
    basis functions, (0, m) the full space.  Rows and columns are numbered in
    C order over the box; within a row the columns come in offset order,
    which is ascending.  Every in-box pair within the band is stored, so the
    pattern is that of the Kronecker sum of the univariate pencils.
    """
    d = len(ranges)
    ns = [hi - lo for lo, hi in ranges]
    # local column index i + o of each (row, offset) per direction, -1 outside
    cols = []
    for n in ns:
        j = np.arange(n)[:, None] + np.arange(-p, p + 1)
        j[(j < 0) | (j >= n)] = -1
        cols.append(j)
    # the trailing directions' rows and offsets, shaped (n_2..n_d, w..w)
    tail = 2 * (d - 1)
    tail_col = np.zeros([1] * tail, dtype=np.int64)
    tail_ok = np.ones([1] * tail, dtype=bool)
    for k in range(1, d):
        shape = [1] * tail
        shape[k - 1], shape[d - 2 + k] = ns[k], 2 * p + 1
        jk = cols[k].reshape(shape)
        tail_col = tail_col * ns[k] + jk
        tail_ok = tail_ok & (jk >= 0)
    n_tail = tail_col.size // (2 * p + 1) ** (d - 1)
    counts = np.outer((cols[0] >= 0).sum(1), tail_ok.reshape(n_tail, -1).sum(1)).ravel()
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    N, nnz = counts.size, int(indptr[-1])
    itype = np.int32 if max(N, nnz) < 2**31 else np.int64
    indices = np.empty(nnz, dtype=itype)
    data = np.empty(nnz)
    # one leading row at a time: axes (rows of the tail, o_1, offsets of the tail)
    tail_col = np.expand_dims(tail_col, d - 1)
    tail_ok = np.expand_dims(tail_ok, d - 1)
    o1 = [1] * (d - 1) + [2 * p + 1] + [1] * (d - 1)
    box = tuple(slice(lo, hi) for lo, hi in ranges[1:])
    perm = [2 * k + 1 for k in range(d - 1)] + [2 * k for k in range(d)]
    lo1 = ranges[0][0]
    for i1 in range(ns[0]):
        j1 = cols[0][i1].reshape(o1)
        ok = tail_ok & (j1 >= 0)
        block = BB[(lo1 + i1,) + tuple(s for sl in box for s in (slice(None), sl))]
        a, b = indptr[i1 * n_tail], indptr[(i1 + 1) * n_tail]
        data[a:b] = block.transpose(perm)[ok]
        indices[a:b] = (j1 * n_tail + tail_col)[ok]
    return scipy.sparse.csr_matrix((data, indices, indptr.astype(itype)), shape=(N, N))


def _pair_tables(vals, ders):
    """Products F_c[q, i] * F_e[q, j], c/e = 0 for derivative, 1 for value."""
    out = {}
    out[0, 0] = np.einsum("qi,qj->qij", ders, ders)
    out[0, 1] = np.einsum("qi,qj->qij", ders, vals)
    out[1, 0] = np.einsum("qi,qj->qij", vals, ders)
    out[1, 1] = np.einsum("qi,qj->qij", vals, vals)
    return out


def _component_tables(pair_tables, direction, d, a):
    """Stack the per-(c,e) pair tables of one direction along a new axis.

    Gradient component c uses the derivative table in direction c and the
    value table elsewhere; the stacked axis enumerates all (c, e) pairs.
    """
    stacked = []
    for c in range(d):
        for e in range(d):
            key = (0 if c == direction else 1, 0 if e == direction else 1)
            stacked.append(pair_tables[key].reshape(pair_tables[key].shape[0], a * a))
    return np.ascontiguousarray(np.stack(stacked))


def _assemble_stiffness_2d(spaces, geo, coeff, q):
    rules = [gauss_rule(s, q) for s in spaces]
    f1, v1, d1 = _direction_tables(spaces[0], rules[0])
    f2, v2, d2 = _direction_tables(spaces[1], rules[1])
    E1, q1, a1 = v1.shape
    E2, q2, a2 = v2.shape
    m1, m2 = spaces[0].m, spaces[1].m
    p = spaces[0].p
    wband = 2 * p + 1

    pts2 = rules[1].points.ravel()
    w2 = rules[1].weights.ravel()
    Nq2 = pts2.size
    # (E2, a2^2, 4*q2): dir-2 tables arranged for one batched matmul per slab
    P2 = _component_tables(
        _pair_tables(v2.reshape(Nq2, a2), d2.reshape(Nq2, a2)), 1, 2, a2
    ).reshape(4, E2, q2, a2 * a2)
    P2c = np.ascontiguousarray(P2.transpose(1, 3, 0, 2).reshape(E2, a2 * a2, 4 * q2))
    T1t_all = [
        np.ascontiguousarray(_component_tables(_pair_tables(v1[e], d1[e]), 0, 2, a1).transpose(0, 2, 1))
        for e in range(E1)
    ]

    BB = np.zeros((m1, wband, m2, wband))
    z = np.empty((q1 * Nq2, 2))
    for e1 in range(E1):
        z[:, 0] = np.repeat(rules[0].points[e1], Nq2)
        z[:, 1] = np.tile(pts2, q1)
        Q, _ = eval_Q_masked(geo, coeff, z)
        wq = rules[0].weights[e1][:, None] * w2[None, :]
        Qw = Q.reshape(q1, Nq2, 2, 2) * wq[..., None, None]
        Qx = np.ascontiguousarray(Qw.transpose(2, 3, 0, 1).reshape(4, q1, Nq2))

        Y1 = T1t_all[e1] @ Qx  # (4, a1^2, Nq2)
        Y1c = np.ascontiguousarray(
            Y1.reshape(4, a1 * a1, E2, q2).transpose(2, 0, 3, 1).reshape(E2, 4 * q2, a1 * a1)
        )
        W = P2c @ Y1c  # (E2, a2^2, a1^2)
        Wr = W.reshape(E2, a2, a2, a1, a1)
        local = np.zeros((a1, a1, m2, wband))
        for i2 in range(a2):
            for j2 in range(a2):
                # f2 + i2 is strictly increasing across elements, so plain
                # fancy-index accumulation is safe here
                local[:, :, f2 + i2, p + j2 - i2] += Wr[:, i2, j2].transpose(1, 2, 0)
        base = f1[e1]
        for i1 in range(a1):
            BB[base + i1, p - i1 : p - i1 + a1] += local[i1]
    return BB


def _assemble_stiffness_3d(spaces, geo, coeff, q):
    rules = [gauss_rule(s, q) for s in spaces]
    f1, v1, d1 = _direction_tables(spaces[0], rules[0])
    f2, v2, d2 = _direction_tables(spaces[1], rules[1])
    f3, v3, d3 = _direction_tables(spaces[2], rules[2])
    E1, q1, a1 = v1.shape
    E2, q2, a2 = v2.shape
    E3, q3, a3 = v3.shape
    m1, m2, m3 = (s.m for s in spaces)
    p = spaces[0].p
    wband = 2 * p + 1

    pts3 = rules[2].points.ravel()
    w3 = rules[2].weights.ravel()
    Nq3 = pts3.size
    # dir-3 tables arranged so the slab contraction is one batched matmul
    P3 = _component_tables(
        _pair_tables(v3.reshape(Nq3, a3), d3.reshape(Nq3, a3)), 2, 3, a3
    ).reshape(9, E3, q3, a3 * a3)
    P3c = np.ascontiguousarray(P3.transpose(1, 3, 0, 2).reshape(E3, a3 * a3, 9 * q3))
    T1t_all = [
        np.ascontiguousarray(_component_tables(_pair_tables(v1[e], d1[e]), 0, 3, a1).transpose(0, 2, 1))
        for e in range(E1)
    ]
    T2_all = [
        np.ascontiguousarray(_component_tables(_pair_tables(v2[e], d2[e]), 1, 3, a2)[:, None])
        for e in range(E2)
    ]

    pts2 = rules[1].points.ravel()
    w2 = rules[1].weights.ravel()
    Nq2 = pts2.size
    BB = np.zeros((m1, wband, m2, wband, m3, wband))
    z = np.empty((q1 * Nq2 * Nq3, 3))
    z[:, 1] = np.tile(np.repeat(pts2, Nq3), q1)
    z[:, 2] = np.tile(pts3, q1 * Nq2)
    for e1 in range(E1):
        T1t = T1t_all[e1]
        # Q once per plane of elements, contracted below one slab at a time
        z[:, 0] = np.repeat(rules[0].points[e1], Nq2 * Nq3)
        Q, _ = eval_Q_masked(geo, coeff, z)
        wq = rules[0].weights[e1][:, None, None] * w2[None, :, None] * w3[None, None, :]
        Qw = Q.reshape(q1, Nq2, Nq3, 3, 3) * wq[..., None, None]
        Qp = Qw.transpose(3, 4, 0, 1, 2).reshape(9, q1, E2, q2 * Nq3)
        for e2 in range(E2):
            T2 = T2_all[e2]  # (9, 1, q2, a2^2)
            Qx = np.ascontiguousarray(Qp[:, :, e2])

            Y1 = (T1t @ Qx).reshape(9, a1 * a1, q2, Nq3)  # contract q1
            Y2 = np.swapaxes(T2, 2, 3) @ Y1  # (9, a1^2, a2^2, Nq3), contract q2
            Y2c = np.ascontiguousarray(
                Y2.reshape(9, a1 * a1 * a2 * a2, E3, q3).transpose(2, 0, 3, 1).reshape(E3, 9 * q3, -1)
            )
            W = P3c @ Y2c  # (E3, a3^2, a1^2 * a2^2)
            Wr = W.reshape(E3, a3, a3, a1, a1, a2, a2)
            local = np.zeros((a1, a1, a2, a2, m3, wband))
            for i3 in range(a3):
                for j3 in range(a3):
                    local[:, :, :, :, f3 + i3, p + j3 - i3] += Wr[:, i3, j3].transpose(1, 2, 3, 4, 0)
            b1, b2 = f1[e1], f2[e2]
            for i1 in range(a1):
                for i2 in range(a2):
                    BB[b1 + i1, p - i1 : p - i1 + a1, b2 + i2, p - i2 : p - i2 + a2] += local[i1, :, i2]
    return BB


def assemble_stiffness(spaces, geo, coeff=None, points_per_span=None, dirichlet=True):
    """Galerkin stiffness matrix on a tensor-product spline space.

    Args:
        spaces: per-direction SplineSpace1D (all with the same degree)
        geo: GeometryMap of matching dimension
        coeff: CoefficientField; identity if omitted
        points_per_span: Gauss points per knot span per direction (default p+1)
        dirichlet: drop the boundary basis functions (homogeneous Dirichlet)

    Returns:
        scipy CSR matrix of order n^d (dirichlet) or m^d (full space).
    """
    d = len(spaces)
    if geo.dim != d:
        raise ValueError("geometry dimension %d does not match %d spaces" % (geo.dim, d))
    if len({s.p for s in spaces}) != 1:
        raise ValueError("all directions must use the same spline degree")
    q = points_per_span or _default_q(spaces[0])
    if d == 2:
        BB = _assemble_stiffness_2d(spaces, geo, coeff, q)
    elif d == 3:
        BB = _assemble_stiffness_3d(spaces, geo, coeff, q)
    else:
        raise ValueError("only 2D and 3D assembly is supported")
    ranges = [(1, s.m - 1) if dirichlet else (0, s.m) for s in spaces]
    return _band_to_csr(BB, ranges, spaces[0].p)


def assemble_load(spaces, geo, f, points_per_span=None, dirichlet=True):
    """Load vector b_i = int f(F(z)) B_i(z) |det J| dz by the same quadrature.

    ``f`` maps an (N, d) array of physical points to N values.
    """
    d = len(spaces)
    q = points_per_span or _default_q(spaces[0])
    rules = [gauss_rule(s, q) for s in spaces]
    tabs = [_direction_tables(s, r) for s, r in zip(spaces, rules)]
    ms = tuple(s.m for s in spaces)
    b = np.zeros(ms)

    def f_weighted(z):
        absdet, _ = abs_det_masked(geo, z)
        return np.asarray(f(geo.evaluate(z)), dtype=float) * absdet

    if d == 2:
        (fa1, v1, _), (fa2, v2, _) = tabs
        E1, q1, a1 = v1.shape
        E2, q2, a2 = v2.shape
        pts2 = rules[1].points.ravel()
        w2 = rules[1].weights.ravel()
        Nq2 = pts2.size
        z = np.empty((q1 * Nq2, 2))
        for e1 in range(E1):
            z[:, 0] = np.repeat(rules[0].points[e1], Nq2)
            z[:, 1] = np.tile(pts2, q1)
            F = f_weighted(z).reshape(q1, Nq2) * (rules[0].weights[e1][:, None] * w2[None, :])
            G = np.einsum("qi,qr->ir", v1[e1], F)  # (a1, Nq2)
            C = np.einsum("ieq,eqj->eij", G.reshape(a1, E2, q2), v2)  # (E2, a1, a2)
            for i1 in range(a1):
                row = b[fa1[e1] + i1]
                for i2 in range(a2):
                    row[fa2 + i2] += C[:, i1, i2]
    elif d == 3:
        (fa1, v1, _), (fa2, v2, _), (fa3, v3, _) = tabs
        E1, q1, a1 = v1.shape
        E2, q2, a2 = v2.shape
        E3, q3, a3 = v3.shape
        pts2, pts3 = rules[1].points.ravel(), rules[2].points.ravel()
        w2, w3 = rules[1].weights.ravel(), rules[2].weights.ravel()
        Nq2, Nq3 = pts2.size, pts3.size
        z = np.empty((q1 * Nq2 * Nq3, 3))
        z[:, 1] = np.tile(np.repeat(pts2, Nq3), q1)
        z[:, 2] = np.tile(pts3, q1 * Nq2)
        for e1 in range(E1):
            # f and |det J| once per plane of elements, as in the stiffness
            z[:, 0] = np.repeat(rules[0].points[e1], Nq2 * Nq3)
            wq = rules[0].weights[e1][:, None, None] * w2[None, :, None] * w3[None, None, :]
            F = f_weighted(z).reshape(q1, Nq2, Nq3) * wq
            G1 = np.einsum("qi,qrs->irs", v1[e1], F).reshape(a1, E2, q2, Nq3)
            G2 = np.einsum("eqj,ieqs->iejs", v2, G1).reshape(a1, E2, a2, E3, q3)
            C = np.einsum("fsk,iejfs->iejfk", v3, G2)  # (a1, E2, a2, E3, a3)
            for i1 in range(a1):
                plane = b[fa1[e1] + i1]
                for i2 in range(a2):
                    for i3 in range(a3):
                        # fa2 + i2 and fa3 + i3 are strictly increasing, so
                        # no index repeats within one accumulation
                        plane[np.ix_(fa2 + i2, fa3 + i3)] += C[i1, :, i2, :, i3]
    else:
        raise ValueError("only 2D and 3D assembly is supported")

    if dirichlet:
        sl = tuple(slice(1, m - 1) for m in ms)
        return b[sl].reshape(-1).copy()
    return b.reshape(-1)


ConditionBound = namedtuple("ConditionBound", ["bound", "singular"])

# sample points per Q/eigenvalue evaluation in condition_bound
_BOUND_CHUNK = 2**16


def condition_bound(geo, coeff, zeta):
    """A-priori bound sup lmax(Q) / inf lmin(Q) over the given sample points.

    This bounds the spectral condition number of the preconditioned system.
    If any sample point has a singular Jacobian the bound is +inf and the
    ``singular`` flag is set.  ``coeff=None`` is the identity coefficient.
    Q and its eigenvalues are evaluated _BOUND_CHUNK points at a time,
    keeping a running minimum and maximum, so memory does not grow with the
    number of points.

    Returns:
        ConditionBound(bound, singular)
    """
    lo, hi = np.inf, -np.inf
    for start in range(0, len(zeta), _BOUND_CHUNK):
        Q, sing = eval_Q_masked(geo, coeff, zeta[start : start + _BOUND_CHUNK])
        if sing.any():
            return ConditionBound(np.inf, True)
        ev = np.linalg.eigvalsh(Q)
        lo = min(lo, ev[:, 0].min())
        hi = max(hi, ev[:, -1].max())
    if lo <= 0.0:
        return ConditionBound(np.inf, True)
    return ConditionBound(float(hi / lo), False)


def _value_matrix(space, points):
    """Dense (npts, m) matrix of all basis values at the given points."""
    kv = space.kv
    spans, vals, _ = basis_tables(kv, points)
    V = np.zeros((len(points), kv.m))
    for r in range(kv.p + 1):
        V[np.arange(len(points)), spans - kv.p + r] = vals[:, r]
    return V


def l2_error(spaces, geo, coefs, u_exact, points_per_span=None):
    """L2 norm of (u_h - u) over the physical domain.

    Args:
        spaces: per-direction spaces
        geo: geometry map
        coefs: interior coefficient vector of u_h (Dirichlet layout)
        u_exact: callable on (N, d) physical points
        points_per_span: quadrature order (default p+2 for safety)
    """
    d = len(spaces)
    q = points_per_span or (spaces[0].p + 2)
    rules, zeta, w = quadrature_grid(spaces, q)
    ms = tuple(s.m for s in spaces)
    C = np.zeros(ms)
    C[tuple(slice(1, m - 1) for m in ms)] = np.asarray(coefs).reshape([s.n for s in spaces])
    Vs = [_value_matrix(s, r.points.ravel()) for s, r in zip(spaces, rules)]
    U = C
    for axis, V in enumerate(Vs):
        U = np.moveaxis(np.tensordot(V, U, axes=(1, axis)), 0, axis)
    absdet, _ = abs_det_masked(geo, zeta)
    diff2 = (U.ravel() - u_exact(geo.evaluate(zeta))) ** 2
    return float(np.sqrt(np.sum(diff2 * absdet * w)))


def write_matrix_market(obj, path):
    """Write a sparse matrix or a dense vector in Matrix Market text format.

    Values are written as ASCII decimals with 17 significant digits.
    """
    with open(path, "w", encoding="ascii") as fh:
        if scipy.sparse.issparse(obj):
            A = obj.tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write("%d %d %d\n" % (A.shape[0], A.shape[1], A.nnz))
            for i, j, v in zip(A.row, A.col, A.data):
                fh.write("%d %d %.16e\n" % (i + 1, j + 1, v))
        else:
            v = np.asarray(obj, dtype=float).ravel()
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write("%d 1\n" % v.size)
            for x in v:
                fh.write("%.16e\n" % x)
