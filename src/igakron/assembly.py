"""Gauss quadrature and Galerkin assembly for tensor-product spline spaces.

The stiffness matrix is

    A[i, j] = int (grad B_i)^T Q grad B_j dz,    Q = |det J| J^{-T} J^{-1},

assembled by tensor-product Gauss quadrature, with Q from the closed-form
pull-back of the geometry module.  The rule is fixed: p + 1 points per knot
span for the stiffness, the load and the univariate pencils, p + 2 for
l2_error.  Both dimensions go through one sum-factorized kernel
(_sum_factorize).  Each trailing direction has, per component (c, e) of Q, a
CSR "pair table" whose row (i, o) holds the weighted product F_c(B_i)
F_e(B_{i+o-p}) at every quadrature point of that direction, so the element
overlap-add is part of the product.  The points are taken in groups of
consecutive elements in the leading direction, whose size _group_size
reads from the shapes, and the trailing tables are applied to the group's
values one axis at a time; a component of Q that vanishes on the whole
group is not contracted, its sums are zero.  One GEMM per element with its
leading-direction tables then gives the band rows of its p + 1 basis
functions.  Those are summed in a ring of p + 1 rows, and each leading
basis function is written into the CSR, allocated up front over the
interior (Dirichlet) or full index range, as soon as no later element
touches it: no full-space intermediate is ever held.  The load vector goes through the same kernel with weighted value
tables.  Quadrature points with a singular geometry Jacobian contribute zero
(see the geometry module).

The condition bound screens Q's extreme eigenvalues with closed forms (the
hypot formula in 2D, O. K. Smith's trigonometric one in 3D) and runs exact
``eigvalsh`` only on the points that may hold an extreme (BoundScreen).
The stiffness pass evaluates Q once per distinct Jacobian: per group, on
one slice of every trailing direction along which J is bitwise constant
there (_constant_axes), broadcast back over the group.  Q is a pointwise
function of J, so this gives Q's bits at every point.  After a group whose
J varies along every trailing direction the pass stops checking, so the
quarter annulus pays one Jacobian evaluation of its first group.  Each
slab's Q goes to a BoundScreen; the duplicates left out change no exact
extreme.  condition_bound then evaluates only the 2^d corners of the
parameter domain, which no Gauss point reaches, so that a map singular on
the boundary gives the +inf sentinel.  Given the (N, d) points,
condition_bound evaluates Q a chunk at a time.

What runs where: the point work of a group (J, Q and |det J| through the
geometry's kernels, the load's values, the screen's closed forms) goes to
the package's pool in ranges of points (``parallel.each_range``), and so
do the trailing contractions of a group, in ranges of its live
components.  A group holds up to _BOUND_CHUNK trailing sums per component,
so a 2D group of the benchmark, like a 3D plane, spans several
``parallel._CHUNK`` ranges and is dealt, where one 2D plane alone would be
one range run inline.  The traced calls (eval_Q_masked), the GEMM, the ring, the sink
and the screen's running min/max/keep step run on the calling thread, in
element order.  The GEMM is never split and keeps every component: column
blocks of it, or a shorter inner dimension, do not sum bitwise as the
whole does.

Degrees of freedom are linearized in C order, last direction fastest.
"""

import functools
from collections import namedtuple

import numpy as np
import scipy.io
import scipy.sparse

from . import parallel
from .banded import BandedSymMatrix
from .bspline import basis_tables
from .geometry import _abs_det_points, _jacobian, abs_det_masked, eval_Q_masked

__all__ = [
    "QuadratureRule1D",
    "gauss_points_on_intervals",
    "gauss_rule",
    "assemble_pencil_1d",
    "assemble_stiffness",
    "assemble_load",
    "condition_bound",
    "BoundScreen",
    "ConditionBound",
    "quadrature_grid",
    "l2_error",
    "write_matrix_market",
]


QuadratureRule1D = namedtuple("QuadratureRule1D", ["points", "weights"])
QuadratureRule1D.__doc__ = """Per-knot-span Gauss-Legendre rule.

``points`` holds the nodes and ``weights`` the positive weights, shape
(E, q), one row per nonempty knot span.
"""


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
    pts, wts = gauss_points_on_intervals(space.breakpoints(), points_per_span)
    return QuadratureRule1D(points=pts, weights=wts)


def _direction_tables(space, rule):
    """Tabulated basis data per element of one direction.

    Returns (first, vals, ders): first active basis index per element (E,),
    and value/derivative tables of shape (E, q, p+1).
    """
    E, q = rule.points.shape
    spans, vals, ders = basis_tables(space, rule.points.ravel())
    first = (spans.reshape(E, q)[:, 0] - space.p).astype(np.int64)
    return first, vals.reshape(E, q, space.p + 1), ders.reshape(E, q, space.p + 1)


def _interior_band(ab, m):
    """Restrict full-space band storage to the interior basis functions."""
    p = ab.shape[0] - 1
    abi = ab[:, 1 : m - 1].copy()
    # zero the slots that referenced the dropped first basis function
    for c in range(min(p, abi.shape[1])):
        abi[: p - c, c] = 0.0
    return BandedSymMatrix(abi)


def assemble_pencil_1d(space):
    """Univariate stiffness/mass pencil over the interior basis functions.

    Returns:
        (K, M): BandedSymMatrix pair of order n = m - 2 and bandwidth p with
        K[i,j] = int B_i' B_j' dz and M[i,j] = int B_i B_j dz, by the p + 1
        point Gauss rule.
    """
    rule = gauss_rule(space, space.p + 1)
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


def quadrature_grid(spaces, points_per_span):
    """Tensor quadrature grid of points_per_span Gauss points per span in each direction.

    Returns:
        (rules, zeta, w): the 1D rules, the (Ntot, d) array of tensor points
        (C order, last direction fastest) and the corresponding weights.
    """
    rules = [gauss_rule(s, points_per_span) for s in spaces]
    axes = [r.points.ravel() for r in rules]
    wts = [r.weights.ravel() for r in rules]
    grids = np.meshgrid(*axes, indexing="ij")
    zeta = np.column_stack([g.ravel() for g in grids])
    w = wts[0]
    for wl in wts[1:]:
        w = np.multiply.outer(w, wl)
    return rules, zeta, np.asarray(w).ravel()


class _CSRRows:
    """Stiffness CSR over an index box, written one leading basis function at a time.

    ``ranges`` gives a (lo, hi) index range per direction of the full spaces
    of sizes ``ms``: (1, m - 1) keeps the interior basis functions, (0, m)
    the full space.  Rows and columns are numbered in C order over the box;
    within a row the columns come in offset order, which is ascending.  Every
    in-box pair within the band is stored, so the pattern is that of the
    Kronecker sum of the univariate pencils.  ``indptr`` and ``indices`` are
    filled and ``data`` allocated up front; ``write(i, rows)`` fills the
    values of the CSR rows of leading basis function i from its band rows,
    with ``rows[o_1, i_2, o_2, ..., i_d, o_d]`` = A[i, i + o - p] over the
    full trailing spaces.
    """

    def __init__(self, ms, ranges, p):
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
        self.n_tail = tail_col.size // (2 * p + 1) ** (d - 1)
        counts = np.outer((cols[0] >= 0).sum(1), tail_ok.reshape(self.n_tail, -1).sum(1)).ravel()
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        N, nnz = counts.size, int(indptr[-1])
        self.itype = np.int32 if max(N, nnz) < 2**31 else np.int64
        self.indptr, self.shape = indptr, (N, N)
        self.indices = np.empty(nnz, dtype=self.itype)
        self.data = np.empty(nnz)
        # the entries of one leading row, axes (rows of the tail, o_1, offsets
        # of the tail): their flat index in ``rows`` and their column relative
        # to the row's first, i_1 * n_tail
        tail_col = np.expand_dims(tail_col, d - 1)
        tail_ok = np.expand_dims(tail_ok, d - 1)
        o1 = np.arange(-p, p + 1).reshape((1,) * (d - 1) + (2 * p + 1,) + (1,) * (d - 1))
        band = [2 * p + 1] + [x for m in ms[1:] for x in (m, 2 * p + 1)]
        box = (slice(None),) + tuple(s for lo, hi in ranges[1:] for s in (slice(lo, hi), slice(None)))
        perm = [2 * k + 1 for k in range(d - 1)] + [2 * k for k in range(d)]
        size = int(np.prod(band))
        flat = np.arange(size, dtype=np.min_scalar_type(-size)).reshape(band)[box].transpose(perm)
        rel = o1 * self.n_tail + tail_col
        # a leading row keeps the offsets o_1 whose column is in the box, so
        # rows within p of either end differ and all the others share one map
        self.lo, self.n_lead = ranges[0][0], ns[0]
        maps = {}
        self.takes = []
        for i1, j in enumerate(cols[0]):
            key = tuple(j >= 0)
            if key not in maps:
                ok = tail_ok & (j >= 0).reshape(o1.shape)
                maps[key] = (flat[ok], rel[ok])
            take, col = maps[key]
            self.takes.append(take)
            self.indices[indptr[i1 * self.n_tail] : indptr[(i1 + 1) * self.n_tail]] = col + i1 * self.n_tail

    def write(self, i, rows):
        i1 = i - self.lo
        if 0 <= i1 < self.n_lead:
            a, b = self.indptr[i1 * self.n_tail], self.indptr[(i1 + 1) * self.n_tail]
            # the index is in range by construction; "clip" spares the
            # buffered copy that take makes into ``out`` under "raise"
            rows.take(self.takes[i1], out=self.data[a:b], mode="clip")

    def matrix(self):
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr.astype(self.itype)), shape=self.shape)


_Tables = namedtuple("_Tables", ["first", "stride", "local", "data", "nrows"])
_Tables.__doc__ = """Element tables of one direction for _sum_factorize.

``data[c]`` is component c's (E, q, K) table over the elements' points.
Entry k of element e belongs to output row ``first[e] * stride +
local.flat[k]`` of that direction, of ``nrows`` in all; each row of
``local`` is a run of consecutive output rows of one basis function.
"""


def _pair_tables(space, rule, k, d):
    """Weighted basis pair products of direction k for the stiffness.

    Gradient component c takes derivatives in direction c and values
    elsewhere, so component (c, e) holds w F_c(B_i) F_e(B_j) at each point,
    for the local pair (i, j) of the element.  The pair lands in row
    (first + i) * (2p + 1) + (p + j - i): basis function first + i and band
    offset j - i.
    """
    first, vals, ders = _direction_tables(space, rule)
    E, q, a = vals.shape
    p = space.p
    w = rule.weights[:, :, None, None]
    data = []
    for c in range(d):
        for e in range(d):
            F = ders if c == k else vals
            G = ders if e == k else vals
            data.append((w * F[:, :, :, None] * G[:, :, None, :]).reshape(E, q, a * a))
    i = np.arange(a)
    local = i[:, None] * 2 * p + p + i
    return _Tables(first, 2 * p + 1, local, data, space.m * (2 * p + 1))


def _value_tables(space, rule):
    """Weighted basis values w B_i of one direction for the load."""
    first, vals, _ = _direction_tables(space, rule)
    return _Tables(first, 1, np.arange(space.p + 1)[:, None], [rule.weights[:, :, None] * vals], space.m)


def _point_csr(t, data):
    """CSR over all points of t's direction of one component's tables ``data``.

    ``data[e, j, k]`` goes to row ``first[e] * stride + local.flat[k]`` and
    column ``e * q + j``, so a row sums over every element it touches: the
    element overlap-add, repeated knots included, is part of the product.
    No (row, column) pair repeats, since a column is one point of one element.
    """
    E, q, _ = data.shape
    rows = np.broadcast_to((t.first[:, None] * t.stride + t.local.ravel())[:, None, :], data.shape)
    cols = np.broadcast_to(np.arange(E * q).reshape(E, q, 1), data.shape)
    return scipy.sparse.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(t.nrows, E * q))


def _group_size(E, q, n, R):
    """Leading elements per group of _sum_factorize: as many as keep both
    the group's points, q n an element (n the trailing points), and one
    component's trailing sums, q R an element, within _BOUND_CHUNK, at least
    one and at most all E (docs/decisions.md)."""
    return min(E, max(1, _BOUND_CHUNK // (q * max(n, R))))


def _sum_factorize(rules, tables, values, sink):
    """Sum point values against per-direction tables, one leading row at a time.

    For every component c this forms

        out[r_1, (r_2, ..., r_d)] = sum_z values_c(z) prod_k T_kc[r_k, z_k]

    with T_kc the tables of direction k (see _Tables), but never holds out:
    the rows of leading basis function i, ``out[i * stride : (i + 1) *
    stride]``, go to ``sink(i, rows)`` in increasing i as soon as no later
    element touches them.  They are summed in a ring of the p + 1 basis
    functions of one element, indexed by i mod (p + 1), which is reused: a
    sink copies what it keeps.  The leading elements are taken in groups of
    G = _group_size(E, q, n, R) consecutive ones, the last group holding what
    is left, so that the small plane of one element's points does not pay
    the fixed costs of the calls below alone.  ``values(z, shape)`` is
    called once per group, on its points ordered with direction d slowest
    and the group's leading points fastest, which make the grid ``shape``
    (n_d, ..., n_2, g q), and returns one row of values per component.
    The trailing directions are contracted one axis at a time, d first, as
    CSR products over the leading axis of a C-contiguous array (de Boor's
    tensor-product scheme, ACM TOMS 5, 1979; Antolin et al., CMAME 285,
    2015), in ranges of the components on the pool (``parallel.each_range``
    over the doubles they read and write), into a (G, C, q, R) buffer.  A
    component whose values all vanish is not contracted: its sums are
    zero-filled, the +0.0 a CSR product of zeros gives.  A column of a CSR
    product sums the same terms in the same order however many columns it
    has, so the grouping moves no bit.  The leading direction is then,
    element by element, one GEMM over all components of element e1's
    tables with its contiguous (C q, R) slice of that buffer, added to e1's
    rows of the ring.
    """
    d = len(rules)
    lead = tables[0]
    csr = [None] + [[_point_csr(t, D) for D in t.data] for t in tables[1:]]
    E, q = rules[0].points.shape
    nq = [r.points.size for r in rules[1:]]
    R = int(np.prod([t.nrows for t in tables[1:]]))
    G = _group_size(E, q, int(np.prod(nq)), R)
    # (E, K, C * q): element e's tables of all components side by side
    L = np.concatenate([D.transpose(0, 2, 1) for D in lead.data], axis=2)
    Y_all = np.empty((G, len(lead.data), q, R))
    acc = np.empty((L.shape[1], R))
    stride = lead.stride
    slots = lead.local.max() // stride + 1
    ring = np.zeros((slots, stride, R))
    ring_rows = ring.reshape(-1, R)
    runs, run = lead.local.shape
    # basis functions below nxt[e1] are complete once element e1 is added
    nxt = np.append(lead.first[1:], lead.nrows // stride)

    @functools.cache
    def grid(g):
        # the points of a group of g elements, and the leading point of each
        mesh = np.meshgrid(*[r.points.ravel() for r in rules[:0:-1]], np.arange(g * q), indexing="ij")
        z = np.empty((mesh[0].size, d))
        for k in range(1, d):
            z[:, k] = mesh[d - 1 - k].ravel()
        return z, mesh[-1].ravel()

    def contract(V, Yg, live):
        n = [len(Yg) * q] + nq
        for c in live:
            Y, rows = V[c], 1
            for k in range(d - 1, 0, -1):
                Y = csr[k][c] @ Y.reshape(n[k], -1)
                rows *= Y.shape[0]
                # direction k - 1's points to the front (copied by the next
                # reshape, or by the store into Yg)
                Y = Y.reshape(rows, n[k - 1], -1).swapaxes(0, 1)
            Yg[:, c] = Y.reshape(len(Yg), q, R)

    for e0 in range(0, E, G):
        Yg = Y_all[: E - e0]
        z, slot = grid(len(Yg))
        z[:, 0] = rules[0].points[e0 : e0 + len(Yg)].ravel()[slot]
        V = values(z, (*nq[::-1], len(Yg) * q))
        live = V.any(axis=1)
        Yg[:, ~live] = 0.0
        live = np.flatnonzero(live)
        size = len(live) * (V.shape[1] + Yg[:, 0].size)
        parallel.each_range(len(live), size, lambda lo, hi: contract(V, Yg, live[lo:hi]))
        for e1 in range(e0, e0 + len(Yg)):
            np.matmul(L[e1], Yg[e1 - e0].reshape(-1, R), out=acc)
            for i in range(runs):
                o = (lead.first[e1] * stride + lead.local[i, 0]) % len(ring_rows)
                ring_rows[o : o + run] += acc[i * run : (i + 1) * run]
            for i in range(lead.first[e1], nxt[e1]):
                sink(i, ring[i % slots])
                ring[i % slots] = 0.0


def _check_dim(spaces, geo):
    d = len(spaces)
    if geo.dim != d:
        raise ValueError("geometry dimension %d does not match %d spaces" % (geo.dim, d))
    if d not in (2, 3):
        raise ValueError("only 2D and 3D assembly is supported")
    return d


def _constant_axes(geo, z, shape):
    """The trailing axes of the grid ``shape`` along which geo's Jacobian is bitwise constant.

    ``z`` holds the grid's points, shape[-1] (the leading direction's) the
    fastest; the other axes are the trailing ones.  The Jacobian is
    evaluated on the pool, in ranges of the points.
    """
    d, N = geo.dim, len(z)
    J = parallel.each_range(N, N * d * d, lambda lo, hi: (_jacobian(geo, z[lo:hi]),), (np.empty((d, d, N)),))[0]
    J = J.reshape(d * d, *shape)
    first = [J.take([0], axis=a) for a in range(1, len(shape))]
    # the second slice is compared first: along a direction J varies on, it
    # mostly differs there already, and the full comparison is skipped
    second = [J.take([1], axis=a, mode="clip") for a in range(1, len(shape))]
    return tuple(a for a, (f, s) in enumerate(zip(first, second)) if (s == f).all() and (J == f).all())


def assemble_stiffness(spaces, geo, dirichlet=True, screen=None):
    """Galerkin stiffness matrix on a tensor-product spline space, by the p + 1 point Gauss rule.

    Args:
        spaces: per-direction SplineSpace1D (all with the same degree)
        geo: GeometryMap of matching dimension
        dirichlet: drop the boundary basis functions (homogeneous Dirichlet)
        screen: a BoundScreen that Q over this grid is added to, so
            condition_bound can finish the bound over it without
            evaluating Q there again; each group adds the Q of its slab,
            one slice of every trailing direction along which J is
            constant, which holds every distinct Q of the group

    Returns:
        scipy CSR matrix of order n^d (dirichlet) or m^d (full space).
    """
    d = _check_dim(spaces, geo)
    if len({s.p for s in spaces}) != 1:
        raise ValueError("all directions must use the same spline degree")
    p = spaces[0].p
    rules = [gauss_rule(s, p + 1) for s in spaces]
    tables = [_pair_tables(s, r, k, d) for k, (s, r) in enumerate(zip(spaces, rules))]
    ranges = [(1, s.m - 1) if dirichlet else (0, s.m) for s in spaces]
    A = _CSRRows([s.m for s in spaces], ranges, p)
    check = True

    def values(z, shape):
        # Q on one slice of each trailing axis along which J is constant,
        # broadcast back; a group constant along none ends the checks
        nonlocal check
        keep = _constant_axes(geo, z, shape) if check else ()
        check = bool(keep)
        slab = z.reshape(*shape, d)[tuple(slice(0, 1) if a in keep else slice(None) for a in range(len(shape)))]
        Q, singular = eval_Q_masked(geo, zeta=slab.reshape(-1, d))
        if screen is not None:
            screen.add(Q, singular)
        Qc = Q.reshape(-1, d * d).T.reshape(d * d, *slab.shape[:-1])
        return np.broadcast_to(Qc, (d * d, *shape)).reshape(d * d, len(z))

    _sum_factorize(rules, tables, values, A.write)
    return A.matrix()


def assemble_load(spaces, geo, f, dirichlet=True):
    """Load vector b_i = int f(F(z)) B_i(z) |det J| dz by the same quadrature.

    ``f`` maps an (N, d) array of physical points to N values, point by
    point.  It is called on ranges of the points from the threads of the
    package's pool, as are ``geo.evaluate`` and ``geo.jacobian``, so it must
    be pure: a point's value depends on that point alone, and a call
    changes no shared state.
    """
    d = _check_dim(spaces, geo)
    rules = [gauss_rule(s, spaces[0].p + 1) for s in spaces]
    ms = tuple(s.m for s in spaces)
    b = np.empty(ms)

    def values(z, shape):
        def kernel(lo, hi):
            zr = z[lo:hi]
            return (np.asarray(f(geo.evaluate(zr)), dtype=float) * _abs_det_points(geo, zr)[0],)

        return parallel.each_range(len(z), len(z) * d * d, kernel, (np.empty((1, len(z))),))[0]

    def store(i, rows):
        b[i] = rows.reshape(ms[1:])

    _sum_factorize(rules, [_value_tables(s, r) for s, r in zip(spaces, rules)], values, store)
    if dirichlet:
        sl = tuple(slice(1, m - 1) for m in ms)
        return b[sl].reshape(-1).copy()
    return b.reshape(-1)


ConditionBound = namedtuple("ConditionBound", ["bound", "singular"])

# sample points per Q/eigenvalue evaluation in condition_bound
_BOUND_CHUNK = 2**16

# relative error allowed to the closed-form eigenvalues in the screen of
# condition_bound; the 3D formula loses about sqrt(eps) near a double root
_SCREEN_TOL = 1e-5


def _eig_screen(Qc):
    """Closed-form eigenvalue estimates of a batch of symmetric 2x2 or 3x3 Q.

    ``Qc`` holds the components (d, d, N).  2D: mean -/+ hypot.  3D: the
    trigonometric formula of O. K. Smith (Comm. ACM 4(4), 1961) on
    K = Q - m I with m = trace / 3.  Returns (lmin, lmax, slack), each of
    shape (N,), where slack covers the error of the formulas.
    """
    if len(Qc) == 2:
        m = 0.5 * (Qc[0, 0] + Qc[1, 1])
        s = np.hypot(0.5 * (Qc[0, 0] - Qc[1, 1]), Qc[0, 1])
        lmin, lmax = m - s, m + s
    else:
        m = (Qc[0, 0] + Qc[1, 1] + Qc[2, 2]) / 3.0
        a, b, c = Qc[0, 0] - m, Qc[1, 1] - m, Qc[2, 2] - m
        d, e, f = Qc[0, 1], Qc[1, 2], Qc[0, 2]
        dd, ee, ff = d * d, e * e, f * f
        p = (a * a + b * b + c * c + 2.0 * (dd + ee + ff)) / 6.0
        h = 0.5 * (a * b * c + 2.0 * d * e * f - a * ee - b * ff - c * dd)  # det(K) / 2
        s = np.sqrt(p)
        cos = np.cos(np.arctan2(np.sqrt(np.maximum(p * p * p - h * h, 0.0)), h) / 3.0)
        # the angle lies in [0, pi / 3], so its sine is sqrt(1 - cos^2), to
        # about sqrt(eps) near a double root like the rest of the formula
        sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
        lmin = m - s * (cos + np.sqrt(3.0) * sin)
        lmax = m + 2.0 * s * cos
    return lmin, lmax, _SCREEN_TOL * (np.abs(m) + s)


class BoundScreen:
    """Running state of the condition bound over batches of Q.

    ``add(Q, singular)`` takes a batch as eval_Q_masked returns it.  lo and
    hi are the running certain bounds on inf lmin and sup lmax (from the
    closed-form ranges of _eig_screen), and only the points whose range may
    reach past them are kept, as components (d, d, M), with their reach
    (lmin - slack, lmax + slack).  ``result()`` runs exact ``eigvalsh`` on
    the kept points, so the bound is the one ``eigvalsh`` gives over every
    point added, in any order and batching.  A singular point anywhere makes
    the bound +inf.
    """

    def __init__(self):
        self.lo, self.hi = np.inf, -np.inf
        self.kept, self.reach = None, None
        self.singular = False

    def add(self, Q, singular):
        if self.singular or singular.any():
            self.singular = True
            return
        Qc = Q.transpose(1, 2, 0)
        out = tuple(np.empty(Qc.shape[-1]) for _ in range(3))
        lmin, lmax, slack = parallel.each_range(len(out[0]), Qc.size, lambda lo, hi: _eig_screen(Qc[..., lo:hi]), out)
        self.lo = lo = min(self.lo, (lmin + slack).min())
        self.hi = hi = max(self.hi, (lmax - slack).max())
        reach = np.stack((lmin - slack, lmax + slack))
        new = (reach[0] <= lo) | (reach[1] >= hi)
        kept, reach = Qc[..., new], reach[:, new]
        if self.kept is not None:
            keep = (self.reach[0] <= lo) | (self.reach[1] >= hi)
            kept = np.concatenate([self.kept[..., keep], kept], axis=-1)
            reach = np.concatenate([self.reach[:, keep], reach], axis=-1)
        if kept.shape[-1] > _BOUND_CHUNK:
            # many points near an extreme (Q nearly constant): keep the exact extremes
            ev = np.linalg.eigvalsh(kept.transpose(2, 0, 1))
            pick = [ev[:, 0].argmin(), ev[:, -1].argmax()]
            kept, reach = kept[..., pick], reach[:, pick]
        self.kept, self.reach = kept, reach

    def result(self):
        """ConditionBound(bound, singular) over every point added."""
        if self.singular:
            return ConditionBound(np.inf, True)
        if self.kept is None:
            raise ValueError("the condition bound needs at least one sample point")
        ev = np.linalg.eigvalsh(self.kept.transpose(2, 0, 1))
        lo, hi = ev[:, 0].min(), ev[:, -1].max()
        if lo <= 0.0:
            return ConditionBound(np.inf, True)
        return ConditionBound(float(hi / lo), False)


def condition_bound(geo, zeta, screen=None):
    """A-priori bound sup lmax(Q) / inf lmin(Q) over the (N, d) sample points ``zeta``.

    This bounds the spectral condition number of the preconditioned system.
    If any sample point has a singular Jacobian the bound is +inf and the
    ``singular`` flag is set.

    Q is evaluated _BOUND_CHUNK points at a time, in order, so memory does
    not grow with the number of points, and screened by a BoundScreen.
    ``screen`` may be one that other points were added to already:
    assemble_stiffness adds every quadrature point of its pass, and
    bench._cond_bound_value then passes only the 2^d corners of the
    parameter domain, which no Gauss point reaches, so that a
    parametrization singular on the boundary gives the +inf sentinel.

    Returns:
        ConditionBound(bound, singular)
    """
    zeta = np.asarray(zeta, dtype=float)
    screen = BoundScreen() if screen is None else screen
    for start in range(0, len(zeta), _BOUND_CHUNK):
        if screen.singular:
            break
        screen.add(*eval_Q_masked(geo, zeta=zeta[start : start + _BOUND_CHUNK]))
    return screen.result()


def _value_matrix(space, points):
    """Dense (npts, m) matrix of all basis values at the given points."""
    spans, vals, _ = basis_tables(space, points)
    V = np.zeros((len(points), space.m))
    for r in range(space.p + 1):
        V[np.arange(len(points)), spans - space.p + r] = vals[:, r]
    return V


def l2_error(spaces, geo, coefs, u_exact):
    """L2 norm of (u_h - u) over the physical domain, by the p + 2 point Gauss rule.

    Args:
        spaces: per-direction spaces
        geo: geometry map
        coefs: interior coefficient vector of u_h (Dirichlet layout)
        u_exact: callable on (N, d) physical points
    """
    rules, zeta, w = quadrature_grid(spaces, spaces[0].p + 2)
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
    """Write a sparse matrix, or a dense vector as an (n, 1) array, in Matrix Market format.

    Values are written with 17 significant digits, so they read back exactly.
    """
    if not scipy.sparse.issparse(obj):
        obj = np.asarray(obj, dtype=float).reshape(-1, 1)
    scipy.io.mmwrite(path, obj, symmetry="general", precision=17)
