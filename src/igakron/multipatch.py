"""Conforming multi-patch domains and overlapping Schwarz preconditioners.

Patches are tensor-product spline spaces with their own geometry maps, glued
with C0 continuity by identifying the coincident interface basis functions.
The Schwarz subdomains are pairs of patches sharing an interface; merged
along the interface axis they form a single tensor-product space again, which
is what makes a fast-diagonalization local solver applicable in the inexact
variant.  No coarse space is used.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .assembly import assemble_load, assemble_pencil_1d, assemble_stiffness
from .bspline import KnotVector, SplineSpace1D
from .fd import fd_setup
from .geometry import affine_map
from .kron import KroneckerSum

__all__ = [
    "Patch",
    "ConformityError",
    "MultiPatchDomain",
    "build_multipatch",
    "assemble_multipatch_stiffness",
    "assemble_multipatch_load",
    "SchwarzPreconditioner",
    "schwarz_setup",
    "merge_knot_vectors",
    "l_shape_domain",
]


class ConformityError(ValueError):
    """Raised when glued interfaces do not carry matching discretizations."""


class Patch:
    """One tensor-product patch: per-direction spaces plus a geometry map."""

    def __init__(self, spaces, geo):
        self.spaces = tuple(spaces)
        self.geo = geo
        if geo.dim != len(self.spaces):
            raise ValueError("geometry dimension does not match space count")

    @property
    def dims(self):
        return tuple(s.m for s in self.spaces)


def _face_points(dim, axis, end, t_axes, tgrid):
    """Parametric sample points on one face, spread over the tangential axes."""
    pts = np.zeros((tgrid.shape[0], dim))
    pts[:, axis] = float(end)
    for k, ax in enumerate(t_axes):
        pts[:, ax] = tgrid[:, k]
    return pts


class MultiPatchDomain:
    """Glued patches with a global interior dof numbering.

    Attributes:
        patches: the patch list
        interfaces: (patch_a, side_a, patch_b, side_b) tuples with
            side = (axis, end)
        dof_maps: per patch, an integer array over the full local tensor
            space mapping each local basis function to its global dof
            (-1 for functions removed by the Dirichlet condition)
        N: number of global dofs
    """

    def __init__(self, patches, interfaces, dof_maps, N):
        self.patches = patches
        self.interfaces = interfaces
        self.dof_maps = dof_maps
        self.N = N


def _check_conforming(pa, pb, side_a, side_b):
    ax_a, end_a = side_a
    ax_b, end_b = side_b
    if ax_a != ax_b:
        raise ConformityError("interfaces must glue matching parametric axes")
    if end_a == end_b:
        raise ConformityError("interface orientation is reversed (same ends glued)")
    dim = len(pa.spaces)
    t_axes = [ax for ax in range(dim) if ax != ax_a]
    for ax in t_axes:
        if pa.spaces[ax].p != pb.spaces[ax].p or not (pa.spaces[ax].kv == pb.spaces[ax].kv):
            raise ConformityError("tangential knot vectors differ across the interface")
    if pa.spaces[ax_a].p != pb.spaces[ax_b].p:
        raise ConformityError("spline degrees differ across the interface")
    # geometric match of the shared face
    rng = np.random.default_rng(12345)
    tgrid = rng.random((7, dim - 1))
    xa = pa.geo.evaluate(_face_points(dim, ax_a, end_a, t_axes, tgrid))
    xb = pb.geo.evaluate(_face_points(dim, ax_b, end_b, t_axes, tgrid))
    if not np.allclose(xa, xb, atol=1e-10):
        raise ConformityError("glued faces do not coincide geometrically")


def _face_indices(dims, axis, end):
    """Flat local indices of the basis functions on one face layer."""
    grids = [np.arange(m) for m in dims]
    grids[axis] = np.array([dims[axis] - 1 if end == 1 else 0])
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in mesh], dims)


def build_multipatch(patches, interfaces):
    """Glue conforming patches into a global Dirichlet space.

    Args:
        patches: list of Patch
        interfaces: list of (patch_a, (axis, end_a), patch_b, (axis, end_b))

    Boundary faces that are not glued carry the homogeneous Dirichlet
    condition: their basis-function layer is removed.
    """
    patches = list(patches)
    offsets = np.cumsum([0] + [int(np.prod(p.dims)) for p in patches])
    total = offsets[-1]

    glued = set()
    glue = [np.empty((2, 0), dtype=np.int64)]
    for ka, side_a, kb, side_b in interfaces:
        pa, pb = patches[ka], patches[kb]
        _check_conforming(pa, pb, side_a, side_b)
        ia = _face_indices(pa.dims, *side_a) + offsets[ka]
        ib = _face_indices(pb.dims, *side_b) + offsets[kb]
        if ia.size != ib.size:
            raise ConformityError("interface dof counts differ")
        glue.append(np.stack((ia, ib)))
        glued.add((ka, side_a))
        glued.add((kb, side_b))

    dirichlet = np.zeros(total, dtype=bool)
    for k, p in enumerate(patches):
        for axis in range(len(p.dims)):
            for end in (0, 1):
                if (k, (axis, end)) not in glued:
                    dirichlet[_face_indices(p.dims, axis, end) + offsets[k]] = True

    # glued dofs form the components of the interface graph; each dof's
    # root is the lowest index of its component
    ia, ib = np.concatenate(glue, axis=1)
    graph = scipy.sparse.coo_matrix((np.ones(ia.size), (ia, ib)), shape=(total, total))
    _, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    roots = first[labels]
    root_dirichlet = np.zeros(total, dtype=bool)
    np.logical_or.at(root_dirichlet, roots, dirichlet)

    keep_roots = np.unique(roots[~root_dirichlet[roots]])
    global_of_root = -np.ones(total, dtype=np.int64)
    global_of_root[keep_roots] = np.arange(keep_roots.size)
    gids = np.where(root_dirichlet[roots], -1, global_of_root[roots])

    dof_maps = [gids[offsets[k] : offsets[k + 1]].copy() for k in range(len(patches))]
    return MultiPatchDomain(patches, list(interfaces), dof_maps, int(keep_roots.size))


def assemble_multipatch_stiffness(domain):
    """Scatter per-patch Galerkin matrices into the global numbering.

    The triples of all patches form one COO matrix, converted to CSR once;
    exact zeros are dropped.
    """
    triples = []
    for patch, gmap in zip(domain.patches, domain.dof_maps):
        A = assemble_stiffness(patch.spaces, patch.geo, dirichlet=False).tocoo()
        rows = gmap[A.row]
        cols = gmap[A.col]
        keep = (rows >= 0) & (cols >= 0)
        triples.append((A.data[keep], rows[keep], cols[keep]))
    data, rows, cols = (np.concatenate(t) for t in zip(*triples))
    A = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(domain.N, domain.N)).tocsr()
    A.eliminate_zeros()
    return A


def assemble_multipatch_load(domain, f):
    """Scatter per-patch load vectors into the global numbering."""
    b = np.zeros(domain.N)
    for patch, gmap in zip(domain.patches, domain.dof_maps):
        bk = assemble_load(patch.spaces, patch.geo, f, dirichlet=False)
        keep = gmap >= 0
        np.add.at(b, gmap[keep], bk[keep])
    return b


def merge_knot_vectors(kv_left, kv_right):
    """C0 merge of two open knot vectors onto [0, 1] (interface at 1/2)."""
    if kv_left.p != kv_right.p:
        raise ConformityError("cannot merge knot vectors of different degree")
    p = kv_left.p
    left = 0.5 * kv_left.knots[: -(p + 1)]
    mid = np.full(p, 0.5)
    right = 0.5 + 0.5 * kv_right.knots[p + 1 :]
    return KnotVector(np.concatenate((left, mid, right)), p)


def _merged_subdomain(domain, iface):
    """Tensor structure of the patch pair sharing one interface.

    Returns:
        (dofs, spaces): the global dofs of the subdomain in tensor (C) order
        and the per-axis SplineSpace1D of the merged single-patch space.
    """
    ka, side_a, kb, side_b = iface
    axis, end_a = side_a
    if side_b[0] != axis or side_b[1] == end_a:
        raise ConformityError("subdomain merge needs an axis-aligned, consistently oriented pair")
    if end_a == 1:
        kl, kr = ka, kb
    else:
        kl, kr = kb, ka
    left, right = domain.patches[kl], domain.patches[kr]
    dim = len(left.dims)

    merged_kv = merge_knot_vectors(left.spaces[axis].kv, right.spaces[axis].kv)
    spaces = [
        SplineSpace1D(merged_kv) if ax == axis else left.spaces[ax]
        for ax in range(dim)
    ]
    m_left = left.spaces[axis].m
    m_merged = merged_kv.m

    # local tensor index -> global dof, interior functions only
    ranges = [
        np.arange(1, (m_merged if ax == axis else left.spaces[ax].m) - 1)
        for ax in range(dim)
    ]
    mesh = np.meshgrid(*ranges, indexing="ij")
    idx = [g.ravel() for g in mesh]
    u = idx[axis]
    in_left = u <= m_left - 1
    patch_of = np.where(in_left, kl, kr)
    local_axis = np.where(in_left, u, u - (m_left - 1))
    dofs = np.empty(u.size, dtype=np.int64)
    for k, patch in ((kl, left), (kr, right)):
        sel = patch_of == k
        loc = [local_axis[sel] if ax == axis else idx[ax][sel] for ax in range(dim)]
        dofs[sel] = domain.dof_maps[k][np.ravel_multi_index(loc, patch.dims)]
    if (dofs < 0).any():
        raise AssertionError("subdomain interior dof mapped to a Dirichlet function")
    return dofs, spaces


class SchwarzPreconditioner:
    """Additive overlapping Schwarz operator from patch-pair subdomains.

    mode "exact" factors each local matrix directly; mode "fd" replaces the
    local solve by one fast-diagonalization application on the merged tensor
    space (geometry deliberately not incorporated).
    """

    def __init__(self, subdomains):
        self.subdomains = subdomains  # list of (dofs, local solve)

    def apply(self, r):
        out = np.zeros_like(np.asarray(r, dtype=float))
        for dofs, solve in self.subdomains:
            out[dofs] += solve(r[dofs])
        return out


def schwarz_setup(domain, A, mode="exact"):
    """Build the Schwarz preconditioner for an assembled multipatch matrix."""
    subdomains = []
    for iface in domain.interfaces:
        dofs, spaces = _merged_subdomain(domain, iface)
        if mode == "exact":
            # the subdomain block is SPD: a symmetric ordering and no pivoting
            solve = scipy.sparse.linalg.splu(
                A[dofs][:, dofs].tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            ).solve
        elif mode == "fd":
            solve = fd_setup(KroneckerSum([assemble_pencil_1d(s) for s in spaces])).apply
        else:
            raise ValueError("unknown Schwarz mode %r" % mode)
        subdomains.append((dofs, solve))
    covered = np.zeros(domain.N, dtype=bool)
    for dofs, _ in subdomains:
        covered[dofs] = True
    if not covered.all():
        raise ValueError("subdomains do not cover every global dof")
    return SchwarzPreconditioner(subdomains)


def _unit_square_patch(p, num_spans, offset):
    spaces = [SplineSpace1D.uniform(p, num_spans) for _ in range(2)]
    geo = affine_map(np.eye(2), offset, name="patch@%s" % (offset,))
    return Patch(spaces, geo)


def l_shape_domain(p, num_spans):
    """Three unit squares at (0,0), (1,0) and (0,1) glued into an L."""
    a = _unit_square_patch(p, num_spans, (0.0, 0.0))
    b = _unit_square_patch(p, num_spans, (1.0, 0.0))
    c = _unit_square_patch(p, num_spans, (0.0, 1.0))
    interfaces = [
        (0, (0, 1), 1, (0, 0)),
        (0, (1, 1), 2, (1, 0)),
    ]
    return build_multipatch([a, b, c], interfaces)
