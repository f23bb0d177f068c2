"""Geometry maps, diffusion coefficients and the benchmark domains.

All maps are analytic closed forms: assembly only ever needs point values and
Jacobians, so carrying control nets around would buy nothing.  Evaluation is
batched: ``evaluate`` takes an (N, d) array of parametric points and returns
the (N, d) physical points; ``jacobian`` takes the same points and returns
the Jacobian as contiguous components, a (d, d, N) array with
``J[i, k] = dx_i / dz_k``, so that every consumer (the cofactors of
eval_Q_masked and abs_det_masked) reads each component as one contiguous row
of length N without a copy.
"""

import enum

import numpy as np

__all__ = [
    "GeometryMap",
    "CoefficientField",
    "BuiltinDomain",
    "builtin",
    "identity_map",
    "affine_map",
    "identity_coefficient",
    "eval_Q_masked",
    "abs_det_masked",
]

# largest Hadamard ratio |det J| / prod_k ||J e_k|| of a singular point
SINGULAR_TOL = 1e-14


class GeometryMap:
    """A parametrization F of the computational domain.

    Attributes:
        dim: spatial dimension (2 or 3)
        evaluate: callable, (N, dim) parametric points -> (N, dim) physical points
        jacobian: callable, (N, dim) parametric points -> (dim, dim, N)
            components, ``J[i, k]`` = dx_i/dz_k at every point as one
            contiguous row; any other shape is refused with a ValueError
    """

    def __init__(self, dim, evaluate, jacobian, name="custom"):
        self.dim = dim
        self.evaluate = evaluate
        self.jacobian = jacobian
        self.name = name

    def __repr__(self):
        return "GeometryMap(%s, dim=%d)" % (self.name, self.dim)


class CoefficientField:
    """Symmetric positive definite diffusion coefficient K(x).

    Attributes:
        evaluate: callable, (N, d) physical points -> (N, d, d) SPD matrices
    """

    def __init__(self, evaluate):
        self.evaluate = evaluate


def identity_coefficient(dim):
    def evaluate(x):
        x = np.asarray(x)
        K = np.zeros((x.shape[0], dim, dim))
        idx = np.arange(dim)
        K[:, idx, idx] = 1.0
        return K

    return CoefficientField(evaluate)


def identity_map(dim):
    def evaluate(z):
        return np.array(z, dtype=float, copy=True)

    def jacobian(z):
        J = np.zeros((dim, dim, len(z)))
        J[range(dim), range(dim)] = 1.0
        return J

    return GeometryMap(dim, evaluate, jacobian, name="identity")


def affine_map(A, t, name="affine"):
    """The map F(z) = A z + t with constant matrix A and offset t."""
    A = np.asarray(A, dtype=float)
    t = np.asarray(t, dtype=float)
    dim = A.shape[0]

    def evaluate(z):
        return np.asarray(z) @ A.T + t

    def jacobian(z):
        return np.repeat(A[:, :, None], len(z), axis=2)

    return GeometryMap(dim, evaluate, jacobian, name=name)


def _polar(z):
    # radii [1, 2]; angle sweeps a quarter turn
    return 1.0 + z[:, 0], 0.5 * np.pi * z[:, 1]


def _annulus_block(z, J):
    """Write the quarter annulus's Jacobian into the components J[:2, :2]."""
    r, th = _polar(z)
    c, s = np.cos(th), np.sin(th)
    J[0, 0] = c
    J[0, 1] = -0.5 * np.pi * r * s
    J[1, 0] = s
    J[1, 1] = 0.5 * np.pi * r * c


def _quarter_annulus():
    def evaluate(z):
        r, th = _polar(np.asarray(z))
        return np.column_stack((r * np.cos(th), r * np.sin(th)))

    def jacobian(z):
        J = np.empty((2, 2, len(z)))
        _annulus_block(np.asarray(z), J)
        return J

    return GeometryMap(2, evaluate, jacobian, name="quarter_annulus")


_STRETCH_ALPHA = 2.0


def _stretch(t):
    return np.expm1(_STRETCH_ALPHA * t) / np.expm1(_STRETCH_ALPHA)


def _stretch_deriv(t):
    return _STRETCH_ALPHA * np.exp(_STRETCH_ALPHA * t) / np.expm1(_STRETCH_ALPHA)


def _stretched_square():
    def evaluate(z):
        z = np.asarray(z)
        return np.column_stack((_stretch(z[:, 0]), _stretch(z[:, 1])))

    def jacobian(z):
        z = np.asarray(z)
        J = np.zeros((2, 2, len(z)))
        J[0, 0] = _stretch_deriv(z[:, 0])
        J[1, 1] = _stretch_deriv(z[:, 1])
        return J

    return GeometryMap(2, evaluate, jacobian, name="stretched_square")


def _collapsed_triangle():
    # the edge z2 = 1 collapses to the single point (0, 1): det J = 1 - z2
    def evaluate(z):
        z = np.asarray(z)
        return np.column_stack((z[:, 0] * (1.0 - z[:, 1]), z[:, 1]))

    def jacobian(z):
        z = np.asarray(z)
        J = np.zeros((2, 2, len(z)))
        J[0, 0] = 1.0 - z[:, 1]
        J[0, 1] = -z[:, 0]
        J[1, 1] = 1.0
        return J

    return GeometryMap(2, evaluate, jacobian, name="collapsed_triangle")


def _thick_quarter_ring():
    # quarter annulus cross-section, trivial third direction
    def evaluate(z):
        z = np.asarray(z)
        r, th = _polar(z)
        return np.column_stack((r * np.cos(th), r * np.sin(th), z[:, 2]))

    def jacobian(z):
        J = np.zeros((3, 3, len(z)))
        _annulus_block(np.asarray(z), J)
        J[2, 2] = 1.0
        return J

    return GeometryMap(3, evaluate, jacobian, name="thick_quarter_ring")


def _revolved_quarter_ring():
    # quarter-annulus cross-section revolved by a quarter turn about the line
    # through (-1, -1, -1) with direction (0, 1, 0); the sign of the rotation
    # is chosen so the map is orientation-preserving
    def _parts(z):
        r, th = _polar(z)
        c, s = np.cos(th), np.sin(th)
        beta = 0.5 * np.pi * z[:, 2]
        # w = x + 1, the distance of the cross-section point from the axis
        return r, c, s, r * c + 1.0, np.cos(beta), np.sin(beta)

    def evaluate(z):
        z = np.asarray(z)
        r, _, s, w, cb, sb = _parts(z)
        return np.column_stack((-1.0 + w * cb - sb, r * s, -1.0 + w * sb + cb))

    def jacobian(z):
        z = np.asarray(z)
        r, c, s, w, cb, sb = _parts(z)
        dx2, dy2 = -0.5 * np.pi * r * s, 0.5 * np.pi * r * c
        J = np.empty((3, 3, len(z)))
        J[0, 0] = c * cb
        J[0, 1] = dx2 * cb
        J[0, 2] = 0.5 * np.pi * (-w * sb - cb)
        J[1, 0] = s
        J[1, 1] = dy2
        J[1, 2] = 0.0
        J[2, 0] = c * sb
        J[2, 1] = dx2 * sb
        J[2, 2] = 0.5 * np.pi * (w * cb - sb)
        return J

    return GeometryMap(3, evaluate, jacobian, name="revolved_quarter_ring")


class BuiltinDomain(str, enum.Enum):
    UNIT_SQUARE = "unit_square"
    UNIT_CUBE = "unit_cube"
    QUARTER_ANNULUS = "quarter_annulus"
    STRETCHED_SQUARE = "stretched_square"
    COLLAPSED_TRIANGLE = "collapsed_triangle"
    THICK_QUARTER_RING = "thick_quarter_ring"
    REVOLVED_QUARTER_RING = "revolved_quarter_ring"


_BUILDERS = {
    BuiltinDomain.UNIT_SQUARE: lambda: identity_map(2),
    BuiltinDomain.UNIT_CUBE: lambda: identity_map(3),
    BuiltinDomain.QUARTER_ANNULUS: _quarter_annulus,
    BuiltinDomain.STRETCHED_SQUARE: _stretched_square,
    BuiltinDomain.COLLAPSED_TRIANGLE: _collapsed_triangle,
    BuiltinDomain.THICK_QUARTER_RING: _thick_quarter_ring,
    BuiltinDomain.REVOLVED_QUARTER_RING: _revolved_quarter_ring,
}


def builtin(domain):
    """Geometry map for one of the benchmark domains."""
    domain = BuiltinDomain(domain)
    return _BUILDERS[domain]()


def _jacobian(geo, zeta):
    """geo's Jacobian components (d, d, N) at the (N, d) points zeta, shape checked."""
    J = geo.jacobian(zeta)
    want = (geo.dim, geo.dim, len(zeta))
    if np.shape(J) != want:
        raise ValueError(
            "%r: jacobian must return the components J[i, k] = dx_i/dz_k as an array of "
            "shape (d, d, N) = %s, got shape %s" % (geo, want, np.shape(J))
        )
    return J


def _cofactor(J, r, c):
    """Cofactor of entry (r, c) of components J (d, d, N), d = 2 or 3, shape (N,)."""
    if len(J) == 2:
        return J[1 - r, 1 - c] if r == c else -J[1 - r, 1 - c]
    r1, r2, c1, c2 = (r + 1) % 3, (r + 2) % 3, (c + 1) % 3, (c + 2) % 3
    return J[r1, c1] * J[r2, c2] - J[r1, c2] * J[r2, c1]


def _abs_det(J, row0_cofactors):
    """|det J| of components J with singular points zeroed, and the singular mask.

    A point is singular when |det J| <= SINGULAR_TOL prod_k ||J e_k||: by
    Hadamard's inequality the product of the column norms bounds |det J|, so
    the test does not depend on the scale of the map.
    """
    absdet = np.abs(sum(J[0, c] * row0_cofactors[c] for c in range(len(J))))
    # prod_k ||J e_k|| from the product of the squared column norms
    singular = absdet <= SINGULAR_TOL * np.sqrt(np.einsum("ik...,ik...->k...", J, J).prod(axis=0))
    absdet[singular] = 0.0
    return absdet, singular


def abs_det_masked(geo, zeta):
    """|det J| at many points, by cofactor expansion.

    Singular points (see _abs_det) are flagged in the returned mask and
    their value is set to zero, as in eval_Q_masked.

    Returns:
        (absdet, singular_mask), both of shape (N,).
    """
    J = _jacobian(geo, np.asarray(zeta, dtype=float))
    return _abs_det(J, [_cofactor(J, 0, c) for c in range(geo.dim)])


def eval_Q_masked(geo, coeff, zeta):
    """The pulled-back diffusion tensor |det J| J^{-T} K J^{-1} at many points.

    Computed in closed form from the adjugate, adj(J) = det(J) J^{-1}:

        Q = adj(J)^T K adj(J) / |det J|,

    with det J and adj(J) taken once from the components of J (2D and 3D).
    The absolute value keeps Q positive definite on orientation-reversing
    maps; assemble_load, l2_error and condition_bound use the same |det J|
    (see abs_det_masked).  ``coeff=None`` stands for the identity
    coefficient: Q = adj(J)^T adj(J) / |det J| is then formed without
    evaluating the map or K.

    Singular points (see _abs_det) are flagged in the returned mask and
    their Q is set to zero (the assembly policy is that such quadrature points
    contribute nothing).

    Returns:
        (Q, singular_mask) with shapes (N, d, d) and (N,).  Q is a view of
        a (d, d, N) array, so each component Q[:, i, l] is contiguous.
    """
    zeta = np.asarray(zeta, dtype=float)
    d = geo.dim
    J = _jacobian(geo, zeta)
    # adj[i][j] = cofactor (j, i); its first column holds the row-0 cofactors
    adj = [[_cofactor(J, j, i) for j in range(d)] for i in range(d)]
    absdet, singular = _abs_det(J, [adj[c][0] for c in range(d)])
    inv = np.divide(1.0, absdet, out=np.zeros_like(absdet), where=~singular)
    Qc = np.empty((d, d, zeta.shape[0]))
    Q = Qc.transpose(2, 0, 1)
    if coeff is None:
        for i in range(d):
            for l in range(i, d):
                Qc[i, l] = sum(adj[j][i] * adj[j][l] for j in range(d)) * inv
                Qc[l, i] = Qc[i, l]
    else:
        A = np.stack([np.stack(row, axis=-1) for row in adj], axis=1)
        K = coeff.evaluate(geo.evaluate(zeta))
        np.matmul(np.swapaxes(A, 1, 2), K @ A, out=Q)
        Q *= inv[:, None, None]
    return Q, singular
