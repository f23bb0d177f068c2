"""Univariate B-spline bases on open knot vectors.

`basis_tables` is the one basis evaluator.  It tabulates the p+1 nonzero
B-splines and their first derivatives at a whole array of points: the spans
come from one sorted search, and each step of the triangular Cox-de Boor
scheme (de Boor, A Practical Guide to Splines, 1978) is one vector operation
over all points.  First derivatives follow from the degree p-1 values of the
same triangle by the knot-difference formula, with a zero term where
repeated knots make the denominator vanish.  The evaluator is pure and the
spline spaces are immutable after construction, so they can be shared
freely between threads.
"""

import numpy as np

__all__ = ["SplineSpace1D", "basis_tables"]


class SplineSpace1D:
    """Univariate spline space of degree p on an open knot vector over [0, 1].

    The first and last knots must each be repeated exactly p+1 times
    (open/clamped vector); interior knots may be repeated up to p times.
    Dropping the first and the last of the m basis functions (the only two
    that are nonzero at 0 and 1) leaves n = m - 2 interior dofs.

    Attributes:
        p (int): spline degree, >= 1
        knots (ndarray): the nondecreasing knot sequence, length m + p + 1
    """

    def __init__(self, knots, p):
        knots = np.ascontiguousarray(knots, dtype=float)
        if p < 1:
            raise ValueError("spline degree must be >= 1")
        if knots.ndim != 1 or knots.size < 2 * (p + 1):
            raise ValueError("knot vector too short for degree %d" % p)
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if knots[0] < 0.0 or knots[-1] > 1.0:
            raise ValueError("knots must lie in [0, 1]")
        if not (np.all(knots[: p + 1] == knots[0]) and np.all(knots[-p - 1:] == knots[-1])):
            raise ValueError("knot vector is not open (end knots must repeat p+1 times)")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("open knot vector must span [0, 1]")
        m = knots.size - p - 1
        if m < p + 2:
            raise ValueError("need at least one interior basis function (m >= p+2)")
        # interior multiplicity at most p
        interior = knots[p + 1:m]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if counts.max() > p:
                raise ValueError("interior knot multiplicity exceeds p")
        self.p = int(p)
        self.knots = knots
        self.knots.flags.writeable = False

    @classmethod
    def uniform(cls, p, num_spans):
        """The space on mesh size h = 1/num_spans with single interior knots."""
        if num_spans < 2:
            raise ValueError("need at least 2 spans for an interior basis function")
        interior = np.arange(1, num_spans) / num_spans
        return cls(np.concatenate((np.zeros(p + 1), interior, np.ones(p + 1))), p)

    @property
    def m(self):
        """Dimension of the full (no boundary conditions) spline space."""
        return self.knots.size - self.p - 1

    @property
    def n(self):
        """Number of interior dofs."""
        return self.m - 2

    def breakpoints(self):
        """Unique knots (the mesh underlying the spline space)."""
        return np.unique(self.knots)

    def __eq__(self, other):
        return (
            isinstance(other, SplineSpace1D)
            and self.p == other.p
            and self.knots.size == other.knots.size
            and np.allclose(self.knots, other.knots, atol=1e-12, rtol=0.0)
        )

    def __repr__(self):
        return "SplineSpace1D(p=%d, n=%d)" % (self.p, self.n)


def basis_tables(space, points):
    """Nonzero basis values and first derivatives at many points at once.

    Point z is placed in the knot span i with knots[i] <= z < knots[i+1];
    z = 1 goes to the last nonempty span, so its values are left limits.

    Args:
        space: spline space
        points: array of evaluation points in [0, 1] (flattened)

    Returns:
        (spans, values, derivs) with shapes (npts,), (npts, p+1), (npts, p+1).
        Column r of row q belongs to basis function spans[q] - p + r.

    Raises:
        ValueError: if a point lies outside [0, 1].
    """
    z = np.asarray(points, dtype=float).ravel()
    outside = ~((z >= 0.0) & (z <= 1.0))
    if outside.any():
        raise ValueError("evaluation point %r outside [0, 1]" % (float(z[outside][0]),))
    knots, p = space.knots, space.p
    spans = np.minimum(np.searchsorted(knots, z, side="right") - 1, space.m - 1)
    # triangular scheme: after step j, N[r] holds B_{span-j+r, j} at every
    # point; the denominators are nonzero on nonempty spans
    N, left, right = [np.ones(z.size)], [None], [None]
    for j in range(1, p + 1):
        left.append(z - knots[spans + 1 - j])
        right.append(knots[spans + j] - z)
        saved = np.zeros(z.size)
        step = []
        for r in range(j):
            tmp = N[r] / (right[r + 1] + left[j - r])
            step.append(saved + right[r + 1] * tmp)
            saved = left[j - r] * tmp
        low, N = N, step + [saved]
    # first derivatives from the degree p-1 values (low):
    # B'_{i,p} = p * ( B_{i,p-1}/(t_{i+p}-t_i) - B_{i+1,p-1}/(t_{i+p+1}-t_{i+1}) ),
    # a term being zero where repeated knots make its denominator vanish
    r = np.arange(1, p + 1)
    den = knots[spans[:, None] + r] - knots[spans[:, None] + r - p]
    quot = np.zeros((z.size, p + 2))
    np.divide(np.stack(low, axis=1), den, out=quot[:, 1:-1], where=den > 0.0)
    return spans, np.stack(N, axis=1), p * (quot[:, :-1] - quot[:, 1:])
