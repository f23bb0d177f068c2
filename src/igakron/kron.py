"""Matrix-free Kronecker algebra.

The degree-of-freedom layout everywhere in this package is C order with the
last parametric direction varying fastest: a coefficient vector x of a d-way
tensor-product space reshapes to ``X = x.reshape(n_1, ..., n_d)``, and
``(A_1 (x) ... (x) A_d) x`` applies A_l along axis l-1 of X.  In 2D this is
the familiar identity (A (x) B) vec(X) = vec(A X B^T) for row-major vec.
"""

import numpy as np

__all__ = ["kron_matvec", "apply_along_axis", "solve_along_axis", "KroneckerSum"]


def _op_dim(op):
    if op is None:
        raise ValueError("identity factors must carry an explicit size; pass (None, n)")
    n = getattr(op, "n", None)
    if n is not None and not callable(n):
        return n
    return op.shape[0]


def apply_along_axis(op, X, axis):
    """Apply a square operator along one axis of a dense tensor.

    ``op`` may be a dense array, a scipy sparse matrix, a BandedSymMatrix, or
    anything supporting ``op @ M`` for a 2D M.
    """
    if op is None:
        return X
    Xm = np.moveaxis(X, axis, 0)
    shp = Xm.shape
    Y = op @ np.ascontiguousarray(Xm).reshape(shp[0], -1)
    return np.moveaxis(Y.reshape(shp), 0, axis)


def solve_along_axis(solver, X, axis):
    """Apply a factor inverse (object with .solve for 2D rhs) along one axis."""
    Xm = np.moveaxis(X, axis, 0)
    shp = Xm.shape
    Y = solver.solve(np.ascontiguousarray(Xm).reshape(shp[0], -1))
    return np.moveaxis(Y.reshape(shp), 0, axis)


def kron_matvec(mats, x):
    """Product (A_1 (x) ... (x) A_d) x without forming the Kronecker matrix.

    Args:
        mats: ordered list of square factors (dense/sparse/banded)
        x: vector of length prod(n_l)

    Each factor is applied as a batched matrix product along its own axis.
    """
    dims = tuple(_op_dim(A) for A in mats)
    x = np.asarray(x)
    if x.size != int(np.prod(dims)):
        raise ValueError("vector length %d does not match factor sizes %r" % (x.size, dims))
    X = x.reshape(dims)
    for axis, A in enumerate(mats):
        X = apply_along_axis(A, X, axis)
    return X.reshape(-1)


class KroneckerSum:
    """The Kronecker-structured Laplace operator built from univariate pencils.

    For factors (K_l, M_l), l = 1..d, this represents
        d=2:  K1 (x) M2  +  M1 (x) K2
        d=3:  K1 (x) M2 (x) M3  +  M1 (x) K2 (x) M3  +  M1 (x) M2 (x) K3,
    which is symmetric positive definite whenever all pencils are.
    """

    def __init__(self, factors):
        factors = list(factors)
        if len(factors) not in (2, 3):
            raise ValueError("only 2D and 3D Kronecker sums are supported")
        self.factors = factors
        self.dims = tuple(_op_dim(K) for K, _ in factors)
        for (K, M), n in zip(factors, self.dims):
            if _op_dim(M) != n:
                raise ValueError("K and M factor sizes disagree")

    @property
    def d(self):
        return len(self.factors)

    @property
    def n(self):
        return int(np.prod(self.dims))

    shape = property(lambda self: (self.n, self.n))

    def term_mats(self, l):
        """Factor list of the l-th Kronecker term (K in slot l, M elsewhere)."""
        return [K if i == l else M for i, (K, M) in enumerate(self.factors)]

    def matvec(self, x):
        # sum factorization from the last axis: `mass` holds x with the mass
        # factors applied so far and `y` the terms whose stiffness factor has
        # been applied, so a 3D product takes 7 factor products instead of 9
        x = np.asarray(x)
        if x.size != self.n:
            raise ValueError("vector length %d does not match factor sizes %r" % (x.size, self.dims))
        mass, y = x.reshape(self.dims), None
        for axis in reversed(range(self.d)):
            K, M = self.factors[axis]
            term = apply_along_axis(K, mass, axis)
            if y is not None:
                term += apply_along_axis(M, y, axis)
            y = term
            if axis:
                mass = apply_along_axis(M, mass, axis)
        return y.reshape(-1)

    apply = matvec

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.ndim == 1:
            return self.matvec(x)
        return np.column_stack([self.matvec(x[:, j]) for j in range(x.shape[1])])

    def toarray(self):
        """Dense Kronecker sum; intended for small oracle checks only."""
        out = np.zeros((self.n, self.n))
        for l in range(self.d):
            term = None
            for A in self.term_mats(l):
                Ad = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
                term = Ad if term is None else np.kron(term, Ad)
            out += term
        return out
