"""Matrix-free Kronecker algebra.

The degree-of-freedom layout everywhere in this package is C order with the
last parametric direction varying fastest: a coefficient vector x of a d-way
tensor-product space reshapes to ``X = x.reshape(n_1, ..., n_d)``, and
``(A_1 (x) ... (x) A_d) x`` applies A_l along axis l-1 of X.  In 2D this is
the familiar identity (A (x) B) vec(X) = vec(A X B^T) for row-major vec.

Each factor is applied along its own axis, without moving axes or copying X,
by the block-row kernel ``banded.along``: a banded factor by its row blocks,
a dense factor as one block, which is ``U @ X.reshape(n, -1)`` on the leading
axis, a batched matmul on a middle axis and ``X.reshape(-1, n) @ U.T`` on the
last.  Both kinds go to the package's thread pool through
``banded.pooled_along``, in chunks over the axes the factor does not
contract, each written straight into the result, so a product uses every
core while BLAS runs on one thread.  Every result is a new C-contiguous
array.
"""

import functools

import numpy as np

from .banded import BandedSymMatrix, pooled_along

__all__ = ["kron_matvec", "apply_along_axis", "KroneckerSum"]


def apply_along_axis(op, X, axis):
    """Apply a square factor (dense array or BandedSymMatrix) along one axis of X."""
    if isinstance(op, BandedSymMatrix):
        return op.matmat(X, axis)
    U = np.asarray(op, dtype=float)
    X = np.ascontiguousarray(X, dtype=float)
    return pooled_along([(0, U.shape[0], 0, U.shape[1], U)], X, axis, np.empty_like(X))


def kron_matvec(mats, x):
    """Product (A_1 (x) ... (x) A_d) x without forming the Kronecker matrix.

    Args:
        mats: ordered list of square factors (dense or banded)
        x: vector of length prod(n_l)
    """
    dims = tuple(A.shape[0] for A in mats)
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
        self.dims = tuple(K.shape[0] for K, _ in factors)
        if any(M.shape[0] != n for (_, M), n in zip(factors, self.dims)):
            raise ValueError("K and M factor sizes disagree")

    @property
    def n(self):
        return int(np.prod(self.dims))

    def matvec(self, x):
        # sum factorization from the last axis: `mass` holds x with the mass
        # factors applied so far and `y` the terms whose stiffness factor has
        # been applied, so a 3D product takes 7 factor products instead of 9
        x = np.asarray(x)
        if x.size != self.n:
            raise ValueError("vector length %d does not match factor sizes %r" % (x.size, self.dims))
        mass, y = x.reshape(self.dims), None
        for axis in reversed(range(len(self.dims))):
            K, M = self.factors[axis]
            term = apply_along_axis(K, mass, axis)
            if y is not None:
                term += apply_along_axis(M, y, axis)
            y = term
            if axis:
                mass = apply_along_axis(M, mass, axis)
        return y.reshape(-1)

    def toarray(self):
        """Dense Kronecker sum; intended for small oracle checks only."""
        dense = [[A.toarray() if hasattr(A, "toarray") else np.asarray(A) for A in KM] for KM in self.factors]
        terms = [[K if i == l else M for i, (K, M) in enumerate(dense)] for l in range(len(dense))]
        return sum(functools.reduce(np.kron, term) for term in terms)
