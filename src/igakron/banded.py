"""Symmetric banded matrices in upper band storage.

Storage follows the scipy/LAPACK upper-banded convention: for a matrix of
order n with bandwidth p, ``ab`` has shape (p+1, n) and
``ab[p + i - j, j] = A[i, j]`` for ``max(0, j-p) <= i <= j``; row p holds the
main diagonal.  This is directly consumable by ``scipy.linalg.cholesky_banded``
and by the BLAS kernel ``dsbmv``.

The two kernels the sweeps of the ADI solvers spend their time in work on
all right-hand sides at once.  ``BandedSymMatrix.matmat`` multiplies through
a CSR copy of the band, built on first use.  ``BandedCholesky.solve`` runs
forward and backward substitution one row at a time, each row a single
length-(p+1) dot product over the (p+1, m) window of the m right-hand sides,
so one solve makes two passes over the data.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import dsbmv

__all__ = ["BandedSymMatrix", "BandedCholesky"]


class BandedSymMatrix:
    """Symmetric banded matrix of order n with bandwidth p.

    The band ``ab`` is not to be modified after construction: ``matmat``
    multiplies through a CSR copy of it that is built once, on first use.
    """

    def __init__(self, ab):
        ab = np.asarray(ab, dtype=float)
        if ab.ndim != 2:
            raise ValueError("band storage must be 2-dimensional")
        self.ab = ab
        self._csr = None

    @property
    def n(self):
        return self.ab.shape[1]

    @property
    def p(self):
        return self.ab.shape[0] - 1

    @property
    def shape(self):
        return (self.n, self.n)

    @classmethod
    def from_dense(cls, A, bandwidth):
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        ab = np.zeros((bandwidth + 1, n))
        for k in range(bandwidth + 1):
            ab[bandwidth - k, k:] = np.diagonal(A, k)
        return cls(ab)

    def toarray(self):
        n, p = self.n, self.p
        A = np.zeros((n, n))
        for k in range(min(p, n - 1) + 1):
            d = self.ab[p - k, k:]
            A += np.diag(d, k)
            if k > 0:
                A += np.diag(d, -k)
        return A

    def to_csr(self):
        # DIA storage puts A[j - k, j] at data[row of offset k, j]: the upper
        # offsets are the rows of ab as they are, the lower ones are the same
        # rows shifted left by their offset
        n, p = self.n, self.p
        data = np.zeros((2 * p + 1, n))
        data[: p + 1] = self.ab
        for k in range(1, min(p, n - 1) + 1):
            data[p + k, : n - k] = self.ab[p - k, k:]
        offsets = p - np.arange(2 * p + 1)
        return scipy.sparse.dia_matrix((data, offsets), shape=(n, n)).tocsr()

    def diagonal(self):
        return self.ab[self.p]

    def combine(self, alpha, other):
        """Banded matrix self + alpha * other (bandwidths may differ)."""
        p = max(self.p, other.p)
        ab = np.zeros((p + 1, self.n))
        ab[p - self.p:] = self.ab
        ab[p - other.p:] += alpha * other.ab
        return BandedSymMatrix(ab)

    def matvec(self, x):
        return dsbmv(self.p, 1.0, self.ab, x)

    def matmat(self, B):
        """Product with a dense matrix of shape (n, k)."""
        if self._csr is None:
            self._csr = self.to_csr()
        return self._csr @ B

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        return self.matmat(other)

    def cholesky(self):
        return BandedCholesky(self)


class BandedCholesky:
    """Banded Cholesky factorization A = U^T U of an SPD banded matrix.

    ``scipy.linalg.cholesky_banded`` computes U.  The substitution rows are
    stored pre-scaled by 1 / U_ii, as two (n, p+1) arrays over the window of
    the p unknowns a row couples to and its own right-hand side entry:

        forward  (U^T y = b):  y_j = fwd[j] . (y_{j-p}, ..., y_{j-1}, b_j)
        backward (U x = y):    x_i = bwd[i] . (y_i, x_{i+1}, ..., x_{i+p})

    The windows of the first and last p rows reach into zero padding.
    """

    def __init__(self, A):
        try:
            cb = scipy.linalg.cholesky_banded(A.ab, lower=False)
        except scipy.linalg.LinAlgError as err:
            raise scipy.linalg.LinAlgError(
                "banded Cholesky failed (matrix not positive definite): %s" % err
            ) from err
        n, p = A.n, A.p
        inv = 1.0 / cb[p]
        # cb[k, j] = U[j - p + k, j]
        fwd = np.empty((n, p + 1))
        fwd[:, :p] = -(cb[:p] * inv).T
        fwd[:, p] = inv
        # U[i, i + k] = cb[p - k, i + k]
        bwd = np.zeros((n, p + 1))
        bwd[:, 0] = inv
        for k in range(1, min(p, n - 1) + 1):
            bwd[: n - k, k] = -cb[p - k, k:] * inv[: n - k]
        self.n, self.p = n, p
        self._fwd, self._bwd = fwd, bwd

    def solve(self, b):
        """Solve A x = b for one right-hand side (n,) or a matrix of them (n, m).

        ``b`` is copied into a zero-padded (n + 2p, m) work array and left
        unchanged; the result is a new array.
        """
        b = np.asarray(b)
        n, p = self.n, self.p
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError("right-hand side of shape %r does not match order %d" % (b.shape, n))
        W = np.empty((n + 2 * p,) + b.shape[1:])
        W[:p] = 0.0
        W[p : p + n] = b
        W[p + n :] = 0.0
        dot, bwd = np.dot, self._bwd
        for j, f in enumerate(self._fwd):
            W[j + p] = dot(f, W[j : j + p + 1])
        for i in range(n - 1, -1, -1):
            W[i + p] = dot(bwd[i], W[i + p : i + 2 * p + 1])
        return W[p : p + n]

    __call__ = solve
