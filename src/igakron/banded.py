"""Symmetric banded matrices and the block-row kernel that applies them.

Storage follows the scipy/LAPACK upper-banded convention: for a matrix of
order n with bandwidth p, ``ab`` has shape (p+1, n) and
``ab[p + i - j, j] = A[i, j]`` for ``max(0, j-p) <= i <= j``; row p holds the
main diagonal.  This is directly consumable by ``scipy.linalg.cholesky_banded``.

A banded operator is applied as a list of row blocks ``(s, e, lo, hi, G)``,
``out[s:e] = G @ in[lo:hi]``, one per ``_BLOCK`` rows.  The product with A
uses the dense (B, B + 2p) row blocks of A (B = ``_BLOCK``).  The Cholesky
solve A = U^T U keeps one forward block ``[-T^-1 C, T^-1]`` of U^T and one
backward block ``[T^-1, -T^-1 C]`` of U per B rows, T the diagonal block and
C the coupling block, and runs both sweeps in place on one copy of the
right-hand side, so a sweep is ceil(n/B) BLAS calls instead of n row
products (the blocked triangular solve of Dongarra, Du Croz, Duff and
Hammarling, ACM TOMS 16, 1990).  The blocks are built with batched numpy.

``along`` applies blocks along any axis of a C-contiguous tensor, viewed as
it lies in memory as (a, n, b) (de Boor, ACM TOMS 5, 1979): one GEMM per block
when a == 1, a right multiply of the (a, n) matrix by G^T when b == 1, and a
batched matmul over the a slices otherwise.  A dense factor is one block.

B = 16 was chosen by timing the 2D and 3D ADI applies (p = 3, 2 cores) with
B = 4, 8, 16 and 32: 16 was the fastest or tied at n = 257 (2D), n = 33 and
n = 129 (3D); 8 was slower at n = 257 and n = 129, and 32 at n = 33 and n = 129.

``pooled_along`` deals one ``along`` call to the package's pool in the
chunks of ``parallel.grid`` (banded products and solves).
"""

import functools
import math

import numpy as np
import scipy.linalg

from . import parallel

__all__ = ["BandedSymMatrix", "BandedCholesky", "along", "pooled_along"]

_BLOCK = 16


def along(blocks, X, axis, out):
    """``out[s:e] = G @ X[lo:hi]`` along ``axis`` for every block ``(s, e, lo, hi, G)``.

    X and out are C-contiguous, or (a, n, b) slices of C-contiguous arrays
    taken with axis 1; out may be X itself, and then each block reads the
    rows the blocks before it wrote.
    """
    a, n = math.prod(X.shape[:axis]), X.shape[axis]
    X, Y = X.reshape(a, n, -1), out.reshape(a, n, -1)
    if a == 1:
        X, Y = X[0], Y[0]
        for s, e, lo, hi, G in blocks:
            np.matmul(G, X[lo:hi], out=Y[s:e])
    elif Y.shape[2] == 1:
        X, Y = X[..., 0], Y[..., 0]
        for s, e, lo, hi, G in blocks:
            np.matmul(X[:, lo:hi], G.T, out=Y[:, s:e])
    else:
        for s, e, lo, hi, G in blocks:
            np.matmul(G, X[:, lo:hi], out=Y[:, s:e])
    return out


def pooled_along(blocks, X, axis, out):
    """``along(blocks, X, axis, out)`` dealt to the pool in the chunks of ``parallel.grid``.

    The chunks split the axes the call does not contract, and each writes
    its own part of out, so the result is the same on any number of
    workers.  X and out are C-contiguous; out may be X, and then each
    chunk works in place on its own part.  Called on the calling thread,
    never by a worker.
    """
    a, n = math.prod(X.shape[:axis]), X.shape[axis]
    X3, Y3 = X.reshape(a, n, -1), out.reshape(a, n, -1)

    def work(task, chunks):
        for i, j in chunks:
            along(blocks, X3[i, :, j], 1, Y3[i, :, j])

    parallel._each_chunk(work, parallel.grid(a, n, X3.shape[2]))
    return out


def _lower_rows(ab):
    """``rows[i, k] = A[i, i - p + k]``: the columns of ab, zero left of column 0."""
    p = ab.shape[0] - 1
    return np.where(np.arange(ab.shape[1]) + np.arange(p + 1)[:, None] >= p, ab, 0.0).T


def _upper_rows(ab):
    """``rows[i, t] = A[i, i + t]``, zero right of column n - 1."""
    p = ab.shape[0] - 1
    t = np.arange(p + 1)
    padded = np.concatenate([ab, np.zeros((p + 1, p))], axis=1)
    return padded[p - t, np.arange(ab.shape[1])[:, None] + t]


def _row_blocks(rows, fill):
    """Stacked (nb, _BLOCK, _BLOCK + w - 1) blocks of the band ``rows`` (n, w).

    Row r of block b is band row i = b * _BLOCK + r, shifted right by r;
    rows past n are ``fill``.
    """
    n, w = rows.shape
    nb = -(-n // _BLOCK)
    padded = np.empty((nb * _BLOCK, w))
    padded[:n], padded[n:] = rows, fill
    out = np.zeros((nb, _BLOCK, _BLOCK + w - 1))
    r = np.arange(_BLOCK)[:, None]
    out[:, r, r + np.arange(w)] = padded.reshape(nb, _BLOCK, w)
    return out


def _cut(G, n, left):
    """Block list of stacked blocks G whose column 0 lies ``left`` columns before their first row."""
    blocks = []
    for b, s in enumerate(range(0, n, _BLOCK)):
        e, lo, hi = min(s + _BLOCK, n), max(s - left, 0), min(s - left + G.shape[2], n)
        blocks.append((s, e, lo, hi, G[b, : e - s, lo - s + left : hi - s + left]))
    return blocks


class BandedSymMatrix:
    """Symmetric banded matrix of order n with bandwidth p.

    The band ``ab`` is not to be modified after construction: ``matmat``
    multiplies through row blocks cut from it once, on first use.
    """

    def __init__(self, ab):
        ab = np.asarray(ab, dtype=float)
        if ab.ndim != 2:
            raise ValueError("band storage must be 2-dimensional")
        self.ab = ab
        self.p, self.n = ab.shape[0] - 1, ab.shape[1]
        self.shape = (self.n, self.n)

    def toarray(self):
        # the product with the identity copies every entry exactly
        return self.matmat(np.eye(self.n))

    def combine(self, alpha, other):
        """Banded matrix self + alpha * other (bandwidths may differ)."""
        p = max(self.p, other.p)
        ab = np.zeros((p + 1, self.n))
        ab[p - self.p:] = self.ab
        ab[p - other.p:] += alpha * other.ab
        return BandedSymMatrix(ab)

    @functools.cached_property
    def _blocks(self):
        rows = np.concatenate([_lower_rows(self.ab), _upper_rows(self.ab)[:, 1:]], axis=1)
        return _cut(_row_blocks(rows, 0.0), self.n, self.p)

    def matmat(self, B, axis=0):
        """Product with A along ``axis`` of B on the pool; a new C-contiguous array."""
        B = np.ascontiguousarray(B, dtype=float)
        if B.shape[axis] != self.n:
            raise ValueError("operand of shape %r does not match order %d" % (B.shape, self.n))
        return pooled_along(self._blocks, B, axis, np.empty_like(B))


class BandedCholesky:
    """Banded Cholesky factorization A = U^T U of an SPD banded matrix.

    ``scipy.linalg.cholesky_banded`` computes U.  The forward sweep solves
    U^T y = b and the backward sweep U x = y, ``_BLOCK`` rows per block; see
    the module docstring.  ``_blocks`` is one block list: the forward
    blocks, then the backward blocks from the last row up.
    """

    def __init__(self, A):
        try:
            cb = scipy.linalg.cholesky_banded(A.ab, lower=False)
        except scipy.linalg.LinAlgError as err:
            raise scipy.linalg.LinAlgError(
                "banded Cholesky failed (matrix not positive definite): %s" % err
            ) from err
        n, p = A.n, A.p
        # the rows of U^T are the lower rows of U's band; past n the padding
        # rows are unit rows, so every diagonal block T is invertible
        L = _row_blocks(_lower_rows(cb), np.eye(p + 1)[p])
        Tinv = np.linalg.inv(L[:, :, p:])
        fwd = _cut(np.concatenate([-Tinv @ L[:, :, :p], Tinv], axis=2), n, p)
        U = _row_blocks(_upper_rows(cb), np.eye(p + 1)[0])
        Tinv = np.linalg.inv(U[:, :, :_BLOCK])
        self._blocks = fwd + _cut(np.concatenate([Tinv, -Tinv @ U[:, :, _BLOCK:]], axis=2), n, 0)[::-1]
        self.n = n

    def solve(self, b, axis=0, overwrite_b=False):
        """Solve A x = b along ``axis`` of b; a C-contiguous array.

        Both sweeps run in place, on the pool, on one C-contiguous copy of b,
        or on b itself when ``overwrite_b`` is set and b is C-contiguous float.
        """
        W = np.ascontiguousarray(b, dtype=float) if overwrite_b else np.array(b, dtype=float, order="C")
        if W.shape[axis] != self.n:
            raise ValueError("right-hand side of shape %r does not match order %d" % (W.shape, self.n))
        return pooled_along(self._blocks, W, axis, W)
