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

The program owns its parallelism.  Importing this module, the lowest of the
package and imported by every BLAS caller, sets both bundled OpenBLAS
libraries (numpy's and scipy's, so LAPACK too) to one thread: threaded BLAS
sums in an order that depends on its thread count, and its threads contend
with the program's own.  The parallel work runs on one module-level thread
pool, one worker per CPU the process may use, made on first use:
``_each_chunk`` deals the chunks of a job to it.  ``pooled_along`` deals one
``along`` call there in chunks over the axes the call does not contract
(``_grid``); the 3D ADI sweep deals its own stages.  Chunk bounds
depend on array shapes only, never on the number of workers, and each chunk's
arithmetic is the same on any thread, so results are bitwise the same on any
number of cores.  The workers call only ``along`` and
``BandedCholesky._sweep``, so no worker deals chunks of its own.
"""

import concurrent.futures
import ctypes
import functools
import math
import os
import warnings
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

__all__ = ["BandedSymMatrix", "BandedCholesky", "along", "pooled_along"]

_BLOCK = 16

# (package, its bundled OpenBLAS, the symbol that sets that library's thread count)
_BLAS_LIBS = (
    (np, "libscipy_openblas64_-*.so*", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
)


def _pin_blas_threads(libs=_BLAS_LIBS):
    """Set each bundled OpenBLAS library of ``libs`` to one thread.

    A library is looked up in the ``<package>.libs`` directory its wheel
    installs; where the library or its symbol is missing, its threads are
    left alone and one RuntimeWarning names what was not found.
    """
    missing = []
    for pkg, pattern, symbol in libs:
        paths = sorted((Path(pkg.__file__).parents[1] / (pkg.__name__ + ".libs")).glob(pattern))
        try:
            getattr(ctypes.CDLL(str(paths[0])), symbol)(1)
        except (IndexError, OSError, AttributeError):
            missing.append("%s in %s.libs/%s" % (symbol, pkg.__name__, pattern))
    if missing:
        warnings.warn("BLAS threads left as they are: not found: %s" % ", ".join(missing), RuntimeWarning)


_pin_blas_threads()

# doubles per chunk of the 3D ADI sweep: about 1 MB, so a chunk's slices of
# the arrays a stage touches stay in a core's L2 cache; also the least a
# chunk of ``pooled_along`` holds (docs/decisions.md)
_CHUNK = 2**17


@functools.cache
def _pool():
    """The thread pool, one worker per CPU this process may use; made on first use."""
    return concurrent.futures.ThreadPoolExecutor(len(os.sched_getaffinity(0)), thread_name_prefix="igakron")


def _tasks(nchunks):
    """Into how many tasks ``_each_chunk`` deals nchunks chunks: at most one per CPU and one per chunk."""
    return min(len(os.sched_getaffinity(0)), nchunks)


def _each_chunk(work, nchunks):
    """Call ``work(task, chunks)`` so that every chunk in range(nchunks) is done once.

    One chunk runs inline on the calling thread; more go to _tasks(nchunks)
    tasks on the pool, which take the chunks in turn from one shared
    iterator as each finishes its last.
    """
    tasks = _tasks(nchunks)
    if tasks == 1:
        work(0, range(nchunks))
        return
    # one iterator for all tasks: next() on it is atomic under the GIL
    chunks = iter(range(nchunks))
    for f in [_pool().submit(work, t, chunks) for t in range(tasks)]:
        f.result()


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


def _grid(a, n, b):
    """Chunks of an (a, n, b) operand, as slices of its a and b axes.

    There are as many chunks as whole multiples of max(_CHUNK, n * n / 2)
    doubles fit in the operand, at least one.  The n * n / 2 floor keeps a
    chunk at least n / 2 columns wide, because BLAS packs a dense factor
    again for every chunk (docs/decisions.md).  The a axis is split first,
    into at most a slabs, and b only when there are fewer slabs than
    chunks.  The bounds depend on the shape alone.
    """
    k = max(1, a * n * b // max(_CHUNK, n * n // 2))
    ka = max(1, min(a, k))
    kb = max(1, min(b, k // ka))
    return [
        (slice(a * i // ka, a * (i + 1) // ka), slice(b * j // kb, b * (j + 1) // kb))
        for i in range(ka)
        for j in range(kb)
    ]


def pooled_along(blocks, X, axis, out):
    """``along(blocks, X, axis, out)`` dealt to the pool in the chunks of ``_grid``.

    The chunks split the axes the call does not contract, and each writes
    its own part of out, so the result is the same on any number of
    workers.  X and out are C-contiguous and distinct.  Called on the
    calling thread, never by a worker.
    """
    a, n = math.prod(X.shape[:axis]), X.shape[axis]
    X3, Y3 = X.reshape(a, n, -1), out.reshape(a, n, -1)
    chunks = _grid(a, n, X3.shape[2])

    def work(task, which):
        for c in which:
            i, j = chunks[c]
            along(blocks, X3[i, :, j], 1, Y3[i, :, j])

    _each_chunk(work, len(chunks))
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
    the module docstring.
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
        self._fwd = _cut(np.concatenate([-Tinv @ L[:, :, :p], Tinv], axis=2), n, p)
        U = _row_blocks(_upper_rows(cb), np.eye(p + 1)[0])
        Tinv = np.linalg.inv(U[:, :, :_BLOCK])
        self._bwd = _cut(np.concatenate([Tinv, -Tinv @ U[:, :, _BLOCK:]], axis=2), n, 0)[::-1]
        self.n, self.p = n, p

    def solve(self, b, axis=0, overwrite_b=False):
        """Solve A x = b along ``axis`` of b; a C-contiguous array.

        Both sweeps run in place on one C-contiguous copy of b, or on b
        itself when ``overwrite_b`` is set and b is a C-contiguous float array.
        """
        W = np.ascontiguousarray(b, dtype=float) if overwrite_b else np.array(b, dtype=float, order="C")
        if W.shape[axis] != self.n:
            raise ValueError("right-hand side of shape %r does not match order %d" % (W.shape, self.n))
        return self._sweep(W, axis)

    def _sweep(self, W, axis):
        """Both sweeps in place on W, a C-contiguous float array, along ``axis``; no checks."""
        along(self._fwd, W, axis, W)
        return along(self._bwd, W, axis, W)
