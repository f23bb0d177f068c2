"""Zero-fill incomplete Cholesky baseline with reverse Cuthill-McKee reordering.

The factor keeps exactly the lower-triangle pattern of the (permuted) matrix.
It is computed left-looking, one column at a time (Saad, *Iterative Methods
for Sparse Linear Systems*, 2nd ed., section 10.3). With zero fill, L is zero
off the pattern, so the update sum_{k<j} L_ik L_jk over the common pattern is
the plain sum over k < j: row j of L is scattered into a dense work vector,
and all of column j is filled in one gather over the already computed row
prefixes of the rows i in column j.

A nonpositive pivot restarts the factorization on A + sigma*diag(A) with
sigma = 1e-3, doubled after each further breakdown up to 0.512 (ten shifted
attempts) before giving up.

The apply solves with L and L^T through a SuperLU factor of L taken in its
natural order without pivoting: L is already triangular, so both
permutations are the identity and the stored factor adds no fill.
"""

import math

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

__all__ = ["ICFactor", "ICBreakdownError", "ic0_setup"]

# the row-prefix gather index is built for a block of columns holding at most
# about this many entries at a time
_GATHER_CHUNK = 2**16

_SHIFTS = (0.0,) + tuple(1e-3 * 2.0**k for k in range(10))


class ICBreakdownError(RuntimeError):
    """Raised when shifted restarts cannot produce positive pivots."""


class ICFactor:
    """Incomplete Cholesky data: permutation and sparse triangular factor.

    Attributes:
        perm: the permutation applied (reverse Cuthill-McKee in ic0_setup)
        L: CSR lower-triangular factor with pattern(L) = pattern(tril(P A P^T))
        shift: the diagonal shift that was needed (0.0 normally)
    """

    def __init__(self, perm, L, shift):
        self.perm = np.asarray(perm)
        self.L = L
        self.shift = shift
        self._lu = scipy.sparse.linalg.splu(L.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self.n = L.shape[0]

    def apply(self, r):
        y = np.asarray(r, dtype=float)[self.perm]
        z = self._lu.solve(y)
        w = self._lu.solve(z, trans="T")
        out = np.empty_like(w)
        out[self.perm] = w
        return out

    __call__ = apply


class _Breakdown(Exception):
    pass


def _lower_pattern(Ap):
    """Sorted CSR lower triangle of Ap; its last entry in each row is the diagonal."""
    n = Ap.shape[0]
    low = scipy.sparse.tril(Ap, format="csr")
    low.sort_indices()
    indptr = low.indptr
    if np.any(indptr[1:] == indptr[:-1]) or np.any(low.indices[indptr[1:] - 1] != np.arange(n)):
        raise ValueError("matrix has a structurally zero diagonal entry")
    return low


def _column_blocks(low):
    """Yield the row-prefix gather index of ``low`` one block of columns at a time.

    For each strictly lower entry (i, j), taken column by column, the prefix
    of row i before it is [indptr[i], pos(i, j)).  A block of columns j0..j1-1
    is the tuple (j0, j1, pos, entry_ptr, gather, gather_ptr, segment): the CSR
    positions of its strictly lower entries with each column's offsets into
    them, the concatenated prefix positions with each column's offsets into
    them, and per gathered position the index of its entry within its column.
    """
    n = low.shape[0]
    indptr, cols = low.indptr, low.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    strict = np.flatnonzero(rows != cols)
    # stable: within a column the entries stay in increasing row order
    order = strict[np.argsort(cols[strict], kind="stable")]
    col_ptr = np.searchsorted(cols[order], np.arange(n + 1))
    lengths = order - indptr[rows[order]]
    cum = np.concatenate(([0], np.cumsum(lengths)))
    col_cum = cum[col_ptr]
    j0 = 0
    while j0 < n:
        j1 = max(int(np.searchsorted(col_cum, col_cum[j0] + _GATHER_CHUNK, side="right")) - 1, j0 + 1)
        e0, e1 = col_ptr[j0], col_ptr[j1]
        pos, lens = order[e0:e1], lengths[e0:e1]
        # ragged arange: entry t gathers indptr[i_t] .. pos_t - 1
        gather = np.arange(cum[e0], cum[e1]) - np.repeat(cum[e0:e1] - indptr[rows[pos]], lens)
        entry_ptr = col_ptr[j0 : j1 + 1] - e0
        first = np.repeat(entry_ptr[:-1], np.diff(entry_ptr))
        segment = np.repeat(np.arange(e1 - e0) - first, lens)
        yield j0, j1, pos, entry_ptr, gather, col_cum[j0 : j1 + 1] - cum[e0], segment
        j0 = j1


def _ic0_lower(low, sigma):
    """IC(0) of ``low`` + sigma*diag(``low``) on the sorted lower pattern ``low``."""
    n = low.shape[0]
    indptr, cols = low.indptr, low.indices
    avals = low.data.copy()
    diag = indptr[1:] - 1
    avals[diag] += sigma * avals[diag]
    lvals = np.zeros_like(avals)
    work = np.zeros(n)
    for j0, j1, pos, entry_ptr, gather, gather_ptr, segment in _column_blocks(low):
        gather_cols = cols[gather]
        for j in range(j0, j1):
            s, e = indptr[j], indptr[j + 1] - 1
            rc, rv = cols[s:e], lvals[s:e]
            pivot = avals[e] - float(rv @ rv)
            if pivot <= 0.0:
                raise _Breakdown
            ljj = math.sqrt(pivot)
            lvals[e] = ljj
            a, b = entry_ptr[j - j0], entry_ptr[j - j0 + 1]
            if a == b:
                continue
            g0, g1 = gather_ptr[j - j0], gather_ptr[j - j0 + 1]
            work[rc] = rv
            prod = lvals[gather[g0:g1]] * work[gather_cols[g0:g1]]
            sums = np.bincount(segment[g0:g1], weights=prod, minlength=b - a)
            p = pos[a:b]
            lvals[p] = (avals[p] - sums) / ljj
            work[rc] = 0.0
    return scipy.sparse.csr_matrix((lvals, cols, indptr), shape=(n, n))


def _factor(A, perm):
    """IC(0) of the CSR matrix A in the order perm, with shifted restarts."""
    Ap = A[perm][:, perm].tocsr()
    Ap.sort_indices()
    low = _lower_pattern(Ap)
    for sigma in _SHIFTS:
        try:
            L = _ic0_lower(low, sigma)
        except _Breakdown:
            continue
        return ICFactor(perm, L, sigma)
    raise ICBreakdownError("incomplete Cholesky broke down even with shift %g" % _SHIFTS[-1])


def ic0_setup(A):
    """IC(0) factorization of A after reverse Cuthill-McKee reordering.

    Args:
        A: SPD matrix in CSR format

    Returns:
        ICFactor

    Raises:
        ValueError: if a diagonal entry is structurally zero
        ICBreakdownError: if no shift up to 0.512 gives positive pivots
    """
    A = A.tocsr()
    return _factor(A, np.asarray(scipy.sparse.csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)))
