"""Preconditioned conjugate gradient driver with pluggable operators.

Operators are anything callable on a vector, or objects exposing ``apply`` or
``dot``/``@``.  A float64 CSR matrix is applied in row chunks on the
package's thread pool (``_pooled_csr_matvec``), bitwise as ``A @ x``.  The
recurred residual drives the stopping test; the true residual is recomputed
once at exit.  The CG coefficients are recorded so the spectrum of the
preconditioned operator can be estimated from the underlying Lanczos
tridiagonal matrix.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse import _sparsetools

from . import parallel

__all__ = ["PCGResult", "IndefiniteOperatorError", "pcg", "lanczos_condition_estimate"]


class IndefiniteOperatorError(RuntimeError):
    """Raised when CG detects a nonpositive curvature or preconditioner energy."""


def as_apply(op):
    """Normalize matrices / operator objects / callables to a callable."""
    if op is None:
        return lambda x: x
    if scipy.sparse.issparse(op) and op.format == "csr" and op.ndim == 2 and op.dtype == np.float64:
        return _pooled_csr_matvec(op)
    apply = getattr(op, "apply", None)
    if apply is not None and not isinstance(op, np.ndarray):
        return apply
    if callable(op) and not hasattr(op, "dot"):
        return op
    return lambda x: op @ x


def _pooled_csr_matvec(A):
    """``x -> A @ x`` for a float64 CSR matrix A, its rows dealt to the pool in chunks.

    The rows go in the ranges of ``parallel.each_range`` over the nnz of A,
    so the bounds depend on A alone.  Each range runs scipy's
    ``csr_matvec``, the kernel ``A @ x`` runs, on its slice of indptr and
    writes its rows of one zeroed y: every row sums in the same order, so
    the result is bitwise ``A @ x`` on any number of workers.  No row block
    of A is made: scipy would copy any block smaller than half its base
    array.  Other operands than a float64 vector take ``A @ x``.
    """
    M, N = A.shape

    def matvec(x):
        x = np.asarray(x)
        if x.dtype != np.float64 or x.shape != (N,):
            return A @ x
        y = np.zeros(M)

        def rows(lo, hi):
            _sparsetools.csr_matvec(hi - lo, N, A.indptr[lo : hi + 1], A.indices, A.data, x, y[lo:hi])

        parallel.each_range(M, A.nnz, rows)
        return y

    return matvec


class PCGResult:
    """Outcome of a PCG solve.

    Attributes:
        x: final iterate
        iterations: number of iterations performed
        residual_history: recurred relative residual after each iteration
        converged: whether the recurred residual met the tolerance
        true_residual: recomputed relative residual of x
        alphas, betas: CG coefficients (for the Lanczos estimate)
    """

    def __init__(self, x, iterations, residual_history, converged, true_residual, alphas, betas):
        self.x = x
        self.iterations = iterations
        self.residual_history = residual_history
        self.converged = converged
        self.true_residual = true_residual
        self.alphas = alphas
        self.betas = betas


def pcg(A, Pinv, b, tol=1e-8, maxit=500):
    """Solve A x = b by preconditioned conjugate gradients from x0 = 0.

    Args:
        A: SPD system operator
        Pinv: SPD preconditioner (applies an approximate inverse); None for CG
        b: right-hand side
        tol: relative Euclidean residual target
        maxit: iteration cap

    Raises:
        IndefiniteOperatorError: when p^T A p <= 0 or r^T z <= 0 is observed.
    """
    A_ = as_apply(A)
    P_ = as_apply(Pinv)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    history = []
    alphas, betas = [], []
    if bnorm == 0.0:
        return PCGResult(x, 0, history, True, 0.0, alphas, betas)

    r = b.copy()
    z = P_(r)
    rz = float(r @ z)
    if rz <= 0.0:
        raise IndefiniteOperatorError("preconditioner is not positive definite (r^T z <= 0)")
    p = z.copy()
    converged = False
    it = 0
    while it < maxit:
        Ap = A_(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise IndefiniteOperatorError("system operator is not positive definite (p^T A p <= 0)")
        alpha = rz / pAp
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * Ap
        it += 1
        relres = np.linalg.norm(r) / bnorm
        history.append(relres)
        if relres <= tol:
            converged = True
            break
        z = P_(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise IndefiniteOperatorError("preconditioner is not positive definite (r^T z <= 0)")
        beta = rz_new / rz
        betas.append(beta)
        rz = rz_new
        p = z + beta * p
    true_res = np.linalg.norm(b - A_(x)) / bnorm
    return PCGResult(x, it, history, converged, true_res, alphas, betas)


def lanczos_condition_estimate(result):
    """Condition number estimate of the preconditioned operator.

    Rebuilds the Lanczos tridiagonal matrix from the CG coefficients and
    returns the ratio of its extreme eigenvalues.  Needs at least two
    iterations; returns None otherwise.
    """
    k = len(result.alphas)
    if k < 2:
        return None
    alphas = np.asarray(result.alphas)
    betas = np.asarray(result.betas)
    diag = np.empty(k)
    diag[0] = 1.0 / alphas[0]
    diag[1:] = 1.0 / alphas[1:] + betas[: k - 1] / alphas[: k - 1]
    off = np.sqrt(betas[: k - 1]) / alphas[: k - 1]
    ev = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    lo, hi = ev[0], ev[-1]
    if lo <= 0.0:
        return None
    return float(hi / lo)
