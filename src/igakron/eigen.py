"""Generalized symmetric-definite eigendecomposition and certified spectral brackets.

For a pencil (K, M) with both matrices SPD, the decomposition K U = M U diag(D)
is normalized so that U^T M U = I, which also gives U^{-T} U^{-1} = M and
U^{-T} diag(D) U^{-1} = K.  This is exactly what LAPACK's divide-and-conquer
driver for the generalized symmetric problem computes (Cholesky reduction of M
followed by a symmetric eigensolve), so we use it directly.

A bracket of the spectrum of M^{-1} K needs no eigenvalues: by Sylvester's
law of inertia K - s M is positive definite iff s < lambda_min, and M - K / s
iff s > lambda_max (Parlett, *The Symmetric Eigenvalue Problem*, ch. 3), so a
banded Cholesky factorization decides on which side of an end s lies.

A per-direction setup (a decomposition, a bracket, shifted factors) depends
on its pencil alone, so ``per_distinct_pencil`` runs it once for each pencil
that is distinct by value and shares the result among equal directions.
"""

import math

import numpy as np
import scipy.linalg

__all__ = ["PencilEigen", "generalized_eig", "extreme_eigs", "per_distinct_pencil"]

# relative width to which each end of the bracket is bisected
_BRACKET_RTOL = 1e-3


class PencilEigen:
    """Eigendecomposition of an SPD pencil: K U = M U diag(D), U^T M U = I.

    Attributes:
        U: dense (n, n) eigenvector matrix, columns ordered by ascending D
        D: eigenvalues, ascending, all positive
    """

    def __init__(self, U, D):
        self.U = U
        self.D = D


def _asdense(A):
    return A.toarray() if hasattr(A, "toarray") else np.asarray(A, dtype=float)


def generalized_eig(K, M):
    """Generalized eigendecomposition of the SPD pencil (K, M).

    Raises:
        scipy.linalg.LinAlgError: if M is not positive definite
        ValueError: if the computed spectrum is not strictly positive
    """
    Kd, Md = _asdense(K), _asdense(M)
    D, U = scipy.linalg.eigh(Kd, Md, driver="gvd")
    if D[0] <= 0.0:
        raise ValueError("pencil is not positive definite (min eigenvalue %g)" % D[0])
    return PencilEigen(U=U, D=D)


def _same_pencil(P, Q):
    # banded matrices compare by their bands, dense ones as they are
    return all(np.array_equal(getattr(A, "ab", A), getattr(B, "ab", B)) for A, B in zip(P, Q))


def per_distinct_pencil(fn, pencils):
    """``[fn(K, M) for K, M in pencils]``, calling fn once per distinct pencil.

    Two pencils are equal when their K bands and their M bands (dense K and
    M for dense pencils) have the same shape and entries.  A direction takes the result of the first
    direction whose pencil equals its own, so equal directions share one
    object: an isotropic cube costs one call.
    """
    out = []
    for i, pencil in enumerate(pencils):
        j = next((j for j in range(i) if _same_pencil(pencils[j], pencil)), i)
        out.append(out[j] if j < i else fn(*pencil))
    return out


def _definite(A):
    """Whether the symmetric banded matrix A has a Cholesky factorization."""
    try:
        scipy.linalg.cholesky_banded(A.ab)
    except scipy.linalg.LinAlgError:
        return False
    return True


def _bisect(inside, s, step):
    """A point where ``inside`` holds, found by scaling s by ``step``, then log-scale bisection."""
    out, s = s, s * step
    while not inside(s):
        out, s = s, s * step
    while abs(math.log(out / s)) > math.log1p(_BRACKET_RTOL):
        mid = math.sqrt(s * out)
        if inside(mid):
            s = mid
        else:
            out = mid
    return s


def extreme_eigs(K, M):
    """Certified bracket [a, b] of the spectrum of M^{-1} K for banded SPD K, M.

    K - a M and M - K / b factor, so a < lambda_min and b > lambda_max; each
    is within a relative _BRACKET_RTOL of a point that does not factor.  The
    search starts from the diagonal ratios K_ii / M_ii, which are Rayleigh
    quotients and so lie inside the spectrum.

    Raises:
        ValueError: if K or M is not positive definite
    """
    if not (_definite(K) and _definite(M)):
        raise ValueError("pencil matrices must be symmetric positive definite")
    ratios = K.ab[-1] / M.ab[-1]
    a = _bisect(lambda s: _definite(K.combine(-s, M)), ratios.min(), 0.5)
    b = _bisect(lambda s: _definite(M.combine(-1.0 / s, K)), ratios.max(), 2.0)
    return a, b
