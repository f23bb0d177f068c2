"""Fast diagonalization: a direct solver for the Kronecker-sum operator.

With per-direction eigendecompositions K_l U_l = M_l U_l diag(D_l) normalized
by U_l^T M_l U_l = I, the Kronecker sum factorizes as

    P = (U_1 (x) ... (x) U_d)^{-T} diag(D_1 (+) ... (+) D_d) (U (x) ...)^{-1},

so a solve is: multiply by the transposed eigenvector Kronecker factor, scale
by the precomputed reciprocal eigenvalue sums, multiply back.  Setup is done
once, with one eigendecomposition per distinct pencil: directions with equal
pencils share it.  The first product reads the eigenvectors through U.T
views, so each is held once.  Both products run on the package's thread
pool (``kron.apply_along_axis``).  Applications are pure and reentrant.
"""

import numpy as np

from .eigen import generalized_eig, per_distinct_pencil
from .kron import kron_matvec

__all__ = ["FDPreconditioner", "fd_setup"]


class FDPreconditioner:
    """Exact inverse of a Kronecker sum via fast diagonalization.

    Attributes:
        eigs: per-direction PencilEigen (one object for equal directions)
        inv_diag: reciprocal of the additively combined eigenvalues, length N
    """

    def __init__(self, eigs):
        self.eigs = list(eigs)
        diag = self.eigs[0].D
        for pe in self.eigs[1:]:
            diag = np.add.outer(diag, pe.D)
        diag = diag.reshape(-1)
        if diag.min() <= 0.0:
            raise ValueError("combined eigenvalue sums must be positive")
        self.inv_diag = 1.0 / diag
        self._U = [pe.U for pe in self.eigs]

    def apply(self, r):
        rt = kron_matvec([U.T for U in self._U], r)
        rt *= self.inv_diag
        return kron_matvec(self._U, rt)


def fd_setup(P):
    """Build the fast-diagonalization solver for a KroneckerSum."""
    return FDPreconditioner(per_distinct_pencil(generalized_eig, P.factors))
