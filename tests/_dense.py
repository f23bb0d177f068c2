"""Dense-side helpers that only the tests need."""

import numpy as np

from igakron.banded import BandedSymMatrix
from igakron.kron import kron_matvec


def banded_from_dense(A, bandwidth):
    """BandedSymMatrix of the symmetric dense A, keeping ``bandwidth`` off-diagonals."""
    A = np.asarray(A, dtype=float)
    return BandedSymMatrix([np.pad(np.diagonal(A, k), (k, 0))[: len(A)] for k in range(bandwidth, -1, -1)])


def m_norm(pencils, v):
    """Mass norm sqrt(v^T (M1 (x) ... (x) Md) v)."""
    masses = [M for _, M in pencils]
    return float(np.sqrt(abs(np.dot(v, kron_matvec(masses, v)))))
