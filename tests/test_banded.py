"""Reference tests for the banded kernels over random SPD bands.

The substitution solve is checked against LAPACK's banded Cholesky solve
(``scipy.linalg.cho_solve_banded`` on the same factor) and the CSR band
product against the dense product, for every right-hand side layout the
sweeps pass in: a vector, a C-order matrix, an F-order transposed view and a
non-contiguous column slice.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from igakron.banded import BandedSymMatrix

LAYOUTS = ("vector", "c_order", "f_view", "column_slice")


@st.composite
def spd_bands(draw):
    """Band storage of a strictly diagonally dominant SPD matrix, n in [1, 40], p in [0, 5]."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(0, 5))
    # the unused upper-left corner keeps its random values: the storage
    # convention leaves it unreferenced
    ab = draw(hnp.arrays(np.float64, (p + 1, n), elements=st.floats(-1.0, 1.0)))
    A = BandedSymMatrix(ab).toarray()
    # make every row dominated by its diagonal
    ab[p] = np.abs(A - np.diag(np.diag(A))).sum(axis=1) + 1.0 + np.abs(ab[p])
    return BandedSymMatrix(ab)


@st.composite
def right_hand_sides(draw, n):
    """A right-hand side with n rows in one of the four layouts."""
    layout = draw(st.sampled_from(LAYOUTS))
    m = draw(st.integers(1, 4))
    floats = st.floats(-1e3, 1e3)
    if layout == "vector":
        return draw(hnp.arrays(np.float64, n, elements=floats))
    if layout == "c_order":
        return draw(hnp.arrays(np.float64, (n, m), elements=floats))
    if layout == "f_view":
        return draw(hnp.arrays(np.float64, (m, n), elements=floats)).T
    return draw(hnp.arrays(np.float64, (n, 2 * m), elements=floats))[:, ::2]


@st.composite
def band_and_rhs(draw):
    A = draw(spd_bands())
    return A, draw(right_hand_sides(A.n))


def _scale(x):
    return max(float(np.abs(x).max(initial=0.0)), 1e-300)


@given(band_and_rhs())
def test_solve_matches_lapack_banded_solve(case):
    A, b = case
    b_before = b.copy()
    x = A.cholesky().solve(b)
    ref = scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(A.ab), False), b)
    assert x.shape == b.shape
    assert np.abs(x - ref).max(initial=0.0) <= 1e-12 * _scale(ref)
    np.testing.assert_array_equal(b, b_before)
    assert not np.shares_memory(x, b)


@given(band_and_rhs())
def test_matmat_matches_dense_product(case):
    A, B = case
    ref = A.toarray() @ B
    Y = A @ B
    assert Y.shape == ref.shape
    assert np.abs(Y - ref).max(initial=0.0) <= 1e-13 * _scale(np.abs(A.toarray()) @ np.abs(B))


@given(spd_bands(), st.floats(0.5, 10.0))
def test_non_spd_band_raises(A, margin):
    # shifting by more than the smallest eigenvalue leaves one negative eigenvalue
    lam_min = np.linalg.eigvalsh(A.toarray())[0]
    ab = A.ab.copy()
    ab[A.p] -= lam_min + margin
    with pytest.raises(scipy.linalg.LinAlgError):
        BandedSymMatrix(ab).cholesky()
