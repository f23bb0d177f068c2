"""Reference tests for the block-row banded kernels over random SPD bands.

The block solve is checked against LAPACK's banded Cholesky solve
(``scipy.linalg.cho_solve_banded`` on the same factor) and the block product
against the dense product, along every axis of 1-D to 3-D operands in four
layouts: C order, Fortran order, a transposed view and a strided slice.  The
order n runs over [1, 40], so orders below, at and between multiples of the
block size all occur, and so do orders not above the bandwidth.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from igakron.assembly import assemble_pencil_1d
from igakron.banded import BandedCholesky, BandedSymMatrix
from igakron.bspline import SplineSpace1D

LAYOUTS = ("c_order", "f_order", "transposed", "sliced")


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
def operands(draw, n):
    """An array of 1 to 3 dimensions with n entries along ``axis``, and the axis."""
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(0, ndim - 1))
    shape = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = n
    layout = draw(st.sampled_from(LAYOUTS))
    floats = st.floats(-1e3, 1e3)
    if layout == "transposed":
        perm = draw(st.permutations(range(ndim)))
        X = draw(hnp.arrays(np.float64, [shape[k] for k in perm], elements=floats)).transpose(np.argsort(perm))
    elif layout == "sliced":
        X = draw(hnp.arrays(np.float64, shape[:-1] + [2 * shape[-1]], elements=floats))[..., ::2]
    else:
        X = draw(hnp.arrays(np.float64, shape, elements=floats))
        if layout == "f_order":
            X = np.asfortranarray(X)
    return X, axis


@st.composite
def band_and_operand(draw):
    A = draw(spd_bands())
    return (A,) + draw(operands(A.n))


def _along(fn, X, axis):
    """fn applied to the columns of X's axis, the reference the kernels are checked against."""
    Xm = np.moveaxis(X, axis, 0)
    return np.moveaxis(fn(Xm.reshape(Xm.shape[0], -1)).reshape(Xm.shape), 0, axis)


def _check_result(Y, X, X_before):
    assert Y.shape == X.shape
    assert Y.flags.c_contiguous
    assert not np.shares_memory(Y, X)
    np.testing.assert_array_equal(X, X_before)


@given(band_and_operand())
def test_solve_matches_lapack_banded_solve(case):
    A, X, axis = case
    X_before = X.copy()
    factor = (scipy.linalg.cholesky_banded(A.ab), False)
    ref = _along(lambda B: scipy.linalg.cho_solve_banded(factor, B), X, axis)
    Y = BandedCholesky(A).solve(X, axis)
    _check_result(Y, X, X_before)
    assert np.abs(Y - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)
    # in place on a C-contiguous copy gives the same bits
    W = np.array(X, order="C")
    Z = BandedCholesky(A).solve(W, axis, overwrite_b=True)
    assert np.shares_memory(Z, W)
    np.testing.assert_array_equal(Z, Y)


@given(band_and_operand())
def test_matmat_matches_dense_product(case):
    A, X, axis = case
    X_before = X.copy()
    Ad = A.toarray()
    ref = _along(lambda B: Ad @ B, X, axis)
    scale = _along(lambda B: np.abs(Ad) @ np.abs(B), X, axis)
    Y = A.matmat(X, axis)
    _check_result(Y, X, X_before)
    assert np.all(np.abs(Y - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("p", [2, 3, 5, 8])
@pytest.mark.parametrize("h_inv", [64, 1024])
def test_solve_accurate_on_ill_conditioned_pencils(p, h_inv):
    # cond(K) reaches 3.3e5 at p = 8, 1/h = 1024; the explicit inverses of
    # the diagonal blocks must cost no accuracy against LAPACK's substitution
    rng = np.random.default_rng(p * h_inv)
    for A in assemble_pencil_1d(SplineSpace1D.uniform(p, h_inv)):
        b = rng.standard_normal((A.n, 3))
        ref = scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(A.ab), False), b)
        x = BandedCholesky(A).solve(b)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


@given(spd_bands(), st.floats(0.5, 10.0))
def test_non_spd_band_raises(A, margin):
    # shifting by more than the smallest eigenvalue leaves one negative eigenvalue
    lam_min = np.linalg.eigvalsh(A.toarray())[0]
    ab = A.ab.copy()
    ab[A.p] -= lam_min + margin
    with pytest.raises(scipy.linalg.LinAlgError):
        BandedCholesky(BandedSymMatrix(ab))
