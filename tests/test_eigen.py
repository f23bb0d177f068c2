import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from _dense import banded_from_dense
from _strategies import random_open_space

from igakron.assembly import assemble_pencil_1d
from igakron.banded import BandedSymMatrix
from igakron.bspline import SplineSpace1D
from igakron.eigen import _BRACKET_RTOL, extreme_eigs, generalized_eig


def random_banded_spd(rng, n, p):
    X = rng.standard_normal((n, n))
    A = X @ X.T + n * np.eye(n)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > p:
                A[i, j] = 0.0
    # keep definiteness after truncation
    A += n * np.eye(n)
    return banded_from_dense(A, p)


def check_invariants(K, M, pe, tol=1e-10):
    Kd = K.toarray()
    Md = M.toarray()
    res = np.linalg.norm(Kd @ pe.U - Md @ pe.U @ np.diag(pe.D)) / np.linalg.norm(Kd)
    assert res <= tol
    np.testing.assert_allclose(pe.U.T @ Md @ pe.U, np.eye(pe.D.size), atol=tol)
    assert (pe.D > 0).all()
    assert (np.diff(pe.D) >= -1e-12 * pe.D.max()).all()


def test_identity_pencil():
    I = banded_from_dense(np.eye(5), 0)
    pe = generalized_eig(I, I)
    np.testing.assert_allclose(pe.D, np.ones(5))
    np.testing.assert_allclose(pe.U.T @ pe.U, np.eye(5), atol=1e-12)


def test_linear_element_closed_form_eigenvalues():
    # uniform p=1 pencil has eigenvalues (6/h^2)(1-cos k pi h)/(2+cos k pi h)
    q = 8
    h = 1.0 / q
    s = SplineSpace1D.uniform(1, q)
    K, M = assemble_pencil_1d(s)
    pe = generalized_eig(K, M)
    k = np.arange(1, s.n + 1)
    want = (6.0 / h**2) * (1 - np.cos(k * np.pi * h)) / (2 + np.cos(k * np.pi * h))
    np.testing.assert_allclose(pe.D, np.sort(want), rtol=1e-10)
    check_invariants(K, M, pe)


def test_random_pencil_matches_dense_oracle():
    rng = np.random.default_rng(2)
    K = random_banded_spd(rng, 6, 2)
    M = random_banded_spd(rng, 6, 2)
    pe = generalized_eig(K, M)
    want = np.sort(scipy.linalg.eigvalsh(K.toarray(), M.toarray()))
    np.testing.assert_allclose(pe.D, want, rtol=1e-10)
    check_invariants(K, M, pe)


@pytest.mark.parametrize("p,q", [(1, 16), (3, 16), (2, 64)])
def test_reconstruction_identities(p, q):
    s = SplineSpace1D.uniform(p, q)
    K, M = assemble_pencil_1d(s)
    pe = generalized_eig(K, M)
    Uinv = np.linalg.inv(pe.U)
    Kd, Md = K.toarray(), M.toarray()
    assert np.linalg.norm(Uinv.T @ np.diag(pe.D) @ Uinv - Kd) / np.linalg.norm(Kd) < 1e-8
    assert np.linalg.norm(Uinv.T @ Uinv - Md) / np.linalg.norm(Md) < 1e-8


def test_extreme_eigs_proportional_pencil():
    s = SplineSpace1D.uniform(2, 10)
    _, M = assemble_pencil_1d(s)
    K2 = M.combine(1.0, M)  # K = 2M
    a, b = extreme_eigs(K2, M)
    assert abs(a - 2.0) < 0.12
    assert abs(b - 2.0) < 0.12
    assert a <= b


@pytest.mark.parametrize("p,q", [(1, 32), (2, 32), (3, 64)])
def test_extreme_eigs_bracket_contains_spectrum(p, q):
    s = SplineSpace1D.uniform(p, q)
    K, M = assemble_pencil_1d(s)
    a, b = extreme_eigs(K, M)
    pe = generalized_eig(K, M)
    assert a < pe.D[0]
    assert b > pe.D[-1]
    assert a <= pe.D[0] * 1.05 + 1e-12
    assert b >= pe.D[-1] * 0.95 - 1e-12


def test_extreme_eigs_condition_vs_dense():
    s = SplineSpace1D.uniform(1, 512)
    K, M = assemble_pencil_1d(s)
    a, b = extreme_eigs(K, M)
    pe = generalized_eig(K, M)
    kappa_true = pe.D[-1] / pe.D[0]
    assert abs(b / a - kappa_true) / kappa_true < 0.10


@settings(max_examples=60)
@given(space=random_open_space())
def test_extreme_eigs_certified_on_random_knots(space):
    # the bracket encloses the spectrum strictly and is tight to 2 * _BRACKET_RTOL
    K, M = assemble_pencil_1d(space)
    a, b = extreme_eigs(K, M)
    D = generalized_eig(K, M).D
    assert a < D[0] <= a * (1 + 2 * _BRACKET_RTOL)
    assert D[-1] < b <= D[-1] * (1 + 2 * _BRACKET_RTOL)


@pytest.mark.parametrize("which", ["K", "M"])
def test_extreme_eigs_rejects_indefinite_pencil(which):
    # an indefinite matrix never factors, so bisection would not end
    K, M = assemble_pencil_1d(SplineSpace1D.uniform(2, 12))
    bad = K.combine(-2.0 * K.ab[-1].max(), BandedSymMatrix(np.ones((1, K.n))))
    with pytest.raises(ValueError, match="positive definite"):
        extreme_eigs(bad, M) if which == "K" else extreme_eigs(K, bad)
