import numpy as np
import pytest

from _dense import banded_from_dense
from igakron.kron import KroneckerSum, kron_matvec


def random_spd(rng, n):
    X = rng.standard_normal((n, n))
    return X @ X.T + n * np.eye(n)


def dense_kron(mats):
    out = mats[0]
    for A in mats[1:]:
        out = np.kron(out, A)
    return out


def test_identity_matvec():
    x = np.arange(12.0)
    I3, I4 = np.eye(3), np.eye(4)
    np.testing.assert_allclose(kron_matvec([I3, I4], x), x)


def test_matvec_matches_dense_2d():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.eye(2)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(kron_matvec([A, B], x), dense_kron([A, B]) @ x)


def test_matvec_matches_dense_3_factors():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((n, n)) for n in (3, 4, 5)]
    x = rng.standard_normal(60)
    got = kron_matvec(mats, x)
    want = dense_kron(mats) @ x
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        kron_matvec([np.eye(3), np.eye(3)], np.zeros(8))


def test_nesting_order_consistency():
    # contracting axis 0 first or axis 1 first must agree
    rng = np.random.default_rng(11)
    A, B = rng.standard_normal((6, 6)), rng.standard_normal((5, 5))
    x = rng.standard_normal(30)
    X = x.reshape(6, 5)
    left_first = (A @ X @ B.T).ravel()
    right_first = ((B @ (A @ X).T).T).ravel()
    got = kron_matvec([A, B], x)
    np.testing.assert_allclose(got, left_first, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(got, right_first, rtol=1e-13, atol=1e-13)


def test_kron_solve_singular_factor_raises():
    import scipy.linalg

    from igakron.banded import BandedCholesky

    singular = banded_from_dense(np.diag([1.0, 0.0, 1.0]), 0)
    with pytest.raises(scipy.linalg.LinAlgError):
        BandedCholesky(singular)


def test_kronecker_sum_identity_factors():
    I = np.eye(3)
    P = KroneckerSum([(I, I), (I, I)])
    x = np.arange(9.0)
    np.testing.assert_allclose(P.matvec(x), 2 * x)


def test_kronecker_sum_matches_dense_3d():
    rng = np.random.default_rng(9)
    factors = []
    for _ in range(3):
        K = random_spd(rng, 4)
        M = random_spd(rng, 4)
        factors.append((K, M))
    P = KroneckerSum(factors)
    x = rng.standard_normal(64)
    np.testing.assert_allclose(P.matvec(x), P.toarray() @ x, rtol=1e-12, atol=1e-10)


def test_kronecker_sum_symmetry_and_definiteness():
    rng = np.random.default_rng(13)
    factors = [(random_spd(rng, 5), random_spd(rng, 5)) for _ in range(2)]
    P = KroneckerSum(factors)
    for _ in range(100):
        x = rng.standard_normal(P.n)
        y = rng.standard_normal(P.n)
        sx, sy = P.matvec(x), P.matvec(y)
        denom = max(abs(x @ sy), abs(y @ sx))
        assert abs(x @ sy - y @ sx) <= 1e-12 * denom
        assert x @ sx > 0


def test_kronecker_sum_with_banded_factors():
    rng = np.random.default_rng(17)
    D = random_spd(rng, 6)
    # make it banded with bandwidth 2
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 2:
                D[i, j] = 0.0
    Kb = banded_from_dense(D, 2)
    Mb = banded_from_dense(np.diag(np.arange(1.0, 7.0)), 0)
    P = KroneckerSum([(Kb, Mb), (Kb, Mb)])
    x = rng.standard_normal(36)
    Pd = KroneckerSum([(D, Mb.toarray()), (D, Mb.toarray())])
    np.testing.assert_allclose(P.matvec(x), Pd.matvec(x), rtol=1e-12, atol=1e-12)
