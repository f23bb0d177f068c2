import numpy as np
import pytest
import scipy.linalg

from igakron.assembly import assemble_pencil_1d, assemble_stiffness
from igakron.bspline import SplineSpace1D
from igakron.fd import fd_setup
from igakron.geometry import builtin, identity_map
from igakron.kron import KroneckerSum
from igakron.pcg import IndefiniteOperatorError, lanczos_condition_estimate, pcg


def test_exact_preconditioner_one_iteration():
    spaces = [SplineSpace1D.uniform(2, 8) for _ in range(2)]
    A = assemble_stiffness(spaces, identity_map(2))
    P = KroneckerSum([assemble_pencil_1d(s) for s in spaces])
    prec = fd_setup(P)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    res = pcg(A, prec, b, tol=1e-8)
    assert res.converged
    assert res.iterations == 1
    assert res.true_residual <= 2e-8


def test_unpreconditioned_diagonal_exact_in_n_steps():
    A = np.diag([1.0, 2.0, 3.0])
    b = np.ones(3)
    res = pcg(A, None, b, tol=1e-12, maxit=10)
    assert res.converged
    assert res.iterations <= 3
    np.testing.assert_allclose(res.x, b / np.diag(A), rtol=1e-10)


def test_residual_history_and_true_residual():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 40))
    A = X @ X.T + 40 * np.eye(40)
    b = rng.standard_normal(40)
    res = pcg(A, None, b, tol=1e-10, maxit=200)
    assert len(res.residual_history) == res.iterations
    assert res.converged
    assert res.residual_history[-1] <= 1e-10
    assert res.true_residual <= 2e-10


def test_indefinite_system_detected():
    A = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(IndefiniteOperatorError, match="system operator"):
        pcg(A, None, np.array([0.0, 1.0, 0.0]), tol=1e-8)


def test_indefinite_preconditioner_detected():
    A = np.eye(3)
    Pinv = lambda x: -x
    with pytest.raises(IndefiniteOperatorError, match="preconditioner"):
        pcg(A, Pinv, np.ones(3), tol=1e-8)


def test_nonconvergence_flag():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 60))
    A = X @ X.T + 1e-3 * np.eye(60)
    b = rng.standard_normal(60)
    res = pcg(A, None, b, tol=1e-14, maxit=3)
    assert not res.converged
    assert res.iterations == 3


def test_quarter_annulus_benchmark_count():
    # reference iteration window for this benchmark: 25 +- 5 at p=2, 1/h=128
    from igakron.assembly import assemble_load

    spaces = [SplineSpace1D.uniform(2, 128) for _ in range(2)]
    geo = builtin("quarter_annulus")
    A = assemble_stiffness(spaces, geo)
    b = assemble_load(spaces, geo, lambda x: 2 * (x[:, 0] ** 2 - x[:, 0]) + 2 * (x[:, 1] ** 2 - x[:, 1]))
    prec = fd_setup(KroneckerSum([assemble_pencil_1d(s) for s in spaces]))
    res = pcg(A, prec, b, tol=1e-8, maxit=200)
    assert res.converged
    assert 20 <= res.iterations <= 30


def test_determinism():
    spaces = [SplineSpace1D.uniform(2, 16) for _ in range(2)]
    A = assemble_stiffness(spaces, builtin("quarter_annulus"))
    P = KroneckerSum([assemble_pencil_1d(s) for s in spaces])
    prec = fd_setup(P)
    b = np.arange(A.shape[0], dtype=float)
    r1 = pcg(A, prec, b, tol=1e-8)
    r2 = pcg(A, prec, b, tol=1e-8)
    assert r1.iterations == r2.iterations
    np.testing.assert_array_equal(r1.x, r2.x)


def test_lanczos_estimate_identity():
    A = np.eye(12)
    res = pcg(A, None, np.ones(12), tol=1e-14, maxit=20)
    # converges in one iteration: estimate unavailable, treated as 1 by caller
    assert res.iterations == 1
    assert lanczos_condition_estimate(res) is None


def test_lanczos_estimate_matches_dense_condition():
    spaces = [SplineSpace1D.uniform(2, 12) for _ in range(2)]
    A = assemble_stiffness(spaces, builtin("quarter_annulus"))
    P = KroneckerSum([assemble_pencil_1d(s) for s in spaces])
    prec = fd_setup(P)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(A.shape[0])
    res = pcg(A, prec, b, tol=1e-12, maxit=300)
    est = lanczos_condition_estimate(res)
    Pd = P.toarray()
    ev = scipy.linalg.eigvalsh(A.toarray(), Pd)
    kappa = ev[-1] / ev[0]
    assert est is not None
    assert kappa / 2 <= est <= kappa * 2
