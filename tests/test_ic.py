import numpy as np
import pytest
import scipy.sparse

from igakron.assembly import assemble_stiffness
from igakron.bspline import SplineSpace1D
from igakron.geometry import builtin
from igakron import ic
from igakron.ic import ICBreakdownError, _factor, ic0_setup


def annulus_matrix(p, q):
    spaces = [SplineSpace1D.uniform(p, q) for _ in range(2)]
    return assemble_stiffness(spaces, builtin("quarter_annulus"))


def test_diagonal_matrix_exact_sqrt():
    A = scipy.sparse.diags([4.0, 9.0, 16.0]).tocsr()
    f = _factor(A, np.arange(A.shape[0]))
    np.testing.assert_allclose(f.L.toarray(), np.diag([2.0, 3.0, 4.0]))
    np.testing.assert_allclose(f.apply(np.array([4.0, 9.0, 16.0])), np.ones(3))


def test_dense_pattern_equals_exact_cholesky():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 3))
    Ad = X @ X.T + 3 * np.eye(3)
    A = scipy.sparse.csr_matrix(Ad)
    f = _factor(A, np.arange(A.shape[0]))
    np.testing.assert_allclose(f.L.toarray(), np.linalg.cholesky(Ad), rtol=1e-12)


def test_residual_vanishes_on_pattern():
    A = annulus_matrix(2, 10)
    f = ic0_setup(A)
    Ap = A[f.perm][:, f.perm].tocsr()
    R = (Ap - f.L @ f.L.T).tocsr()
    Lpat = f.L.tocoo()
    vals = np.asarray(R[Lpat.row, Lpat.col]).ravel()
    assert np.abs(vals).max() <= 1e-10 * np.abs(Ap.data).max()


def test_rcm_is_bijection_and_recovers_banded_structure():
    A = annulus_matrix(2, 12)
    f = ic0_setup(A)
    assert np.array_equal(np.sort(f.perm), np.arange(A.shape[0]))

    def bandwidth(M):
        C = M.tocoo()
        return int(np.abs(C.row - C.col).max())

    # RCM cannot always beat the lexicographic tensor ordering (it runs its
    # level sets diagonally), but it must recover a band from a scrambled
    # matrix of the same graph
    rng = np.random.default_rng(0)
    scramble = rng.permutation(A.shape[0])
    As = A[scramble][:, scramble].tocsr()
    fs = ic0_setup(As)
    Ap = As[fs.perm][:, fs.perm]
    assert bandwidth(Ap) <= bandwidth(As)
    assert bandwidth(Ap) <= 2 * bandwidth(A)


def test_apply_symmetry():
    A = annulus_matrix(2, 8)
    f = ic0_setup(A)
    rng = np.random.default_rng(1)
    r, t = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
    lhs, rhs = r @ f.apply(t), t @ f.apply(r)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_quarter_annulus_benchmark_iteration_window():
    # reference iteration window for this benchmark: 65 +- 15 at p=2, 1/h=128
    from igakron.assembly import assemble_load
    from igakron.pcg import pcg

    spaces = [SplineSpace1D.uniform(2, 128) for _ in range(2)]
    geo = builtin("quarter_annulus")
    A = assemble_stiffness(spaces, geo)
    b = assemble_load(spaces, geo, lambda x: 2 * (x[:, 0] ** 2 - x[:, 0]) + 2 * (x[:, 1] ** 2 - x[:, 1]))
    f = ic0_setup(A)
    res = pcg(A, f, b, tol=1e-8, maxit=500)
    assert res.converged
    assert 50 <= res.iterations <= 80


def test_shift_restart_on_indefinite_leaning_matrix():
    # an M-matrix-violating SPD matrix whose IC(0) breaks down: force the
    # shifted restart path by dropping entries that keep pivots positive
    A = np.array(
        [
            [1.0, 0.9, 0.0, 0.9],
            [0.9, 1.0, 0.9, 0.0],
            [0.0, 0.9, 1.0, 0.9],
            [0.9, 0.0, 0.9, 1.0],
        ]
    )
    A = A + 1.4 * np.eye(4)  # SPD overall
    f = _factor(scipy.sparse.csr_matrix(A), np.arange(len(A)))
    assert f.shift >= 0.0
    x = f.apply(np.ones(4))
    assert np.all(np.isfinite(x))


def test_shift_restart_reaches_positive_pivots():
    # SPD (min eigenvalue 0.214) but IC(0) breaks down unshifted; the shift
    # ladder 1e-3, 2e-3, ... first succeeds at 0.032
    A = np.array(
        [
            [2.441, -0.34, -2.919, 0.0, -2.624],
            [-0.34, 3.356, 1.947, 0.0, 0.0],
            [-2.919, 1.947, 11.097, -1.746, 0.0],
            [0.0, 0.0, -1.746, 1.671, 3.386],
            [-2.624, 0.0, 0.0, 3.386, 11.383],
        ]
    )
    assert np.linalg.eigvalsh(A).min() > 0.2
    f = _factor(scipy.sparse.csr_matrix(A), np.arange(len(A)))
    assert f.shift == 0.032
    B = A + f.shift * np.diag(np.diag(A))
    L = f.L.toarray()
    assert np.abs((B - L @ L.T)[L != 0]).max() <= 1e-14 * np.abs(B).max()


def test_indefinite_matrix_raises_breakdown_naming_last_shift():
    A = scipy.sparse.csr_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
    with pytest.raises(ICBreakdownError, match="shift 0.512"):
        _factor(A, np.arange(A.shape[0]))


def test_structurally_zero_diagonal_fails_at_setup():
    A = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="structurally zero diagonal"):
        _factor(A, np.arange(A.shape[0]))


def _dense_ic0(B, pattern):
    """Textbook right-looking IC(0): Cholesky with updates dropped off ``pattern``."""
    L = np.tril(B) * pattern
    n = len(L)
    for k in range(n):
        L[k, k] = np.sqrt(L[k, k])
        L[k + 1 :, k] /= L[k, k]
        L[k + 1 :, k + 1 :] -= np.tril(np.outer(L[k + 1 :, k], L[k + 1 :, k])) * pattern[k + 1 :, k + 1 :]
    return L


@pytest.mark.parametrize("chunk", [None, 1, 7, 100])
@pytest.mark.parametrize("ordering", ["rcm", "none", "scrambled"])
@pytest.mark.parametrize("p", [2, 3])
def test_factor_and_apply_match_dense_reference(p, ordering, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(ic, "_GATHER_CHUNK", chunk)
    A = annulus_matrix(p, 10)
    if ordering == "scrambled":
        scramble = np.random.default_rng(p).permutation(A.shape[0])
        A = A[scramble][:, scramble].tocsr()
    f = ic0_setup(A) if ordering == "rcm" else _factor(A, np.arange(A.shape[0]))
    Ap = A[f.perm][:, f.perm].tocsr()
    pattern = scipy.sparse.tril(Ap).toarray() != 0
    Bd = Ap.toarray() + f.shift * np.diag(Ap.diagonal())
    Lref = _dense_ic0(Bd, pattern)
    Ld = f.L.toarray()
    assert np.array_equal(Ld != 0, pattern)
    assert np.abs(Ld - Lref).max() <= 1e-13 * np.abs(Lref).max()
    r = np.random.default_rng(0).standard_normal(A.shape[0])
    x = np.empty_like(r)
    x[f.perm] = np.linalg.solve(Lref @ Lref.T, r[f.perm])
    assert np.abs(f.apply(r) - x).max() <= 1e-12 * np.abs(x).max()
