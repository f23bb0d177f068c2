import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import random_open_space

from igakron import adi, fd
from igakron.adi import ADIPreconditioner
from igakron.assembly import assemble_pencil_1d, assemble_stiffness
from igakron.banded import BandedSymMatrix
from igakron.bspline import KnotVector, SplineSpace1D
from igakron.eigen import generalized_eig
from igakron.fd import fd_setup
from igakron.geometry import identity_map
from igakron.kron import KroneckerSum


def pencil_ksum(p, q, d):
    spaces = [SplineSpace1D.uniform(p, q) for _ in range(d)]
    return KroneckerSum([assemble_pencil_1d(s) for s in spaces])


def identity_ksum(n, d):
    I = BandedSymMatrix.from_dense(np.eye(n), 0)
    return KroneckerSum([(I, I)] * d)


def test_identity_factors_diag():
    P = identity_ksum(4, 2)
    prec = fd_setup(P)
    np.testing.assert_allclose(prec.diag, 2.0 * np.ones(16))
    r = np.arange(16.0)
    np.testing.assert_allclose(prec.apply(r), r / 2.0)


def test_diag_is_all_pairwise_sums():
    rng = np.random.default_rng(0)

    def random_spd_banded(n):
        X = rng.standard_normal((n, n))
        return BandedSymMatrix.from_dense(X @ X.T + n * np.eye(n), n - 1)

    K1, M1 = random_spd_banded(4), random_spd_banded(4)
    K2, M2 = random_spd_banded(4), random_spd_banded(4)
    P = KroneckerSum([(K1, M1), (K2, M2)])
    prec = fd_setup(P)
    import scipy.linalg

    D1 = np.sort(scipy.linalg.eigvalsh(K1.toarray(), M1.toarray()))
    D2 = np.sort(scipy.linalg.eigvalsh(K2.toarray(), M2.toarray()))
    want = np.sort(np.add.outer(D1, D2).ravel())
    np.testing.assert_allclose(np.sort(prec.diag), want, rtol=1e-9)


def test_diag_triple_sums_3d():
    P = pencil_ksum(2, 5, 3)
    prec = fd_setup(P)
    D = [pe.D for pe in prec.eigs]
    want = (D[0][:, None, None] + D[1][None, :, None] + D[2][None, None, :]).ravel()
    np.testing.assert_allclose(prec.diag, want, rtol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_fd_exactness(p, d):
    qs = {2: 34, 3: 10}[d]
    P = pencil_ksum(p, qs, d)
    prec = fd_setup(P)
    rng = np.random.default_rng(p + 10 * d)
    for _ in range(5):
        r = rng.standard_normal(P.n)
        s = prec.apply(r)
        assert np.linalg.norm(P.matvec(s) - r) / np.linalg.norm(r) <= 1e-8


def test_fd_matches_dense_solve_of_identity_geometry():
    p, q = 2, 10
    spaces = [SplineSpace1D.uniform(p, q) for _ in range(2)]
    A = assemble_stiffness(spaces, identity_map(2)).toarray()
    P = KroneckerSum([assemble_pencil_1d(s) for s in spaces])
    prec = fd_setup(P)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(P.n)
    s_dense = np.linalg.solve(A, r)
    np.testing.assert_allclose(prec.apply(r), s_dense, rtol=1e-9, atol=1e-12)


def test_fd_apply_is_symmetric_operator():
    P = pencil_ksum(3, 8, 2)
    prec = fd_setup(P)
    rng = np.random.default_rng(9)
    r, t = rng.standard_normal(P.n), rng.standard_normal(P.n)
    lhs = r @ prec.apply(t)
    rhs = t @ prec.apply(r)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))


# directions of each example, from a space a, a copy a2 of it, its warp b
# (the same n and multiplicities, other knots) and an independent space c
LAYOUTS = {
    2: [("a", "a2"), ("a", "b"), ("a", "c")],
    3: [("a", "b", "a2"), ("a", "a2", "c"), ("c", "a", "b"), ("a", "b", "c")],
}


@settings(max_examples=40)
@given(data=st.data())
def test_fd_matches_dense_solve_on_random_knots(data):
    d = data.draw(st.sampled_from([2, 3]), label="d")
    max_n = 24 if d == 2 else 9
    a, c = data.draw(random_open_space(max_n), label="a"), data.draw(random_open_space(max_n), label="c")
    pool = {
        "a": a,
        "a2": SplineSpace1D(KnotVector(a.kv.knots.copy(), a.p)),
        "b": SplineSpace1D(KnotVector(a.kv.knots**2, a.p)),
        "c": c,
    }
    spaces = [pool[k] for k in data.draw(st.sampled_from(LAYOUTS[d]), label="layout")]
    P = KroneckerSum([assemble_pencil_1d(s) for s in spaces])
    prec = fd_setup(P)
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal(P.n)
    ref = np.linalg.solve(P.toarray(), r)
    assert np.linalg.norm(prec.apply(r) - ref) <= 1e-9 * np.linalg.norm(ref)
    # equal spaces share one eigendecomposition; a and b, of the same n, do not
    for i, j in itertools.combinations(range(d), 2):
        assert (prec.eigs[i] is prec.eigs[j]) == (spaces[i] == spaces[j])


@pytest.mark.parametrize("spans, calls", [((8, 8, 8), 1), ((8, 16, 8), 2)])
def test_one_eigendecomposition_per_distinct_pencil(spans, calls, monkeypatch):
    # p = 2 has n = spans, so the second case has sizes (n, 2n, n)
    pencils = [assemble_pencil_1d(SplineSpace1D.uniform(2, q)) for q in spans]
    seen = []
    counting = lambda K, M: seen.append(K.n) or generalized_eig(K, M)
    monkeypatch.setattr(fd, "generalized_eig", counting)
    monkeypatch.setattr(adi, "generalized_eig", counting)
    fd_setup(KroneckerSum(pencils))
    assert len(seen) == calls
    ADIPreconditioner.setup(pencils, eps=0.1)
    assert len(seen) == 2 * calls
