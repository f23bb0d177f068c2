import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _dense import banded_from_dense, m_norm
from _strategies import random_open_space
from igakron import adi, bench, parallel
from igakron.adi import (
    ADIPreconditioner,
    adi_iteration_count,
    douglas_shifts_3d,
    greedy_shifts_3d,
    rho_prefix_3d,
    wachspress_shifts,
    _agm_dn,
    _best_shift,
    _douglas_factor,
    _geometric_ladder,
    _triple_arrays,
)
from igakron.assembly import BoundScreen, assemble_pencil_1d
from igakron.banded import BandedCholesky, BandedSymMatrix
from igakron.bspline import SplineSpace1D
from igakron.eigen import generalized_eig
from igakron.fd import fd_setup
from igakron.geometry import builtin
from igakron.kron import KroneckerSum


def pencils_for(p, q, d):
    spaces = [SplineSpace1D.uniform(p, q) for _ in range(d)]
    return [assemble_pencil_1d(s) for s in spaces]


def identity_pencils(n, d):
    I = banded_from_dense(np.eye(n), 0)
    return [(I, I)] * d


# ------------------------------------------------------------------ counts

def test_iteration_count_point_spectrum():
    # ln 4 * ln 40 / pi^2 ~ 0.518 -> one iteration
    assert adi_iteration_count(2.0, 2.0, 0.1) == 1


def test_iteration_count_square_benchmark():
    # p=1 pencil at h=1/512 has kappa ~ 3.2e5
    s = SplineSpace1D.uniform(1, 512)
    K, M = assemble_pencil_1d(s)
    pe = generalized_eig(K, M)
    J = adi_iteration_count(pe.D[0], pe.D[-1], 1e-8)
    assert abs(J - 29) <= 1


def test_iteration_count_guards():
    with pytest.raises(ValueError):
        adi_iteration_count(1.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        adi_iteration_count(-1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        adi_iteration_count(3.0, 2.0, 0.1)


# ------------------------------------------------------------------ 2D shifts

def test_wachspress_point_spectrum():
    lam = 3.7
    plan = wachspress_shifts(lam, lam, lam, lam, 1e-8)
    assert plan.J == 1
    np.testing.assert_allclose(plan.omegas, [lam])
    assert plan.bound <= 1e-12


def test_wachspress_1_100():
    plan = wachspress_shifts(1.0, 100.0, 1.0, 100.0, 1e-8)
    assert plan.J <= adi_iteration_count(1.0, 100.0, 1e-8) == 13
    assert plan.bound <= 1e-8
    # shifts lie inside the bracket and decrease strictly
    assert (plan.omegas >= 1.0 - 1e-9).all() and (plan.omegas <= 100.0 + 1e-9).all()
    assert (np.diff(plan.omegas) < 0).all()


def test_wachspress_bound_on_tensor_grid():
    # the certified bound holds on a dense tensor grid of the two brackets
    plan = wachspress_shifts(2.0, 500.0, 2.0, 500.0, 1e-6)
    lam = np.geomspace(2.0, 500.0, 1000)
    f = np.ones_like(lam)
    for w in plan.omegas:
        f *= np.abs((lam - w) / (lam + w))
    # the two directions share the bracket and the shifts
    assert f.max() * f.max() <= 1e-6


@pytest.mark.parametrize("kprime", [1.0, 0.9, 0.5, 0.1, 1e-3])
def test_agm_dn_matches_scipy(kprime):
    # kprime = 1 is k = 0, where the Landen descent takes no step and
    # dn(u, 0) = 1 (not cos u, which is cn(u, 0))
    for u in (0.0, 0.5, 1.0, 2.0):
        assert abs(_agm_dn(u, kprime) - scipy.special.ellipj(u, 1.0 - kprime**2)[2]) <= 1e-12


# ------------------------------------------------------------------ 2D solve

def test_single_shift_annihilates_point_spectrum():
    # K = lam * M: one sweep with omega = lam solves exactly
    s = SplineSpace1D.uniform(2, 8)
    _, M = assemble_pencil_1d(s)
    lam = 2.5
    K = M.combine(lam - 1.0, M)  # = lam * M
    pencils = [(K, M), (K, M)]
    plan = wachspress_shifts(lam, lam, lam, lam, 1e-8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(M.n * M.n)
    r = KroneckerSum(pencils).matvec(x)
    got = ADIPreconditioner(pencils, plan).apply(r)
    assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-10


@pytest.mark.parametrize("p,q", [(1, 64), (2, 33)])
def test_adi_solve_2d_reaches_tolerance(p, q):
    pencils = pencils_for(p, q, 2)
    P = KroneckerSum(pencils)
    eigs = [generalized_eig(K, M).D for K, M in pencils]
    plan = wachspress_shifts(eigs[0][0], eigs[0][-1], eigs[1][0], eigs[1][-1], 1e-8)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(P.n)
    r = P.matvec(x)
    got = ADIPreconditioner(pencils, plan).apply(r)
    err = m_norm(pencils, got - x) / m_norm(pencils, x)
    assert 1e-13 <= err <= 1e-8


def test_adi_matches_fd_within_tolerance():
    pencils = pencils_for(2, 34, 2)
    P = KroneckerSum(pencils)
    prec = fd_setup(P)
    eigs = [generalized_eig(K, M).D for K, M in pencils]
    plan = wachspress_shifts(eigs[0][0], eigs[0][-1], eigs[1][0], eigs[1][-1], 1e-8)
    rng = np.random.default_rng(2)
    r = rng.standard_normal(P.n)
    s_fd = prec.apply(r)
    s_adi = ADIPreconditioner(pencils, plan).apply(r)
    assert m_norm(pencils, s_adi - s_fd) <= 1e-8 * m_norm(pencils, s_fd)


# ------------------------------------------------------------------ 2D preconditioner operator

def test_adi_preconditioner_symmetry_definiteness_linearity():
    pencils = pencils_for(2, 10, 2)
    prec = ADIPreconditioner.setup(pencils, eps=0.1)
    rng = np.random.default_rng(3)
    N = KroneckerSum(pencils).n
    for _ in range(20):
        r, t = rng.standard_normal(N), rng.standard_normal(N)
        lhs, rhs = r @ prec.apply(t), t @ prec.apply(r)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        assert r @ prec.apply(r) > 0
        al, be = rng.standard_normal(2)
        left = prec.apply(al * r + be * t)
        right = al * prec.apply(r) + be * prec.apply(t)
        scale = np.linalg.norm(right)
        assert np.linalg.norm(left - right) <= 1e-10 * scale


# ------------------------------------------------------------------ 3D shifts

def test_point_spectrum_shift_minimizer():
    a = 1.0
    w, v = _best_shift(a, a, a, a / 10, 10 * a)
    # oracle: dense scan of the 1D objective
    grid = np.geomspace(a / 10, 10 * a, 200001)
    vals = np.abs(1.0 - 6.0 * grid**2 * a / (grid + a) ** 3)
    k = vals.argmin()
    assert abs(w - grid[k]) <= 2e-3 * grid[k]
    assert abs(v - vals.min()) <= 1e-6
    # the known optimum sits at w = 2a with value 1/9
    assert abs(w - 2.0) < 1e-3
    assert abs(v - 1.0 / 9.0) < 1e-6


def test_point_spectrum_plan():
    plan = douglas_shifts_3d([np.ones(1)] * 3, 0.2)
    assert plan.J == 1
    assert plan.bound <= 0.2
    np.testing.assert_allclose(plan.omegas, [2.0], rtol=1e-3)


def test_near_point_spectrum_plan():
    # one dof per direction with slightly different eigenvalues (p = 1 hats
    # with their knot at 32/64, 30/64, 28/64): one sweep contracts a
    # near-point spectrum by at best about 1/9, so eps = 0.1 needs two
    plan = douglas_shifts_3d([np.array([12.0]), np.array([12.047]), np.array([12.19])], 0.1)
    assert plan.J == plan.J0 == 2
    assert plan.bound <= 0.1


def test_rho_monotone_for_ladder():
    s = SplineSpace1D.uniform(2, 16)
    K, M = assemble_pencil_1d(s)
    D = generalized_eig(K, M).D
    plan = douglas_shifts_3d([D, D, D], 1e-6)
    rho = rho_prefix_3d(plan.omegas, [D, D, D])
    assert (np.diff(rho) <= 1e-12).all()
    assert rho[-1] == plan.bound <= 1e-6
    assert plan.J <= plan.J0


def test_one_shift_plan_when_one_shift_certifies():
    # p = 1, 1/h = 4 (n = 3): the ladder of one shift contracts by 0.494
    plan = ADIPreconditioner.setup_3d(pencils_for(1, 4, 3), eps=0.5).plan
    assert plan.J == 1
    assert plan.bound <= 0.5


@settings(max_examples=40)
@given(
    spaces=st.lists(random_open_space(max_n=24), min_size=3, max_size=3),
    eps=st.sampled_from([0.5, 0.1, 1e-2, 1e-4, 1e-6]),
)
def test_ladder_length_is_certified_and_one_shorter_is_not(spaces, eps):
    eigs = [generalized_eig(*assemble_pencil_1d(s)).D for s in spaces]
    lams, a, b = _triple_arrays(eigs, eps)
    # a point spectrum takes its own repeated shift, not the ladder
    assume(b > a * (1 + 1e-9))
    plan = douglas_shifts_3d(eigs, eps)
    assert plan.bound <= eps
    assert plan.bound == rho_prefix_3d(_geometric_ladder(a, 4 * b, plan.J), lams)[-1]
    if plan.J >= 2:
        assert rho_prefix_3d(_geometric_ladder(a, 4 * b, plan.J - 1), lams)[-1] > eps


def rho_full_grid(omegas, lams):
    """rho_prefix_3d's reference: the maximum over the whole Cartesian product."""
    L1, L2, L3 = np.ix_(*lams)
    P = np.ones((L1.size, L2.size, L3.size))
    out = []
    for w in omegas:
        P = P * (1.0 - 2.0 * w * w * (L1 + L2 + L3) / ((w + L1) * (w + L2) * (w + L3)))
        out.append(np.abs(P).max())
    return np.array(out)


def eigenvalue_array(size):
    """Positive values in [1, 1e3], repeats allowed, in no particular order."""
    pool = st.lists(st.floats(1.0, 1e3), min_size=1, max_size=size)
    return pool.flatmap(lambda v: st.lists(st.sampled_from(v), min_size=1, max_size=size)).map(np.array)


# Both 3D plans are evaluated on unordered triples of equal arrays only, and
# _TRIPLE_CAP stays 128 deliberately: a larger cap changes the plans for
# n > 128.  The greedy plan's bound is its running product on those triples,
# so it must be the full-grid maximum of its own shifts.
@pytest.mark.parametrize("layout", ["aaa", "aab", "aba", "baa", "abc"])
@settings(max_examples=40)
@given(data=st.data())
def test_symmetric_plan_matches_full_grid(layout, data):
    arrays = {c: data.draw(eigenvalue_array(40), label=c) for c in sorted(set(layout))}
    # equal by value, not by identity
    lams = [arrays[c].copy() for c in layout]
    omegas = np.geomspace(0.5, 4e3, data.draw(st.integers(1, 12), label="J"))
    ref = rho_full_grid(omegas, lams)
    np.testing.assert_allclose(rho_prefix_3d(omegas, lams), ref, rtol=1e-14, atol=0)
    eps = data.draw(st.sampled_from([0.3, 1e-3]), label="eps")
    plans = []
    for rho in (rho_prefix_3d, rho_full_grid):
        with mock.patch.object(adi, "rho_prefix_3d", rho):
            try:
                plans.append(douglas_shifts_3d(lams, eps))
            except ArithmeticError as err:
                # on a narrow spectrum the a-priori count J0 can fall short
                plans.append(str(err))
    J_max = 30
    greedy = greedy_shifts_3d(lams, J_max, eps)
    np.testing.assert_allclose(greedy.bound, rho_full_grid(greedy.omegas, lams)[-1], rtol=1e-14, atol=0)
    assert greedy.bound <= eps or greedy.J == J_max
    plan, ref_plan = plans
    if isinstance(ref_plan, str):
        assert plan == ref_plan
        return
    assert (plan.J, plan.J0) == (ref_plan.J, ref_plan.J0)
    assert np.array_equal(plan.omegas, ref_plan.omegas)
    np.testing.assert_allclose(plan.bound, ref_plan.bound, rtol=1e-14, atol=0)


def test_greedy_first_shift_degenerate():
    plan = greedy_shifts_3d([np.ones(1)] * 3, 5, 0.2)
    np.testing.assert_allclose(plan.omegas, [2.0], rtol=1e-3)
    assert plan.J == 1


def test_greedy_factors_below_one():
    # n = 199 > _TRIPLE_CAP: both plans see the same log-subsampled arrays,
    # and the greedy plan's bound is the ladder's contraction of its shifts
    s = SplineSpace1D.uniform(1, 200)
    K, M = assemble_pencil_1d(s)
    D = generalized_eig(K, M).D
    a, b = D[0], D[-1]
    plan = greedy_shifts_3d([D, D, D], 40, 1e-4)
    lams = [adi._subsample_log(D, adi._TRIPLE_CAP)] * 3
    assert plan.bound == rho_prefix_3d(plan.omegas, lams)[-1] <= 1e-4
    # every chosen shift damps its target triple
    lam = np.geomspace(a, b, 50)
    for w in plan.omegas:
        assert abs(_douglas_factor(w, lam[0], lam[0], lam[0])) < 1.0 + 1e-12


# ------------------------------------------------------------------ 3D solve

def test_identity_pencils_single_shift():
    pencils = identity_pencils(4, 3)
    plan = douglas_shifts_3d([np.ones(1)] * 3, 0.2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64)
    r = 3.0 * x  # P = 3I
    got = ADIPreconditioner(pencils, plan).apply(r)
    err = np.linalg.norm(got - x) / np.linalg.norm(x)
    # one sweep contracts by the certified factor, not to zero
    assert err <= plan.bound + 1e-12
    assert err > 1e-3


def test_adi_solve_3d_reaches_tolerance():
    pencils = pencils_for(2, 10, 3)
    P = KroneckerSum(pencils)
    prec = fd_setup(P)
    eigs = [generalized_eig(K, M).D for K, M in pencils]
    plan = douglas_shifts_3d(eigs, 1e-8)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(P.n)
    r = P.matvec(x)
    got = ADIPreconditioner(pencils, plan).apply(r)
    err = m_norm(pencils, got - x) / m_norm(pencils, x)
    assert err <= 1e-8
    s_fd = prec.apply(r)
    assert m_norm(pencils, got - s_fd) <= 1e-7 * m_norm(pencils, s_fd)


def test_v_recurrence_consistency():
    # the recurrence v_{j+1} = b_j - w_j s_j equals the direct definition
    pencils = pencils_for(1, 9, 3)
    eigs = [generalized_eig(K, M).D for K, M in pencils]
    plan = douglas_shifts_3d(eigs, 1e-2)
    (K1, M1), (K2, M2), (K3, M3) = pencils
    from igakron.adi import _Factors
    from igakron.kron import apply_along_axis

    rng = np.random.default_rng(6)
    n = K1.n
    R = rng.standard_normal((n, n, n))
    factors = _Factors(pencils, plan)
    plus, mass = factors.plus, factors.mass
    rt = 2.0 * mass[2].solve(mass[1].solve(R, 1), 2)
    s = np.zeros_like(R)
    v = np.zeros_like(R)
    for j, w in enumerate(plan.omegas):
        u = mass[1].solve(apply_along_axis(K2, s, 1), 1)
        rstar = rt - apply_along_axis(K1.combine(-w, M1), s, 0) - 2.0 * apply_along_axis(M1, u + v, 0)
        sstar = plus[0][j].solve(rstar, 0)
        rss = apply_along_axis(M2, u + w * sstar, 1)
        sss = plus[1][j].solve(rss, 1)
        bj = v + w * sss
        rj = apply_along_axis(M3, bj, 2)
        s = plus[2][j].solve(rj, 2)
        v = bj - w * s
        v_direct = mass[2].solve(apply_along_axis(K3, s, 2), 2)
        scale = max(1.0, np.abs(v_direct).max())
        assert np.abs(v - v_direct).max() <= 1e-10 * scale


def test_3d_stopping_soundness():
    # measured final error is below the certified contraction value
    pencils = pencils_for(1, 10, 3)
    P = KroneckerSum(pencils)
    eigs = [generalized_eig(K, M).D for K, M in pencils]
    plan = douglas_shifts_3d(eigs, 1e-3)
    rng = np.random.default_rng(7)
    prec = ADIPreconditioner(pencils, plan)
    for _ in range(20):
        x = rng.standard_normal(P.n)
        r = P.matvec(x)
        got = prec.apply(r)
        err = m_norm(pencils, got - x) / m_norm(pencils, x)
        assert err <= plan.bound * (1 + 1e-9)


def test_adi_preconditioner_3d_operator():
    pencils = pencils_for(1, 7, 3)
    prec = ADIPreconditioner.setup(pencils, eps=0.1)
    rng = np.random.default_rng(8)
    N = KroneckerSum(pencils).n
    r, t = rng.standard_normal(N), rng.standard_normal(N)
    lhs, rhs = r @ prec.apply(t), t @ prec.apply(r)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
    assert r @ prec.apply(r) > 0


# ------------------------------------------------------------------ random spaces

@st.composite
def random_pencils(draw, d):
    """Pencils of d uniform spline spaces with their own degree and span count."""
    spaces = []
    for _ in range(d):
        p = draw(st.integers(1, 3))
        spaces.append(SplineSpace1D.uniform(p, draw(st.integers(2, 24 if d == 2 else 8))))
    return [assemble_pencil_1d(s) for s in spaces]


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=30)
@given(data=st.data())
def test_adi_operator_symmetric_on_random_spaces(d, data):
    pencils = data.draw(random_pencils(d))
    prec = ADIPreconditioner.setup(pencils, eps=0.1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    N = KroneckerSum(pencils).n
    r, t = rng.standard_normal(N), rng.standard_normal(N)
    Pr, Pt = prec.apply(r), prec.apply(t)
    scale = np.linalg.norm(r) * np.linalg.norm(Pt) + np.linalg.norm(t) * np.linalg.norm(Pr)
    assert abs(r @ Pt - t @ Pr) <= 1e-10 * scale


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=60)
@given(data=st.data())
def test_adi_operator_spd_on_random_knots(d, data):
    # every direction its own open knot vector: p = 1..5, repeated interior knots
    max_n = 24 if d == 2 else 9
    spaces = [data.draw(random_open_space(max_n), label="space%d" % k) for k in range(d)]
    prec = ADIPreconditioner.setup([assemble_pencil_1d(s) for s in spaces], eps=0.1)
    # the dense operator, column by column
    W = np.column_stack([prec.apply(e) for e in np.eye(KroneckerSum(prec.pencils).n)])
    assert np.abs(W - W.T).max() <= 1e-10 * np.abs(W).max()
    assert np.linalg.eigvalsh(0.5 * (W + W.T))[0] > 0


# ------------------------------------------------------------------ 3D chunked sweep

# chunk sizes at which a 1/h = 16 cube (n = 17) runs many chunks on the
# pool, and one chunk inline
SMALL_CHUNK, HUGE_CHUNK = 2**9, 2**40


def cube_16():
    prec = ADIPreconditioner.setup(pencils_for(3, 16, 3), eps=0.1)
    return prec, np.random.default_rng(9).standard_normal(KroneckerSum(prec.pencils).n)


def test_chunked_3d_sweep_matches_one_chunk(monkeypatch):
    prec, r = cube_16()
    results = {}
    for chunk in (SMALL_CHUNK, HUGE_CHUNK):
        monkeypatch.setattr(parallel, "_CHUNK", chunk)
        cols, slabs = adi._columns(17, 17 * 17), parallel.ranges(17, 17**3)
        assert (len(cols) > 1 and len(slabs) > 1) == (chunk == SMALL_CHUNK)
        runs = [prec.apply(r) for _ in range(3)]
        assert all(np.array_equal(runs[0], x) for x in runs[1:])
        results[chunk] = runs[0]
    small, one = results[SMALL_CHUNK], results[HUGE_CHUNK]
    assert np.abs(small - one).max() <= 1e-13 * np.abs(one).max()


def whole_array_sweep_3d(pencils, r, plan):
    """The 3D Douglas sweeps in whole-array operations: the reference for the chunked apply.

    Builds its own factors from the pencils, direction by direction, and
    multiplies by the band 2 M1.
    """
    (K1, M1), (K2, M2), (K3, M3) = pencils
    m1_twice = BandedSymMatrix(2.0 * M1.ab)
    m2, m3 = BandedCholesky(M2), BandedCholesky(M3)
    rt = m3.solve(m2.solve(r.reshape(K1.n, K2.n, K3.n), 1), 2, overwrite_b=True)
    rt *= 2.0
    for j, w in enumerate(plan.omegas):
        row, col, dep = (BandedCholesky(K.combine(w, M)) for K, M in pencils)
        if j == 0:
            sstar = row.solve(rt)
            sstar *= w
        else:
            u = m2.solve(K2.matmat(s, 1), 1, overwrite_b=True)
            rstar = K1.combine(-w, M1).matmat(s, 0)
            np.subtract(rt, rstar, out=rstar)
            rstar -= m1_twice.matmat(u + v, 0)
            sstar = row.solve(rstar, overwrite_b=True)
            sstar *= w
            sstar += u
        bj = col.solve(M2.matmat(sstar, 1), 1, overwrite_b=True)
        bj *= w
        if j:
            bj += v
        s = dep.solve(M3.matmat(bj, 2), 2, overwrite_b=True)
        bj -= w * s
        v = bj
    return s.reshape(-1)


@pytest.mark.parametrize(
    "spans",
    [(16, 16, 16), (32, 32, 32), (8, 12, 16), (16, 8, 12), (4, 4, 16)],
    ids=["16", "32", "8-12-16", "16-8-12", "4-4-16"],
)
def test_one_chunk_apply_equals_whole_array_sweep(spans):
    # n = 17 and n = 33 (ring3d's size) fit in one chunk: the same arithmetic
    # as the whole-array sweep, bit for bit; many chunks agree to roundoff.
    # The isotropic cubes are p = 3; the others are p = 3, 2, 1 by direction,
    # so a direction taking another's factors shows
    degrees = (3, 3, 3) if len(set(spans)) == 1 else (3, 2, 1)
    pencils = [assemble_pencil_1d(SplineSpace1D.uniform(p, q)) for p, q in zip(degrees, spans)]
    prec = ADIPreconditioner.setup(pencils, eps=0.1)
    r = np.random.default_rng(12).standard_normal(KroneckerSum(pencils).n)
    ref = whole_array_sweep_3d(pencils, r, prec.plan)
    assert np.array_equal(prec.apply(r), ref)
    with mock.patch.object(parallel, "_CHUNK", 2**9):
        got = prec.apply(r)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize(
    "test",
    [
        test_adi_solve_3d_reaches_tolerance,
        test_v_recurrence_consistency,
        test_3d_stopping_soundness,
        test_adi_preconditioner_3d_operator,
    ],
)
def test_3d_adi_tests_pass_with_small_chunks(test, monkeypatch):
    monkeypatch.setattr(parallel, "_CHUNK", 2**6)
    test()


@pytest.mark.parametrize("test", [test_adi_operator_symmetric_on_random_spaces, test_adi_operator_spd_on_random_knots])
def test_3d_adi_properties_hold_with_small_chunks(test, monkeypatch):
    monkeypatch.setattr(parallel, "_CHUNK", 2**6)
    test(d=3)


def test_ring3d_sized_apply_runs_inline(monkeypatch):
    # n = 33 fits in one chunk: the apply never touches the pool
    prec = ADIPreconditioner.setup(pencils_for(3, 32, 3), eps=0.1)

    def no_pool():
        raise AssertionError("the pool was used")

    monkeypatch.setattr(parallel, "_pool", no_pool)
    got = prec.apply(np.random.default_rng(10).standard_normal(KroneckerSum(prec.pencils).n))
    assert np.all(np.isfinite(got))


def cube_32_in_small_chunks(monkeypatch):
    # n = 33 in 18 column chunks and 17 slabs: one full-size array (287 KB)
    # is more than the charge for the chunks and the bookkeeping
    monkeypatch.setattr(parallel, "_CHUNK", 2**11)
    prec = ADIPreconditioner.setup(pencils_for(3, 32, 3), eps=0.1)
    r = np.random.default_rng(11).standard_normal(KroneckerSum(prec.pencils).n)
    prec.apply(r)  # warm: the pool's threads are up
    charged = adi.adi_work_bytes_3d((33, 33, 33))
    assert 5 * 8 * r.size < charged < 6 * 8 * r.size
    return prec, r


def test_warm_3d_apply_peak_within_charged_bytes(monkeypatch, tracemalloc_peak):
    prec, r = cube_32_in_small_chunks(monkeypatch)
    assert tracemalloc_peak(prec.apply, r) <= adi.adi_work_bytes_3d((33, 33, 33))


def test_3d_apply_allocates_only_its_work_arrays_full_size(monkeypatch):
    # the sweeps allocate no full-size array: each stage's scratch is a few
    # chunks, and only the result is held after the apply
    prec, r = cube_32_in_small_chunks(monkeypatch)
    full = 8 * r.size
    each_chunk, stage_peaks = parallel._each_chunk, []

    def measured(work, chunks):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        each_chunk(work, chunks)
        stage_peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(parallel, "_each_chunk", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = prec.apply(r)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert got.size == r.size
    # the two mass solves of r~, then two stages per sweep
    assert len(stage_peaks) == 2 + 2 * prec.plan.J
    assert max(stage_peaks) < full / 2
    assert full <= held < full + full / 8


def test_traced_lookup_points_stay_on_the_calling_thread(monkeypatch):
    # the benchmark's tracer keeps one span stack, so every lookup point it
    # wraps must be called from the thread that runs the traced call; the
    # pool's workers run only untraced kernels.  The 3D ADI apply, the FD
    # apply, the Kronecker-sum product and the stiffness and load assembly
    # all deal chunks to the pool
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    monkeypatch.setattr(parallel, "_CHUNK", SMALL_CHUNK)
    prec, r = cube_16()
    ksum = KroneckerSum(prec.pencils)
    fd = fd_setup(ksum)
    geo = builtin("thick_quarter_ring")
    spaces = [SplineSpace1D.uniform(2, 8)] * 3
    tracer = tracing.Tracer()

    def call(name, fn, args, kwargs=None):
        calls.append((name, threading.get_ident()))
        return fn(*args, **(kwargs or {}))

    def each_chunk(work, chunks):
        def recorded(task, some):
            chunk_threads.add(threading.get_ident())
            return work(task, some)

        return deal(recorded, chunks)

    deal = parallel._each_chunk
    monkeypatch.setattr(tracer, "call", call)
    monkeypatch.setattr(parallel, "_each_chunk", each_chunk)
    # each call is looked up inside the traced block, where the tracer has wrapped the functions
    for run, spans in [
        (lambda: prec.apply(r), {"adi.apply", "banded.chol_solve"}),
        (lambda: fd.apply(r), {"fd.apply", "kron.kron_matvec", "kron.along_axis"}),
        (lambda: ksum.matvec(r), {"kron.ksum_matvec", "kron.along_axis", "banded.matmat"}),
        (lambda: bench.assemble_stiffness(spaces, geo, screen=BoundScreen()), {"assembly.stiffness", "geometry.eval_Q"}),
        (lambda: bench.assemble_load(spaces, geo, bench.poisson_source(3)), {"assembly.load"}),
    ]:
        calls, chunk_threads = [], set()
        with tracer.installed():
            run()
        assert spans <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        if len(os.sched_getaffinity(0)) > 1:
            assert chunk_threads - {threading.get_ident()}
