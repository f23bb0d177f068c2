import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from igakron.bspline import KnotVector, SplineSpace1D, basis_tables, uniform_knots


def hat_kv():
    return KnotVector([0.0, 0.0, 0.5, 1.0, 1.0], 1)


def full_tables(kv, points):
    """Dense (npts, m) value and derivative matrices from the nonzero tables."""
    spans, vals, ders = basis_tables(kv, points)
    rows = np.arange(len(spans))[:, None]
    cols = spans[:, None] - kv.p + np.arange(kv.p + 1)
    V = np.zeros((len(spans), kv.m))
    D = np.zeros((len(spans), kv.m))
    V[rows, cols] = vals
    D[rows, cols] = ders
    return V, D


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        KnotVector([0.0, 0.0, 1.0, 1.0], 1)  # m = p+1: no interior dof
    with pytest.raises(ValueError):
        KnotVector([0.0, 0.5, 1.0, 1.0, 1.0], 1)  # not open on the left
    with pytest.raises(ValueError):
        KnotVector([0.0, 0.0, 0.25, 0.25, 0.75, 1.0, 1.0], 1)  # mult 2 > p
    # multiplicity p is allowed (C^0 interior knot)
    KnotVector([0.0, 0.0, 0.0, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0], 2)


def test_find_span_hat():
    kv = hat_kv()
    spans, _, _ = basis_tables(kv, [0.25, 1.0, 0.5])
    # z = 1 goes to the last nonempty span [0.5, 1); a knot starts its span
    np.testing.assert_array_equal(spans, [1, 2, 2])
    z = np.linspace(0, 1, 23)
    spans, _, _ = basis_tables(kv, z)
    assert np.all(kv.knots[spans] <= z)
    assert np.all(z[:-1] < kv.knots[spans[:-1] + 1])
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            basis_tables(kv, [0.3, bad])


def test_hat_values_and_derivs():
    spans, vals, ders = basis_tables(hat_kv(), [0.25])
    assert spans[0] == 1
    np.testing.assert_allclose(vals[0], [0.5, 0.5])
    np.testing.assert_allclose(ders[0], [-2.0, 2.0])


def test_partition_of_unity_and_nonnegativity():
    rng = np.random.default_rng(1)
    z = np.concatenate(([0.0, 1.0], rng.random(50)))
    for p in range(1, 7):
        _, vals, ders = basis_tables(uniform_knots(p, 8), z)
        assert vals.min() >= -1e-14
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(ders.sum(axis=1), 0.0, rtol=0.0, atol=1e-10)


def test_local_support():
    p = 3
    kv = uniform_knots(p, 6)
    # function i is nonzero only on [knots[i], knots[i+p+1]]
    z = np.linspace(0.001, 0.999, 97)
    spans, _, _ = basis_tables(kv, z)
    i = spans[:, None] - p + np.arange(p + 1)
    assert np.all(kv.knots[i] <= z[:, None])
    assert np.all(z[:, None] <= kv.knots[i + p + 1])


def test_c1_continuity_at_interior_knot():
    kv = uniform_knots(2, 4)
    z0, h = 0.5, 1e-9
    (Vl, Vr), (Dl, Dr) = full_tables(kv, [z0 - h, z0 + h])
    np.testing.assert_allclose(Vl, Vr, atol=1e-7)
    np.testing.assert_allclose(Dl, Dr, atol=1e-5)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    for p in (1, 2, 4):
        kv = uniform_knots(p, 9)
        z = rng.uniform(0.01, 0.99, 100)
        _, D = full_tables(kv, z)
        fd = (full_tables(kv, z + step)[0] - full_tables(kv, z - step)[0]) / (2 * step)
        scale = np.maximum(1.0, np.abs(D).max(axis=1, keepdims=True))
        assert np.all(np.abs(D - fd) <= 1e-5 * scale)


@st.composite
def open_knots_and_points(draw):
    """Random open knot vector (interior multiplicity up to p) and points
    that include 0, 1, every breakpoint and random points."""
    p = draw(st.integers(1, 5))
    breaks = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True))
    breaks = np.unique(np.round(breaks, 6))
    mults = draw(st.lists(st.integers(1, p), min_size=breaks.size, max_size=breaks.size))
    knots = np.concatenate((np.zeros(p + 1), np.repeat(breaks, mults), np.ones(p + 1)))
    rand = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    points = np.concatenate(([0.0, 1.0], breaks, rand))
    return KnotVector(knots, p), points


@settings(max_examples=80)
@given(open_knots_and_points())
def test_tables_match_scipy_bspline(case):
    kv, z = case
    V, D = full_tables(kv, z)
    t, p = kv.knots, kv.p
    V_ref = BSpline.design_matrix(z, t, p).toarray()
    D_ref = BSpline(t, np.eye(kv.m), p).derivative()(z)
    np.testing.assert_allclose(V, V_ref, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(D, D_ref, rtol=1e-13, atol=1e-13 * np.abs(D_ref).max())


def test_spline_space_dof_count():
    s = SplineSpace1D.uniform(3, 8)
    assert s.m == 8 + 3
    assert s.n == s.m - 2
