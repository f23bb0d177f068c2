"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from igakron.bspline import SplineSpace1D


@st.composite
def random_open_space(draw, max_n=64, p=None):
    """Spline space over an open knot vector on a 1/64 grid, repeated interior knots, n <= max_n.

    The degree is ``p``, or drawn from 1..5 if it is None; ``max_n`` is at
    least 9, so every degree fits.
    """
    if p is None:
        p = draw(st.integers(1, 5))
    k = draw(st.integers(1, (max_n - 4) // p))
    breaks = sorted(draw(st.lists(st.integers(1, 63), min_size=k, max_size=k, unique=True)))
    mult = draw(st.lists(st.integers(1, p), min_size=k, max_size=k))
    interior = np.repeat(np.array(breaks) / 64.0, mult)
    return SplineSpace1D(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p)
