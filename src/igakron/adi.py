"""Alternating-direction-implicit solvers for the Kronecker-sum operator.

2D uses the Peaceman-Rachford sweep with the classical elliptic-function
(Zolotarev/Wachspress) optimal shifts; the iteration count for tolerance eps
on a spectral bracket [a, b] is J = ceil(ln(4 b/a) ln(4/eps) / pi^2), and the
realized contraction bound is always re-evaluated numerically.  3D uses the
Douglas three-sweep scheme with a geometric shift ladder sized by the
contraction function

    rho_J = max |prod_j (1 - 2 w_j^2 (l1+l2+l3) / ((w_j+l1)(w_j+l2)(w_j+l3)))|

over eigenvalue triples.  rho is symmetric in (l1, l2, l3), so among
directions with equal eigenvalue arrays only unordered triples are
evaluated: about a sixth of the Cartesian product when all three are equal.
The 2D plan takes the certified brackets of ``extreme_eigs``, the 3D plan
the pencils' eigenvalues.  Every bracket, eigendecomposition and shifted
factor is computed once per distinct pencil (``per_distinct_pencil``) and
shared by the equal directions.  With a zero initial guess and a fixed plan,
a J-sweep application is a fixed symmetric positive definite operator, so
it is a valid CG preconditioner; the conditioning penalty is
(1+eps)/(1-eps).

``ADIPreconditioner(pencils, plan)`` is the one place that builds the
banded factors of a plan; ``adi_solve_2d``/``adi_solve_3d`` take them as an
argument.  ``greedy_shifts_3d`` is a second 3D plan, which alternates
between maximizing the current error product over the bracket cube and
minimizing the new factor at the maximizer; it is printed by
``igakron shifts --strategy greedy`` and compared with the ladder by
acceptance criterion 9, and the preconditioner runs the ladder.
"""

import math

import numpy as np
import scipy.optimize

from .banded import BandedSymMatrix
from .eigen import extreme_eigs, generalized_eig, per_distinct_pencil
from .kron import apply_along_axis, kron_matvec

__all__ = [
    "ShiftPlan2D",
    "ShiftPlan3D",
    "adi_iteration_count",
    "wachspress_shifts",
    "adi_bound_2d",
    "adi_solve_2d",
    "rho_prefix_3d",
    "douglas_shifts_3d",
    "greedy_shifts_3d",
    "adi_solve_3d",
    "ADIPreconditioner",
    "m_norm",
]


# ---------------------------------------------------------------------------
# shift counts and elliptic machinery

def adi_iteration_count(a, b, eps):
    """A-priori Peaceman-Rachford iteration count for a bracket [a, b]."""
    if not (0.0 < a <= b):
        raise ValueError("need 0 < a <= b")
    if not (0.0 < eps < 1.0):
        raise ValueError("tolerance must lie in (0, 1)")
    return max(1, math.ceil(math.log(4.0 * b / a) * math.log(4.0 / eps) / math.pi**2))


def _agm_complete_elliptic(kprime):
    """K(k) with k = sqrt(1 - kprime^2), by the arithmetic-geometric mean."""
    a, b = 1.0, float(kprime)
    for _ in range(80):
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _agm_dn(u, kprime):
    """Jacobi dn(u, k) with k = sqrt(1 - kprime^2), by Landen descent."""
    if kprime < 1e-9:
        return 1.0 / math.cosh(u)
    k = math.sqrt(max(0.0, (1.0 - kprime) * (1.0 + kprime)))
    av, bv, cv = [1.0], [kprime], [k]
    for _ in range(80):
        if abs(cv[-1]) <= 1e-17 * av[-1]:
            break
        an, bn = av[-1], bv[-1]
        av.append(0.5 * (an + bn))
        bv.append(math.sqrt(an * bn))
        cv.append(0.5 * (an - bn))
    N = len(av) - 1
    phi = [0.0] * (N + 1)
    phi[N] = (2.0**N) * av[N] * u
    for i in range(N, 0, -1):
        s = cv[i] / av[i] * math.sin(phi[i])
        phi[i - 1] = 0.5 * (phi[i] + math.asin(max(-1.0, min(1.0, s))))
    if N == 0:
        return math.cos(phi[0])
    return math.cos(phi[0]) / math.cos(phi[1] - phi[0])


def _elliptic_shifts(a, b, J):
    """The J optimal one-interval shifts b * dn((2j-1) K / (2J), k)."""
    kp = a / b
    K = _agm_complete_elliptic(kp)
    return np.array([b * _agm_dn((2 * j - 1) * K / (2 * J), kp) for j in range(1, J + 1)])


class ShiftPlan2D:
    """Shift plan for the 2D sweep.

    Attributes:
        J: number of double sweeps
        omegas: per-sweep shifts, the same in both directions
        bound: numerically realized contraction bound (<= requested eps)
    """

    def __init__(self, J, omegas, bound):
        self.J = J
        self.omegas = np.asarray(omegas, dtype=float)
        self.bound = bound


def _one_sided_sup(shifts, interval):
    """sup over the interval of prod_j |x - shifts_j| / (x + shifts_j), on 20001 log-spaced points."""
    lo, hi = interval
    if hi <= lo * (1 + 1e-14):
        x = np.array([lo])
    else:
        x = np.geomspace(lo, hi, 20001)
    logp = np.zeros_like(x)
    for w in shifts:
        logp += np.log(np.abs(x - w) + 1e-300) - np.log(x + w)
    return float(np.exp(logp.max()))


def adi_bound_2d(omegas, interval1, interval2):
    """Contraction bound of the 2D sweep, evaluated numerically.

    The two-variable maximum factors into two one-variable suprema, which are
    evaluated on dense logarithmic grids.
    """
    return _one_sided_sup(omegas, interval1) * _one_sided_sup(omegas, interval2)


def wachspress_shifts(a, b, c, d, eps):
    """Optimal 2D shift plan for pencil spectra in [a, b] and [c, d].

    The construction uses the classical elliptic recipe on the enclosing
    interval (the two brackets coincide in all benchmark cases); the realized
    contraction bound is evaluated numerically and must meet eps, with one
    round-off fallback that adds a sweep.
    """
    if not (0.0 < a <= b and 0.0 < c <= d):
        raise ValueError("brackets must be positive")
    if not (0.0 < eps < 1.0):
        raise ValueError("tolerance must lie in (0, 1)")
    lo, hi = min(a, c), max(b, d)
    if hi <= lo * (1 + 1e-12):
        shifts = np.array([lo])
        return ShiftPlan2D(1, shifts, adi_bound_2d(shifts, (a, b), (c, d)))
    J = adi_iteration_count(lo, hi, eps)
    for _ in range(3):
        shifts = _elliptic_shifts(lo, hi, J)
        bound = adi_bound_2d(shifts, (a, b), (c, d))
        if bound <= eps:
            return ShiftPlan2D(J, shifts, bound)
        J += 1
    raise ArithmeticError("shift construction failed to reach the requested bound")


# ---------------------------------------------------------------------------
# 2D sweep

def _shifted_factors(K, M, plan):
    """The factors of K + w M for the shifts w of the plan."""
    return [K.combine(w, M).cholesky() for w in plan.omegas]


class _Sweep2DFactors:
    """Banded factorizations and negatively shifted bands for a fixed 2D plan."""

    def __init__(self, pencils, plan):
        self.row, self.col = per_distinct_pencil(lambda K, M: _shifted_factors(K, M, plan), pencils)
        self.row_minus, self.col_minus = per_distinct_pencil(
            lambda K, M: [K.combine(-w, M) for w in plan.omegas], pencils
        )
        self.m1 = pencils[0][1].cholesky()


def adi_solve_2d(pencils, r, plan, factors):
    """Run the 2D double sweeps for the Kronecker-sum system P s = r.

    Works in the transformed variables (mass-scaled halves), so each sweep
    costs two banded multiplications and two banded solves; the mass of
    direction 1 is solved off at the end.  The initial guess is zero.
    Direction 2 works along axis 1 of the (n1, n2) array, and every solve
    but the first runs in place on its right-hand side.  ``factors`` are
    the plan's _Sweep2DFactors.
    """
    (K1, _), (K2, _) = pencils
    R = np.asarray(r, dtype=float).reshape(K1.n, K2.n)
    for j in range(plan.J):
        # the zero initial guess leaves R as the first right-hand side
        Rj = R if j == 0 else R - factors.col_minus[j].matmat(St, axis=1)
        Sh = factors.row[j].solve(Rj, overwrite_b=j > 0)
        Rj2 = R - factors.row_minus[j].matmat(Sh)
        St = factors.col[j].solve(Rj2, axis=1, overwrite_b=True)
    return factors.m1.solve(St, overwrite_b=True).reshape(-1)


# ---------------------------------------------------------------------------
# 3D contraction function and shift selection

def _douglas_factor(w, l1, l2, l3):
    return 1.0 - 2.0 * w * w * (l1 + l2 + l3) / ((w + l1) * (w + l2) * (w + l3))


# eigenvalues per direction on whose Cartesian triples the 3D plan is checked
_TRIPLE_CAP = 128


def _subsample_log(values, cap):
    values = np.sort(np.asarray(values, dtype=float))
    if values.size <= cap:
        return values
    idx = np.unique(np.round(np.geomspace(1, values.size, cap)).astype(int) - 1)
    return values[idx]


def _unordered_triples(lams):
    """The eigenvalue triples that rho must be evaluated on, one flat array per direction.

    rho is symmetric in (l1, l2, l3), so of the Cartesian product of the
    three arrays only triples distinct up to that symmetry are needed.  The
    directions are visited with equal arrays next to each other, and within
    such a group the indices are kept non-decreasing: n(n+1)(n+2)/6 triples
    when all three arrays are equal, the full product when none are.  Each
    triple keeps its values in direction order, so it is evaluated as the
    product grid evaluates it.
    """
    group = [next(i for i in range(3) if np.array_equal(lams[i], l)) for l in lams]
    order = sorted(range(3), key=group.__getitem__)
    idx, size = {}, 1
    for prev, d in zip([None] + order, order):
        # extend each index tuple so far by every index from lo to n - 1
        same = prev is not None and group[prev] == group[d]
        lo = idx[prev] if same else np.zeros(size, dtype=np.intp)
        counts = lams[d].size - lo
        start = np.cumsum(counts) - counts
        idx = {k: np.repeat(i, counts) for k, i in idx.items()}
        idx[d] = np.arange(counts.sum()) - np.repeat(start - lo, counts)
        size = idx[d].size
    return [lams[d][idx[d]] for d in range(3)]


def rho_prefix_3d(omegas, lams):
    """Per-prefix contraction values of the 3D sweep on eigenvalue triples.

    The maximum over the Cartesian product of ``lams`` is taken over its
    triples distinct up to the symmetry of rho (_unordered_triples).

    Args:
        omegas: shift sequence
        lams: three per-direction eigenvalue arrays (or surrogate grids)

    Returns:
        array rho with rho[j-1] = contraction bound after j sweeps.
    """
    L1, L2, L3 = _unordered_triples(lams)
    S = L1 + L2 + L3
    P = np.ones(S.size)
    den, f = np.empty_like(S), np.empty_like(S)
    out = np.empty(len(omegas))
    for j, w in enumerate(omegas):
        # P *= 1 - 2 w^2 S / ((w + L1) (w + L2) (w + L3)), in place
        np.add(w, L1, out=den)
        den *= np.add(w, L2, out=f)
        den *= np.add(w, L3, out=f)
        np.multiply(2.0 * w * w, S, out=f)
        f /= den
        np.subtract(1.0, f, out=f)
        P *= f
        out[j] = max(P.max(), -P.min())
    return out


class ShiftPlan3D:
    """Shift plan for the 3D sweep.

    Attributes:
        J0: a-priori iteration bound 1.16 ln(b/a) ln(1/eps), at least the
            count ln(eps) / ln(1/9) of a point spectrum
        omegas: the J shifts actually used
        J: effective sweep count (rho_values[-1] <= eps)
        rho_values: per-prefix contraction values of the final shift sequence
    """

    def __init__(self, J0, omegas, rho_values):
        self.J0 = J0
        self.omegas = np.asarray(omegas, dtype=float)
        self.J = len(self.omegas)
        self.rho_values = np.asarray(rho_values, dtype=float)


def _geometric_ladder(lo, hi, J):
    return hi * (lo / hi) ** ((2 * np.arange(1, J + 1) - 1) / (2 * J))


def _golden_min(f, xlo, xhi, iters=200, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = xhi - phi * (xhi - xlo)
    d = xlo + phi * (xhi - xlo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            xhi, d, fd = d, c, fc
            c = xhi - phi * (xhi - xlo)
            fc = f(c)
        else:
            xlo, c, fc = c, d, fd
            d = xlo + phi * (xhi - xlo)
            fd = f(d)
        if xhi - xlo < tol:
            break
    x = 0.5 * (xlo + xhi)
    return x, f(x)


def _best_point_shift(a):
    """Shift minimizing |1 - 6 w^2 a / (w + a)^3| for a point spectrum."""
    x, v = _golden_min(lambda t: abs(_douglas_factor(math.exp(t), a, a, a)), math.log(a / 10), math.log(10 * a))
    return math.exp(x), v


def douglas_shifts_3d(eigs, eps):
    """Geometric-ladder shift plan for the 3D sweep.

    ``eigs`` holds the eigenvalues of each direction's pencil (or surrogate
    grids of a bracket [a, b]); a and b are their extremes.  The ladder spans
    [a, 4b] (the top padding protects the corner triple (b, b, b), which is
    otherwise the slowest-damped point) and its length is the smallest J whose
    complete contraction value meets eps, capped by the a-priori bound J0.
    The contraction is evaluated on the triples of the eigenvalues,
    log-subsampled to _TRIPLE_CAP per direction, that are distinct up to the
    symmetry of rho: unordered triples among directions whose subsampled
    arrays are equal (rho_prefix_3d).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("tolerance must lie in (0, 1)")
    lams = [_subsample_log(e, _TRIPLE_CAP) for e in eigs]
    a = min(l.min() for l in lams)
    b = max(l.max() for l in lams)
    if not a > 0.0:
        raise ValueError("eigenvalues must be positive")

    if b <= a * (1 + 1e-9):
        w, v = _best_point_shift(a)
        J = max(1, math.ceil(math.log(eps) / math.log(max(v, 1e-300))))
        omegas = np.full(J, w)
        rho = rho_prefix_3d(omegas, lams)
        J0 = max(1, J)
        return ShiftPlan3D(J0, omegas, rho)

    # a near-point spectrum contracts like a point, by at best 1/9 a sweep,
    # so J0 is at least the point count; on a wide spectrum the log term is larger
    J_point = math.ceil(math.log(eps) / math.log(1.0 / 9.0))
    J0 = max(1, J_point, math.ceil(1.16 * math.log(b / a) * math.log(1.0 / eps)))
    lo_J, hi_J = 1, J0

    def ladder(J):
        return _geometric_ladder(a, 4.0 * b, J)

    rho = rho_prefix_3d(ladder(hi_J), lams)
    if rho[-1] > eps:
        raise ArithmeticError("a-priori shift count does not certify the tolerance")
    # bisect the smallest certified ladder length
    while lo_J + 1 < hi_J:
        mid = (lo_J + hi_J) // 2
        rho_mid = rho_prefix_3d(ladder(mid), lams)
        if rho_mid[-1] <= eps:
            hi_J, rho = mid, rho_mid
        else:
            lo_J = mid
    return ShiftPlan3D(J0, ladder(hi_J), rho)


def _maximize_error_product(omegas, a, b, rng, ngrid=32, nrandom=24):
    """eq-greedy maximization of the current error product over the bracket cube."""
    la, lb = math.log(a), math.log(b)

    def prod_abs(l1, l2, l3):
        out = np.ones_like(np.asarray(l1, dtype=float) + l2 + l3)
        for w in omegas:
            out *= _douglas_factor(w, l1, l2, l3)
        return np.abs(out)

    def neg_sq(x):
        l = np.exp(x)
        v = prod_abs(l[0], l[1], l[2])
        return -float(v * v)

    g = np.geomspace(a, b, ngrid)
    vals = prod_abs(g[:, None, None], g[None, :, None], g[None, None, :])
    top = np.argsort(vals.ravel())[-6:]
    seeds = [np.log(np.array([g[i], g[j], g[k]])) for i, j, k in (np.unravel_index(t, vals.shape) for t in top)]
    seeds += [np.array([u, v, w]) for u in (la, lb) for v in (la, lb) for w in (la, lb)]
    seeds += [rng.uniform(la, lb, 3) for _ in range(nrandom)]

    best_v, best_x = -1.0, None
    for x0 in seeds:
        res = scipy.optimize.minimize(neg_sq, x0, method="L-BFGS-B", bounds=[(la, lb)] * 3, options={"maxiter": 60})
        v = math.sqrt(max(0.0, -res.fun))
        if v > best_v:
            best_v, best_x = v, res.x
    return np.exp(best_x), best_v


def greedy_shifts_3d(a, b, J_max, eps, seed=0):
    """Greedy 3D shift selection.

    Alternates between finding the triple that maximizes the current error
    product over the bracket cube (multistart local search seeded from a
    coarse grid, the 8 corners, and 24 random points) and choosing the next
    shift as the minimizer of the new factor at that triple (golden section
    on the logarithmic shift axis).  Stops when the maximized product meets
    eps or after J_max shifts.
    """
    if not (0.0 < a <= b):
        raise ValueError("need 0 < a <= b")
    if J_max < 1:
        raise ValueError("J_max must be >= 1, got %r" % (J_max,))
    rng = np.random.default_rng(seed)
    omegas = []
    rho_values = []
    for _ in range(J_max):
        if b <= a * (1 + 1e-9):
            lstar, val = np.array([a, a, a]), (
                abs(np.prod([_douglas_factor(w, a, a, a) for w in omegas])) if omegas else 1.0
            )
        else:
            lstar, val = _maximize_error_product(omegas, a, b, rng)
        if omegas:
            rho_values.append(val)
        if val <= eps:
            break
        x, _ = _golden_min(
            lambda t: abs(_douglas_factor(math.exp(t), lstar[0], lstar[1], lstar[2])),
            math.log(a / 10.0),
            math.log(10.0 * b),
        )
        omegas.append(math.exp(x))
    else:
        # J_max reached: record the final residual value
        if b <= a * (1 + 1e-9):
            val = abs(np.prod([_douglas_factor(w, a, a, a) for w in omegas]))
        else:
            _, val = _maximize_error_product(omegas, a, b, rng)
        rho_values.append(val)
    return ShiftPlan3D(J_max, np.asarray(omegas), np.asarray(rho_values))


# ---------------------------------------------------------------------------
# 3D sweep

class _Sweep3DFactors:
    """Banded factorizations and negatively shifted bands for a fixed 3D plan."""

    def __init__(self, pencils, plan):
        K1, M1 = pencils[0]
        self.m2, self.m3 = per_distinct_pencil(lambda K, M: M.cholesky(), pencils[1:])
        self.row, self.col, self.dep = per_distinct_pencil(lambda K, M: _shifted_factors(K, M, plan), pencils)
        self.row_minus = [K1.combine(-w, M1) for w in plan.omegas]
        # 2 M1, which scales every product by 2 exactly
        self.m1_twice = BandedSymMatrix(2.0 * M1.ab)


def adi_solve_3d(pencils, r, plan, factors):
    """Run the 3D Douglas sweeps for P s = r with zero initial guess.

    Implements the rearranged per-sweep updates in which the two mass-scaled
    products u_j and v_j are formed once, and v is advanced by the recurrence
    v_{j+1} = b_j - w_j s_j instead of a fresh solve.  Every solve but the
    two that must keep their right-hand side runs in place on the product it
    follows, and the updates are made in place on the arrays the solves
    return, in the same order of operations as the formulas.  ``factors``
    are the plan's _Sweep3DFactors.
    """
    (K1, _), (K2, M2), (K3, M3) = pencils
    R = np.asarray(r, dtype=float).reshape(K1.n, K2.n, K3.n)
    rt = factors.m3.solve(factors.m2.solve(R, 1), 2, overwrite_b=True)
    rt *= 2.0
    for j, w in enumerate(plan.omegas):
        if j == 0:
            # zero initial guess: s = v = u = 0 and r* = rt
            sstar = factors.row[0].solve(rt)
            sstar *= w
        else:
            u = factors.m2.solve(apply_along_axis(K2, s, 1), 1, overwrite_b=True)
            # r* = rt - (K1 - w M1) s - 2 M1 (u + v)
            rstar = apply_along_axis(factors.row_minus[j], s, 0)
            np.subtract(rt, rstar, out=rstar)
            rstar -= apply_along_axis(factors.m1_twice, u + v, 0)
            # u + w s*
            sstar = factors.row[j].solve(rstar, overwrite_b=True)
            sstar *= w
            sstar += u
            # free what the rest of the sweep does not read: it then holds
            # at most 7 full-size arrays
            del u, rstar
        # b_j = v + w s**
        bj = factors.col[j].solve(apply_along_axis(M2, sstar, 1), 1, overwrite_b=True)
        del sstar
        bj *= w
        if j:
            bj += v
        s = factors.dep[j].solve(apply_along_axis(M3, bj, 2), 2, overwrite_b=True)
        # v = b_j - w s
        bj -= w * s
        v = bj
    return s.reshape(-1)


# ---------------------------------------------------------------------------
# fixed-plan preconditioner

class ADIPreconditioner:
    """Fixed sweep count applied as the inexact inverse of the Kronecker sum.

    The plan and all shifted factorizations are computed once at setup, so the
    operator is identical across CG iterations, symmetric, and positive
    definite.
    """

    def __init__(self, pencils, plan):
        self.pencils = pencils
        self.plan = plan
        self.d = len(pencils)
        self._factors = (_Sweep2DFactors if self.d == 2 else _Sweep3DFactors)(pencils, plan)
        self.n = int(np.prod([K.n for K, _ in pencils]))

    shape = property(lambda self: (self.n, self.n))

    @classmethod
    def setup_2d(cls, pencils, eps=0.1):
        (a1, b1), (a2, b2) = per_distinct_pencil(extreme_eigs, pencils)
        return cls(pencils, wachspress_shifts(a1, b1, a2, b2, eps))

    @classmethod
    def setup_3d(cls, pencils, eps=0.1):
        eigs = [pe.D for pe in per_distinct_pencil(generalized_eig, pencils)]
        return cls(pencils, douglas_shifts_3d(eigs, eps))

    @classmethod
    def setup(cls, pencils, eps=0.1):
        """The preconditioner for 2 or 3 pencils."""
        if len(pencils) == 2:
            return cls.setup_2d(pencils, eps)
        if len(pencils) == 3:
            return cls.setup_3d(pencils, eps)
        raise ValueError("only 2D and 3D pencils are supported")

    def apply(self, r):
        if self.d == 2:
            return adi_solve_2d(self.pencils, r, self.plan, self._factors)
        return adi_solve_3d(self.pencils, r, self.plan, self._factors)

    __call__ = apply


def m_norm(pencils, v):
    """Mass norm sqrt(v^T (M1 (x) ... (x) Md) v)."""
    masses = [M for _, M in pencils]
    return float(np.sqrt(abs(np.dot(v, kron_matvec(masses, v)))))
