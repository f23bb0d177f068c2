"""Alternating-direction-implicit solvers for the Kronecker-sum operator.

2D uses the Peaceman-Rachford sweep with the classical elliptic-function
(Zolotarev/Wachspress) optimal shifts; the iteration count for tolerance eps
on a spectral bracket [a, b] is J = ceil(ln(4 b/a) ln(4/eps) / pi^2), and the
realized contraction bound is always re-evaluated numerically.  3D uses the
Douglas three-sweep scheme with a geometric shift ladder sized by the
contraction function

    rho_J = max |prod_j (1 - 2 w_j^2 (l1+l2+l3) / ((w_j+l1)(w_j+l2)(w_j+l3)))|

over eigenvalue triples; the ladder is the shortest that meets eps, found
by one bisection on its length.  rho is symmetric in (l1, l2, l3), so among
directions with equal eigenvalue arrays only unordered triples are
evaluated: about a sixth of the Cartesian product when all three are equal.
The 2D plan takes the certified brackets of ``extreme_eigs``, the 3D plans
the pencils' eigenvalues.  Every bracket and eigendecomposition is computed
once per distinct pencil (``per_distinct_pencil``) and shared by the equal
directions, and so is the one banded set-up of a plan (``_Factors``), which
both sweeps read by direction index: for each shift w the Cholesky factor
of K + w M and the band K - w M, and the Cholesky factor of M.  With a zero
initial guess and a fixed plan, a J-sweep application is a fixed symmetric
positive definite operator, so it is a valid CG preconditioner; the
conditioning penalty is (1+eps)/(1-eps).

The 3D apply allocates its five full-size work arrays once per call and
runs each Douglas sweep as two stages over chunks of about
``parallel._CHUNK`` doubles, small enough for a core's L2 cache, dealt to
the package's pool.  Stage A takes column chunks of the (n1, n2 n3) view,
``_CHUNK // n1`` wide (other widths move the bits, docs/decisions.md): it
gathers one input at a time into contiguous per-task buffers and does the
direction-1 work (the residual r*, the direction-1 solve, the scaling by w
and the addition of u), writing s*.  Stage B takes slabs of whole
i1-planes, which are contiguous, in ``parallel.ranges``, and does the
direction-2 and direction-3 work in place in the work arrays: their solves,
the recurrence for v and the next sweep's u.  An array that fits in one
chunk is swept inline in whole-array operations.  The workers call only
``banded.along``, on the factors' block lists and on the band block lists
that the apply takes before its stages, so every function that
``perfbench/tracing.py`` wraps is called from the calling thread.

``ADIPreconditioner(pencils, plan)`` is the one place that builds the
banded set-up of a plan; ``adi_solve_2d``/``adi_solve_3d`` take it as an
argument.  ``greedy_shifts_3d`` is a second 3D plan on the ladder's
eigenvalue triples, which repeatedly takes the triple with the largest
error product and chooses the shift that best damps it there; its bound is
the ladder's rho_prefix_3d of its shifts.  It is printed by
``igakron shifts --strategy greedy`` and compared with the ladder by
acceptance criterion 9, and the preconditioner runs the ladder.
"""

import functools
import math

import numpy as np

from . import parallel
from .banded import BandedCholesky, along
from .eigen import extreme_eigs, generalized_eig, per_distinct_pencil

__all__ = [
    "ShiftPlan",
    "adi_iteration_count",
    "wachspress_shifts",
    "adi_solve_2d",
    "rho_prefix_3d",
    "douglas_shifts_3d",
    "greedy_shifts_3d",
    "adi_solve_3d",
    "adi_work_bytes_3d",
    "ADIPreconditioner",
]


# ---------------------------------------------------------------------------
# shift counts and elliptic machinery

def _check_bracket(a, b, eps):
    """Refuse a spectral bracket [a, b] unless 0 < a <= b < inf, and a tolerance outside (0, 1); NaN fails too."""
    if not 0.0 < a <= b < math.inf:
        raise ValueError("a spectral bracket [a, b] needs 0 < a <= b < inf, got [%g, %g]" % (a, b))
    if not 0.0 < eps < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")


class ShiftPlan:
    """Shift plan of the 2D or 3D sweep.

    Attributes:
        omegas: the per-sweep shifts, the same in every direction
        J: number of sweeps, len(omegas)
        bound: certified contraction of the J sweeps (<= the requested eps,
            unless a greedy plan stopped at its J_max)
        J0: a-priori sweep count: adi_iteration_count of the enclosing
            bracket in 2D (1 for a point spectrum), _a_priori_count_3d in 3D
            (the ladder exceeds it only where it falls short, the greedy plan
            wherever its J_max allows)
    """

    def __init__(self, omegas, bound, J0):
        self.omegas = np.asarray(omegas, dtype=float)
        self.J = len(self.omegas)
        self.bound = bound
        self.J0 = J0


def adi_iteration_count(a, b, eps):
    """A-priori Peaceman-Rachford iteration count for a bracket [a, b]."""
    _check_bracket(a, b, eps)
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
    if N == 0:
        # k below the descent's tolerance: dn(u, 0) = 1
        return 1.0
    phi = [0.0] * (N + 1)
    phi[N] = (2.0**N) * av[N] * u
    for i in range(N, 0, -1):
        s = cv[i] / av[i] * math.sin(phi[i])
        phi[i - 1] = 0.5 * (phi[i] + math.asin(max(-1.0, min(1.0, s))))
    return math.cos(phi[0]) / math.cos(phi[1] - phi[0])


def _elliptic_shifts(a, b, J):
    """The J optimal one-interval shifts b * dn((2j-1) K / (2J), k)."""
    kp = a / b
    K = _agm_complete_elliptic(kp)
    return np.array([b * _agm_dn((2 * j - 1) * K / (2 * J), kp) for j in range(1, J + 1)])


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


def wachspress_shifts(a, b, c, d, eps):
    """Optimal 2D shift plan for pencil spectra in [a, b] and [c, d].

    The construction uses the classical elliptic recipe on the enclosing
    interval (the two brackets coincide in all benchmark cases); the realized
    contraction bound is evaluated numerically and must meet eps, with one
    round-off fallback that adds a sweep.  The two-variable maximum of the
    bound factors into two one-variable suprema (_one_sided_sup).
    """
    _check_bracket(a, b, eps)
    _check_bracket(c, d, eps)
    lo, hi = min(a, c), max(b, d)
    if hi <= lo * (1 + 1e-12):
        shifts = np.array([lo])
        return ShiftPlan(shifts, _one_sided_sup(shifts, (a, b)) * _one_sided_sup(shifts, (c, d)), 1)
    J0 = J = adi_iteration_count(lo, hi, eps)
    for _ in range(3):
        shifts = _elliptic_shifts(lo, hi, J)
        bound = _one_sided_sup(shifts, (a, b)) * _one_sided_sup(shifts, (c, d))
        if bound <= eps:
            return ShiftPlan(shifts, bound, J0)
        J += 1
    raise ArithmeticError("shift construction failed to reach the requested bound")


# ---------------------------------------------------------------------------
# the banded set-up of a plan

class _Factors:
    """The banded set-up of a plan for the 2D or the 3D sweep, by direction index.

    ``plus[k][j]`` is the Cholesky factor of K_k + w_j M_k, ``minus[k][j]``
    the band K_k - w_j M_k and ``mass[k]`` the Cholesky factor of M_k, each
    built once per distinct pencil and shared by the equal directions.
    """

    def __init__(self, pencils, plan):
        def build(K, M):
            plus = [BandedCholesky(K.combine(w, M)) for w in plan.omegas]
            return plus, [K.combine(-w, M) for w in plan.omegas], BandedCholesky(M)

        self.plus, self.minus, self.mass = zip(*per_distinct_pencil(build, pencils))


# ---------------------------------------------------------------------------
# 2D sweep

def adi_solve_2d(pencils, r, plan, factors):
    """Run the 2D double sweeps for the Kronecker-sum system P s = r.

    Works in the transformed variables (mass-scaled halves), so each sweep
    costs two banded multiplications and two banded solves; the mass of
    direction 1 is solved off at the end.  The initial guess is zero.
    Direction 2 works along axis 1 of the (n1, n2) array, and every solve
    but the first runs in place on its right-hand side.  ``factors`` are
    the plan's _Factors.
    """
    (K1, _), (K2, _) = pencils
    plus, minus = factors.plus, factors.minus
    R = np.asarray(r, dtype=float).reshape(K1.n, K2.n)
    for j in range(plan.J):
        # the zero initial guess leaves R as the first right-hand side
        Rj = R if j == 0 else R - minus[1][j].matmat(St, axis=1)
        Sh = plus[0][j].solve(Rj, overwrite_b=j > 0)
        Rj2 = R - minus[0][j].matmat(Sh)
        St = plus[1][j].solve(Rj2, axis=1, overwrite_b=True)
    return factors.mass[0].solve(St, overwrite_b=True).reshape(-1)


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


def _best_shift(l1, l2, l3, lo, hi):
    """The shift w in [lo, hi] minimizing |_douglas_factor(w, l1, l2, l3)|, and that minimum.

    Golden section on the logarithmic shift axis.
    """
    x, v = _golden_min(lambda t: abs(_douglas_factor(math.exp(t), l1, l2, l3)), math.log(lo), math.log(hi))
    return math.exp(x), v


def _triple_arrays(eigs, eps):
    """Each direction's eigenvalues log-subsampled to _TRIPLE_CAP, and their extremes a and b.

    Refuses the bracket [a, b] and eps as _check_bracket does.
    """
    lams = [_subsample_log(e, _TRIPLE_CAP) for e in eigs]
    a = min(l.min() for l in lams)
    b = max(l.max() for l in lams)
    _check_bracket(a, b, eps)
    return lams, a, b


def _a_priori_count_3d(a, b, eps):
    """J0 = 1.16 ln(b/a) ln(1/eps), at least the count ln(eps) / ln(1/9) of a point spectrum.

    A near-point spectrum contracts like a point, by at best 1/9 a sweep; on
    a wide spectrum the log term is larger.
    """
    J_point = math.ceil(math.log(eps) / math.log(1.0 / 9.0))
    return max(1, J_point, math.ceil(1.16 * math.log(b / a) * math.log(1.0 / eps)))


# the search for the ladder length tries no ladder longer than this multiple of J0
_J_GROWTH = 2


def douglas_shifts_3d(eigs, eps):
    """Geometric-ladder shift plan for the 3D sweep.

    ``eigs`` holds the eigenvalues of each direction's pencil (or surrogate
    grids of a bracket [a, b]); a and b are their extremes.  The ladder spans
    [a, 4b] (the top padding protects the corner triple (b, b, b), which is
    otherwise the slowest-damped point).  Its length J comes from a galloping
    search: ladders of 1, 2, 4, ... shifts are tried up to the cap
    _J_GROWTH * J0 (J0 the a-priori count, which overshoots J severalfold at
    a tight eps; the last probe is the cap itself, and a ladder longer than
    J0 serves a narrow spectrum, where the top padding wastes shifts), then
    one bisection over (lo, hi], where the ladder of lo shifts fails eps
    (lo = 0: no ladder) and that of hi shifts meets it, so J meets eps and
    J - 1 does not.  An ArithmeticError is raised if the cap falls short.
    The contraction is evaluated on the triples of the eigenvalues,
    log-subsampled to _TRIPLE_CAP per direction, that are distinct up to the
    symmetry of rho: unordered triples among directions whose subsampled
    arrays are equal (rho_prefix_3d).
    """
    lams, a, b = _triple_arrays(eigs, eps)

    def bound(omegas):
        return rho_prefix_3d(omegas, lams)[-1]

    if b <= a * (1 + 1e-9):
        w, v = _best_shift(a, a, a, a / 10, 10 * a)
        J = max(1, math.ceil(math.log(eps) / math.log(max(v, 1e-300))))
        omegas = np.full(J, w)
        return ShiftPlan(omegas, bound(omegas), J)

    J0 = _a_priori_count_3d(a, b, eps)

    def ladder(J):
        return _geometric_ladder(a, 4.0 * b, J)

    cap = _J_GROWTH * J0
    lo, hi = 0, 1
    while (rho := bound(ladder(hi))) > eps:
        if hi == cap:
            raise ArithmeticError(
                "a-priori shift count does not certify the tolerance, nor does a ladder of up to %d shifts" % hi
            )
        lo, hi = hi, min(2 * hi, cap)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        rho_mid = bound(ladder(mid))
        if rho_mid <= eps:
            hi, rho = mid, rho_mid
        else:
            lo = mid
    return ShiftPlan(ladder(hi), rho, J0)


def greedy_shifts_3d(eigs, J_max, eps):
    """Greedy 3D shift plan on the ladder's eigenvalue triples.

    ``eigs`` is read as by douglas_shifts_3d: each direction's eigenvalues,
    log-subsampled to _TRIPLE_CAP, whose triples distinct up to the
    symmetry of rho are the points the plan is checked on.  The running
    error product P is kept on those triples; each step takes the triple
    where |P| is largest, chooses the shift minimizing the new factor there
    (golden section on the logarithmic shift axis over [a/10, 10 b]) and
    multiplies P by that factor on every triple.  Stops when max |P| meets
    eps or after J_max shifts; the plan's bound is that max |P|, which is
    rho_prefix_3d of the plan on the same arrays.  The plan's J0 is the
    ladder's a-priori count for [a, b], not J_max.
    """
    lams, a, b = _triple_arrays(eigs, eps)
    if J_max < 1:
        raise ValueError("J_max must be >= 1, got %r" % (J_max,))
    L1, L2, L3 = _unordered_triples(lams)
    P = np.ones(L1.size)
    omegas = []
    while True:
        k = np.argmax(np.abs(P))
        if abs(P[k]) <= eps or len(omegas) == J_max:
            return ShiftPlan(omegas, float(abs(P[k])), _a_priori_count_3d(a, b, eps))
        omegas.append(_best_shift(L1[k], L2[k], L3[k], a / 10.0, 10.0 * b)[0])
        P *= _douglas_factor(omegas[-1], L1, L2, L3)


# ---------------------------------------------------------------------------
# 3D sweep

def _columns(n1, n23):
    """Stage-A column ranges of the (n1, n23) view, _CHUNK // n1 wide."""
    width = min(n23, max(1, parallel._CHUNK // n1))
    return [(c, min(c + width, n23)) for c in range(0, n23, width)]


def adi_work_bytes_3d(dims):
    """Bytes a 3D apply on an array of shape ``dims`` allocates at most.

    Its five full-size work arrays; per task, four chunks: the three stage-A
    buffers and the copy of a block's rows that numpy makes when
    ``banded.along`` works in place; and 32 KiB for the chunk lists and the
    pool's futures.
    """
    n1, n23 = dims[0], dims[1] * dims[2]
    cols, slabs = _columns(n1, n23), parallel.ranges(n1, n1 * n23)
    chunk = max(n1 * max(hi - lo for lo, hi in cols), n23 * max(hi - lo for lo, hi in slabs))
    return 8 * (5 * n1 * n23 + 4 * parallel._tasks(max(len(cols), len(slabs))) * chunk) + 2**15


def adi_solve_3d(pencils, r, plan, factors):
    """Run the 3D Douglas sweeps for P s = r with zero initial guess.

    Implements the rearranged per-sweep updates in which the two mass-scaled
    products u_j and v_j are formed once, and v is advanced by the recurrence
    v_{j+1} = b_j - w_j s_j instead of a fresh solve.  The apply allocates
    its five full-size work arrays (rt, s, v, u and s*) once and returns s.
    Each sweep is two stages over chunks of about parallel._CHUNK doubles
    (see the module docstring), the updates made in place in the same order
    of operations as the formulas.  ``factors`` are the plan's _Factors; the
    block lists of the band products are taken here, on the calling thread.
    """
    (K1, M1), (K2, M2), (K3, M3) = pencils
    plus, mass = factors.plus, factors.mass
    minus_blocks = [B._blocks for B in factors.minus[0]]
    m1_blocks, k2_blocks, m2_blocks, m3_blocks = M1._blocks, K2._blocks, M2._blocks, M3._blocks
    n1, n23 = K1.n, K2.n * K3.n
    R = np.asarray(r, dtype=float).reshape(n1, K2.n, K3.n)
    rt = mass[2].solve(mass[1].solve(R, 1), 2, overwrite_b=True)
    rt *= 2.0
    s, v, u, sstar = (np.empty_like(rt) for _ in range(4))
    cols = _columns(n1, n23)
    # per task, the three stage-A buffers of the widest column chunk
    bufs = [np.empty((3, n1 * max(hi - lo for lo, hi in cols))) for _ in range(parallel._tasks(len(cols)))]
    rt2, s2, v2, u2, sstar2 = (a.reshape(n1, n23) for a in (rt, s, v, u, sstar))

    def stage_a(j, w, task, chunks):
        # r* = rt - (K1 - w M1) s - 2 M1 (u + v), then s* = w (K1 + w M1)^-1 r* + u;
        # g gathers one input at a time, as ufuncs on strided operands
        # would allocate buffers of their own
        for lo, hi in chunks:
            g, y, t = (b[: n1 * (hi - lo)].reshape(n1, hi - lo) for b in bufs[task])
            if j == 0:
                # zero initial guess: s = v = u = 0 and r* = rt
                np.copyto(y, rt2[:, lo:hi])
            else:
                np.copyto(g, u2[:, lo:hi])
                np.copyto(y, v2[:, lo:hi])
                np.add(g, y, out=y)
                along(m1_blocks, y, 0, t)
                # doubling is exact: t is the product with the band 2 M1, bit for bit
                t *= 2.0
                np.copyto(g, s2[:, lo:hi])
                along(minus_blocks[j], g, 0, y)
                np.copyto(g, rt2[:, lo:hi])
                np.subtract(g, y, out=y)
                y -= t
            along(plus[0][j]._blocks, y, 0, y)
            y *= w
            if j:
                np.copyto(g, u2[:, lo:hi])
                y += g
            sstar2[:, lo:hi] = y

    def stage_b(j, w, lo, hi):
        # b_j = w (K2 + w M2)^-1 M2 s* + v (held in u), s = (K3 + w M3)^-1 M3 b_j,
        # v = b_j - w s and the next sweep's u = M2^-1 K2 s
        ss, uu, vv, sn = sstar[lo:hi], u[lo:hi], v[lo:hi], s[lo:hi]
        along(m2_blocks, ss, 1, uu)
        along(plus[1][j]._blocks, uu, 1, uu)
        uu *= w
        if j:
            uu += vv
        along(m3_blocks, uu, 2, sn)
        along(plus[2][j]._blocks, sn, 2, sn)
        np.multiply(w, sn, out=ss)
        np.subtract(uu, ss, out=vv)
        if j + 1 < plan.J:
            along(k2_blocks, sn, 1, uu)
            along(mass[1]._blocks, uu, 1, uu)

    for j, w in enumerate(plan.omegas):
        parallel._each_chunk(functools.partial(stage_a, j, w), cols)
        parallel.each_range(n1, n1 * n23, functools.partial(stage_b, j, w))
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
        self._factors = _Factors(pencils, plan)

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
