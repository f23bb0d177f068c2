"""The program's own parallelism: one BLAS thread, one pool, the same bits on any number of workers.

The pool-size tests set the pool, not the machine: they replace
``parallel._pool`` and ``parallel._tasks`` by a pool of k workers, so they run
the same on a one-core and a many-core host.  The subprocess tests start
children with different OpenBLAS thread counts in their environment, which
the program must override.
"""

import ast
import concurrent.futures
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import igakron
from igakron import assembly, banded, parallel
from igakron.adi import ADIPreconditioner
from igakron.assembly import (
    BoundScreen,
    assemble_load,
    assemble_pencil_1d,
    assemble_stiffness,
    condition_bound,
    quadrature_grid,
)
from igakron.bench import ExperimentConfig, poisson_source, run_experiment
from igakron.bspline import SplineSpace1D
from igakron.fd import fd_setup
from igakron.geometry import GeometryMap, builtin, eval_Q_masked, identity_map
from igakron.kron import KroneckerSum
from igakron.multipatch import l_shape_domain
from igakron.pcg import as_apply, pcg

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pencils_for(q, d):
    return [assemble_pencil_1d(SplineSpace1D.uniform(3, q)) for _ in range(d)]


@pytest.fixture
def on_workers(monkeypatch):
    """``on_workers(k, fn, *args)``: fn(*args) with the pool set to k workers, and how many chunks each job had."""
    pools = []

    def run(k, fn, *args):
        pool = concurrent.futures.ThreadPoolExecutor(k, initializer=parallel._mark_worker)
        pools.append(pool)
        jobs = []

        def each_chunk(work, chunks):
            jobs.append(len(chunks))
            return deal(work, chunks)

        monkeypatch.setattr(parallel, "_pool", lambda: pool)
        monkeypatch.setattr(parallel, "_tasks", lambda nchunks: min(k, nchunks))
        monkeypatch.setattr(parallel, "_each_chunk", each_chunk)
        return fn(*args), jobs

    deal = parallel._each_chunk
    yield run
    for pool in pools:
        pool.shutdown()


def same_bits_on_any_pool(on_workers, fn, *args):
    """fn(*args) on pools of 1, 2 and 3 workers: bitwise equal, and some job dealt more than one chunk."""
    (first, jobs), *others = [on_workers(k, fn, *args) for k in (1, 2, 3)]
    assert max(jobs) > 1
    for got, _ in others:
        assert np.array_equal(got, first)


@pytest.fixture
def small_chunks(monkeypatch):
    # the cases below then span many chunks at sizes a test can afford
    monkeypatch.setattr(parallel, "_CHUNK", 2**9)


@pytest.mark.parametrize("d, q", [(2, 64), (3, 16)])
def test_fd_apply_same_bits_on_any_pool(d, q, small_chunks, on_workers):
    ksum = KroneckerSum(pencils_for(q, d))
    r = np.random.default_rng(1).standard_normal(ksum.n)
    same_bits_on_any_pool(on_workers, fd_setup(ksum).apply, r)


@pytest.mark.parametrize("d, q", [(2, 64), (3, 16)])
def test_kronecker_sum_matvec_same_bits_on_any_pool(d, q, small_chunks, on_workers):
    ksum = KroneckerSum(pencils_for(q, d))
    same_bits_on_any_pool(on_workers, ksum.matvec, np.random.default_rng(2).standard_normal(ksum.n))


def test_3d_adi_apply_same_bits_on_any_pool(small_chunks, on_workers):
    prec = ADIPreconditioner.setup(pencils_for(16, 3), eps=0.1)
    r = np.random.default_rng(3).standard_normal(KroneckerSum(prec.pencils).n)
    same_bits_on_any_pool(on_workers, prec.apply, r)


def test_fd_pcg_same_count_and_bits_on_any_pool(small_chunks, on_workers):
    cfg = ExperimentConfig(domain="quarter_annulus", p=3, h_invs=(32,), solver="fd", seed=1)

    def row():
        (r,) = run_experiment(cfg).rows
        return np.array([r.outer_iters, r.residual])

    same_bits_on_any_pool(on_workers, row)


@functools.cache
def stiffness(domain, p, q):
    geo = builtin(domain)
    return assemble_stiffness([SplineSpace1D.uniform(p, q)] * geo.dim, geo)


def csr_case(case):
    """A of a case of the pooled product; each spans many chunks under small_chunks."""
    if case == "3d":
        return stiffness("thick_quarter_ring", 2, 8)
    A = stiffness("quarter_annulus", 3, 32)
    if case == "int64":
        A = A.copy()
        A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    elif case == "uneven":
        # a rectangular block of rows that the chunk count does not divide
        A = A[:-5]
        assert A.shape[0] % (A.nnz // parallel._CHUNK) != 0
    return A


@pytest.mark.parametrize("case", ["2d", "3d", "int64", "uneven"])
def test_csr_product_is_bitwise_A_at_x_on_any_pool(case, small_chunks, on_workers):
    A = csr_case(case)
    x = np.random.default_rng(8).standard_normal(A.shape[1])
    got, jobs = on_workers(2, as_apply(A), x)
    assert jobs == [A.nnz // parallel._CHUNK]
    assert np.array_equal(got, A @ x)
    same_bits_on_any_pool(on_workers, as_apply(A), x)


def test_csr_product_under_fast_thread_switching(small_chunks, on_workers):
    # more workers than cores, switching threads every microsecond: every
    # chunk still writes its own rows once
    A = csr_case("2d")
    x = np.random.default_rng(8).standard_normal(A.shape[1])
    want, apply = A @ x, as_apply(A)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, _ = on_workers(2 * len(os.sched_getaffinity(0)) + 1, lambda: [apply(x) for _ in range(20)])
    finally:
        sys.setswitchinterval(old)
    assert all(np.array_equal(y, want) for y in got)


def test_cg_with_pooled_product_same_count_and_bits_on_any_pool(small_chunks, on_workers):
    A = csr_case("2d")
    b = np.random.default_rng(9).standard_normal(A.shape[0])

    def run(op):
        res = pcg(op, None, b, tol=1e-8, maxit=500)
        return np.array([res.iterations, res.residual_history[-1], res.true_residual])

    same_bits_on_any_pool(on_workers, run, A)
    # and the same as CG on scipy's own product
    assert np.array_equal(run(A), run(lambda x: A @ x))


@pytest.mark.parametrize("kind", ["csc", "float32", "dense"])
def test_as_apply_of_other_operators_is_op_at_x_off_the_pool(kind, on_workers):
    A = stiffness("quarter_annulus", 3, 8)
    op = {"csc": A.tocsc(), "float32": A.astype(np.float32), "dense": A.toarray()}[kind]
    x = np.random.default_rng(10).standard_normal(A.shape[1])
    got, jobs = on_workers(2, as_apply(op), x)
    want = op @ x
    assert jobs == [] and got.dtype == want.dtype and np.array_equal(got, want)


def same_bits_as_one_chunk(monkeypatch, fn, *args):
    """fn(*args) under the current chunk size is bitwise fn(*args) with every job in one chunk."""
    got = fn(*args)
    monkeypatch.setattr(parallel, "_CHUNK", 2**40)
    assert np.array_equal(fn(*args), got)


def spaces_of(domain, p, q):
    geo = builtin(domain)
    return [SplineSpace1D.uniform(p, q)] * geo.dim, geo


def stiffness_and_bound(domain, p, q):
    spaces, geo = spaces_of(domain, p, q)
    screen = BoundScreen()
    A = assemble_stiffness(spaces, geo, screen=screen)
    return np.concatenate([A.data, A.indices, A.indptr, [screen.result().bound]])


# 3D planes deal their point ranges and contractions; a 2D plane deals only
# under small chunks, and its bound screen batches many planes
@pytest.mark.parametrize("domain, p, q", [("thick_quarter_ring", 2, 8), ("quarter_annulus", 3, 32)])
def test_stiffness_and_bound_screen_same_bits_on_any_pool(domain, p, q, small_chunks, on_workers, monkeypatch):
    # the workers write disjoint parts of shared outputs: switching threads
    # often makes an overlap or a lost write show in the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        same_bits_on_any_pool(on_workers, stiffness_and_bound, domain, p, q)
    finally:
        sys.setswitchinterval(interval)
    same_bits_as_one_chunk(monkeypatch, stiffness_and_bound, domain, p, q)


def bent_corner():
    """A 3D map whose Jacobian is exactly I except in the corner z_1, z_2, z_3 > 1/2.

    x_3 = z_3 + g(z_1) g(z_2) g(z_3) with g(t) = max(t - 1/2, 0)^2.  Along
    z_2 and z_3 the first Gauss points lie outside the corner, so the
    Jacobian's first two slices are equal even where it varies.
    """

    def g(t):
        return np.maximum(t - 0.5, 0.0) ** 2

    def dg(t):
        return 2.0 * np.maximum(t - 0.5, 0.0)

    def evaluate(z):
        z = np.asarray(z)
        return np.column_stack((z[:, 0], z[:, 1], z[:, 2] + g(z[:, 0]) * g(z[:, 1]) * g(z[:, 2])))

    def jacobian(z):
        z = np.asarray(z)
        J = np.zeros((3, 3, len(z)))
        J[0, 0] = J[1, 1] = 1.0
        J[2, 0] = dg(z[:, 0]) * g(z[:, 1]) * g(z[:, 2])
        J[2, 1] = g(z[:, 0]) * dg(z[:, 1]) * g(z[:, 2])
        J[2, 2] = 1.0 + g(z[:, 0]) * g(z[:, 1]) * dg(z[:, 2])
        return J

    return GeometryMap(3, evaluate, jacobian, name="bent_corner")


def grouped_case(case):
    """(spaces, geo, dirichlet) of a case for the grouped assembly."""
    if case == "l_shape_patch":
        patch = l_shape_domain(2, 24).patches[0]
        return patch.spaces, patch.geo, False
    if case == "bent_corner":
        # p = 3, 1/h = 8 gives 4 groups of 2 leading elements: two in
        # z_1 < 1/2, two past it
        return [SplineSpace1D.uniform(3, 8)] * 3, bent_corner(), True
    domain, p, q = {
        "partial": ("quarter_annulus", 3, 72),
        "3d": ("thick_quarter_ring", 2, 8),
        "thick_quarter_ring": ("thick_quarter_ring", 3, 8),
    }[case]
    return *spaces_of(domain, p, q), True


def stiffness_groups(spaces):
    """(E, G): the leading elements, and how many of them _sum_factorize groups for the stiffness."""
    p = spaces[0].p
    E = [s.m - p for s in spaces]
    n = (p + 1) ** (len(E) - 1) * int(np.prod(E[1:]))
    R = int(np.prod([(2 * p + 1) * s.m for s in spaces[1:]]))
    return E[0], assembly._group_size(E[0], p + 1, n, R)


def system_bits(spaces, geo, dirichlet):
    screen = BoundScreen()
    A = assemble_stiffness(spaces, geo, dirichlet, screen)
    b = assemble_load(spaces, geo, poisson_source(geo.dim), dirichlet)
    return np.concatenate([A.data, A.indices, A.indptr, b, [screen.result().bound]])


@pytest.mark.parametrize("case", ["partial", "3d", "l_shape_patch"])
def test_element_groups_same_bits_as_one_element_a_group(case, small_chunks, on_workers, monkeypatch):
    # A, b and the bound of groups of G leading elements, on pools of 1, 2
    # and 3 workers, are bitwise those of one element a group; the quarter
    # annulus' 72 elements end in a partial group of 72 mod 31 = 10
    spaces, geo, dirichlet = grouped_case(case)
    E, G = stiffness_groups(spaces)
    assert 1 < G and (E % G != 0) == (case == "partial")
    got = [on_workers(k, system_bits, spaces, geo, dirichlet) for k in (1, 2, 3)]
    monkeypatch.setattr(assembly, "_BOUND_CHUNK", 1)
    want = system_bits(spaces, geo, dirichlet)
    for bits, jobs in got:
        assert max(jobs) > 1 and np.array_equal(bits, want)


# the points Q is evaluated at: the thick ring's 32^3 Gauss points keep one
# z_3 slice, the patch's 72^2 one z_2 slice, and of the bent corner's four
# groups of 2 x 4 leading points the first two keep one point of each
# trailing direction and the others all 32^2
@pytest.mark.parametrize(
    "case, slabs", [("thick_quarter_ring", 32**2), ("l_shape_patch", 72), ("bent_corner", 2 * 8 + 2 * 8 * 32**2)]
)
def test_jacobian_slabs_same_bits_as_every_point(case, slabs, small_chunks, on_workers, monkeypatch):
    # Q evaluated on one slice of each trailing direction along which a
    # group's Jacobian is constant, and broadcast, gives A, b and the bound
    # bitwise as Q at every point does, on pools of 1, 2 and 3 workers
    spaces, geo, dirichlet = grouped_case(case)
    points = []

    def counting(geo, *, zeta):
        points.append(len(zeta))
        return eval_Q_masked(geo, zeta=zeta)

    monkeypatch.setattr(assembly, "eval_Q_masked", counting)
    got = [on_workers(k, system_bits, spaces, geo, dirichlet) for k in (1, 2, 3)]
    on, points[:] = sum(points), []
    monkeypatch.setattr(assembly, "_constant_axes", lambda geo, z, shape: ())
    want = system_bits(spaces, geo, dirichlet)
    for bits, jobs in got:
        assert max(jobs) > 1 and np.array_equal(bits, want)
    assert on == 3 * slabs
    assert sum(points) == int(np.prod([s.m - s.p for s in spaces])) * (spaces[0].p + 1) ** len(spaces)


def load(domain, p, q):
    spaces, geo = spaces_of(domain, p, q)
    return assemble_load(spaces, geo, poisson_source(geo.dim))


def test_load_same_bits_on_any_pool(small_chunks, on_workers, monkeypatch):
    same_bits_on_any_pool(on_workers, load, "thick_quarter_ring", 2, 8)
    same_bits_as_one_chunk(monkeypatch, load, "thick_quarter_ring", 2, 8)


def bound_on_grid(domain, p, q):
    spaces, geo = spaces_of(domain, p, q)
    _, zeta, _ = quadrature_grid(spaces, p + 1)
    return np.array(condition_bound(geo, zeta))


def test_condition_bound_same_bits_on_any_pool(small_chunks, on_workers, monkeypatch):
    same_bits_on_any_pool(on_workers, bound_on_grid, "revolved_quarter_ring", 2, 8)
    same_bits_as_one_chunk(monkeypatch, bound_on_grid, "revolved_quarter_ring", 2, 8)


def test_a_worker_of_the_pool_may_not_deal_to_it():
    # a worker that waits on chunks of its own pool deadlocks a full pool:
    # one call per worker fills it, so without the refusal the results time out
    pool = parallel._pool()
    deal = functools.partial(parallel._each_chunk, lambda task, chunks: list(chunks), [0, 1])
    futures = [pool.submit(deal) for _ in os.sched_getaffinity(0)]
    try:
        for f in futures:
            with pytest.raises(RuntimeError, match="worker of the pool"):
                f.result(timeout=60)
    finally:
        if not all(f.done() for f in futures):
            # free the stuck workers and give later tests a new pool
            pool.shutdown(wait=False, cancel_futures=True)
            parallel._pool.cache_clear()


@given(a=st.integers(1, 40), n=st.integers(1, 40), b=st.integers(1, 40), chunk=st.sampled_from([1, 7, 64, 2**17]))
def test_grid_tiles_the_free_axes_once(a, n, b, chunk):
    old, parallel._CHUNK = parallel._CHUNK, chunk
    try:
        grid = parallel.grid(a, n, b)
    finally:
        parallel._CHUNK = old
    seen = np.zeros((a, b), dtype=int)
    for i, j in grid:
        assert i.stop > i.start and j.stop > j.start
        seen[i, j] += 1
    assert np.all(seen == 1)
    # no more chunks than whole chunks of the least size fit
    assert len(grid) <= max(1, a * n * b // max(chunk, n * n // 2))


@given(n=st.integers(1, 300), size=st.integers(0, 10**6), chunk=st.sampled_from([1, 7, 64, 2**17]))
def test_ranges_tile_the_index_once(n, size, chunk):
    old, parallel._CHUNK = parallel._CHUNK, chunk
    try:
        bounds = parallel.ranges(n, size)
    finally:
        parallel._CHUNK = old
    seen = np.zeros(n, dtype=int)
    for lo, hi in bounds:
        assert hi > lo
        seen[lo:hi] += 1
    assert np.all(seen == 1)
    assert len(bounds) == min(n, max(1, size // chunk))


class CountedStores:
    """An output of each_range that counts the stores into each of its n slots."""

    def __init__(self, n):
        self.count = np.zeros(n, dtype=int)

    def __setitem__(self, key, part):
        self.count[key[-1]] += 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_range_stores_each_slice_once(k, small_chunks, on_workers):
    n, size = 1000, 9000

    def kernel(lo, hi):
        return np.arange(lo, hi) * np.array([[1.0], [-1.0]]), None

    out = (np.full((2, n), np.nan), CountedStores(n))
    # switching threads often makes an overlap or a lost store show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (values, stores), jobs = on_workers(k, parallel.each_range, n, size, kernel, out)
    finally:
        sys.setswitchinterval(interval)
    assert jobs == [len(parallel.ranges(n, size))] and jobs[0] > 1
    assert np.array_equal(values, np.arange(n) * np.array([[1.0], [-1.0]]))
    assert np.all(stores.count == 1)


def test_callbacks_see_each_gauss_point_once_a_pass(small_chunks, on_workers, monkeypatch):
    # a map's evaluate and jacobian and the load's f run on ranges of the
    # points from the pool's threads: each point reaches each callback once,
    # and the stiffness pass's jacobian once more at the points Q is
    # evaluated at
    seen = {"evaluate": [], "jacobian": [], "f": [], "Q": []}

    def recorded(name, fn):
        def call(z):
            seen[name].append(np.array(z))
            return fn(z)

        return call

    base = identity_map(3)
    geo = GeometryMap(3, recorded("evaluate", base.evaluate), recorded("jacobian", base.jacobian))
    f = recorded("f", lambda x: np.ones(len(x)))
    spaces = [SplineSpace1D.uniform(2, q) for q in (6, 5, 4)]
    _, grid, _ = quadrature_grid(spaces, 3)

    def each_point_once(name, want=grid):
        # the identity map's evaluate returns the points, so f sees them too
        points, seen[name] = np.concatenate(seen[name]), []
        return np.array_equal(points[np.lexsort(points.T)], want[np.lexsort(want.T)])

    def record_Q(geo, *, zeta):
        seen["Q"].append(np.array(zeta))
        return eval_Q_masked(geo, zeta=zeta)

    monkeypatch.setattr(assembly, "eval_Q_masked", record_Q)
    _, jobs = on_workers(2, assemble_stiffness, spaces, geo, True, BoundScreen())
    assert max(jobs) > 1 and len(seen["jacobian"]) > 1 and seen["evaluate"] == seen["f"] == []
    # the check for constant directions sees every point, and J = I is
    # constant along both trailing directions, so Q is evaluated at the
    # points of their first Gauss point alone
    slab = grid[(grid[:, 1] == grid[0, 1]) & (grid[:, 2] == grid[0, 2])]
    assert each_point_once("Q", slab) and each_point_once("jacobian", np.vstack([grid, slab]))
    _, jobs = on_workers(2, assemble_load, spaces, geo, f)
    assert max(jobs) > 1 and len(seen["f"]) > 1
    assert each_point_once("evaluate") and each_point_once("f") and each_point_once("jacobian")


def test_only_the_parallel_module_holds_threads_and_cpu_counts():
    # the pool, its threads and the CPU count live in one module; no other
    # module of the package may start threads or read the affinity
    holders = set()
    for path in sorted(Path(igakron.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + ["%s.%s" % (node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            pooled = ("concurrent", "threading", "multiprocessing")
            if any(n.split(".")[0] in pooled or n.endswith("sched_getaffinity") for n in names):
                holders.add(path.name)
    assert holders == {"parallel.py"}


@pytest.mark.parametrize("kind", ["dense", "banded"])
@pytest.mark.parametrize(
    "shape, axis", [((20, 300), 0), ((300, 20), 1), ((30, 9, 30), 0), ((30, 9, 30), 1), ((30, 9, 30), 2)]
)
def test_pooled_along_matches_along(kind, shape, axis, small_chunks):
    rng = np.random.default_rng(4)
    X = rng.standard_normal(shape)
    n = shape[axis]
    if kind == "dense":
        blocks = [(0, n, 0, n, rng.standard_normal((n, n)))]
    else:
        blocks = banded.BandedSymMatrix(rng.standard_normal((4, n)))._blocks
    a, b = int(np.prod(shape[:axis])), int(np.prod(shape[axis + 1 :]))
    assert len(parallel.grid(a, n, b)) > 1
    want = banded.along(blocks, X, axis, np.empty_like(X))
    got = banded.pooled_along(blocks, X, axis, np.empty_like(X))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_pooled_along_writes_straight_into_out(axis, monkeypatch, tracemalloc_peak):
    # 15 chunks of about 34 KB: a copy of any chunk's slices would show
    # above the bookkeeping of the job, so nothing is left to charge
    monkeypatch.setattr(parallel, "_CHUNK", 2**12)
    rng = np.random.default_rng(6)
    X, out = rng.standard_normal((40, 40, 40)), np.empty((40, 40, 40))
    dense = [(0, 40, 0, 40, rng.standard_normal((40, 40)).T)]
    for blocks in (dense, banded.BandedSymMatrix(rng.standard_normal((4, 40)))._blocks):
        banded.pooled_along(blocks, X, axis, out)  # warm: the pool's threads are up
        assert tracemalloc_peak(banded.pooled_along, blocks, X, axis, out) < 2**14


def test_missing_blas_library_or_symbol_warns_once():
    libs = (
        (np, "libno-such-blas-*.so*", "scipy_openblas_set_num_threads64_"),
        (np, "libscipy_openblas64_-*.so*", "no_such_symbol"),
    )
    with pytest.warns(RuntimeWarning, match="libno-such-blas.*no_such_symbol") as record:
        parallel._pin_blas_threads(libs)
    assert len(record) == 1


# ------------------------------------------------------------------ in children

def run_child(code, *args, **env):
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


CHILD_FINGERPRINT = """
import hashlib
import os
import sys

if sys.argv[1:] == ["one-cpu"]:
    # the child's own affinity: the pool then has one worker
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from igakron.assembly import assemble_pencil_1d, assemble_stiffness
from igakron.bench import ExperimentConfig, run_experiment
from igakron.bspline import SplineSpace1D
from igakron.fd import fd_setup
from igakron.geometry import builtin
from igakron.kron import KroneckerSum
from igakron.pcg import as_apply, pcg

for q, d in [(512, 2), (64, 3)]:
    ksum = KroneckerSum([assemble_pencil_1d(SplineSpace1D.uniform(3, q)) for _ in range(d)])
    x = fd_setup(ksum).apply(np.random.default_rng(5).standard_normal(ksum.n))
    print(hashlib.sha1(x.tobytes()).hexdigest())
cfg = ExperimentConfig(domain="collapsed_triangle", p=3, h_invs=(128,), solver="fd", seed=1)
(row,) = run_experiment(cfg).rows
print(row.outer_iters, float(row.residual).hex())
"""


def test_blas_threads_and_cpus_change_no_bit():
    # collapsed_triangle p3 1/h=128 FD-PCG is ill-conditioned enough that
    # threaded BLAS moved its count (735 at one thread, 733 at two)
    one, two = (run_child(CHILD_FINGERPRINT, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two == run_child(CHILD_FINGERPRINT, "one-cpu", OPENBLAS_NUM_THREADS="2")
    assert one.splitlines()[-1].split()[0] == "735"


# the get_num_threads function of each bundled OpenBLAS library, None where it is absent
THREAD_GETTERS = """
import ctypes
from pathlib import Path

from igakron.parallel import _BLAS_LIBS


def _getter(pkg, pattern, setter):
    paths = sorted((Path(pkg.__file__).parents[1] / (pkg.__name__ + ".libs")).glob(pattern))
    return getattr(ctypes.CDLL(str(paths[0])), setter.replace("_set_", "_get_"), None) if paths else None


getters = [_getter(*lib) for lib in _BLAS_LIBS]
"""


def thread_getters():
    scope = {}
    exec(THREAD_GETTERS, scope)
    return scope["getters"]


@pytest.mark.skipif(None in thread_getters(), reason="no bundled OpenBLAS with the scipy_openblas symbols")
def test_import_pins_both_blas_libraries_to_one_thread():
    child = "import igakron\n" + THREAD_GETTERS + "print(*(get() for get in getters))\n"
    assert run_child(child, OPENBLAS_NUM_THREADS="2").split() == ["1", "1"]
