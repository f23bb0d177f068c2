"""The program's own parallelism: one BLAS thread, one pool, the same bits on any number of workers.

The pool-size tests set the pool, not the machine: they replace
``banded._pool`` and ``banded._tasks`` by a pool of k workers, so they run
the same on a one-core and a many-core host.  The subprocess tests start
children with different OpenBLAS thread counts in their environment, which
the program must override.
"""

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

from igakron import banded
from igakron.adi import ADIPreconditioner
from igakron.assembly import assemble_pencil_1d, assemble_stiffness
from igakron.bench import ExperimentConfig, run_experiment
from igakron.bspline import SplineSpace1D
from igakron.fd import fd_setup
from igakron.geometry import builtin
from igakron.kron import KroneckerSum
from igakron.pcg import as_apply, pcg

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pencils_for(q, d):
    return [assemble_pencil_1d(SplineSpace1D.uniform(3, q)) for _ in range(d)]


@pytest.fixture
def on_workers(monkeypatch):
    """``on_workers(k, fn, *args)``: fn(*args) with the pool set to k workers, and how many chunks each job had."""
    pools = []

    def run(k, fn, *args):
        pool = concurrent.futures.ThreadPoolExecutor(k)
        pools.append(pool)
        jobs = []

        def each_chunk(work, nchunks):
            jobs.append(nchunks)
            return deal(work, nchunks)

        monkeypatch.setattr(banded, "_pool", lambda: pool)
        monkeypatch.setattr(banded, "_tasks", lambda nchunks: min(k, nchunks))
        monkeypatch.setattr(banded, "_each_chunk", each_chunk)
        return fn(*args), jobs

    deal = banded._each_chunk
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
    monkeypatch.setattr(banded, "_CHUNK", 2**9)


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
        assert A.shape[0] % (A.nnz // banded._CHUNK) != 0
    return A


@pytest.mark.parametrize("case", ["2d", "3d", "int64", "uneven"])
def test_csr_product_is_bitwise_A_at_x_on_any_pool(case, small_chunks, on_workers):
    A = csr_case(case)
    x = np.random.default_rng(8).standard_normal(A.shape[1])
    got, jobs = on_workers(2, as_apply(A), x)
    assert jobs == [A.nnz // banded._CHUNK]
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


@given(a=st.integers(1, 40), n=st.integers(1, 40), b=st.integers(1, 40), chunk=st.sampled_from([1, 7, 64, 2**17]))
def test_grid_tiles_the_free_axes_once(a, n, b, chunk):
    old, banded._CHUNK = banded._CHUNK, chunk
    try:
        grid = banded._grid(a, n, b)
    finally:
        banded._CHUNK = old
    seen = np.zeros((a, b), dtype=int)
    for i, j in grid:
        assert i.stop > i.start and j.stop > j.start
        seen[i, j] += 1
    assert np.all(seen == 1)
    # no more chunks than whole chunks of the least size fit
    assert len(grid) <= max(1, a * n * b // max(chunk, n * n // 2))


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
    assert len(banded._grid(a, n, b)) > 1
    want = banded.along(blocks, X, axis, np.empty_like(X))
    got = banded.pooled_along(blocks, X, axis, np.empty_like(X))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_pooled_along_writes_straight_into_out(axis, monkeypatch, tracemalloc_peak):
    # 15 chunks of about 34 KB: a copy of any chunk's slices would show
    # above the bookkeeping of the job, so nothing is left to charge
    monkeypatch.setattr(banded, "_CHUNK", 2**12)
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
        banded._pin_blas_threads(libs)
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

from igakron.banded import _BLAS_LIBS


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
