"""The program's own parallelism: BLAS on one thread, one pool, and the rules that cut a job into chunks.

Importing the package imports this module (through ``banded``), which sets
both bundled OpenBLAS libraries, numpy's and scipy's (so LAPACK too), to one
thread: threaded BLAS sums in an order that depends on its thread count,
and its threads contend with the program's own.  The pool has one worker per
CPU the process may use, and ``_each_chunk`` deals the chunks of a job to it.
The chunks come from two rules, ``ranges`` (of one index, for
``each_range``) and ``grid`` (of an operand's free axes, for
``banded.pooled_along``), which read the shapes alone, never the number of
workers; each chunk's arithmetic is the same on any thread, so results are
bitwise the same on any number of cores.  Workers run only untraced kernels
that deal nothing, so the benchmark tracer's lookup points stay on the
calling thread.
"""

import concurrent.futures
import ctypes
import functools
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import scipy

# (package, its bundled OpenBLAS, the symbol that sets that library's thread count)
_BLAS_LIBS = (
    (np, "libscipy_openblas64_-*.so*", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
)


def _pin_blas_threads(libs=_BLAS_LIBS):
    """Set each bundled OpenBLAS library of ``libs`` to one thread.

    A library is looked up in the ``<package>.libs`` directory its wheel
    installs; where the library or its symbol is missing, its threads are
    left alone and one RuntimeWarning names what was not found.
    """
    missing = []
    for pkg, pattern, symbol in libs:
        paths = sorted((Path(pkg.__file__).parents[1] / (pkg.__name__ + ".libs")).glob(pattern))
        try:
            getattr(ctypes.CDLL(str(paths[0])), symbol)(1)
        except (IndexError, OSError, AttributeError):
            missing.append("%s in %s.libs/%s" % (symbol, pkg.__name__, pattern))
    if missing:
        warnings.warn("BLAS threads left as they are: not found: %s" % ", ".join(missing), RuntimeWarning)


_pin_blas_threads()

# doubles per chunk: about 1 MB, so a chunk's slices of the arrays a stage
# of the 3D ADI sweep touches stay in a core's L2 cache; also the least a
# chunk of ``grid`` holds and the work of one range of ``ranges``
# (docs/decisions.md)
_CHUNK = 2**17


# ``on_pool`` is set on the pool's own worker threads
_worker = threading.local()


def _mark_worker():
    _worker.on_pool = True


@functools.cache
def _pool():
    """The thread pool, one worker per CPU this process may use; made on first use."""
    return concurrent.futures.ThreadPoolExecutor(
        len(os.sched_getaffinity(0)), thread_name_prefix="igakron", initializer=_mark_worker
    )


def _tasks(nchunks):
    """Into how many tasks ``_each_chunk`` deals nchunks chunks: at most one per CPU and one per chunk."""
    return min(len(os.sched_getaffinity(0)), nchunks)


def _each_chunk(work, chunks):
    """Deal the list ``chunks``: each task calls ``work(task, it)``, which takes its chunks from ``it``.

    One chunk runs inline on the calling thread.  More go to
    _tasks(len(chunks)) tasks on the pool that share one iterator, each
    taking the next chunk as it finishes its last, so every chunk is done
    once.  A worker of the pool may not deal: waiting on its own pool, it
    could wait forever.
    """
    if getattr(_worker, "on_pool", False):
        raise RuntimeError("a worker of the pool may not deal chunks to the pool")
    tasks = _tasks(len(chunks))
    if tasks <= 1:
        work(0, chunks)
        return
    # one iterator for all tasks: next() on it is atomic under the GIL
    chunks = iter(chunks)
    for f in [_pool().submit(work, t, chunks) for t in range(tasks)]:
        f.result()


def ranges(n, size):
    """The ranges [n c // k, n (c + 1) // k), c < k, that tile range(n), none empty.

    k = min(n, max(1, size // _CHUNK)), with size the doubles the job spans,
    so the bounds depend on the shapes alone.
    """
    k = min(n, max(1, size // _CHUNK))
    return [(n * c // k, n * (c + 1) // k) for c in range(k)]


def each_range(n, size, kernel, out=()):
    """Call ``kernel(lo, hi)`` over ``ranges(n, size)``, dealt by ``_each_chunk``; returns out.

    The kernel returns one part per array of out, and each part is stored
    into ``o[..., lo:hi]``; with no out, the kernel writes its own outputs.
    Either way a range writes only its own part of them.
    """
    def work(task, chunks):
        for lo, hi in chunks:
            for o, part in zip(out, kernel(lo, hi) or ()):
                o[..., lo:hi] = part

    _each_chunk(work, ranges(n, size))
    return out


def grid(a, n, b):
    """Chunks of an (a, n, b) operand, as slices of its a and b axes.

    There are as many chunks as whole multiples of max(_CHUNK, n * n / 2)
    doubles fit in the operand, at least one.  The n * n / 2 floor keeps a
    chunk at least n / 2 columns wide, because BLAS packs a dense factor
    again for every chunk (docs/decisions.md).  The a axis is split first,
    into at most a slabs, and b only when there are fewer slabs than
    chunks.  The bounds depend on the shape alone.
    """
    k = max(1, a * n * b // max(_CHUNK, n * n // 2))
    ka = max(1, min(a, k))
    kb = max(1, min(b, k // ka))
    return [
        (slice(a * i // ka, a * (i + 1) // ka), slice(b * j // kb, b * (j + 1) // kb))
        for i in range(ka)
        for j in range(kb)
    ]
