"""Benchmark experiment driver.

Assembles one of the benchmark problems, runs a chosen solver or
preconditioned CG, and collects per-refinement rows with iteration counts,
timings, the achieved residual, the a-priori condition bound and the matrix
fill.  Timings are reported but never asserted anywhere; iteration counts are
the reproducible quantity.

Every row takes one path, ``_run_row``: ``setup_s`` around ``_problem``
(the one place that turns a domain into A, b, spaces, geometry, pencils or
the multi-patch domain, after checking the memory estimate against the cap)
and the solver's entry in ``SOLVERS`` (the one place that builds each
preconditioner), then ``solve_s`` around CG, or around one application of
the Kronecker solver in a direct row, and last the condition bound.  The
stiffness assembly in ``_problem`` screens Q at every Gauss point for the
bound as it goes, so the only bound work after ``solve_s`` stops is Q at the
2^d corners of the parameter domain and ``eigvalsh`` on the points the
screen kept.  ``igakron export-matrix`` builds its system through the same
``_problem``, so it honours the memory cap too.
After each row the freed heap is handed back to the system (``_trim_heap``),
so a row's peak memory does not depend on what the row before it left.

The library functions are looked up as globals of this module when a row
calls them, never held in a table filled at import time, so a wrapper
installed on a module attribute (``perfbench/tracing.py`` does this) sees
every call.
"""

import ctypes
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .adi import ADIPreconditioner, adi_work_bytes_3d
from .assembly import (
    _BOUND_CHUNK,
    BoundScreen,
    assemble_load,
    assemble_pencil_1d,
    assemble_stiffness,
    condition_bound,
)
from .bspline import SplineSpace1D
from .fd import fd_setup
from .geometry import BuiltinDomain, builtin
from .ic import ic0_setup
from .kron import KroneckerSum
from .multipatch import (
    assemble_multipatch_load,
    assemble_multipatch_stiffness,
    l_shape_domain,
    schwarz_setup,
)
from .pcg import pcg

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ReportRow",
    "ConfigError",
    "MemoryLimitError",
    "run_experiment",
    "emit_report",
    "CSV_COLUMNS",
]

# solver -> (the kinds of row it runs in, its preconditioner builder taking the
# config and the _problem); the builders name library functions at call time
SOLVERS = {
    "fd": (("direct", "single-patch"), lambda cfg, pb: fd_setup(KroneckerSum(pb.pencils))),
    "adi": (("direct", "single-patch"), lambda cfg, pb: ADIPreconditioner.setup(pb.pencils, cfg.eps)),
    "ic": (("single-patch", "multi-patch"), lambda cfg, pb: ic0_setup(pb.A)),
    "schwarz_exact": (("multi-patch",), lambda cfg, pb: schwarz_setup(pb.dom, pb.A, mode="exact")),
    "schwarz_fd": (("multi-patch",), lambda cfg, pb: schwarz_setup(pb.dom, pb.A, mode="fd")),
    "none": (("single-patch", "multi-patch"), lambda cfg, pb: None),
}

class ConfigError(ValueError):
    """Invalid experiment configuration."""


class MemoryLimitError(ConfigError):
    """Predicted memory use exceeds the configured cap."""


# share of the machine's physical memory a run may be predicted to need,
# unless memory_cap is given
MEMORY_SHARE = 0.75


def _default_memory_cap():
    return int(MEMORY_SHARE * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))


@dataclass
class ExperimentConfig:
    domain: str = "quarter_annulus"
    p: int = 3
    h_invs: tuple = (64,)
    solver: str = "fd"
    mode: str = "precond"
    eps: float = 0.1
    tol: float = 1e-8
    seed: int = 42
    maxit: int = 3000
    memory_cap: int = field(default_factory=_default_memory_cap)

    def validate(self):
        if self.domain not in [d.value for d in BuiltinDomain] + ["l_shape"]:
            raise ConfigError("unknown domain %r" % self.domain)
        if self.solver not in SOLVERS:
            raise ConfigError("unknown solver %r" % self.solver)
        if self.mode not in ("precond", "direct"):
            raise ConfigError("mode must be 'precond' or 'direct'")
        if self.p < 1:
            raise ConfigError("degree must be >= 1")
        if not self.h_invs:
            self.h_invs = ()
        for h in self.h_invs:
            if h < 2 or (h & (h - 1)) != 0:
                raise ConfigError("refinements must be positive powers of two, got %r" % (h,))
        if not 0.0 < self.eps < 1.0:
            raise ConfigError("inner tolerance must lie in (0, 1)")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("outer tolerance must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer, got %r" % (self.seed,))
        if self.maxit < 1:
            raise ConfigError("maxit must be >= 1, got %r" % (self.maxit,))
        if self.mode == "direct" and self.domain not in ("unit_square", "unit_cube"):
            raise ConfigError("direct mode applies the Kronecker solver, which is exact only on the unit square/cube")
        kind = "direct" if self.mode == "direct" else "multi-patch" if self.domain == "l_shape" else "single-patch"
        if kind not in SOLVERS[self.solver][0]:
            allowed = ", ".join(s for s, (kinds, _) in SOLVERS.items() if kind in kinds)
            raise ConfigError("solver %r does not run in %s rows, which take %s" % (self.solver, kind, allowed))
        return self


@dataclass
class ReportRow:
    domain: str
    p: int
    h_inv: int
    solver: str
    outer_iters: int
    inner_iters: int
    setup_s: float
    solve_s: float
    residual: float
    cond_bound: float
    nnz: int
    converged: bool = True


# the report's columns: every ReportRow field but the convergence flag
CSV_COLUMNS = [f.name for f in fields(ReportRow) if f.name != "converged"]


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)

    def to_csv(self):
        table = [CSV_COLUMNS] + [_cells(r) for r in self.rows]
        return "".join(",".join(cells) + "\n" for cells in table)

    def to_text(self):
        table = [CSV_COLUMNS] + [_cells(r) for r in self.rows]
        widths = [max(len(cells[c]) for cells in table) for c in range(len(CSV_COLUMNS))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(cells, widths)) for cells in table]
        return "\n".join(lines) + "\n"


def _cells(row):
    """The row's report cells in CSV_COLUMNS order; floats to 6 significant digits."""
    return ["%.6g" % x if isinstance(x, float) else str(x) for x in (getattr(row, c) for c in CSV_COLUMNS)]


def poisson_source(d):
    def f(x):
        out = np.zeros(len(x))
        for k in range(d):
            out += 2.0 * (x[:, k] ** 2 - x[:, k])
        return out

    return f


def _estimate_bytes(cfg, n, d, assembled):
    N = n**d
    if cfg.domain == "l_shape":
        N = 3 * N
    dense_u = d * n * n * 8
    # full-size vectors: CG's six (b, x, r, z, p, Ap), or a direct row's b,
    # result and residual check, and one preconditioner apply's work, the
    # largest being the 3D ADI apply's five arrays and its chunk buffers
    vec = 6 * N * 8 + (adi_work_bytes_3d((n,) * 3) if d == 3 else 5 * N * 8)
    est = dense_u + vec
    if assembled:
        w = 2 * cfg.p + 1
        nnz = w**d * N  # upper bound: every row holds the full band
        csr = nnz * 12
        if cfg.domain == "l_shape":
            est += nnz * 8 + nnz * 24 + csr  # patch matrices, COO scatter of their sum, CSR
        else:
            # the CSR is allocated up front and filled one leading basis
            # function at a time from a ring of the p + 1 open ones, so it is
            # held with the ring and either the kernel's work or one row's
            # copies: the element tables (d^3 of E q^3 entries) and, per plane
            # of elements, Q and its temporaries (about 400 B per point under
            # tracemalloc for p <= 3) and the d^2 trailing-direction sums of
            # the q leading points plus their q^2-row GEMM result; the Q of
            # the planes before it that wait to be screened together, up to
            # _BOUND_CHUNK points, take about 24 d^2 B per point with the
            # screen's temporaries
            q = cfg.p + 1
            E = n + 2 - cfg.p
            plane = q * (E * q) ** (d - 1)
            batch = min(E * plane, -(-_BOUND_CHUNK // plane) * plane)
            rows = ((n + 2) * w) ** (d - 1)
            kernel = 16 * d**3 * E * q**3 + 400 * plane + 24 * d * d * (batch - plane) + 8 * (d * d + q) * q * rows
            est += csr + q * w * rows * 8 + max(kernel, 4 * nnz // n * 8)
    return int(est)


@dataclass
class _Problem:
    A: object  # the assembled matrix; None in a direct row
    b: np.ndarray
    spaces: list = None  # single-patch domains only
    geo: object = None
    pencils: list = None  # the Kronecker solvers (fd, adi) only
    dom: object = None  # the multi-patch domain


def _problem(cfg, h_inv, rng, screen=None):
    """The linear system of one row of ``cfg`` at refinement ``h_inv``.

    A system whose ``_estimate_bytes`` exceeds ``cfg.memory_cap`` is refused
    with MemoryLimitError before anything large is allocated.  The unit cube
    takes a standard normal right-hand side from ``rng``; every other domain
    loads the Poisson source.  A single-patch stiffness pass adds its Q to
    the BoundScreen ``screen``, if one is given.
    """
    direct = cfg.mode == "direct"
    geo = None if cfg.domain == "l_shape" else builtin(BuiltinDomain(cfg.domain))
    need = _estimate_bytes(cfg, h_inv + cfg.p - 2, 2 if geo is None else geo.dim, assembled=not direct)
    if need > cfg.memory_cap:
        raise MemoryLimitError("experiment needs about %d bytes (cap %d)" % (need, cfg.memory_cap))
    if geo is None:
        dom = l_shape_domain(cfg.p, h_inv)
        A = assemble_multipatch_stiffness(dom)
        return _Problem(A, assemble_multipatch_load(dom, poisson_source(2)), dom=dom)
    spaces = [SplineSpace1D.uniform(cfg.p, h_inv) for _ in range(geo.dim)]
    A = None if direct else assemble_stiffness(spaces, geo, screen=screen)
    if cfg.domain == "unit_cube":
        b = rng.standard_normal(spaces[0].n ** geo.dim)
    else:
        b = assemble_load(spaces, geo, poisson_source(geo.dim))
    pencils = [assemble_pencil_1d(s) for s in spaces] if cfg.solver in ("fd", "adi") else None
    return _Problem(A, b, spaces, geo, pencils)


def _cond_bound_value(geo, screen):
    """The bound over the Gauss points ``screen`` holds from the stiffness pass and the corners.

    The bound is a supremum over the closed domain: the corners are added
    so boundary-singular parametrizations report the +inf sentinel.
    """
    corners = np.array(np.meshgrid(*([[0.0, 1.0]] * geo.dim), indexing="ij")).reshape(geo.dim, -1).T
    return condition_bound(geo, corners, screen).bound


def _run_row(cfg, h_inv, rng):
    direct = cfg.mode == "direct"
    t0 = time.perf_counter()
    screen = BoundScreen()
    pb = _problem(cfg, h_inv, rng, screen)
    prec = SOLVERS[cfg.solver][1](cfg, pb)
    t1 = time.perf_counter()
    if direct:
        x = prec.apply(pb.b)
        t2 = time.perf_counter()
        residual = np.linalg.norm(KroneckerSum(pb.pencils).matvec(x) - pb.b) / np.linalg.norm(pb.b)
        outer_iters = 1
        converged = residual <= 2 * max(cfg.tol, cfg.eps if cfg.solver == "adi" else 0.0)
        cond_bound = 1.0
        nnz = sum((2 * cfg.p + 1) * s.n for s in pb.spaces)
    else:
        result = pcg(pb.A, prec, pb.b, tol=cfg.tol, maxit=cfg.maxit)
        t2 = time.perf_counter()
        residual = result.true_residual
        outer_iters = result.iterations
        converged = result.converged
        cond_bound = float("nan") if pb.geo is None else _cond_bound_value(pb.geo, screen)
        nnz = pb.A.nnz
    return ReportRow(
        domain=cfg.domain,
        p=cfg.p,
        h_inv=h_inv,
        solver=cfg.solver,
        outer_iters=outer_iters,
        inner_iters=prec.plan.J if cfg.solver == "adi" else 0,
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        residual=float(residual),
        cond_bound=float(cond_bound),
        nnz=int(nnz),
        converged=bool(converged),
    )


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _MALLOC_TRIM = None


def _trim_heap():
    """Return the heap memory freed by a finished row to the system (glibc).

    glibc keeps a free top of its heap resident up to a trim threshold it
    raises to twice the largest array it has unmapped, here tens of MB.
    Whether the temporaries of one row stayed resident then turned on a few
    MB of heap layout, and SuperLU, which maps its factor storage fresh,
    stacked the next row's factors on top of them or not: the l_shape
    schwarz_exact row after the quarter_annulus rows peaked about 20 MB
    higher in some processes than in others.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def run_experiment(cfg):
    """Run one experiment over all requested refinements.

    Nonconvergent rows are flagged and the run continues; memory-cap and
    configuration problems raise ConfigError before any large allocation.
    """
    cfg.validate()
    report = ExperimentReport(config=cfg)
    rng = np.random.default_rng(cfg.seed)
    for h_inv in cfg.h_invs:
        report.rows.append(_run_row(cfg, h_inv, rng))
        _trim_heap()
    return report


def emit_report(report, format, path):
    """Write a report in 'csv' or 'text' format to the given path."""
    if format == "csv":
        payload = report.to_csv()
    elif format == "text":
        payload = report.to_text()
    else:
        raise ConfigError("unknown report format %r" % format)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
