"""Benchmark experiment driver.

Assembles one of the benchmark problems, runs a chosen solver or
preconditioned CG, and collects per-refinement rows with iteration counts,
timings, the achieved residual, the a-priori condition bound and the matrix
fill.  Timings are reported but never asserted anywhere; iteration counts are
the reproducible quantity.
"""

import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .adi import ADIPreconditioner
from .assembly import (
    assemble_load,
    assemble_pencil_1d,
    assemble_stiffness,
    condition_bound,
    gauss_rule,
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

DOMAINS_2D = {"unit_square", "quarter_annulus", "stretched_square", "collapsed_triangle"}
DOMAINS_3D = {"unit_cube", "thick_quarter_ring", "revolved_quarter_ring"}
SOLVERS = {"fd", "adi", "ic", "schwarz_exact", "schwarz_fd", "none"}

CSV_COLUMNS = [
    "domain",
    "p",
    "h_inv",
    "solver",
    "outer_iters",
    "inner_iters",
    "setup_s",
    "solve_s",
    "residual",
    "cond_bound",
    "nnz",
]


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
    adi_shifts: str = "douglas"

    def validate(self):
        if self.domain not in DOMAINS_2D | DOMAINS_3D | {"l_shape"}:
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
        if self.mode == "direct":
            if self.domain not in ("unit_square", "unit_cube"):
                raise ConfigError("direct mode applies the Kronecker solver, which is exact only on the unit square/cube")
            if self.solver not in ("fd", "adi"):
                raise ConfigError("direct mode supports the fd and adi solvers")
        if self.solver in ("schwarz_exact", "schwarz_fd") and self.domain != "l_shape":
            raise ConfigError("Schwarz solvers need the multi-patch l_shape domain")
        if self.domain == "l_shape" and self.solver in ("adi",):
            raise ConfigError("the l_shape benchmark supports fd-based Schwarz, ic or none")
        if self.adi_shifts not in ("douglas", "greedy"):
            raise ConfigError("adi_shifts must be 'douglas' or 'greedy'")
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


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)

    def to_csv(self):
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.rows:
            out.write(
                "%s,%d,%d,%s,%d,%d,%s,%s,%s,%s,%d\n"
                % (
                    r.domain,
                    r.p,
                    r.h_inv,
                    r.solver,
                    r.outer_iters,
                    r.inner_iters,
                    _fmt(r.setup_s),
                    _fmt(r.solve_s),
                    _fmt(r.residual),
                    _fmt(r.cond_bound),
                    r.nnz,
                )
            )
        return out.getvalue()

    def to_text(self):
        cells = [CSV_COLUMNS]
        for r in self.rows:
            cells.append(
                [
                    r.domain,
                    str(r.p),
                    str(r.h_inv),
                    r.solver,
                    str(r.outer_iters),
                    str(r.inner_iters),
                    _fmt(r.setup_s),
                    _fmt(r.solve_s),
                    _fmt(r.residual),
                    _fmt(r.cond_bound),
                    str(r.nnz),
                ]
            )
        widths = [max(len(row[c]) for row in cells) for c in range(len(CSV_COLUMNS))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
        return "\n".join(lines) + "\n"


def _fmt(x):
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    if isinstance(x, float) and np.isinf(x):
        return "inf"
    return "%.6g" % x


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
    vec = 12 * N * 8
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
            # the q leading points plus their q^2-row GEMM result
            q = cfg.p + 1
            E = n + 2 - cfg.p
            plane = q * (E * q) ** (d - 1)
            rows = ((n + 2) * w) ** (d - 1)
            kernel = 16 * d**3 * E * q**3 + 400 * plane + 8 * (d * d + q) * q * rows
            est += csr + q * w * rows * 8 + max(kernel, 4 * nnz // n * 8)
    return int(est)


def _single_patch_problem(cfg, h_inv, rng):
    d = 2 if cfg.domain in DOMAINS_2D else 3
    spaces = [SplineSpace1D.uniform(cfg.p, h_inv) for _ in range(d)]
    geo = builtin(BuiltinDomain(cfg.domain))
    return d, spaces, geo


def _rhs_for(cfg, spaces, geo, d, N, rng):
    if cfg.domain == "unit_cube":
        return rng.standard_normal(N)
    return assemble_load(spaces, geo, poisson_source(d))


def _cond_bound_value(spaces, geo):
    axes = [gauss_rule(s, s.p + 1).points.ravel() for s in spaces]
    # the bound is a supremum over the closed domain: include the corners so
    # boundary-singular parametrizations report the +inf sentinel
    corners = np.array(np.meshgrid(*([[0.0, 1.0]] * geo.dim), indexing="ij")).reshape(geo.dim, -1).T
    return condition_bound(geo, None, axes, corners).bound


def _kron_preconditioner(cfg, pencils):
    """The FD or ADI solver of the Kronecker sum of the pencils."""
    if cfg.solver == "fd":
        return fd_setup(KroneckerSum(pencils))
    if len(pencils) == 2:
        return ADIPreconditioner.setup_2d(pencils, eps=cfg.eps, seed=cfg.seed)
    return ADIPreconditioner.setup_3d(pencils, eps=cfg.eps, shifts=cfg.adi_shifts, seed=cfg.seed)


def _run_direct_row(cfg, h_inv, rng):
    d, spaces, geo = _single_patch_problem(cfg, h_inv, rng)
    n = spaces[0].n
    need = _estimate_bytes(cfg, n, d, assembled=False)
    if need > cfg.memory_cap:
        raise MemoryLimitError("experiment needs about %d bytes (cap %d)" % (need, cfg.memory_cap))
    t0 = time.perf_counter()
    pencils = [assemble_pencil_1d(s) for s in spaces]
    P = KroneckerSum(pencils)
    b = _rhs_for(cfg, spaces, geo, d, P.n, rng)
    prec = _kron_preconditioner(cfg, pencils)
    t1 = time.perf_counter()
    x = prec.apply(b)
    t2 = time.perf_counter()
    res = np.linalg.norm(P.matvec(x) - b) / np.linalg.norm(b)
    return ReportRow(
        domain=cfg.domain,
        p=cfg.p,
        h_inv=h_inv,
        solver=cfg.solver,
        outer_iters=1,
        inner_iters=prec.inner_iterations if cfg.solver == "adi" else 0,
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        residual=float(res),
        cond_bound=1.0,
        nnz=sum((2 * cfg.p + 1) * s.n for s in spaces),
        converged=bool(res <= 2 * max(cfg.tol, cfg.eps if cfg.solver == "adi" else 0.0)),
    )


def _run_precond_row(cfg, h_inv, rng):
    if cfg.domain == "l_shape":
        return _run_l_shape_row(cfg, h_inv, rng)
    d, spaces, geo = _single_patch_problem(cfg, h_inv, rng)
    n = spaces[0].n
    need = _estimate_bytes(cfg, n, d, assembled=True)
    if need > cfg.memory_cap:
        raise MemoryLimitError("experiment needs about %d bytes (cap %d)" % (need, cfg.memory_cap))
    t0 = time.perf_counter()
    A = assemble_stiffness(spaces, geo)
    b = _rhs_for(cfg, spaces, geo, d, A.shape[0], rng)
    if cfg.solver in ("fd", "adi"):
        prec = _kron_preconditioner(cfg, [assemble_pencil_1d(s) for s in spaces])
    elif cfg.solver == "ic":
        prec = ic0_setup(A, reorder="rcm")
    elif cfg.solver == "none":
        prec = None
    else:
        raise ConfigError("solver %r is not available on single-patch domains" % cfg.solver)
    t1 = time.perf_counter()
    result = pcg(A, prec, b, tol=cfg.tol, maxit=cfg.maxit)
    t2 = time.perf_counter()
    return ReportRow(
        domain=cfg.domain,
        p=cfg.p,
        h_inv=h_inv,
        solver=cfg.solver,
        outer_iters=result.iterations,
        inner_iters=prec.inner_iterations if cfg.solver == "adi" else 0,
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        residual=float(result.true_residual),
        cond_bound=_cond_bound_value(spaces, geo),
        nnz=int(A.nnz),
        converged=bool(result.converged),
    )


def _run_l_shape_row(cfg, h_inv, rng):
    need = _estimate_bytes(cfg, h_inv + cfg.p - 2, 2, assembled=True)
    if need > cfg.memory_cap:
        raise MemoryLimitError("experiment needs about %d bytes (cap %d)" % (need, cfg.memory_cap))
    t0 = time.perf_counter()
    dom = l_shape_domain(cfg.p, h_inv)
    A = assemble_multipatch_stiffness(dom)
    b = assemble_multipatch_load(dom, poisson_source(2))
    if cfg.solver == "schwarz_exact":
        prec = schwarz_setup(dom, A, mode="exact")
    elif cfg.solver == "schwarz_fd":
        prec = schwarz_setup(dom, A, mode="fd")
    elif cfg.solver == "ic":
        prec = ic0_setup(A, reorder="rcm")
    elif cfg.solver == "none":
        prec = None
    else:
        raise ConfigError("solver %r is not available on the l_shape domain" % cfg.solver)
    t1 = time.perf_counter()
    result = pcg(A, prec, b, tol=cfg.tol, maxit=cfg.maxit)
    t2 = time.perf_counter()
    return ReportRow(
        domain=cfg.domain,
        p=cfg.p,
        h_inv=h_inv,
        solver=cfg.solver,
        outer_iters=result.iterations,
        inner_iters=0,
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        residual=float(result.true_residual),
        cond_bound=float("nan"),
        nnz=int(A.nnz),
        converged=bool(result.converged),
    )


def run_experiment(cfg):
    """Run one experiment over all requested refinements.

    Nonconvergent rows are flagged and the run continues; memory-cap and
    configuration problems raise ConfigError before any large allocation.
    """
    cfg.validate()
    report = ExperimentReport(config=cfg)
    rng = np.random.default_rng(cfg.seed)
    for h_inv in cfg.h_invs:
        if cfg.mode == "direct":
            row = _run_direct_row(cfg, h_inv, rng)
        else:
            row = _run_precond_row(cfg, h_inv, rng)
        report.rows.append(row)
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
