"""Kronecker-structured fast solvers for tensor-product isogeometric Poisson problems.

The package provides B-spline Galerkin assembly on 2D/3D tensor-product
spaces, the Kronecker-sum preconditioner with a fast-diagonalization direct
solver and alternating-direction iterative solvers for its application, an
incomplete-Cholesky baseline, conforming multi-patch support with overlapping
Schwarz preconditioning, and a benchmark command line driver.
"""

from .bspline import SplineSpace1D, basis_tables
from .banded import BandedSymMatrix, BandedCholesky
from .kron import KroneckerSum, kron_matvec
from .geometry import (
    DOMAINS,
    GeometryMap,
    builtin,
    identity_map,
    affine_map,
)
from .assembly import (
    assemble_pencil_1d,
    assemble_stiffness,
    assemble_load,
    condition_bound,
    gauss_rule,
    quadrature_grid,
    l2_error,
    write_matrix_market,
)
from .eigen import PencilEigen, generalized_eig, extreme_eigs
from .fd import FDPreconditioner, fd_setup
from .adi import (
    ADIPreconditioner,
    ShiftPlan,
    adi_iteration_count,
    adi_solve_2d,
    adi_solve_3d,
    douglas_shifts_3d,
    greedy_shifts_3d,
    wachspress_shifts,
)
from .pcg import IndefiniteOperatorError, PCGResult, lanczos_condition_estimate, pcg
from .ic import ICFactor, ic0_setup
from .multipatch import (
    ConformityError,
    MultiPatchDomain,
    Patch,
    SchwarzPreconditioner,
    assemble_multipatch_load,
    assemble_multipatch_stiffness,
    build_multipatch,
    l_shape_domain,
    schwarz_setup,
)
from .bench import ExperimentConfig, ExperimentReport, emit_report, run_experiment

__version__ = "0.1.0"
