"""The benchmark's workloads: `igakron run` rows, a warm-up row and the spans each must show.

Every row is one ``run_experiment`` call with tol=1e-8 and eps=0.1, the
benchmark's seed passed in as ``ExperimentConfig.seed``.  The reason each
workload exists is its ``why`` line in ``BENCHMARK.json``; the comments below
say which layers it is the main workload for.
"""

TOL = 1e-8
EPS = 0.1

WORKLOADS = {
    # 3D assembly (geometry pull-back, banded accumulator to CSR), the
    # a-priori condition bound and 3D ADI inside CG.
    "ring3d": {
        "rows": [
            dict(domain="thick_quarter_ring", p=3, h_inv=32, solver="adi"),
        ],
        "spans": [
            "assembly.stiffness",
            "assembly.load",
            "assembly.pencils",
            "assembly.cond_bound",
            "geometry.eval_Q",
            "adi.setup",
            "adi.apply",
            "pcg",
            "pcg.A",
            "pcg.P",
        ],
    },
    # Preconditioner setup and applies in 2D: FD, 2D ADI (power-method
    # brackets), IC(0) and both Schwarz variants on the multi-patch L-shape.
    "plane2d": {
        "rows": [
            dict(domain="quarter_annulus", p=3, h_inv=256, solver="fd"),
            dict(domain="quarter_annulus", p=3, h_inv=256, solver="adi"),
            dict(domain="quarter_annulus", p=3, h_inv=128, solver="ic"),
            dict(domain="l_shape", p=2, h_inv=64, solver="schwarz_exact"),
            dict(domain="l_shape", p=2, h_inv=64, solver="schwarz_fd"),
        ],
        "spans": [
            "eigen.gvd",
            "eigen.bracket",
            "fd.setup",
            "fd.apply",
            "ic.setup",
            "ic.apply",
            "multipatch.assemble",
            "multipatch.schwarz_setup",
            "multipatch.schwarz_apply",
            "pcg",
            "pcg.A",
            "pcg.P",
        ],
    },
    # One large Kronecker apply per setup, no A or b assembly: the bypass
    # case for assembly changes and the main case for the banded and
    # Kronecker kernels.  The right-hand side is random, drawn from the seed.
    "kron-direct": {
        "rows": [
            dict(domain="unit_cube", p=3, h_inv=128, solver="fd", mode="direct"),
            dict(domain="unit_cube", p=3, h_inv=128, solver="adi", mode="direct"),
        ],
        "spans": [
            "eigen.gvd",
            "fd.setup",
            "fd.apply",
            "adi.setup",
            "adi.apply",
            "banded.chol_solve",
            "banded.matmat",
            "banded.combine",
            "kron.kron_matvec",
            "kron.along_axis",
            "kron.ksum_matvec",
        ],
    },
}

# The warm-up row is the workload's first row at this refinement; it pays
# the lazy imports and first LAPACK calls and is never reported.
WARMUP_H_INV = 8


def config_kwargs(row, seed, h_inv=None):
    """ExperimentConfig keyword arguments for one row."""
    kw = {k: v for k, v in row.items() if k != "h_inv"}
    kw.update(h_invs=(h_inv or row["h_inv"],), tol=TOL, eps=EPS, seed=seed)
    return kw
