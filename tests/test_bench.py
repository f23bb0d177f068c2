import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import igakron
import igakron.bench
from igakron.adi import ADIPreconditioner
from igakron.assembly import (
    BoundScreen,
    assemble_load,
    assemble_pencil_1d,
    assemble_stiffness,
    condition_bound,
    quadrature_grid,
)
from igakron.bench import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    MemoryLimitError,
    _estimate_bytes,
    emit_report,
    poisson_source,
    run_experiment,
)
from igakron.bspline import SplineSpace1D
from igakron.cli import _build_config, build_parser, main
from igakron.fd import fd_setup
from igakron.geometry import builtin, eval_Q_masked
from igakron.ic import ic0_setup
from igakron.kron import KroneckerSum
from igakron.multipatch import (
    assemble_multipatch_load,
    assemble_multipatch_stiffness,
    l_shape_domain,
    schwarz_setup,
)
from igakron.pcg import pcg


def run_python(*args):
    # the child imports the same igakron as the tests, installed or not
    src = os.path.dirname(os.path.dirname(igakron.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    return run_python("-m", "igakron.cli", *args)


def test_import_leaves_scipy_optimize_out():
    # both 3D shift plans are evaluated on eigenvalue triples; no optimizer is imported
    cp = run_python("-c", "import sys, igakron; print('scipy.optimize' in sys.modules)")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"


def test_config_validation():
    for bad in [
        dict(domain="moebius"),
        dict(h_invs=(48,)),
        dict(eps=1.5),
        dict(mode="direct", domain="quarter_annulus"),
        dict(mode="direct", domain="unit_square", solver="ic"),
        dict(solver="schwarz_fd", domain="unit_square"),
        dict(solver="fd", domain="l_shape"),
        dict(solver="adi", domain="l_shape"),
        dict(seed=-1),
        dict(maxit=0),
    ]:
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validate()
    ExperimentConfig(domain="unit_square", mode="direct", solver="fd", h_invs=(16,)).validate()


def test_direct_square_single_row():
    cfg = ExperimentConfig(domain="unit_square", p=2, h_invs=(32,), solver="fd", mode="direct")
    rep = run_experiment(cfg)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row.outer_iters == 1
    assert row.residual <= 1e-10
    assert row.converged


@pytest.mark.parametrize("domain,d,h_inv", [("unit_square", 2, 32), ("unit_cube", 3, 8)])
def test_direct_adi_row_is_the_preconditioner_apply(domain, d, h_inv, monkeypatch):
    # the row reports the residual of its solution through KroneckerSum.matvec
    solutions = []
    matvec = KroneckerSum.matvec

    def recording_matvec(self, x):
        solutions.append(np.array(x))
        return matvec(self, x)

    monkeypatch.setattr(KroneckerSum, "matvec", recording_matvec)
    cfg = ExperimentConfig(domain=domain, p=2, h_invs=(h_inv,), solver="adi", mode="direct", eps=0.1, seed=11)
    row = run_experiment(cfg).rows[0]
    monkeypatch.undo()

    spaces = [SplineSpace1D.uniform(2, h_inv) for _ in range(d)]
    pencils = [assemble_pencil_1d(s) for s in spaces]
    prec = ADIPreconditioner.setup(pencils, eps=cfg.eps)
    N = KroneckerSum(pencils).n
    if d == 2:
        b = assemble_load(spaces, builtin(domain), poisson_source(2))
    else:
        b = np.random.default_rng(cfg.seed).standard_normal(N)
    x = prec.apply(b)
    assert row.inner_iters == prec.plan.J
    assert row.residual <= 2 * cfg.eps
    assert row.converged
    assert len(solutions) == 1
    assert np.linalg.norm(solutions[0] - x) <= 1e-12 * np.linalg.norm(x)


# the library functions the driver looks up in igakron.bench when a row runs
BENCH_LOOKUPS = [
    "assemble_stiffness",
    "assemble_load",
    "assemble_pencil_1d",
    "condition_bound",
    "fd_setup",
    "ic0_setup",
    "assemble_multipatch_stiffness",
    "assemble_multipatch_load",
    "schwarz_setup",
    "pcg",
]
SINGLE = {"assemble_stiffness", "assemble_load", "condition_bound", "pcg"}
MULTI = {"assemble_multipatch_stiffness", "assemble_multipatch_load", "pcg"}


# the tracer's lookup points that name nothing in the program (ROADMAP item
# 2 lists them); pinned, so a deletion cannot drop another traced name unseen
STALE_LOOKUPS = sorted(
    ["bench:" + f for f in ("generalized_eig", "extreme_eigs", "wachspress_shifts", "douglas_shifts_3d", "adi_solve_2d", "adi_solve_3d")]
    + ["kron:solve_along_axis", "adi:apply_along_axis", "adi:solve_along_axis", "adi:kron_matvec"]
)


def test_every_workload_row_runs_under_the_layer_trace(monkeypatch):
    # the benchmark's tracer wraps program functions by name and reads some of
    # their arguments (eval_Q_masked's zeta by keyword): every row of every
    # workload, at the warm-up size, must run traced and show its spans
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    import workloads

    for name, wl in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        with tracer.installed() as missing:
            assert sorted(missing) == STALE_LOOKUPS, name
            for row in wl["rows"]:
                kwargs = workloads.config_kwargs(row, 1, workloads.WARMUP_H_INV)
                assert run_experiment(ExperimentConfig(**kwargs)).rows[0].converged, (name, row)
        counts = tracer.span_counts()
        assert [s for s in wl["spans"] if not counts[s]] == [], name


@pytest.mark.parametrize(
    "domain, solver, mode, looked_up",
    [
        ("quarter_annulus", "fd", "precond", SINGLE | {"assemble_pencil_1d", "fd_setup"}),
        ("quarter_annulus", "adi", "precond", SINGLE | {"assemble_pencil_1d"}),
        ("quarter_annulus", "ic", "precond", SINGLE | {"ic0_setup"}),
        ("quarter_annulus", "none", "precond", SINGLE),
        ("l_shape", "schwarz_exact", "precond", MULTI | {"schwarz_setup"}),
        ("l_shape", "schwarz_fd", "precond", MULTI | {"schwarz_setup"}),
        ("l_shape", "ic", "precond", MULTI | {"ic0_setup"}),
        ("l_shape", "none", "precond", MULTI),
        ("unit_square", "fd", "direct", {"assemble_load", "assemble_pencil_1d", "fd_setup"}),
        ("unit_square", "adi", "direct", {"assemble_load", "assemble_pencil_1d"}),
    ],
)
def test_every_solver_row_is_the_library_solve(domain, solver, mode, looked_up, monkeypatch):
    calls = Counter()
    for name in BENCH_LOOKUPS:

        def counting(*args, _fn=getattr(igakron.bench, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(igakron.bench, name, counting)
    cfg = ExperimentConfig(domain=domain, p=2, h_invs=(8,), solver=solver, mode=mode)
    row = run_experiment(cfg).rows[0]
    monkeypatch.undo()
    assert set(calls) == looked_up

    # the same system and preconditioner, built without the driver
    if domain == "l_shape":
        dom = l_shape_domain(2, 8)
        A = assemble_multipatch_stiffness(dom)
        b = assemble_multipatch_load(dom, poisson_source(2))
    else:
        spaces = [SplineSpace1D.uniform(2, 8)] * 2
        A = assemble_stiffness(spaces, builtin(domain))
        b = assemble_load(spaces, builtin(domain), poisson_source(2))
        pencils = [assemble_pencil_1d(s) for s in spaces]
    prec = {
        "fd": lambda: fd_setup(KroneckerSum(pencils)),
        "adi": lambda: ADIPreconditioner.setup_2d(pencils, eps=cfg.eps),
        "ic": lambda: ic0_setup(A),
        "schwarz_exact": lambda: schwarz_setup(dom, A, mode="exact"),
        "schwarz_fd": lambda: schwarz_setup(dom, A, mode="fd"),
        "none": lambda: None,
    }[solver]()
    if mode == "direct":
        x = prec.apply(b)
        iterations = 1
        residual = np.linalg.norm(KroneckerSum(pencils).matvec(x) - b) / np.linalg.norm(b)
    else:
        ref = pcg(A, prec, b, tol=cfg.tol, maxit=cfg.maxit)
        iterations = ref.iterations
        residual = ref.true_residual
    assert row.outer_iters == iterations
    assert row.residual == pytest.approx(residual, rel=1e-12)
    assert row.converged


def test_precond_quarter_annulus_constant_iterations():
    cfg = ExperimentConfig(domain="quarter_annulus", p=3, h_invs=(64, 128), solver="fd")
    rep = run_experiment(cfg)
    iters = [r.outer_iters for r in rep.rows]
    assert all(20 <= k <= 30 for k in iters)  # 25 +- 5
    assert abs(iters[0] - iters[1]) <= 2
    for r in rep.rows:
        assert r.residual <= 2 * cfg.tol
        assert abs(r.cond_bound - np.pi**2) < 0.05 * np.pi**2


def test_collapsed_triangle_iterations_grow():
    cfg = ExperimentConfig(domain="collapsed_triangle", p=2, h_invs=(16, 32, 64), solver="fd")
    rep = run_experiment(cfg)
    iters = [r.outer_iters for r in rep.rows]
    assert iters[0] < iters[1] < iters[2]
    assert all(np.isinf(r.cond_bound) for r in rep.rows)


def test_memory_guard_refuses():
    cfg = ExperimentConfig(domain="quarter_annulus", p=2, h_invs=(64,), solver="fd", memory_cap=2**20)
    with pytest.raises(MemoryLimitError, match="bytes"):
        run_experiment(cfg)


def test_export_matrix_honours_the_memory_cap(monkeypatch, tmp_path, capsys):
    # export-matrix builds its system through _problem, which checks the
    # default cap (MEMORY_SHARE of physical memory) before assembling
    monkeypatch.setattr(igakron.bench, "MEMORY_SHARE", 1e-9)
    prefix = tmp_path / "sys"
    assert main(["export-matrix", "--domain", "quarter_annulus", "--p", "2", "--h-inv", "8", "--out", str(prefix)]) == 2
    assert "configuration error: experiment needs about" in capsys.readouterr().err
    assert not list(tmp_path.glob("sys*"))


@pytest.mark.parametrize("domain, d, h_inv", [("quarter_annulus", 2, 64), ("thick_quarter_ring", 3, 16)])
@pytest.mark.parametrize("p", [2, 3])
def test_memory_estimate_covers_stiffness_assembly(domain, d, h_inv, p):
    spaces = [SplineSpace1D.uniform(p, h_inv) for _ in range(d)]
    tracemalloc.start()
    try:
        # as a precond row assembles it, screening the condition bound
        assemble_stiffness(spaces, builtin(domain), screen=BoundScreen())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    est = _estimate_bytes(ExperimentConfig(domain=domain, p=p), spaces[0].n, d, assembled=True)
    assert peak <= est <= 1.5 * peak


def test_memory_estimate_covers_direct_adi_row(tracemalloc_peak):
    # the row holds b and the sweep's full-size arrays (7 at most, the
    # result among them); the estimate must cover them without doubling
    cfg = ExperimentConfig(domain="unit_cube", p=3, h_invs=(32,), solver="adi", mode="direct")
    peak = tracemalloc_peak(run_experiment, cfg)
    est = _estimate_bytes(cfg, 33, 3, assembled=False)
    assert peak <= est <= 2 * peak


def test_condition_bound_memory_does_not_grow(tracemalloc_peak):
    # Q is evaluated on the sample points chunk by chunk: 8x the points
    # (2.1 M at 1/h = 32) must not raise the peak of the call
    geo = builtin("thick_quarter_ring")
    peaks = []
    for h in (16, 32):
        _, z, _ = quadrature_grid([SplineSpace1D.uniform(3, h)] * 3, 4)
        peaks.append(tracemalloc_peak(condition_bound, geo, z))
        del z
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("domain, d, h_inv", [("quarter_annulus", 2, 8), ("thick_quarter_ring", 3, 4)])
def test_precond_row_evaluates_Q_once_per_point(domain, d, h_inv, monkeypatch):
    # Q at every Gauss point once, in the stiffness pass, and then at the
    # 2^d corners for the bound: (E q)^d + 2^d points
    points = []

    def counting(geo, *, zeta):
        points.append(len(zeta))
        return eval_Q_masked(geo, zeta=zeta)

    monkeypatch.setattr(igakron.assembly, "eval_Q_masked", counting)
    p = 2
    row = run_experiment(ExperimentConfig(domain=domain, p=p, h_invs=(h_inv,), solver="fd")).rows[0]
    monkeypatch.undo()
    assert sum(points) == (h_inv * (p + 1)) ** d + 2**d
    assert points[-1] == 2**d
    _, z, _ = quadrature_grid([SplineSpace1D.uniform(p, h_inv)] * d, p + 1)
    corners = np.array(np.meshgrid(*([[0.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
    assert row.cond_bound == condition_bound(builtin(domain), np.vstack([z, corners])).bound


def test_default_memory_cap_within_physical_memory():
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert 0 < ExperimentConfig().memory_cap <= phys
    # --memory-cap overrides the default
    args = build_parser().parse_args(["run", "--memory-cap", str(2**20)])
    assert _build_config(args).memory_cap == 2**20


def test_reproducibility():
    cfg = ExperimentConfig(domain="unit_cube", p=2, h_invs=(8,), solver="adi", eps=0.1)
    it1 = [r.outer_iters for r in run_experiment(cfg).rows]
    it2 = [r.outer_iters for r in run_experiment(cfg).rows]
    assert it1 == it2


def test_heap_trimmed_after_every_row(monkeypatch):
    # each row starts from a trimmed heap, not from what the row before it left
    events = []
    run_row = igakron.bench._run_row

    def recording_row(*args):
        events.append("row")
        return run_row(*args)

    monkeypatch.setattr(igakron.bench, "_run_row", recording_row)
    monkeypatch.setattr(igakron.bench, "_trim_heap", lambda: events.append("trim"))
    run_experiment(ExperimentConfig(domain="unit_square", p=2, h_invs=(8, 16), solver="fd", mode="direct"))
    assert events == ["row", "trim", "row", "trim"]


def test_empty_refinements_header_only_csv(tmp_path):
    cfg = ExperimentConfig(domain="unit_square", p=2, h_invs=(), solver="fd", mode="direct")
    rep = run_experiment(cfg)
    path = tmp_path / "empty.csv"
    emit_report(rep, "csv", path)
    text = path.read_text()
    assert text.strip() == ",".join(CSV_COLUMNS)


def test_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(domain="quarter_annulus", p=2, h_invs=(16, 32), solver="fd")
    rep = run_experiment(cfg)
    path = tmp_path / "rep.csv"
    emit_report(rep, "csv", path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rep.rows)
    for line, row in zip(lines[1:], rep.rows):
        vals = dict(zip(CSV_COLUMNS, line.split(",")))
        assert vals["domain"] == row.domain
        assert int(vals["p"]) == row.p
        assert int(vals["h_inv"]) == row.h_inv
        assert vals["solver"] == row.solver
        assert int(vals["outer_iters"]) == row.outer_iters
        assert int(vals["inner_iters"]) == row.inner_iters
        assert abs(float(vals["residual"]) - row.residual) <= 1e-6 * max(1e-30, row.residual)
        assert abs(float(vals["cond_bound"]) - row.cond_bound) <= 1e-5 * row.cond_bound
        assert int(vals["nnz"]) == row.nnz


def test_text_format_alignment_golden():
    cfg = ExperimentConfig(domain="unit_square", p=1, h_invs=(), solver="fd", mode="direct")
    rep = run_experiment(cfg)
    from igakron.bench import ReportRow

    rep.rows = [
        ReportRow("unit_square", 1, 16, "fd", 1, 0, 0.125, 0.25, 1e-12, 1.0, 100),
        ReportRow("quarter_annulus", 3, 128, "adi", 25, 6, 1.5, 2.25, 9.5e-09, 9.8696, 123456),
    ]
    golden = (
        "         domain  p  h_inv  solver  outer_iters  inner_iters  setup_s  solve_s  residual  cond_bound     nnz\n"
        "    unit_square  1     16      fd            1            0    0.125     0.25     1e-12           1     100\n"
        "quarter_annulus  3    128     adi           25            6      1.5     2.25   9.5e-09      9.8696  123456\n"
    )
    assert rep.to_text() == golden


def test_cli_run_and_exit_codes(tmp_path):
    out = tmp_path / "r.csv"
    cp = run_cli(
        "run", "--domain", "unit_square", "--mode", "direct", "--solver", "fd",
        "--p", "2", "--h-inv", "16", "--out", str(out), "--format", "csv",
    )
    assert cp.returncode == 0, cp.stderr
    assert out.exists()
    assert "unit_square" in cp.stdout

    cp_bad = run_cli("run", "--domain", "not_a_domain", "--h-inv", "16")
    assert cp_bad.returncode == 2
    assert "configuration error" in cp_bad.stderr

    cp_noconv = run_cli(
        "run", "--domain", "quarter_annulus", "--solver", "none", "--p", "2",
        "--h-inv", "32", "--maxit", "3", "--tol", "1e-12",
    )
    assert cp_noconv.returncode == 3


def test_cli_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# benchmark config\n"
        "domain=quarter_annulus\n"
        "p=2\n"
        "h_inv=16,32\n"
        "solver=fd\n"
        "mode=precond\n"
        "eps=0.1\n"
        "tol=1e-8\n"
        "seed=42\n"
    )
    cp = run_cli("run", "--config", str(cfgfile), "--p", "3")
    assert cp.returncode == 0, cp.stderr
    assert " 3 " in cp.stdout  # the flag override won


def test_cli_export_matrix(tmp_path):
    prefix = tmp_path / "sys"
    cp = run_cli("export-matrix", "--domain", "quarter_annulus", "--p", "2", "--h-inv", "8", "--out", str(prefix))
    assert cp.returncode == 0, cp.stderr
    A = scipy.io.mmread(str(prefix) + ".A.mtx").tocsr()
    b = scipy.io.mmread(str(prefix) + ".b.mtx").ravel()
    assert A.shape[0] == b.size == 64


def test_cli_shifts(tmp_path):
    cp = run_cli("shifts", "--a", "1", "--b", "100", "--eps", "1e-8")
    assert cp.returncode == 0
    assert cp.stdout.startswith("J = 13 of a-priori 13  (contraction ")
    cp3 = run_cli("shifts", "--a", "1", "--b", "100", "--eps", "1e-2", "--dim", "3")
    assert cp3.returncode == 0
    assert "omega" in cp3.stdout


@pytest.mark.parametrize("a, b, J", [("2", "3", 9), ("1", "1.3", 8)])
def test_cli_shifts_narrow_spectrum_tight_eps(a, b, J):
    # the ladder of the a-priori count J0 = 7 falls short of 1e-6 on these
    # brackets; a longer one certifies
    cp = run_cli("shifts", "--a", a, "--b", b, "--eps", "1e-6", "--dim", "3")
    assert cp.returncode == 0, cp.stderr
    header = cp.stdout.splitlines()[0]
    assert header.startswith("J = %d of a-priori 7  (contraction " % J)
    assert float(header.split("contraction ")[1].split()[0]) <= 1e-6
    assert header.endswith(" on 64-point log grids")
    assert len(cp.stdout.splitlines()) == 1 + J


def test_cli_greedy_shifts_header():
    # J0 is the ladder's a-priori count for [1, 100] at 1e-4, not the --j-max cap
    cp = run_cli("shifts", "--dim", "3", "--strategy", "greedy", "--a", "1", "--b", "100", "--eps", "1e-4", "--j-max", "30")
    assert cp.returncode == 0, cp.stderr
    header = cp.stdout.splitlines()[0]
    assert header.startswith("J = 14 of a-priori 50  (contraction ")
    # the contraction is the maximum on the grids the plan is checked on
    assert header.endswith(") on 64-point log grids")


BRACKET = "configuration error: a spectral bracket [a, b] needs 0 < a <= b < inf, "


@pytest.mark.parametrize(
    "args, message",
    [
        (("run", "--config", "bad.cfg"), "configuration error"),
        (("export-matrix", "--domain", "moebius", "--p", "2", "--h-inv", "8"), "configuration error"),
        (("export-matrix", "--domain", "quarter_annulus", "--p", "2", "--h-inv", "1"), "configuration error"),
        (("shifts", "--a", "5", "--b", "1", "--eps", "0.1"), "configuration error"),
        (("shifts", "--a", "5", "--b", "1", "--eps", "0.1", "--dim", "3"), "configuration error"),
        (("shifts", "--a", "1", "--b", "5", "--eps", "0.1", "--dim", "3", "--strategy", "elliptic"), "invalid choice"),
        (("run", "--domain", "unit_square", "--h-inv", "8", "--seed", "-1"), "configuration error"),
        (("run", "--domain", "unit_square", "--h-inv", "8", "--maxit", "0"), "configuration error"),
        (("export-matrix", "--domain", "quarter_annulus", "--p", "2", "--h-inv", "8", "--seed", "-1"), "configuration error"),
        (("shifts", "--a", "1", "--b", "5", "--eps", "0.1", "--dim", "3", "--strategy", "greedy", "--j-max", "0"), "configuration error"),
        (("shifts", "--a", "1", "--b", "5", "--eps", "1.5", "--dim", "3", "--strategy", "greedy"), "configuration error: tolerance"),
        # the 3D run plan is the Douglas ladder; there is no setting to choose another
        (("run", "--domain", "unit_cube", "--h-inv", "8", "--solver", "adi", "--adi-shifts", "greedy"), "unrecognized arguments"),
        (("run", "--config", "greedy.cfg"), "unknown key 'adi_shifts'"),
        # one bracket check for every plan: a reversed or infinite bracket is
        # refused before any arithmetic on it
        (("shifts", "--a", "5", "--b", "1", "--eps", "0.1"), BRACKET + "got [5, 1]"),
        (("shifts", "--a", "1", "--b", "inf", "--eps", "0.1"), BRACKET + "got [1, inf]"),
        (("shifts", "--a", "1", "--b", "inf", "--eps", "0.1", "--dim", "3"), BRACKET + "got [1, inf]"),
        (("shifts", "--a", "1", "--b", "inf", "--eps", "0.1", "--dim", "3", "--strategy", "greedy"), BRACKET + "got [1, inf]"),
        # an option the chosen plan does not read is refused, not ignored
        (("shifts", "--a", "1", "--b", "100", "--eps", "1e-8", "--strategy", "greedy", "--j-max", "3"), "configuration error: --strategy applies to --dim 3 only"),
        (("shifts", "--a", "1", "--b", "100", "--eps", "1e-8", "--strategy", "douglas"), "configuration error: --strategy applies to --dim 3 only"),
        (("shifts", "--a", "1", "--b", "100", "--eps", "1e-8", "--j-max", "3"), "configuration error: --j-max applies to --strategy greedy only"),
        # the greedy plan is deterministic and has no seed
        (("shifts", "--a", "1", "--b", "100", "--eps", "1e-8", "--dim", "3", "--strategy", "greedy", "--seed", "1"), "unrecognized arguments"),
        (("shifts", "--a", "1", "--b", "100", "--eps", "1e-8", "--dim", "3", "--strategy", "douglas", "--j-max", "3"), "configuration error: --j-max applies to --strategy greedy only"),
    ],
)
def test_cli_bad_input_exits_2(args, message, tmp_path):
    (tmp_path / "bad.cfg").write_text("domain=quarter_annulus\np=abc\n")
    (tmp_path / "greedy.cfg").write_text("domain=unit_cube\nsolver=adi\nadi_shifts=greedy\n")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    if args[0] == "export-matrix":
        args += ["--out", str(tmp_path / "sys")]
    cp = run_cli(*args)
    assert cp.returncode == 2
    assert message in cp.stderr
    assert "Traceback" not in cp.stderr
    assert "RuntimeWarning" not in cp.stderr
    assert not list(tmp_path.glob("sys*"))
