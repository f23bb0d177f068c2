import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.io

import igakron
from igakron.assembly import assemble_stiffness
from igakron.bench import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    MemoryLimitError,
    _estimate_bytes,
    emit_report,
    run_experiment,
)
from igakron.bspline import SplineSpace1D
from igakron.geometry import builtin


def run_cli(*args):
    # the child imports the same igakron as the tests, installed or not
    src = os.path.dirname(os.path.dirname(igakron.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "igakron.cli", *args], capture_output=True, text=True, env=env
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(domain="moebius").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(h_invs=(48,)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(eps=1.5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="direct", domain="quarter_annulus").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(solver="schwarz_fd", domain="unit_square").validate()
    ExperimentConfig(domain="unit_square", mode="direct", solver="fd", h_invs=(16,)).validate()


def test_direct_square_single_row():
    cfg = ExperimentConfig(domain="unit_square", p=2, h_invs=(32,), solver="fd", mode="direct")
    rep = run_experiment(cfg)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row.outer_iters == 1
    assert row.residual <= 1e-10
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


@pytest.mark.parametrize("domain, d, h_inv", [("quarter_annulus", 2, 64), ("thick_quarter_ring", 3, 16)])
@pytest.mark.parametrize("p", [2, 3])
def test_memory_estimate_covers_stiffness_assembly(domain, d, h_inv, p):
    spaces = [SplineSpace1D.uniform(p, h_inv) for _ in range(d)]
    tracemalloc.start()
    try:
        assemble_stiffness(spaces, builtin(domain))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    est = _estimate_bytes(ExperimentConfig(domain=domain, p=p), spaces[0].n, d, assembled=True)
    assert peak <= est <= 1.5 * peak


def test_reproducibility():
    cfg = ExperimentConfig(domain="unit_cube", p=2, h_invs=(8,), solver="adi", eps=0.1)
    it1 = [r.outer_iters for r in run_experiment(cfg).rows]
    it2 = [r.outer_iters for r in run_experiment(cfg).rows]
    assert it1 == it2


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
    assert "J = 13" in cp.stdout
    cp3 = run_cli("shifts", "--a", "1", "--b", "100", "--eps", "1e-2", "--dim", "3")
    assert cp3.returncode == 0
    assert "omega" in cp3.stdout
