import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_prints_every_section_at_warmup_size():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "fingerprint.py"), "--h-inv", "8"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    sections = {line.split()[0] for line in out}
    assert sections == {"system", "pencil", "plan2d", "plan3d", "apply", "product", "row", "lines", "settable"}
    # one apply and one row line per case-matrix row, each row converged
    rows = [line for line in out if line.startswith("row ")]
    assert len(rows) == len([line for line in out if line.startswith("apply ")]) > 0
    # one product line per case-matrix row (labelled workload:row) that assembles A
    case_A = [line for line in out if line.startswith("system ") and ":" in line.split()[1] and line.split()[2] == "A"]
    assert len([line for line in out if line.startswith("product ")]) == len(case_A) > 0
    assert all(line.endswith("converged=True") for line in rows)
    assert any(line.startswith("lines total ") for line in out)
    assert any(line.startswith("settable total ") for line in out)
