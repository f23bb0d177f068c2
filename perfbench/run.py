"""Benchmark `igakron run` end to end, with an outside-in trace per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ring3d --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` next to this directory and driven
through its library entry point ``igakron.bench.run_experiment``, which is
what ``igakron run`` calls.  BLAS threads are set to the number of CPUs this
process may use.  The seed becomes ``ExperimentConfig.seed``.

``--trace 0`` runs one discarded warm-up row, then whole passes over the
workload's rows while ``--seconds`` lasts (at least two), and reports the
median over passes of every end-to-end metric.  ``--trace 1`` runs the warm-up, one untraced
pass and one traced pass (see tracing.py) and reports the per-layer metrics.
It fails unless the traced pass repeats the untraced pass's iteration counts
and residuals and shows every span its workload is the main workload for.

End-to-end metrics: ``wall_s``, the wall time of the pass's
``run_experiment`` calls; ``setup_s`` and ``solve_s``, the sums of the rows'
reported times; ``cg_iterations``, the sum of outer iterations;
``peak_rss_mb``, the process's ``ru_maxrss``; ``passed_share``, the share of
attempted rows that passed (the failed share is ``failed / attempted`` of the
result line).  A row passes when it did not raise, is converged and its true
residual meets tol (precond rows), or meets the residual test the direct
solver applies to itself (direct rows).

The last line of standard output is the result; the line before it is the
detail record (machine, passes, rows), which is also written with the spans
to perfbench/results/.  Exit code 2 means the
arguments are invalid or the program is missing.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import EPS, TOL, WARMUP_H_INV, WORKLOADS, config_kwargs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# end-to-end metric -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "cg_iterations": "count",
    "peak_rss_mb": "MB",
    "passed_share": "share",
}

MIN_PASSES = 2
RESIDUAL_RTOL = 1e-12  # traced and untraced residuals agree up to rounding


def _fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def _git_commit():
    """HEAD commit of the checkout, read from its .git directory, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine(seed, threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "arch": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _row_label(row):
    return "%s/p%d/h%d/%s%s" % (
        row["domain"], row["p"], row["h_inv"], row["solver"], "/direct" if row.get("mode") == "direct" else ""
    )


def _residual_limit(row, tol, eps):
    if row.get("mode") == "direct":
        # the test _run_direct_row applies to its own result
        return 2 * max(tol, eps if row["solver"] == "adi" else 0.0)
    return tol


def run_pass(rows, seed):
    """One pass over the workload's rows; one record per row."""
    from igakron.bench import ExperimentConfig, run_experiment

    out = []
    for row in rows:
        rec = {"row": _row_label(row)}
        t0 = time.perf_counter()
        try:
            r = run_experiment(ExperimentConfig(**config_kwargs(row, seed))).rows[0]
        except Exception:  # a row that raises is counted as failed; the pass goes on
            rec.update(wall_s=time.perf_counter() - t0, error=traceback.format_exc(), passed=False)
            print(rec["error"], file=sys.stderr)
            out.append(rec)
            continue
        rec.update(
            wall_s=time.perf_counter() - t0,
            setup_s=r.setup_s,
            solve_s=r.solve_s,
            outer_iters=r.outer_iters,
            inner_iters=r.inner_iters,
            residual=r.residual,
            converged=r.converged,
            passed=bool(r.converged and r.residual <= _residual_limit(row, TOL, EPS)),
        )
        out.append(rec)
    return out


def pass_totals(recs):
    return {
        "wall_s": sum(r["wall_s"] for r in recs),
        "setup_s": sum(r.get("setup_s", 0.0) for r in recs),
        "solve_s": sum(r.get("solve_s", 0.0) for r in recs),
        "cg_iterations": sum(r.get("outer_iters", 0) for r in recs),
    }


def same_solution(a, b):
    """Whether two records of one row report the same iterations and residual."""
    return (
        "error" not in a
        and "error" not in b
        and (a["outer_iters"], a["inner_iters"]) == (b["outer_iters"], b["inner_iters"])
        and math.isclose(a["residual"], b["residual"], rel_tol=RESIDUAL_RTOL)
    )


def measure(rows, seed, seconds):
    """Whole passes while ``seconds`` lasts; medians of the end-to-end metrics.

    At least two passes run, so every set-up is measured at least twice; after
    that a pass starts only if one as long as the longest so far still fits.
    """
    passes, longest = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(rows, seed))
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + longest > seconds:
            break
    totals = [pass_totals(p) for p in passes]
    records = [r for p in passes for r in p]
    failed = sum(not r["passed"] for r in records)
    metrics = {k: float(statistics.median(t[k] for t in totals)) for k in totals[0]}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["passed_share"] = (len(records) - failed) / len(records)
    metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    return records, metrics, [], {"passes": passes, "totals": totals}


def measure_traced(rows, seed, spans, warmup_s):
    """One untraced and one traced pass; per-layer metrics and fidelity checks."""
    untraced = run_pass(rows, seed)
    tracer = Tracer()
    with tracer.installed() as missing_targets:
        t0 = time.perf_counter()
        traced = run_pass(rows, seed)
        traced_wall = time.perf_counter() - t0
    tracer.probe_stiffness_memory()
    counts = tracer.span_counts()
    problems = ["span %s never seen" % s for s in spans if not counts[s]]
    problems += [
        "%s: traced pass differs from untraced" % a["row"] for a, b in zip(untraced, traced) if not same_solution(a, b)
    ]
    metrics = tracer.layer_metrics()
    metrics["bench.self_s"] = {"value": traced_wall - tracer.root_time(), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - pass_totals(untraced)["wall_s"], "unit": "s"}
    metrics["trace.warmup_s"] = {"value": warmup_s, "unit": "s"}
    detail = {
        "passes": [untraced, traced],
        "missing_targets": missing_targets,
        "span_counts": dict(counts),
        "spans": tracer.spans,
    }
    return untraced + traced, metrics, problems, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "igakron" / "__init__.py").is_file():
        _fail("the program is missing: no %s" % (SRC / "igakron"))
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import igakron

    if Path(igakron.__file__).resolve().parent != SRC / "igakron":
        _fail("imported igakron from %s, not from %s" % (igakron.__file__, SRC))
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    try:
        igakron.run_experiment(igakron.ExperimentConfig(**config_kwargs(wl["rows"][0], args.seed, WARMUP_H_INV)))
    except Exception:  # the measured passes record the failure
        traceback.print_exc()
    warmup_s = time.perf_counter() - t0

    if args.trace:
        records, metrics, problems, detail = measure_traced(wl["rows"], args.seed, wl["spans"], warmup_s)
    else:
        records, metrics, problems, detail = measure(wl["rows"], args.seed, args.seconds)
    detail.update(
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        warmup_s=warmup_s,
        machine=_machine(args.seed, threads),
        problems=problems,
    )
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(detail, fh)
    detail.pop("spans", None)
    print(json.dumps(detail))
    failed = sum(not r["passed"] for r in records)
    result = {"correct": failed == 0 and not problems, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
