"""Run the benchmark over many seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1-2 --write

Every run is a fresh ``perfbench/run.py`` process with the ``run_seconds`` of
BENCHMARK.json, one after another.  For each workload and end-to-end metric
it prints the median over seeds, the quartiles, and the interquartile
distance as a share of the median next to the metric's bound.  It also checks
that every run is correct and reports exactly the metrics, with the units,
that BENCHMARK.json declares.  ``--write`` merges the summary into
perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1)) if text else []


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return json.loads(lines[-2]), json.loads(lines[-1])


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _check(result, declared, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    problems = [] if got == want else ["%s: metrics %s, declared %s" % (where, got, want)]
    if not result["correct"] or result["failed"]:
        problems.append("%s: correct=%s failed=%d" % (where, result["correct"], result["failed"]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range for --trace 0 runs, e.g. 1-10")
    ap.add_argument("--trace-seeds", default="", help="seed range for --trace 1 runs")
    ap.add_argument("--workload", action="append", help="workload to run (default: all)")
    ap.add_argument("--write", action="store_true", help="merge the summary into perfbench/baseline.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    baseline["run_seconds"] = seconds
    problems = []
    for wl in workloads:
        entry = baseline["workloads"].setdefault(wl, {})
        runs = []
        for seed in _seeds(args.seeds):
            detail, result = _run(wl, seed, seconds, 0)
            problems += _check(result, bench["end_to_end"], "%s seed %d" % (wl, seed))
            runs.append(result["metrics"])
            print(wl, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        if runs:
            baseline["machine"] = detail["machine"]
            entry["seeds"] = _seeds(args.seeds)
            entry["rows"] = [
                {k: r.get(k) for k in ("row", "outer_iters", "inner_iters")} for r in detail["passes"][0]
            ]
            entry["end_to_end"] = {}
            print("%-12s %-14s %10s %10s %10s %7s %6s" % (wl, "metric", "median", "q1", "q3", "spread", "bound"))
            for name, bound in bounds.items():
                s = _summary([r[name]["value"] for r in runs])
                entry["end_to_end"][name] = s
                flag = "" if s["spread"] <= bound / 3 else ("  > bound/3" if s["spread"] <= bound else "  > BOUND")
                print("%-12s %-14s %10.4f %10.4f %10.4f %7.4f %6.3f%s" % (
                    "", name, s["median"], s["q1"], s["q3"], s["spread"], bound, flag))
        traced = []
        for seed in _seeds(args.trace_seeds):
            _, result = _run(wl, seed, seconds, 1)
            problems += _check(result, bench["per_layer"], "%s trace seed %d" % (wl, seed))
            traced.append(result["metrics"])
        if traced:
            entry["trace_seeds"] = _seeds(args.trace_seeds)
            entry["per_layer_median"] = {
                k: statistics.median(t[k]["value"] for t in traced) for k in traced[0]
            }
            print(wl, "per-layer medians:", json.dumps(entry["per_layer_median"]), flush=True)
    for p in problems:
        print("PROBLEM:", p)
    if args.write:
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
