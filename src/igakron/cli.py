"""Benchmark command line.

Subcommands:
    run            run an experiment (config file and/or flags) and report
    export-matrix  dump a benchmark system in Matrix Market format
    shifts         print a shift plan for a given spectral bracket

Exit codes: 0 on success, 2 on configuration errors, 3 when every row of a
run failed to converge.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .adi import _check_bracket, douglas_shifts_3d, greedy_shifts_3d, wachspress_shifts
from .assembly import write_matrix_market
from .bench import SOLVERS, ConfigError, ExperimentConfig, _problem, emit_report, run_experiment

__all__ = ["main"]

# config-file keys and run flags: ExperimentConfig's fields, with the
# refinement list given as comma-separated h_inv
_CONFIG_KEYS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig) if f.name != "h_invs"}
_CONFIG_KEYS["h_inv"] = str


def _parse_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key=value" % (path, lineno))
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                values[key] = _CONFIG_KEYS[key](val.strip())
            except ValueError as err:
                raise ConfigError("%s:%d: %s" % (path, lineno, err)) from err
    return values


def _parse_h_invs(text):
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as err:
        raise ConfigError("bad refinement list %r" % text) from err


def _build_config(args):
    values = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if "h_inv" in values:
        values["h_invs"] = _parse_h_invs(values.pop("h_inv"))
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _cmd_run(args):
    cfg = _build_config(args)
    report = run_experiment(cfg)
    sys.stdout.write(report.to_text())
    if args.out:
        emit_report(report, args.format, args.out)
    if report.rows and not any(r.converged for r in report.rows):
        return 3
    return 0


def _cmd_export_matrix(args):
    cfg = ExperimentConfig(domain=args.domain, p=args.p, h_invs=(args.h_inv,), solver="none", seed=args.seed)
    pb = _problem(cfg.validate(), args.h_inv, np.random.default_rng(cfg.seed))
    A = pb.A
    write_matrix_market(A, args.out + ".A.mtx")
    write_matrix_market(pb.b, args.out + ".b.mtx")
    print("wrote %s.A.mtx (%dx%d, nnz %d) and %s.b.mtx" % (args.out, A.shape[0], A.shape[1], A.nnz, args.out))
    return 0


def _cmd_shifts(args):
    if args.dim == 2 and args.strategy is not None:
        raise ConfigError("--strategy applies to --dim 3 only")
    if args.j_max is not None and args.strategy != "greedy":
        raise ConfigError("--j-max applies to --strategy greedy only")
    where = ""
    try:
        if args.dim == 2:
            plan = wachspress_shifts(args.a, args.b, args.a, args.b, args.eps)
        else:
            _check_bracket(args.a, args.b, args.eps)
            # only the bracket is known: both 3D plans are checked on 64-point
            # log grids of it, and their contraction is the maximum there
            grids = [np.geomspace(args.a, args.b, 64)] * 3
            where = " on 64-point log grids"
            if args.strategy == "greedy":
                plan = greedy_shifts_3d(grids, 400 if args.j_max is None else args.j_max, args.eps)
            else:
                plan = douglas_shifts_3d(grids, args.eps)
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(str(err)) from err
    print("J = %d of a-priori %d  (contraction %.3e <= %.3e)%s" % (plan.J, plan.J0, plan.bound, args.eps, where))
    for j, w in enumerate(plan.omegas, 1):
        print("%3d  omega = %.9e" % (j, w))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="igakron", description="tensor-product Poisson solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--domain")
    run.add_argument("--p", type=int)
    run.add_argument("--h-inv", dest="h_inv", help="comma-separated refinement levels, e.g. 64,128")
    run.add_argument("--solver", choices=list(SOLVERS))
    run.add_argument("--mode", choices=["precond", "direct"])
    run.add_argument("--eps", type=float, help="inner (ADI) tolerance")
    run.add_argument("--tol", type=float, help="outer CG tolerance")
    run.add_argument("--seed", type=int)
    run.add_argument("--maxit", type=int)
    run.add_argument("--memory-cap", dest="memory_cap", type=int, help="refuse runs above this many bytes")
    run.add_argument("--out", help="write the report to this path")
    run.add_argument("--format", choices=["csv", "text"], default="csv")
    run.set_defaults(func=_cmd_run)

    exp = sub.add_parser("export-matrix", help="write the system matrix and load in Matrix Market format")
    exp.add_argument("--domain", required=True)
    exp.add_argument("--p", type=int, required=True)
    exp.add_argument("--h-inv", dest="h_inv", type=int, required=True)
    exp.add_argument("--seed", type=int, default=42)
    exp.add_argument("--out", required=True, help="output path prefix")
    exp.set_defaults(func=_cmd_export_matrix)

    sh = sub.add_parser("shifts", help="print a shift plan for a spectral bracket")
    sh.add_argument("--a", type=float, required=True)
    sh.add_argument("--b", type=float, required=True)
    sh.add_argument("--eps", type=float, required=True)
    sh.add_argument("--dim", type=int, choices=[2, 3], default=2)
    sh.add_argument("--strategy", choices=["douglas", "greedy"], default=None)
    sh.add_argument("--j-max", dest="j_max", type=int, help="greedy only; default 400")
    sh.set_defaults(func=_cmd_shifts)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
