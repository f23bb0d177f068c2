"""Fingerprint of the numbers igakron computes, one line per item, for diffing two commits.

    PYTHONPATH=src python tests/fingerprint.py > after.txt
    PYTHONPATH=/path/to/parent/src python tests/fingerprint.py > before.txt
    diff before.txt after.txt

The package is the ``igakron`` on the import path, so one copy of this script
fingerprints any checkout.  ``--h-inv H`` runs every case-matrix row and every
criterion size at 1/h = H instead of its own size (the smoke test uses 8).
Each line starts with its section:

    system   sha1 of A (data, indices, indptr) and of b, built by bench._problem,
             for every case-matrix row and every criterion size that assembles,
             and bound.hex() of the condition bound bench._cond_bound_value
             gives from A's stiffness pass, where A is single-patch
    pencil   sha1 of the K and M bands of each univariate pencil
    plan2d   J, J0, bound.hex() and sha1 of the shifts of the 2D plan
    plan3d   the same for the 3D ladder (and greedy) plans; "error" and the
             message where the plan is refused
    apply    sha1 of one apply of each case-matrix row's preconditioner on a
             seeded vector
    product  sha1 of one product with A, through pcg.as_apply as CG makes
             it, on a seeded vector, for each case-matrix row with an A
    row      outer_iters, inner_iters, residual.hex() and converged of each
             case-matrix row, run through run_experiment with seed 1
    pooled   at fixed sizes, whatever --h-inv is, where every pooled job
             deals more than one chunk: the A, b and bound of
             thick_quarter_ring p = 3, 1/h = 24, one 2D ADI apply at p = 3,
             1/h = 512, one 3D banded solve along axis 0 at p = 3, 1/h = 64,
             and one 3D ADI apply at p = 3 on 128, 135 and 120 spans
    lines    line count of each module of the package, and the total
    settable public settable values of each public name, and the total

Public settable values are counted from the source, by this rule: for each
name in a module's ``__all__`` that the module defines, the parameters of a
function; for a class, the parameters of its ``__init__``, of its public
methods and of ``__call__`` and ``__matmul__``, without self and cls, and its
annotated fields if it is a dataclass; the fields of a namedtuple; and, for
``cli``, one per ``add_argument`` call.

The hashes depend on the BLAS build and the CPU's kernels, so compare two
commits on one machine; never assert them against a stored file.
"""

import argparse
import ast
import hashlib
import sys
from pathlib import Path

import numpy as np

import igakron
from igakron import bench
from igakron.adi import ADIPreconditioner, douglas_shifts_3d, greedy_shifts_3d, wachspress_shifts
from igakron.assembly import BoundScreen, assemble_load, assemble_pencil_1d, assemble_stiffness
from igakron.banded import BandedCholesky
from igakron.bspline import SplineSpace1D
from igakron.eigen import extreme_eigs, generalized_eig
from igakron.geometry import builtin
from igakron.pcg import as_apply

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# (domain, p, 1/h) of the acceptance criteria that assemble a system
CRITERION_SIZES = (
    [("unit_square", 3, 64), ("unit_cube", 2, 16)]  # 2
    + [("quarter_annulus", p, q) for p in (2, 3, 4, 5) for q in (64, 128, 256)]  # 4, 5, 12
    + [("quarter_annulus", 2, 10), ("quarter_annulus", 3, 9)]  # 6
    + [(d, p, 14 - p) for d in ("quarter_annulus", "stretched_square") for p in (1, 2, 3)]  # 7
    + [("collapsed_triangle", 2, q) for q in (32, 128)]  # 8
    + [("collapsed_triangle", p, 64) for p in (2, 3, 4, 5)]
    + [(d, p, 32) for d in ("thick_quarter_ring", "revolved_quarter_ring") for p in (2, 3, 4)]  # 10
    + [("l_shape", p, q) for p in (1, 2, 3, 4, 5) for q in (32, 64, 128)]  # 11a, 11b
    + [("unit_square", 1, q) for q in (8, 16, 32, 64)] + [("unit_square", p, 16) for p in (2, 3)]  # 14
)


def _cube(p, q):
    D = generalized_eig(*assemble_pencil_1d(SplineSpace1D.uniform(p, q))).D
    return [D, D, D]


def _grids(a, b):
    # as `igakron shifts --dim 3` checks a bracket
    return [np.geomspace(a, b, 64)] * 3


# 3D plans on fixed eigenvalue arrays and 2D plans on fixed brackets: (label, arrays or bracket, eps values)
FIXED_3D = [
    ("cube_p1_h4", lambda: _cube(1, 4), (0.5, 0.1)),
    ("cube_p1_h32", lambda: _cube(1, 32), (1e-8,)),  # 9
    ("cube_p1_h128", lambda: _cube(1, 128), (1e-8,)),  # 9
    ("cube_p2_h12", lambda: _cube(2, 12), (1e-10,)),  # 13
    ("cube_p2_h16", lambda: _cube(2, 16), (1e-6,)),
    ("grids_1_1.01", lambda: _grids(1.0, 1.01), (1e-6, 1e-12)),
    ("grids_1_1.5", lambda: _grids(1.0, 1.5), (1e-2, 1e-4, 1e-6, 1e-8)),
    ("grids_1_2", lambda: _grids(1.0, 2.0), (1e-4, 1e-8)),
    ("grids_1_100", lambda: _grids(1.0, 100.0), (0.5, 1e-2, 1e-8)),
    ("point", lambda: [np.ones(1)] * 3, (0.2,)),
    ("near_point", lambda: [np.array([12.0]), np.array([12.047]), np.array([12.19])], (0.1,)),
]

FIXED_2D = [
    ("bracket_1_100", (1.0, 100.0, 1.0, 100.0), (0.5, 0.1, 1e-8)),
    ("bracket_1_2_3_40", (1.0, 2.0, 3.0, 40.0), (0.1,)),
    ("point", (2.0, 2.0, 2.0, 2.0), (0.1,)),
]


def sha1(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def plan_line(section, label, eps, make):
    try:
        plan = make()
    except ArithmeticError as err:
        return "%s %s eps=%g error %s" % (section, label, eps, err)
    return "%s %s eps=%g J=%d J0=%d bound=%s omegas=%s" % (
        section, label, eps, plan.J, plan.J0, float(plan.bound).hex(), sha1(plan.omegas))


def system_lines(label, pb, screen):
    """The lines of ``pb``, whose stiffness pass was screened into ``screen``."""
    out = []
    if pb.A is not None:
        A = pb.A.tocsr()
        out.append("system %s A %s" % (label, sha1(A.data, A.indices, A.indptr)))
    out.append("system %s b %s" % (label, sha1(pb.b)))
    if pb.A is not None and pb.geo is not None:
        out.append("system %s bound %s" % (label, float(bench._cond_bound_value(pb.geo, screen)).hex()))
    return out


def problem(cfg, h_inv, seed):
    """bench._problem's system of one row, and the BoundScreen its stiffness pass filled."""
    screen = BoundScreen()
    return bench._problem(cfg, h_inv, np.random.default_rng(seed), screen), screen


def case_matrix(h_inv=None):
    """(label, row kwargs) of every workload row, at its size or at ``h_inv``."""
    out = []
    for name, wl in workloads.WORKLOADS.items():
        for row in wl["rows"]:
            kw = workloads.config_kwargs(row, 1, h_inv)
            out.append(("%s:%s_p%d_h%d_%s" % (name, kw["domain"], kw["p"], kw["h_invs"][0], kw["solver"]), kw))
    return out


def case_lines(h_inv):
    lines, rows = [], []
    for label, kw in case_matrix(h_inv):
        cfg = bench.ExperimentConfig(**kw).validate()
        pb, screen = problem(cfg, cfg.h_invs[0], cfg.seed)
        lines += system_lines(label, pb, screen)
        prec = bench.SOLVERS[cfg.solver][1](cfg, pb)
        x = prec.apply(np.random.default_rng(7).standard_normal(pb.b.size))
        lines.append("apply %s %s" % (label, sha1(x)))
        if pb.A is not None:
            y = as_apply(pb.A)(np.random.default_rng(11).standard_normal(pb.b.size))
            lines.append("product %s %s" % (label, sha1(y)))
        # free the row's system before run_experiment builds it again
        del pb, prec, screen
        r = bench.run_experiment(bench.ExperimentConfig(**kw)).rows[0]
        rows.append("row %s outer=%d inner=%d residual=%s converged=%s" % (
            label, r.outer_iters, r.inner_iters, float(r.residual).hex(), r.converged))
    return lines + rows


def criterion_lines(h_inv):
    lines = []
    for domain, p, q in dict.fromkeys((d, p, h_inv or q) for d, p, q in CRITERION_SIZES):
        cfg = bench.ExperimentConfig(domain=domain, p=p, h_invs=(q,), solver="none")
        lines += system_lines("%s_p%d_h%d" % (domain, p, q), *problem(cfg, q, 1))
    return lines


def pooled_lines():
    lines = []
    geo, label = builtin("thick_quarter_ring"), "thick_quarter_ring_p3_h24"
    spaces = [SplineSpace1D.uniform(3, 24)] * 3
    screen = BoundScreen()
    A = assemble_stiffness(spaces, geo, screen=screen)
    lines.append("pooled %s A %s" % (label, sha1(A.data, A.indices, A.indptr)))
    del A
    lines.append("pooled %s b %s" % (label, sha1(assemble_load(spaces, geo, bench.poisson_source(3)))))
    lines.append("pooled %s bound %s" % (label, float(bench._cond_bound_value(geo, screen)).hex()))
    K, M = assemble_pencil_1d(SplineSpace1D.uniform(3, 512))
    prec = ADIPreconditioner.setup([(K, M)] * 2, 0.1)
    x = prec.apply(np.random.default_rng(7).standard_normal(K.n**2))
    lines.append("pooled adi2d_p3_h512 apply %s" % sha1(x))
    K, M = assemble_pencil_1d(SplineSpace1D.uniform(3, 64))
    X = np.random.default_rng(7).standard_normal((K.n,) * 3)
    lines.append("pooled chol3d_p3_h64 axis0 %s" % sha1(BandedCholesky(M).solve(X, axis=0)))
    # unequal directions: stage A's column chunks are not a whole number of slabs' columns
    pencils = [assemble_pencil_1d(SplineSpace1D.uniform(3, q)) for q in (128, 135, 120)]
    prec = ADIPreconditioner.setup(pencils, 0.1)
    x = prec.apply(np.random.default_rng(7).standard_normal(np.prod([K.n for K, _ in pencils])))
    lines.append("pooled adi3d_p3_h128_135_120 apply %s" % sha1(x))
    return lines


def pencil_lines(h_inv):
    """Pencil hashes and the run's 2D and 3D plans (eps 0.1) of every distinct (p, 1/h)."""
    sizes = {(p, h_inv or q) for _, p, q in CRITERION_SIZES}
    sizes |= {(kw["p"], kw["h_invs"][0]) for _, kw in case_matrix(h_inv)}
    lines = []
    for p, q in sorted(sizes):
        K, M = assemble_pencil_1d(SplineSpace1D.uniform(p, q))
        label = "p%d_h%d" % (p, q)
        lines.append("pencil %s K %s M %s" % (label, sha1(K.ab), sha1(M.ab)))
        lines.append(plan_line("plan2d", label, 0.1, lambda: ADIPreconditioner.setup_2d([(K, M)] * 2, 0.1).plan))
        lines.append(plan_line("plan3d", label, 0.1, lambda: ADIPreconditioner.setup_3d([(K, M)] * 3, 0.1).plan))
    return lines


def fixed_plan_lines():
    lines = []
    for label, arrays, epss in FIXED_3D:
        eigs = arrays()
        for eps in epss:
            lines.append(plan_line("plan3d", label, eps, lambda: douglas_shifts_3d(eigs, eps)))
    # criterion 9's greedy plan, with the J_max of `igakron shifts`
    eigs = _cube(1, 128)
    lines.append(plan_line("plan3d", "greedy_cube_p1_h128", 1e-8, lambda: greedy_shifts_3d(eigs, 400, 1e-8)))
    for label, bracket, epss in FIXED_2D:
        for eps in epss:
            lines.append(plan_line("plan2d", label, eps, lambda: wachspress_shifts(*bracket, eps)))
    # criteria 3 (certified brackets) and 13 (eigenvalue ends)
    (a, b) = extreme_eigs(*assemble_pencil_1d(SplineSpace1D.uniform(1, 512)))
    lines.append(plan_line("plan2d", "brackets_p1_h512", 1e-8, lambda: wachspress_shifts(a, b, a, b, 1e-8)))
    D = _cube(2, 14)[0]
    lines.append(plan_line("plan2d", "ends_p2_h14", 1e-10, lambda: wachspress_shifts(D[0], D[-1], D[0], D[-1], 1e-10)))
    return lines


def _params(fn, skip_first):
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
    return len(names) - (1 if skip_first and names and names[0] in ("self", "cls") else 0)


def _settable(node):
    if isinstance(node, ast.FunctionDef):
        return _params(node, False)
    if isinstance(node, ast.ClassDef):
        dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        n = 0
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (
                not item.name.startswith("_") or item.name in ("__init__", "__call__", "__matmul__")
            ):
                n += _params(item, True)
            elif dataclass and isinstance(item, ast.AnnAssign):
                n += 1
        return n
    if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("namedtuple"):
        return len(ast.literal_eval(node.args[1]))
    return 0


def count_lines(package_dir):
    lines, settable = [], []
    total_lines = total_settable = 0
    for path in sorted(package_dir.glob("*.py")):
        text = path.read_text()
        n = len(text.splitlines())
        total_lines += n
        lines.append("lines %s %d" % (path.name, n))
        tree = ast.parse(text)
        defs, public = {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                if node.targets[0].id == "__all__":
                    public = ast.literal_eval(node.value)
                else:
                    defs[node.targets[0].id] = node.value
        for name in public:
            if name in defs:
                k = _settable(defs[name])
                total_settable += k
                settable.append("settable %s.%s %d" % (path.stem, name, k))
        if path.stem == "cli":
            k = sum(isinstance(c, ast.Call) and ast.unparse(c.func).endswith(".add_argument") for c in ast.walk(tree))
            total_settable += k
            settable.append("settable cli.options %d" % k)
    return lines + ["lines total %d" % total_lines] + settable + ["settable total %d" % total_settable]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h-inv", type=int, default=None, help="run every row and criterion size at this 1/h")
    args = ap.parse_args(argv)
    for section in (
        lambda: case_lines(args.h_inv),
        lambda: criterion_lines(args.h_inv),
        lambda: pencil_lines(args.h_inv),
        fixed_plan_lines,
        pooled_lines,
        lambda: count_lines(Path(igakron.__file__).parent),
    ):
        for line in section():
            print(line, flush=True)


if __name__ == "__main__":
    main()
