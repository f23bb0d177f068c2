"""Outside-in layer trace.

The program is not changed.  For the traced pass only, the public functions
and methods below are replaced, at the module attributes where the program
looks them up, by wrappers that record one span per call: name, start, end
and the span that was open when the call began.  Spans stay in memory and
are turned into per-layer metrics (and written out) when the pass ends.
"""

import contextlib
import functools
import importlib
import math
import time
import tracemalloc
from collections import Counter, defaultdict

# span name -> lookup points "module:attribute" or "module:Class.method".
# A method's aliases in its class (``__call__ = apply``) are wrapped too.
TARGETS = {
    "assembly.stiffness": ["bench:assemble_stiffness", "multipatch:assemble_stiffness"],
    "assembly.load": ["bench:assemble_load", "multipatch:assemble_load"],
    "assembly.pencils": ["bench:assemble_pencil_1d", "multipatch:assemble_pencil_1d"],
    "assembly.cond_bound": ["bench:condition_bound"],
    "geometry.eval_Q": ["assembly:eval_Q_masked", "geometry:eval_Q_masked"],
    "eigen.gvd": ["bench:generalized_eig", "fd:generalized_eig", "adi:generalized_eig"],
    "eigen.bracket": ["bench:extreme_eigs", "adi:extreme_eigs"],
    "fd.setup": ["bench:fd_setup", "multipatch:fd_setup"],
    "fd.apply": ["fd:FDPreconditioner.apply"],
    # plan and factor set-up; the direct rows build their plans in bench
    "adi.setup": [
        "adi:ADIPreconditioner.setup_2d",
        "adi:ADIPreconditioner.setup_3d",
        "bench:wachspress_shifts",
        "bench:douglas_shifts_3d",
    ],
    "adi.apply": ["adi:adi_solve_2d", "adi:adi_solve_3d", "bench:adi_solve_2d", "bench:adi_solve_3d"],
    "banded.chol_solve": ["banded:BandedCholesky.solve"],
    "banded.matmat": ["banded:BandedSymMatrix.matmat"],
    "banded.combine": ["banded:BandedSymMatrix.combine"],
    "kron.kron_matvec": ["kron:kron_matvec", "fd:kron_matvec", "adi:kron_matvec"],
    "kron.along_axis": [
        "kron:apply_along_axis",
        "kron:solve_along_axis",
        "adi:apply_along_axis",
        "adi:solve_along_axis",
    ],
    "kron.ksum_matvec": ["kron:KroneckerSum.matvec"],
    "ic.setup": ["bench:ic0_setup"],
    "ic.apply": ["ic:ICFactor.apply"],
    "multipatch.assemble": ["bench:assemble_multipatch_stiffness", "bench:assemble_multipatch_load"],
    "multipatch.schwarz_setup": ["bench:schwarz_setup"],
    "multipatch.schwarz_apply": ["multipatch:SchwarzPreconditioner.apply"],
    # CG itself; its A and P applies become the child spans pcg.A and pcg.P
    "pcg": ["bench:pcg"],
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> values taken from a call's arguments and result
RECORDERS = {
    "assembly.stiffness": lambda a, k, out: {"assembly.nnz": out.nnz},
    "assembly.cond_bound": lambda a, k, out: {"pcg.cond_bound": out.bound},
    "geometry.eval_Q": lambda a, k, out: {"geometry.eval_Q_points": len(_arg(a, k, 2, "zeta"))},
    "adi.apply": lambda a, k, out: {"adi.sweeps": _arg(a, k, 2, "plan").J},
    "ic.setup": lambda a, k, out: {"ic.shift": out.shift},
}

# per-layer metric -> (unit, aggregate, span or value name).  "total" sums
# the outermost spans of a name, "self" subtracts the time of child spans.
LAYER_METRICS = {
    "assembly.stiffness_s": ("s", "total", "assembly.stiffness"),
    "assembly.load_s": ("s", "total", "assembly.load"),
    "assembly.pencils_s": ("s", "total", "assembly.pencils"),
    "assembly.nnz": ("count", "sum", "assembly.nnz"),
    "assembly.stiffness_peak_mb": ("MB", "max", "assembly.stiffness_peak_mb"),
    "assembly.cond_bound_s": ("s", "total", "assembly.cond_bound"),
    "geometry.eval_Q_s": ("s", "total", "geometry.eval_Q"),
    "geometry.eval_Q_calls": ("count", "count", "geometry.eval_Q"),
    "geometry.eval_Q_points": ("count", "sum", "geometry.eval_Q_points"),
    "eigen.gvd_s": ("s", "total", "eigen.gvd"),
    "eigen.gvd_calls": ("count", "count", "eigen.gvd"),
    "eigen.bracket_s": ("s", "total", "eigen.bracket"),
    "fd.setup_s": ("s", "total", "fd.setup"),
    "fd.applies": ("count", "count", "fd.apply"),
    "fd.apply_s": ("s", "total", "fd.apply"),
    "adi.setup_s": ("s", "total", "adi.setup"),
    "adi.sweeps": ("count", "sum", "adi.sweeps"),
    "adi.applies": ("count", "count", "adi.apply"),
    "adi.apply_s": ("s", "total", "adi.apply"),
    "banded.chol_solves": ("count", "count", "banded.chol_solve"),
    "banded.chol_solve_s": ("s", "total", "banded.chol_solve"),
    "banded.matmat_calls": ("count", "count", "banded.matmat"),
    "banded.matmat_s": ("s", "total", "banded.matmat"),
    "banded.combine_calls": ("count", "count", "banded.combine"),
    "kron.kron_matvec_s": ("s", "total", "kron.kron_matvec"),
    "kron.along_axis_self_s": ("s", "self", "kron.along_axis"),
    "kron.ksum_matvec_s": ("s", "total", "kron.ksum_matvec"),
    "ic.setup_s": ("s", "total", "ic.setup"),
    "ic.shift": ("ratio", "max", "ic.shift"),
    "ic.applies": ("count", "count", "ic.apply"),
    "ic.apply_s": ("s", "total", "ic.apply"),
    "multipatch.assemble_s": ("s", "total", "multipatch.assemble"),
    "multipatch.schwarz_setup_s": ("s", "total", "multipatch.schwarz_setup"),
    "multipatch.schwarz_applies": ("count", "count", "multipatch.schwarz_apply"),
    "multipatch.schwarz_apply_s": ("s", "total", "multipatch.schwarz_apply"),
    "pcg.iterations": ("count", "sum", "pcg.iterations"),
    "pcg.A_applies": ("count", "count", "pcg.A"),
    "pcg.P_applies": ("count", "count", "pcg.P"),
    "pcg.A_apply_s": ("s", "total", "pcg.A"),
    "pcg.P_apply_s": ("s", "total", "pcg.P"),
    "pcg.self_s": ("s", "self", "pcg"),
    "pcg.lanczos_kappa": ("ratio", "max", "pcg.lanczos_kappa"),
    "pcg.cond_bound": ("ratio", "max", "pcg.cond_bound"),
    # |true / recurred - 1| for the final relative residual of each solve
    "pcg.residual_gap": ("ratio", "max", "pcg.residual_gap"),
}


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` and recorded values."""

    def __init__(self):
        self.spans = []
        self.values = defaultdict(list)
        self._open = []
        self._stiffness_calls = []

    def call(self, name, fn, args, kwargs=None):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        if name == "pcg":
            return self._wrap_pcg(fn)
        record = RECORDERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if record:
                for key, value in record(args, kwargs, out).items():
                    self.values[key].append(value)
            if name == "assembly.stiffness":
                self._stiffness_calls.append((fn, args, kwargs))
            return out

        return traced

    def probe_stiffness_memory(self):
        """Repeat each traced stiffness assembly under tracemalloc, untimed.

        tracemalloc slows every allocation, so the peak is taken in a call of
        its own rather than inside the timed spans.
        """
        for fn, args, kwargs in self._stiffness_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.values["assembly.stiffness_peak_mb"].append(peak / 2**20)
        self._stiffness_calls.clear()

    def _wrap_pcg(self, pcg):
        pcg_mod = importlib.import_module("igakron.pcg")

        @functools.wraps(pcg)
        def traced(A, Pinv, b, *args, **kwargs):
            A_ = pcg_mod.as_apply(A)
            P_ = None if Pinv is None else pcg_mod.as_apply(Pinv)
            A_t = lambda x: self.call("pcg.A", A_, (x,))
            P_t = None if P_ is None else (lambda x: self.call("pcg.P", P_, (x,)))
            res = self.call("pcg", pcg, (A_t, P_t, b) + args, kwargs)
            self.values["pcg.iterations"].append(res.iterations)
            kappa = pcg_mod.lanczos_condition_estimate(res)
            if kappa is not None:
                self.values["pcg.lanczos_kappa"].append(kappa)
            if res.residual_history:
                gap = res.true_residual / res.residual_history[-1] - 1.0
                self.values["pcg.residual_gap"].append(abs(gap))
            return res

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.

        Yields the list of lookup points that no longer exist in the program;
        the caller checks that each layer still shows up as spans.
        """
        restore, missing = [], []
        for name, points in TARGETS.items():
            for point in points:
                mod_name, _, path = point.partition(":")
                owner = importlib.import_module("igakron." + mod_name)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls, None)
                if owner is None or attr not in vars(owner):
                    missing.append(point)
                    continue
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                aliases = [a for a, v in vars(owner).items() if v is raw] if classes else [attr]
                for alias in aliases:
                    restore.append((owner, alias, raw))
                    setattr(owner, alias, wrapped)
        try:
            yield missing
        finally:
            for owner, alias, raw in reversed(restore):
                setattr(owner, alias, raw)

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans and values."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, self_time, count = defaultdict(float), defaultdict(float), Counter()
        for i, (name, t0, t1, parent) in enumerate(spans):
            count[name] += 1
            self_time[name] += t1 - t0 - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += t1 - t0
        out = {}
        for metric, (unit, agg, key) in LAYER_METRICS.items():
            if agg == "total":
                value = total[key]
            elif agg == "self":
                value = self_time[key]
            elif agg == "count":
                value = count[key]
            elif agg == "sum":
                value = sum(self.values[key])
            else:
                value = max((v for v in self.values[key] if math.isfinite(v)), default=0.0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def span_counts(self):
        return Counter(name for name, _, _, _ in self.spans)

    def root_time(self):
        """Time covered by spans that have no parent."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)
