"""Per-layer spans recorded from outside the program.

Public functions of the program are replaced, in every module namespace
that holds them (and on the class for methods), by a wrapper that times
the call.  Spans are aggregated in memory by (name, parent); a span's
self time is its duration minus that of its direct children.  A target
that the program no longer has is listed in `missing` and its metrics
read 0; the run goes on.
"""

import os
import sys
import time
from collections import defaultdict

# (module, function, class that holds it or None); the span is named after the function
TARGETS = [
    ("groundstate", "run_scf", None), ("groundstate", "external_potential", None),
    ("groundstate", "external_potential_derivative", None),
    ("groundstate", "dense_hamiltonian", None), ("groundstate", "diagonalize_dense", None),
    ("groundstate", "compute_density", None), ("groundstate", "apply_hamiltonian", None),
    ("pwbasis", "build_grids", None),
    ("pwbasis", "to_real", "FourierGrids"), ("pwbasis", "to_fourier", "FourierGrids"),
    ("pwbasis", "to_real_many", "FourierGrids"), ("pwbasis", "to_fourier_many", "FourierGrids"),
    ("sternheimer", "solve_sternheimer", None), ("sternheimer", "project_out_occupied", None),
    ("response", "apply_chi0", None), ("response", "apply_dielectric", None),
    ("response", "dielectric_error_bound", None),
    ("kernels", "apply_kernel", None), ("kernels", "apply_kerker", None),
    ("strategies", "select_tolerances", None),
    ("igmres", "igmres_solve", None),
    ("harness", "build_perturbation", None), ("harness", "run_response", None),
    ("harness", "true_residual", None),
    ("archive", "load_ground_state", None), ("archive", "save_ground_state", None),
]

# (metric, unit, how): how is ("s" | "self_s" | "calls", span) or a counter name
PER_LAYER = [
    ("run_scf.s", "s", ("s", "run_scf")),
    ("scf_iterations", "count", "scf_iterations"),
    ("external_potential.s", "s", ("s", "external_potential")),
    ("dense_hamiltonian.s", "s", ("s", "dense_hamiltonian")),
    ("diagonalize_dense.s", "s", ("s", "diagonalize_dense")),
    ("compute_density.s", "s", ("s", "compute_density")),
    ("external_potential_derivative.calls", "count", ("calls", "external_potential_derivative")),
    ("external_potential_derivative.s", "s", ("s", "external_potential_derivative")),
    ("apply_hamiltonian.calls", "count", ("calls", "apply_hamiltonian")),
    ("apply_hamiltonian.self_s", "s", ("self_s", "apply_hamiltonian")),
    ("build_grids.s", "s", ("s", "build_grids")),
    ("to_real.s", "s", ("s", "to_real")),
    ("to_fourier.s", "s", ("s", "to_fourier")),
    ("to_real_many.s", "s", ("s", "to_real_many")),
    ("to_fourier_many.s", "s", ("s", "to_fourier_many")),
    ("solve_sternheimer.calls", "count", ("calls", "solve_sternheimer")),
    ("solve_sternheimer.self_s", "s", ("self_s", "solve_sternheimer")),
    ("cg_iterations", "count", "cg_iterations"),
    ("project_out_occupied.calls", "count", ("calls", "project_out_occupied")),
    ("project_out_occupied.s", "s", ("s", "project_out_occupied")),
    ("apply_chi0.calls", "count", ("calls", "apply_chi0")),
    ("apply_chi0.self_s", "s", ("self_s", "apply_chi0")),
    ("apply_dielectric.calls", "count", ("calls", "apply_dielectric")),
    ("dielectric_error_bound.s", "s", ("s", "dielectric_error_bound")),
    ("apply_kernel.s", "s", ("s", "apply_kernel")),
    ("apply_kerker.s", "s", ("s", "apply_kerker")),
    ("select_tolerances.calls", "count", ("calls", "select_tolerances")),
    ("select_tolerances.s", "s", ("s", "select_tolerances")),
    ("igmres_solve.self_s", "s", ("self_s", "igmres_solve")),
    ("igmres_iterations", "count", "igmres_iterations"),
    ("igmres_restarts", "count", "igmres_restarts"),
    ("build_perturbation.s", "s", ("s", "build_perturbation")),
    ("run_response.pbal.s", "s", ("s", "run_response.pbal")),
    ("run_response.pd10.s", "s", ("s", "run_response.pd10")),
    ("run_response.pgrt.s", "s", ("s", "run_response.pgrt")),
    ("true_residual.calls", "count", ("calls", "true_residual")),
    ("true_residual.s", "s", ("s", "true_residual")),
    ("true_residual.ham", "count", "true_residual.ham"),
    ("load_ground_state.s", "s", ("s", "load_ground_state")),
    ("save_ground_state.s", "s", ("s", "save_ground_state")),
    ("save_ground_state.bytes", "bytes", "save_ground_state.bytes"),
]


def _strategy_label(args, kwargs):
    config = kwargs.get("config", args[0] if args else None)
    return str(getattr(getattr(config, "response", None), "strategy", "unknown"))


class Tracer:
    def __init__(self):
        self.stack = []                       # open spans: [name, child seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # (name, parent) -> calls, s, self_s
        self.counters = defaultdict(int)
        self.missing = []

    def _wrap(self, name, fn, label=None, on_return=None, count_under=None):
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            span = f"{name}.{label(args, kwargs)}" if label else name
            parent = stack[-1][0] if stack else ""
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                agg = spans[(span, parent)]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count_under and any(f[0] == count_under for f in stack):
                self.counters[f"{count_under}.ham"] += 1
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package="pwdyson"):
        """Wrap every target of the imported `package`; returns self."""
        hooks = {
            "run_response": dict(label=_strategy_label),
            "apply_hamiltonian": dict(count_under="true_residual"),
            "solve_sternheimer": dict(on_return=_count_cg),
            "igmres_solve": dict(on_return=_count_igmres),
            "save_ground_state": dict(on_return=_count_bytes),
        }
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr, cls_name in TARGETS:
            mod = sys.modules.get(f"{package}.{mod_name}")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            wrapped = self._wrap(attr, original, **hooks.get(attr, {}))
            if cls_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        return self

    def metrics(self):
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, parent), (calls, s, self_s) in self.spans.items():
            t = totals[name]
            t[0] += calls
            t[1] += s
            t[2] += self_s
        # each SCF iteration diagonalises once
        counters = dict(self.counters, scf_iterations=self.spans.get(
            ("diagonalize_dense", "run_scf"), [0])[0])
        out = {}
        for metric, unit, how in PER_LAYER:
            if isinstance(how, tuple):
                kind, span = how
                calls, s, self_s = totals.get(span, (0, 0.0, 0.0))
                value = {"calls": calls, "s": s, "self_s": self_s}[kind]
            else:
                value = counters.get(how, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def span_table(self):
        return [{"name": n, "parent": p, "calls": c, "s": s, "self_s": ss}
                for (n, p), (c, s, ss) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]


def _count_cg(counters, args, kwargs, result):
    counters["cg_iterations"] += getattr(result, "cg_iterations", 0)


def _count_igmres(counters, args, kwargs, result):
    counters["igmres_iterations"] += getattr(result, "iterations", 0)
    counters["igmres_restarts"] += len(getattr(result, "restarts", ()))


def _count_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else "")
    counters["save_ground_state.bytes"] += sum(
        e.stat().st_size for e in os.scandir(path) if e.is_file())
