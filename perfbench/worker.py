"""One benchmark process: set-up, timed rounds of a workload, then checks.

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N
                                --seconds S --trace 0|1 --root DIR --cache DIR
    python3 perfbench/worker.py --mode build --root DIR --cache DIR

`run.py` starts this with PYTHONPATH pointing at the checkout's `src`
and reads the JSON object on its last line of output.  `setup` stops once
the configuration and ground state are in memory; `build` runs the
program's SCF on the shipped toy metal and stores the archive at --cache.
"""

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

CHAIN_WELLS = 12                  # host wells, 3.5 Bohr apart
CHAIN_SPACING = 3.5
CHAIN_JITTER = 0.02               # Bohr, uniform, along x only
CHAIN_DISPLACED = 2               # wells displaced, one pgrt solve each
TAU_AGREEMENT = 1e-3              # |final_true_res - reference| <= 1e-3 tau
RHS_LIMIT = 1e-6                  # relative, for every strategy: catches a wrong dV0 or chi0
SYMMETRY_LIMIT = 1e-10
CHARGE_LIMIT = 1e-10
ELECTRON_COUNT_LIMIT = 1e-10      # relative
FIXED_POINT_LIMIT = 1e-8          # ||F(rho) - rho|| / ||rho||, F the Kohn-Sham map


def with_response(config, **changes):
    return dataclasses.replace(config, response=dataclasses.replace(config.response, **changes))


def chain_configs(seed, wells=CHAIN_WELLS):
    """A metallic chain: `wells` jittered host wells plus an interstitial impurity.

    The seed moves each host well along x by up to CHAIN_JITTER and picks
    the CHAIN_DISPLACED wells that are displaced, one solve each.  Every
    well sits at y = z = 0.5 and moves along x only, so each response is
    mirror-symmetric in y and z.
    """
    from pwdyson.config import Perturbation, config_from_dict

    rng = np.random.default_rng(seed)
    length = wells * CHAIN_SPACING
    hosts = [(k * CHAIN_SPACING + rng.uniform(-CHAIN_JITTER, CHAIN_JITTER)) / length
             for k in range(wells)]
    gaussians = [{"center": [0.5 * CHAIN_SPACING / length, 0.5, 0.5],
                  "amplitude": -10.0, "width": 0.28}]
    gaussians += [{"center": [x % 1.0, 0.5, 0.5], "amplitude": -4.5, "width": 0.55}
                  for x in hosts]
    config = config_from_dict({
        "model": {
            "lattice": [[length, 0, 0], [0, 2.6, 0], [0, 0, 2.6]],
            "e_cut": 6.5, "n_electrons": wells + 2, "temperature": 0.005,
            "smearing": "gaussian", "gaussians": gaussians,
        },
        "scf": {"tol": 1e-10, "max_iter": 1500, "mixing": "kerker",
                "kerker_alpha": 0.8, "damping": 0.1},
        "response": {"strategy": "pgrt", "tau": 1e-9, "m": 8, "kerker_alpha": 0.8},
    })
    displaced = rng.choice(len(gaussians), size=CHAIN_DISPLACED, replace=False)
    return [with_response(config, perturbation=Perturbation(gaussian=int(k)))
            for k in displaced]


def metal_configs(seed):
    """The shipped toy metal, pbal then pd10; the seed's parity flips the displacement."""
    from pwdyson.config import reference_config

    config = reference_config("toy_metal")
    pert = config.response.perturbation
    sign = -1.0 if seed % 2 else 1.0
    config = with_response(config, perturbation=dataclasses.replace(
        pert, direction=tuple(sign * d for d in pert.direction)))
    return [with_response(config, strategy=s) for s in ("pbal", "pd10")]


def load_cached_metal(config, cache):
    from pwdyson import archive
    from pwdyson.config import model_to_dict

    gs = archive.load_ground_state(cache)
    if model_to_dict(gs.model) != model_to_dict(config.model):
        raise SystemExit(f"cached ground state at {cache} holds another model")
    return gs


def build(cache):
    from pwdyson import archive, groundstate
    from pwdyson.config import reference_config

    config = reference_config("toy_metal")
    scf = config.scf
    gs = groundstate.run_scf(config.model, tol=scf.tol, max_iter=scf.max_iter,
                             mixing=scf.mixing, kerker_alpha=scf.kerker_alpha,
                             damping=scf.damping)
    tmp = f"{cache}.tmp-{os.getpid()}"
    archive.save_ground_state(tmp, gs)
    os.replace(tmp, cache)


# -- workloads: a round returns the ground states it built and (config, result) pairs ----

def attempt(fn, *args, **kwargs):
    """fn's result, or None when the program reports non-convergence."""
    from pwdyson.errors import NonConvergenceError

    try:
        return fn(*args, **kwargs)
    except NonConvergenceError as err:
        print(f"failed: {err}", file=sys.stderr)
        return None


def metal_compare(ctx):
    from pwdyson import harness

    return [], [(c, attempt(harness.run_response, c, gs=ctx["gs"])) for c in ctx["configs"]]


def chain_scf(ctx):
    from pwdyson import harness

    path = os.path.join(ctx["scratch"], "chain-archive")
    shutil.rmtree(path, ignore_errors=True)
    gs = attempt(harness.ensure_ground_state, ctx["configs"][0], archive_path=path)
    return [gs], [(c, gs and attempt(harness.run_response, c, gs=gs)) for c in ctx["configs"]]


WORKLOADS = {
    "metal-compare": (metal_configs, metal_compare),
    "chain-scf": (chain_configs, chain_scf),
}


def setup(name, seed, cache):
    ctx = {"configs": WORKLOADS[name][0](seed)}
    if name == "metal-compare":
        ctx["gs"] = load_cached_metal(ctx["configs"][0], cache)
    return ctx


# -- checks ----------------------------------------------------------------------------

class Checks(list):
    """Check results; calling it records one named value against its limit.

    A check recorded with gate=False is reported but does not decide
    `passed`: it holds on some seeds only, because of a known fault.
    """

    def __call__(self, name, value, limit, gate=True):
        self.append({"name": name, "value": float(value), "limit": float(limit),
                     "passed": bool(value <= limit), "gate": gate})

    @property
    def passed(self):
        return all(c["passed"] for c in self if c["gate"])


def check_solve(metrics, sos, config, found):
    """Checks of one Dyson solve against the sum-over-states reference `sos`."""
    import reference
    from pwdyson.strategies import parse_strategy

    resp = config.response
    spec = parse_strategy(metrics.strategy, tau=resp.tau, m=resp.m)
    tau = spec.tau
    ref = sos.residual(metrics.solution, metrics.rhs)
    pert = resp.perturbation
    b_ref = sos.chi0(reference.external_potential_derivative(
        config.model, sos.basis, pert.gaussian, pert.direction))
    rhs_error = float(np.linalg.norm(sos.basis.grid(metrics.rhs) - b_ref))
    tag = f"{metrics.strategy} well {pert.gaussian}"
    found(f"{tag}: estimate <= tau/3", metrics.final_est_res, tau / 3)
    found(f"{tag}: right-hand side matches chi0 dV0", rhs_error / np.linalg.norm(b_ref),
          RHS_LIMIT)
    if spec.kind == "grt":
        # the guaranteed prefactor should spend at most tau/3 of the budget on the
        # right-hand side; on some chain seeds it spends up to 1.3 tau/3 (CHANGES.md, FOUND)
        found(f"{tag}: right-hand side within tau/3 of chi0 dV0", rhs_error, tau / 3, gate=False)
    if spec.adaptive:
        found(f"{tag}: reference residual <= tau", ref, tau)
    found(f"{tag}: |final_true_res - reference| <= 1e-3 tau",
          abs(metrics.final_true_res - ref), TAU_AGREEMENT * tau)
    found(f"{tag}: mirror defect in y and z", reference.mirror_defect(sos.basis, metrics.solution),
          SYMMETRY_LIMIT)
    found(f"{tag}: net charge", reference.net_charge(sos.basis, metrics.solution), CHARGE_LIMIT)
    return ref


def check_ground_state(gs, found):
    """Electron count and Kohn-Sham fixed point with the benchmark's own v_ext."""
    import reference

    basis = reference.Basis(gs.model, gs.grids.cube_dims)
    rho = basis.grid(gs.rho)
    n = gs.model.n_electrons
    found("density integrates to N", abs(rho.sum() * basis.dvol - n) / n, ELECTRON_COUNT_LIMIT)
    v_ext = reference.external_potential(gs.model, basis)
    rho_out = reference.kohn_sham_density(gs.model, basis, v_ext, rho)
    found("density is a Kohn-Sham fixed point",
          float(np.linalg.norm(rho_out - rho) / np.linalg.norm(rho)), FIXED_POINT_LIMIT)


def run_checks(rounds, ctx):
    """Every check on every output; returns the checks and each solve's reference residual."""
    import reference

    found = Checks()
    references = []
    if "gs" in ctx:
        check_ground_state(ctx["gs"], found)
        sos = reference.SumOverStates(ctx["gs"])
    for ground_states, solves in rounds:
        for gs in filter(None, ground_states):
            check_ground_state(gs, found)
            sos = reference.SumOverStates(gs)
        for config, metrics in solves:
            if metrics is not None:
                references.append(check_solve(metrics, sos, config, found))
    return found, references


# -- entry point -------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "build"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--cache", required=True)
    args = parser.parse_args(argv)

    import pwdyson
    src = os.path.join(os.path.realpath(args.root), "src")
    if not os.path.realpath(pwdyson.__file__).startswith(src + os.sep):
        raise SystemExit(f"pwdyson imported from {pwdyson.__file__}, not from {src}")
    # every module is loaded before the tracer rebinds the names they import from each other
    from pwdyson import archive, groundstate, harness, igmres, kernels  # noqa: F401
    from pwdyson import response, sternheimer, strategies  # noqa: F401

    if args.mode == "build":
        build(args.cache)
        print(json.dumps({"built": args.cache}))
        return

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer().install()
    ctx = setup(args.workload, args.seed, args.cache)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    ctx["scratch"] = os.path.join(os.path.dirname(args.cache), f"scratch-{os.getpid()}")
    os.makedirs(ctx["scratch"], exist_ok=True)
    work = WORKLOADS[args.workload][1]
    walls, rounds = [], []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            rounds.append(work(ctx))
            walls.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(ctx["scratch"], ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, references = run_checks(rounds, ctx)
    ops = [op for gss, solves in rounds for op in gss + [m for _, m in solves]]
    solved = [m for _, solves in rounds for _, m in solves if m is not None]
    print(json.dumps({
        "ready": ready, "walls": walls, "rss_mb": rss_mb,
        "n_ham": [sum(m.n_ham for _, m in solves if m is not None) for _, solves in rounds],
        "attempted": len(ops), "failed": sum(op is None for op in ops),
        "checks": checks,
        "solves": [{"strategy": m.strategy, "n_ham": m.n_ham, "est": m.final_est_res,
                    "true": m.final_true_res, "reference": ref}
                   for m, ref in zip(solved, references)],
        "per_layer": tracer.metrics() if tracer else None,
        "missing": tracer.missing if tracer else [],
        "spans": tracer.span_table() if tracer else [],
    }))


if __name__ == "__main__":
    main()
