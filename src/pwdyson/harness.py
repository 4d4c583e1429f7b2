"""Experiment orchestration: respond / compare / verify plus metrics.

Wires the dielectric application into a budgeted operator for the outer
inexact GMRES: each granted budget is translated into per-band Sternheimer
tolerances by the configured strategy.  Costs are measured in Hamiltonian
applications (one per band per inner CG iteration), the metric every
report uses.  Each call returns what it spent and the harness adds the
returned costs up: `n_ham` is the right-hand-side build plus the outer
solve, and the true-residual diagnostics, run at tight tolerances outside
the solve, are never part of it.
"""

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .archive import atomic_write, is_older_format, load_ground_state, save_ground_state
from .config import ExperimentConfig, model_to_dict
from .errors import ConfigurationError, InvariantViolationError, NonConvergenceError
from .groundstate import (
    GroundState,
    external_potential,
    external_potential_derivative,
    gaussian_well,
    real_hamiltonian,
    run_scf,
)
from .igmres import igmres_solve
from .kernels import KernelSpec, KerkerSpec, apply_kerker
from .pwbasis import build_grids
from .response import (
    DielectricApplication,
    _cached_row_norm,
    apply_chi0,
    apply_dielectric,
    dielectric_error_bound,
    orbital_row_norm,
)
from .sternheimer import solve_sternheimer
from .strategies import StrategySpec, ToleranceContext, parse_strategy, select_tolerances

TIGHT_CG_TOL = 1e-16
HISTORY_COLUMNS = ("iter", "est_res", "true_res", "cum_ham", "mean_cg_tol", "mean_cg_iters")
REPORT_FORMAT_VERSION = 1


@dataclass
class RunMetrics:
    strategy: str
    tau: float
    m: int
    converged: bool
    n_ham: int                      # total, right-hand-side build included
    n_ham_rhs: int                  # share spent building the right-hand side
    final_est_res: float
    final_true_res: float
    final_true_res_precond: float   # nan for unpreconditioned runs
    true_res0: float
    eta: float
    history: list = field(default_factory=list)
    restarts: list = field(default_factory=list)
    s_final: float = np.nan
    bound_margin_min: float = np.inf

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "strategy": self.strategy,
            "tau": self.tau,
            "m": self.m,
            "converged": self.converged,
            "n_ham": self.n_ham,
            "n_ham_rhs": self.n_ham_rhs,
            "final_est_res": self.final_est_res,
            "final_true_res": self.final_true_res,
            "final_true_res_precond": self.final_true_res_precond,
            "true_res0": self.true_res0,
            "eta": self.eta,
            "s_final": self.s_final,
            "bound_margin_min": self.bound_margin_min,
            "restarts": self.restarts,
            "history": [dict(zip(HISTORY_COLUMNS, row)) for row in self.history],
        }


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _atomic_text(path: str, text: str):
    atomic_write(path, text.encode())


def _csv_text(columns, rows) -> str:
    """CSV with a header; strings as they are, nan as an empty cell, numbers by repr."""
    def cell(x):
        if isinstance(x, str):
            return x
        return "" if isinstance(x, float) and np.isnan(x) else repr(x)
    return "\n".join([",".join(columns)] + [",".join(map(cell, row)) for row in rows]) + "\n"


def ensure_ground_state(config: ExperimentConfig, archive_path: str = None) -> GroundState:
    """Load the archive if it holds the configured model, otherwise run the SCF.

    A fresh SCF overwrites an archive of another model or of an older
    archive format.
    """
    path = archive_path or config.archive
    if path and os.path.exists(os.path.join(path, "meta.json")) and not is_older_format(path):
        gs = load_ground_state(path)
        if model_to_dict(gs.model) == model_to_dict(config.model):
            return gs
    gs = run_scf(
        config.model, tol=config.scf.tol, max_iter=config.scf.max_iter,
        mixing=config.scf.mixing, kerker_alpha=config.scf.kerker_alpha,
        damping=config.scf.damping,
    )
    if path:
        save_ground_state(path, gs)
    return gs


def tolerance_context(gs: GroundState, rhs_norm: float) -> ToleranceContext:
    """The ground-state quantities the tolerance prefactors read, for one solve."""
    grids = gs.grids
    return ToleranceContext(
        occ=gs.occ_occ, volume=grids.lattice.volume, n_g=grids.n_g,
        row_norm=_cached_row_norm(gs), rhs_norm=rhs_norm,
    )


def build_perturbation(gs: GroundState, pert, spec: StrategySpec):
    """Displacement perturbation dV0 and the right-hand side chi0 dV0.

    dV0 is the analytic derivative of the indexed Gaussian's lattice sum
    with respect to its centre, contracted with the unit direction (or a
    central finite difference when the analytic flag is off).  The
    right-hand side applies chi0 in rescaled form, with per-band
    tolerances drawn from the strategy and the budget tau/3; the static
    baselines use their fixed tolerance instead.
    """
    model, grids = gs.model, gs.grids
    if pert.analytic:
        dv0 = external_potential_derivative(model, grids, pert.gaussian, pert.direction)
    else:
        h = 1e-5
        direction = np.asarray(pert.direction, dtype=float)
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ConfigurationError("perturbation direction must be a nonzero vector")
        direction = direction / norm
        base = gaussian_well(model, pert.gaussian)
        frac_step = h * direction @ np.linalg.inv(model.lattice.a)

        def shifted(sign):
            well = replace(base, center=tuple(np.asarray(base.center) + sign * frac_step))
            return external_potential(replace(model, gaussians=(well,)), grids)

        dv0 = (shifted(+1) - shifted(-1)) / (2 * h)

    dv_norm = float(np.linalg.norm(dv0))
    if dv_norm == 0.0:
        return dv0, np.zeros(grids.n_g), 0

    # chi0 dV0 = |dV0| chi0(dV0 / |dV0|): the normalised application makes
    # the strategy tolerances commensurate with the error budget tau/3.
    budget = spec.tau / 3.0
    ctx = tolerance_context(gs, rhs_norm=np.nan)      # |chi0 dV0| is built here
    if spec.kind == "d10n":
        # self-referencing baseline: provisional pass to measure |chi0 dV0|
        provisional = select_tolerances(replace(spec, kind="d10"), ctx, budget, dv_norm)
        drho0, solve0 = apply_chi0(gs, dv0 / dv_norm, provisional)
        ctx = replace(ctx, rhs_norm=float(np.linalg.norm(drho0)) * dv_norm)
        tols = select_tolerances(spec, ctx, budget, dv_norm)
        if np.all(tols >= provisional):
            return dv0, dv_norm * drho0, solve0.cg_iterations
        drho0, solve = apply_chi0(gs, dv0 / dv_norm, tols)
        return dv0, dv_norm * drho0, solve0.cg_iterations + solve.cg_iterations
    tols = select_tolerances(spec, ctx, budget, dv_norm)
    drho0, solve = apply_chi0(gs, dv0 / dv_norm, tols)
    return dv0, dv_norm * drho0, solve.cg_iterations


def budgeted_dielectric(gs: GroundState, spec: StrategySpec, kernel: KernelSpec,
                        kerker: KerkerSpec, rhs_norm: float):
    """The budgeted Dyson operator (v, budget) -> (E~v or P E~v, cost) of `igmres_solve`.

    The strategy turns each granted budget into per-band Sternheimer
    tolerances; with `kerker` the output is preconditioned.  Returns the
    operator and the list it appends every (budget, DielectricApplication)
    to, the latter without its output.
    """
    ctx = tolerance_context(gs, rhs_norm)
    applications = []

    def op(v, budget):
        app = apply_dielectric(gs, kernel, v,
                               lambda kv_norm: select_tolerances(spec, ctx, budget, kv_norm))
        out = apply_kerker(kerker, gs.grids, app.output) if kerker else app.output
        applications.append((budget, replace(app, output=None)))   # keep no n_g vectors
        return out, app.ham_applications

    return op, applications


def true_residual(gs: GroundState, kernel: KernelSpec, x: np.ndarray,
                  b: np.ndarray, kerker: KerkerSpec = None):
    """||b - E x|| with every Sternheimer tolerance tightened to 1e-16.

    With `kerker`, returns the pair (||b - E x||, ||P (b - E x)||) from the
    same application of E.
    """
    app = apply_dielectric(gs, kernel, np.asarray(x, dtype=float),
                           np.full(gs.n_occ, TIGHT_CG_TOL))
    residual = b - app.output
    if kerker:
        return (float(np.linalg.norm(residual)),
                float(np.linalg.norm(apply_kerker(kerker, gs.grids, residual))))
    return float(np.linalg.norm(residual))


def _mean_cg(app: DielectricApplication) -> tuple:
    """(mean CG tolerance, mean CG iterations) over the bands; zeros when Kv = 0."""
    if not app.tolerances_used:
        return 0.0, 0.0
    return float(np.mean(app.tolerances_used)), float(np.mean(app.cg_iterations_per_band))


def run_response(config: ExperimentConfig, gs: GroundState = None,
                 out_dir: str = None) -> RunMetrics:
    """Solve the Dyson equation for the configured perturbation and strategy.

    Writes report.json and history.csv when an output directory is given.
    Non-convergence of the outer solve raises with the partial report
    attached.  A Sternheimer stall inside it raises with a partial report
    too, whose `n_ham` adds the completed applications and the stalled
    solve's cost to the right-hand-side build; it has no iterate, so its
    residuals read nan.  When it returns or raises, the ground state
    drops what the solve derived from it (`GroundState.drop_derived`).
    """
    resp = config.response
    spec = parse_strategy(resp.strategy, tau=resp.tau, m=resp.m)
    if gs is None:
        gs = ensure_ground_state(config)
    try:
        return _solve_response(config, spec, gs, out_dir)
    finally:
        gs.drop_derived()


def _solve_response(config: ExperimentConfig, spec: StrategySpec, gs: GroundState,
                    out_dir: str) -> RunMetrics:
    resp = config.response
    grids = gs.grids
    kernel = KernelSpec(xc=config.model.xc)
    kerker = KerkerSpec(alpha=resp.kerker_alpha) if spec.preconditioned else None

    dv0, b, n_ham_rhs = build_perturbation(gs, resp.perturbation, spec)
    b_norm = float(np.linalg.norm(b))
    op, applications = budgeted_dielectric(gs, spec, kernel, kerker, b_norm)
    history = []
    every = resp.true_residual_every

    def monitor(info):
        app = applications[-1][1]
        t_res = np.nan
        if every and info["iteration"] % every == 0:
            t_res = true_residual(gs, kernel, info["get_x"](), b)
        history.append((info["iteration"], info["est_res"], t_res,
                        n_ham_rhs + info["total_cost"], *_mean_cg(app)))

    b_solver = apply_kerker(kerker, grids, b) if kerker else b
    try:
        report = igmres_solve(op, b_solver, x0=None, m=spec.m, tau=spec.tau,
                              s_init=1.0, monitor=monitor)
        converged = True
    except NonConvergenceError as err:
        if err.report is None:          # an inner Sternheimer solve, not GMRES
            spent = sum(app.ham_applications for _, app in applications) + err.cost
            partial = RunMetrics(
                strategy=spec.name, tau=spec.tau, m=spec.m, converged=False,
                n_ham=n_ham_rhs + spent, n_ham_rhs=n_ham_rhs, final_est_res=np.nan,
                final_true_res=np.nan, final_true_res_precond=np.nan, true_res0=b_norm,
                eta=np.nan, history=history)
            raise NonConvergenceError(f"Dyson solve ({spec.name}) stopped: {err}",
                                      residual=err.residual, report=partial) from err
        report = err.report
        converged = False

    n_ham = n_ham_rhs + report.total_cost
    if kerker:
        final_true, final_true_precond = true_residual(
            gs, kernel, report.solution, b, kerker=kerker)
    else:
        final_true = true_residual(gs, kernel, report.solution, b)
        final_true_precond = np.nan
    bound_margins = []
    for budget, app in applications:
        if app.tolerances_used:
            bound = dielectric_error_bound(gs, app.kv_norm, app.tolerances_used)
            bound_margins.append(budget / bound if bound > 0 else np.inf)
    true0 = b_norm
    eta = (float(-np.log10(final_true / true0) / n_ham)
           if (n_ham > 0 and final_true > 0 and true0 > 0) else np.nan)

    metrics = RunMetrics(
        strategy=spec.name, tau=spec.tau, m=spec.m, converged=converged,
        n_ham=n_ham, n_ham_rhs=n_ham_rhs,
        final_est_res=report.final_est_res, final_true_res=final_true,
        final_true_res_precond=final_true_precond, true_res0=true0, eta=eta,
        history=history,
        restarts=[{"cycle": r.cycle, "reason": r.reason, "s_before": r.s_before,
                   "s_after": r.s_after} for r in report.restarts],
        s_final=report.s_final,
        bound_margin_min=float(np.min(bound_margins)) if bound_margins else np.inf,
    )
    metrics.solution = report.solution
    metrics.rhs = b
    metrics.igmres = report

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_text(os.path.join(out_dir, "report.json"),
                     json.dumps(metrics.to_dict(), indent=1, default=_json_default))
        _atomic_text(os.path.join(out_dir, "history.csv"), _csv_text(HISTORY_COLUMNS, history))

    if not converged:
        raise NonConvergenceError(
            f"Dyson solve ({spec.name}) did not converge", report=metrics)
    return metrics


def compare_strategies(config: ExperimentConfig, strategies, out_dir: str = None,
                       gs: GroundState = None, reference: str = None) -> list:
    """Run each strategy on the shared model; tabulate cost and accuracy.

    eta_rel references the d10 baseline (pd10 when only the preconditioned
    run is present, or an explicit `reference`).  Failures are recorded
    per row instead of aborting the table.  Only grt rows carry the
    guarantee final_true_res <= tau; bal and agr are heuristics whose rows
    can miss tau, so compare final_true_res before cost.
    """
    if gs is None:
        gs = ensure_ground_state(config)
    rows = []
    for name in strategies:
        run_config = replace(config, response=replace(config.response, strategy=name))
        try:
            metrics = run_response(run_config, gs=gs)
            rows.append({"strategy": metrics.strategy, "converged": True,
                         "final_true_res": metrics.final_true_res,
                         "n_ham": metrics.n_ham, "eta": metrics.eta})
        except NonConvergenceError as err:
            partial = err.report
            rows.append({"strategy": name, "converged": False,
                         "final_true_res": getattr(partial, "final_true_res", np.nan),
                         "n_ham": getattr(partial, "n_ham", 0),
                         "eta": getattr(partial, "eta", np.nan)})

    names = [r["strategy"] for r in rows]
    if reference is None:
        reference = "d10" if "d10" in names else ("pd10" if "pd10" in names else names[0])
    ref_eta = next((r["eta"] for r in rows if r["strategy"] == reference), np.nan)
    for r in rows:
        r["eta_rel"] = r["eta"] / ref_eta if ref_eta and np.isfinite(ref_eta) else np.nan

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_text(os.path.join(out_dir, "compare.json"), json.dumps({
            "format_version": REPORT_FORMAT_VERSION,
            "reference": reference,
            "rows": rows,
        }, indent=1, default=_json_default))
        cols = ("strategy", "converged", "final_true_res", "n_ham", "eta", "eta_rel")
        _atomic_text(os.path.join(out_dir, "compare.csv"),
                     _csv_text(cols, ([r[c] for c in cols] for r in rows)))
    return rows


# -- verification suite ----------------------------------------------------------


def check_fft_roundtrip(gs: GroundState, rng) -> dict:
    grids = gs.grids
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
        err = np.linalg.norm(grids.to_fourier(grids.to_real(x)) - x) / np.linalg.norm(x)
        worst = max(worst, err)
    return {"name": "fft_roundtrip", "passed": worst <= 1e-14, "margin": 1e-14 / max(worst, 1e-300)}


def check_orthonormality(gs: GroundState) -> dict:
    defect = float(np.max(np.abs(gs.phi.conj().T @ gs.phi - np.eye(gs.n_kept))))
    return {"name": "orbital_orthonormality", "passed": defect <= 1e-10,
            "margin": 1e-10 / max(defect, 1e-300)}


def check_kerker_lemma(gs: GroundState, alpha: float) -> dict:
    # dense assembly on an auxiliary coarse grid with n_g <= 512
    e_cut = gs.model.e_cut
    grids = gs.grids
    while grids.n_g > 512:
        e_cut /= 2
        grids = build_grids(gs.model.lattice, e_cut)
    spec = KerkerSpec(alpha=alpha)
    t = np.zeros((grids.n_g, grids.n_g))
    for j in range(grids.n_g):
        e = np.zeros(grids.n_g)
        e[j] = 1.0
        t[:, j] = apply_kerker(spec, grids, e)
    herm = float(np.max(np.abs(t - t.T)))
    eig = np.linalg.eigvalsh(0.5 * (t + t.T))
    const = np.ones(grids.n_g)
    const_defect = float(np.max(np.abs(apply_kerker(spec, grids, const) - const)))
    passed = (herm <= 1e-12 and eig.min() > 0 and eig.max() <= 1 + 1e-12
              and abs(eig.max() - 1) <= 1e-12 and const_defect <= 1e-12)
    return {"name": "kerker_lemma", "passed": passed,
            "margin": min(1e-12 / max(herm, 1e-300), 1e-12 / max(abs(eig.max() - 1), 1e-300)),
            "details": {"hermiticity": herm, "lambda_min": float(eig.min()),
                        "lambda_max": float(eig.max()), "const_defect": const_defect,
                        "n_g": grids.n_g}}


def check_row_norm_bounds(gs: GroundState) -> dict:
    val = orbital_row_norm(gs.grids, gs.phi_occ)
    vol = gs.grids.lattice.volume
    lo, hi = np.sqrt(gs.n_occ / vol), np.sqrt(gs.grids.n_g / vol)
    passed = lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12)
    return {"name": "row_norm_bounds", "passed": passed,
            "margin": min(val / lo, hi / val),
            "details": {"lower": lo, "value": val, "upper": hi}}


def check_chi0_const(gs: GroundState) -> dict:
    c = 1.0
    out, _ = apply_chi0(gs, np.full(gs.grids.n_g, c),
                        np.full(gs.n_occ, 1e-14))
    rel = float(np.linalg.norm(out)) / (c * gs.model.n_electrons)
    return {"name": "chi0_gauge_invariance", "passed": rel <= 1e-10,
            "margin": 1e-10 / max(rel, 1e-300)}


def check_bound_dominance(gs: GroundState, kernel: KernelSpec, rng,
                          draws: int = 20) -> dict:
    margins = []
    for _ in range(draws):
        v = rng.standard_normal(gs.grids.n_g)
        tols = 10.0 ** rng.uniform(-8, -4, gs.n_occ)
        approx = apply_dielectric(gs, kernel, v, tols)
        exact = apply_dielectric(gs, kernel, v, np.full(gs.n_occ, 1e-14))
        measured = float(np.linalg.norm(approx.output - exact.output))
        bound = dielectric_error_bound(gs, approx.kv_norm, tols)
        margins.append(bound / max(measured, 1e-300))
    worst = min(margins)
    return {"name": "error_bound_dominance", "passed": worst >= 1.0,
            "margin": worst, "details": {"draws": draws}}


def check_y_bound(gs: GroundState, config: ExperimentConfig) -> dict:
    # small converged solve on the actual Dyson problem
    spec = parse_strategy(config.response.strategy, tau=max(config.response.tau, 1e-7),
                          m=config.response.m)
    kernel = KernelSpec(xc=config.model.xc)
    kerker = KerkerSpec(alpha=config.response.kerker_alpha) if spec.preconditioned else None
    _, b, _ = build_perturbation(gs, config.response.perturbation, spec)
    op, _ = budgeted_dielectric(gs, spec, kernel, kerker, float(np.linalg.norm(b)))
    b_solver = apply_kerker(kerker, gs.grids, b) if kerker else b
    report = igmres_solve(op, b_solver, m=spec.m, tau=spec.tau)
    y = report.y_final
    cycle = report.cycle_est_res[-1]
    worst = 0.0
    for i, yi in enumerate(y):
        bound = cycle[i] / report.sigma_final
        worst = max(worst, abs(yi) / bound if bound > 0 else np.inf)
    return {"name": "y_coefficient_bound", "passed": worst <= 1.0 + 1e-12,
            "margin": 1.0 / max(worst, 1e-300)}


def check_sternheimer_error_bound(gs: GroundState, rng) -> dict:
    # dense pseudo-inverse oracle, in the cos/sin basis: a real eigendecomposition
    # of the stored H and a real-function right-hand side
    grids = gs.grids
    eps_all, u_all = np.linalg.eigh(real_hamiltonian(grids, gs.v_local))
    basis = gs.u[:, :gs.n_occ]
    perp = u_all[:, gs.n_occ:]
    worst = 0.0
    for n in (0, gs.n_occ - 1):
        rhs = rng.standard_normal(grids.n_b)
        rhs -= basis @ (basis.T @ rhs)
        tol = 1e-8
        res = solve_sternheimer(gs, [n], rhs[None], tol, basis)
        gaps = eps_all[gs.n_occ:] - gs.eps[n]
        x_ref = perp @ ((perp.T @ rhs) / gaps)
        err = float(np.linalg.norm(res.solution[0] - x_ref))
        bound = tol / (gs.eps_gap_ref - gs.eps[n])
        worst = max(worst, err / bound)
    return {"name": "sternheimer_error_bound", "passed": worst <= 1.0 + 1e-9,
            "margin": 1.0 / max(worst, 1e-300)}


def verify_suite(config: ExperimentConfig, gs: GroundState = None,
                 out_dir: str = None) -> dict:
    """Run the executable-lemma checks; returns {ok, checks: [...]}.

    Like `run_response`, it leaves the ground state without what the
    checks derived from it (H_Q among them).
    """
    if gs is None:
        gs = ensure_ground_state(config)
    rng = np.random.default_rng(config.response.seed)
    kernel = KernelSpec(xc=config.model.xc)
    try:
        checks = [
            check_fft_roundtrip(gs, rng),
            check_orthonormality(gs),
            check_kerker_lemma(gs, config.response.kerker_alpha),
            check_row_norm_bounds(gs),
            check_chi0_const(gs),
            check_bound_dominance(gs, kernel, rng),
            check_y_bound(gs, config),
            check_sternheimer_error_bound(gs, rng),
        ]
    finally:
        gs.drop_derived()
    ok = all(c["passed"] for c in checks)
    result = {"format_version": REPORT_FORMAT_VERSION, "ok": ok, "checks": checks}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_text(os.path.join(out_dir, "verify.json"), json.dumps(result, indent=1, default=_json_default))
    if not ok:
        failed = [c["name"] for c in checks if not c["passed"]]
        raise InvariantViolationError(f"verification failed: {', '.join(failed)}")
    return result
