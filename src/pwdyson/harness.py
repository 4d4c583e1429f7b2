"""Experiment orchestration: respond / compare / verify plus metrics.

Wires the dielectric application into a budgeted operator for the outer
inexact GMRES: each granted budget is translated into per-band Sternheimer
tolerances by the configured strategy, and held to it by the computable
bound before chi0 is applied (`checked_tolerances`, the one such path for
the right-hand side and the operator).  A `p` strategy puts Kerker on the
right: GMRES solves E P y = b through E~ P and the run reports x = P y,
so its certificate covers the true residual b - E x.  Costs are measured
in Hamiltonian applications (one per band per inner CG iteration), the
metric every report uses.  Each call returns what it spent and the
harness adds the returned costs up: `n_ham` is the right-hand-side build
plus the outer solve, and the true-residual diagnostics, run at tight
tolerances outside the solve, are never part of it.
"""

import json
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .archive import atomic_write, is_older_format, load_ground_state, save_ground_state
from .config import ExperimentConfig, model_to_dict
from .errors import InvariantViolationError, NonConvergenceError
from .groundstate import (
    SECTOR_DEFECT_LIMIT,
    GroundState,
    external_potential_derivative,
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
)
from .sternheimer import hamiltonian, project_out_occupied, solve_sternheimer
from .strategies import (
    TOLERANCE_FLOOR,
    StrategySpec,
    ToleranceContext,
    parse_strategy,
    select_tolerances,
)

TIGHT_CG_TOL = 1e-16
BOUND_RTOL = 1e-12                  # round-off allowed on grt's bound-to-budget ratio
HISTORY_COLUMNS = ("iter", "est_res", "true_res", "cum_ham", "mean_cg_tol", "mean_cg_iters")
REPORT_FORMAT_VERSION = 2


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
    true_res0: float
    eta: float
    s_final: float = np.nan
    bound_margin_min: float = np.inf
    restarts: list = field(default_factory=list)
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report's JSON object: the format version, then every field in order."""
        report = {"format_version": REPORT_FORMAT_VERSION}
        report.update((f.name, getattr(self, f.name)) for f in fields(self))
        report["history"] = [dict(zip(HISTORY_COLUMNS, row)) for row in self.history]
        return report


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):     # numpy scalars and arrays as Python's
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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
    archive format; a malformed or newer-format archive is left in place
    and raises `ArchiveError`.
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
        occ=gs.occ_occ, gap=gs.eps_gap_ref - gs.eps_occ, volume=grids.lattice.volume,
        n_g=grids.n_g, row_norm=_cached_row_norm(gs), rhs_norm=rhs_norm,
    )


def bound_margin(gs: GroundState, spec: StrategySpec, budget: float, kv_norm: float,
                 tolerances) -> float:
    """budget / `dielectric_error_bound` of one application of chi0 to a vector of norm kv_norm.

    grt's tolerances invert the bound, so its margin is 1 up to round-off
    unless `select_tolerances` raised some of them to TOLERANCE_FLOOR.

    Raises:
        NonConvergenceError: a grt application's bound exceeds its granted
            budget by more than BOUND_RTOL relative while some tolerances
            sat at TOLERANCE_FLOOR, out of the budget's reach; `cost` 0.
        InvariantViolationError: the same, with no tolerance at the floor.
    """
    bound = dielectric_error_bound(gs, kv_norm, tolerances)
    margin = budget / bound if bound > 0 else np.inf
    if spec.kind == "grt" and margin < 1.0 - BOUND_RTOL:
        message = (f"{spec.name}: error bound {bound:.6e} exceeds the granted budget "
                   f"{budget:.6e} (margin {margin:.15f})")
        clamped = int(np.sum(np.asarray(tolerances) <= TOLERANCE_FLOOR))
        if clamped:
            raise NonConvergenceError(
                f"{message}: {clamped} of {len(tolerances)} band tolerances sat at the "
                f"tolerance floor {TOLERANCE_FLOOR:.0e} at |Kv| = {kv_norm:.6g}", cost=0)
        raise InvariantViolationError(message)
    return margin


def checked_tolerances(gs: GroundState, spec: StrategySpec, ctx: ToleranceContext,
                       budget: float, dv_norm: float) -> tuple:
    """(per-band tolerances, `bound_margin`) for one application of chi0 to a vector of norm dv_norm.

    The one path from a granted budget to Sternheimer tolerances: the
    strategy's `select_tolerances`, then `bound_margin`, before any
    Hamiltonian application, so a grt application its bound refuses
    costs nothing.
    """
    tolerances = select_tolerances(spec, ctx, budget, dv_norm)
    return tolerances, bound_margin(gs, spec, budget, dv_norm, tolerances)


def build_perturbation(gs: GroundState, pert, spec: StrategySpec):
    """Displacement perturbation dV0 and the right-hand side chi0 dV0, with its cost.

    dV0 is `external_potential_derivative` of the indexed well along the
    direction.  The right-hand side applies chi0 in rescaled form, with
    the `checked_tolerances` of the budget tau/3 at |dV0|; the static
    baselines use their fixed tolerance instead, and d10n, which reads
    |chi0 dV0|, measures it first with d10's and solves again if any of
    its own is tighter.
    """
    dv0 = external_potential_derivative(gs.model, gs.grids, pert.gaussian, pert.direction)
    dv_norm = float(np.linalg.norm(dv0))
    if dv_norm == 0.0:
        return dv0, np.zeros(gs.grids.n_g), 0

    # chi0 dV0 = |dV0| chi0(dV0 / |dV0|): the normalised application makes
    # the strategy tolerances commensurate with the error budget tau/3.
    budget = spec.tau / 3.0
    ctx = tolerance_context(gs, rhs_norm=np.nan)      # |chi0 dV0| is built here
    first = replace(spec, kind="d10") if spec.kind == "d10n" else spec
    tols, _ = checked_tolerances(gs, first, ctx, budget, dv_norm)
    drho0, solve = apply_chi0(gs, dv0 / dv_norm, tols)
    cost = solve.cg_iterations
    if spec.kind == "d10n":
        ctx = replace(ctx, rhs_norm=float(np.linalg.norm(drho0)) * dv_norm)
        tighter, _ = checked_tolerances(gs, spec, ctx, budget, dv_norm)
        if np.any(tighter < tols):
            drho0, solve = apply_chi0(gs, dv0 / dv_norm, tighter)
            cost += solve.cg_iterations
    return dv0, dv_norm * drho0, cost


def budgeted_dielectric(gs: GroundState, spec: StrategySpec, kernel: KernelSpec,
                        precondition, rhs_norm: float):
    """The budgeted Dyson operator (v, budget) -> (E~ P v, cost) of `igmres_solve`.

    `precondition` is v -> P v, or None for P = I.  Each granted budget's
    `checked_tolerances` are taken at |K P v|, so the budget bounds
    ||(E~ - E) P v||, and a grt application its bound refuses raises
    before its Sternheimer solve, with cost 0.  Returns the operator and
    the list it appends every (`bound_margin`, DielectricApplication) to,
    the latter without its output; the margin is inf when K P v = 0.
    """
    ctx = tolerance_context(gs, rhs_norm)
    applications = []

    def op(v, budget):
        margin = [np.inf]

        def tolerances(kv_norm):
            tols, margin[0] = checked_tolerances(gs, spec, ctx, budget, kv_norm)
            return tols

        app = apply_dielectric(gs, kernel, precondition(v) if precondition else v, tolerances)
        applications.append((margin[0], replace(app, output=None)))   # keep no n_g vectors
        return app.output, app.ham_applications

    return op, applications


def true_residual(gs: GroundState, kernel: KernelSpec, x: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """The residual b - E x, with every Sternheimer tolerance tightened to 1e-16."""
    app = apply_dielectric(gs, kernel, np.asarray(x, dtype=float),
                           np.full(gs.n_occ, TIGHT_CG_TOL))
    return b - app.output


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
    kernel = KernelSpec(xc=config.model.xc)
    precondition = (partial(apply_kerker, KerkerSpec(alpha=resp.kerker_alpha), gs.grids)
                    if spec.preconditioned else None)
    to_x = precondition or (lambda y: y)

    dv0, b, n_ham_rhs = build_perturbation(gs, resp.perturbation, spec)
    b_norm = float(np.linalg.norm(b))
    op, applications = budgeted_dielectric(gs, spec, kernel, precondition, b_norm)
    history = []
    every = resp.true_residual_every

    def monitor(info):
        app = applications[-1][1]
        t_res = np.nan
        if every and info["iteration"] % every == 0:
            t_res = float(np.linalg.norm(true_residual(gs, kernel, to_x(info["get_x"]()), b)))
        history.append((info["iteration"], info["est_res"], t_res,
                        n_ham_rhs + info["total_cost"], *_mean_cg(app)))

    try:
        report = igmres_solve(op, b, x0=None, m=spec.m, tau=spec.tau,
                              s_init=1.0, monitor=monitor)
        converged = True
    except NonConvergenceError as err:
        if err.report is None:          # an inner Sternheimer solve, not GMRES
            spent = sum(app.ham_applications for _, app in applications) + err.cost
            stalled = RunMetrics(
                strategy=spec.name, tau=spec.tau, m=spec.m, converged=False,
                n_ham=n_ham_rhs + spent, n_ham_rhs=n_ham_rhs, final_est_res=np.nan,
                final_true_res=np.nan, true_res0=b_norm, eta=np.nan, history=history)
            raise NonConvergenceError(f"Dyson solve ({spec.name}) stopped: {err}",
                                      residual=err.residual, report=stalled) from err
        report = err.report
        converged = False

    n_ham = n_ham_rhs + report.total_cost
    x = to_x(report.solution)
    final_true = float(np.linalg.norm(true_residual(gs, kernel, x, b)))
    eta = (float(-np.log10(final_true / b_norm) / n_ham)
           if (n_ham > 0 and final_true > 0 and b_norm > 0) else np.nan)

    metrics = RunMetrics(
        strategy=spec.name, tau=spec.tau, m=spec.m, converged=converged,
        n_ham=n_ham, n_ham_rhs=n_ham_rhs,
        final_est_res=report.final_est_res, final_true_res=final_true,
        true_res0=b_norm, eta=eta, history=history,
        restarts=[{"cycle": r.cycle, "reason": r.reason, "s_before": r.s_before,
                   "s_after": r.s_after} for r in report.restarts],
        s_final=report.s_final,
        bound_margin_min=float(min((margin for margin, _ in applications), default=np.inf)),
    )
    metrics.solution = x
    metrics.rhs = b
    metrics.igmres = replace(report, solution=None)     # its y is kept only as x = P y

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write(os.path.join(out_dir, "report.json"),
                     json.dumps(metrics.to_dict(), indent=1, default=_json_default).encode())
        atomic_write(os.path.join(out_dir, "history.csv"),
                     _csv_text(HISTORY_COLUMNS, history).encode())

    if not converged:
        raise NonConvergenceError(
            f"Dyson solve ({spec.name}) did not converge", report=metrics)
    return metrics


def compare_strategies(config: ExperimentConfig, strategies, out_dir: str = None,
                       gs: GroundState = None, reference: str = None) -> list:
    """Run each strategy on the shared model; tabulate cost and accuracy.

    eta_rel references the d10 baseline (pd10 when only the preconditioned
    run is present, or an explicit `reference`).  Failures are recorded
    per row instead of aborting the table.  Only grt and pgrt rows carry
    the guarantee final_true_res <= tau; bal and agr are heuristics whose
    rows can miss tau, so compare final_true_res before cost.
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
            stopped = err.report
            rows.append({"strategy": name, "converged": False,
                         "final_true_res": getattr(stopped, "final_true_res", np.nan),
                         "n_ham": getattr(stopped, "n_ham", 0),
                         "eta": getattr(stopped, "eta", np.nan)})

    names = [r["strategy"] for r in rows]
    if reference is None:
        reference = "d10" if "d10" in names else ("pd10" if "pd10" in names else names[0])
    ref_eta = next((r["eta"] for r in rows if r["strategy"] == reference), np.nan)
    for r in rows:
        r["eta_rel"] = r["eta"] / ref_eta if ref_eta and np.isfinite(ref_eta) else np.nan

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write(os.path.join(out_dir, "compare.json"), json.dumps({
            "format_version": REPORT_FORMAT_VERSION,
            "reference": reference,
            "rows": rows,
        }, indent=1, default=_json_default).encode())
        cols = ("strategy", "converged", "final_true_res", "n_ham", "eta", "eta_rel")
        atomic_write(os.path.join(out_dir, "compare.csv"),
                     _csv_text(cols, ([r[c] for c in cols] for r in rows)).encode())
    return rows


# -- verification suite ----------------------------------------------------------


def check_fft_roundtrip(gs: GroundState, rng) -> dict:
    # the real transform pair on random cos/sin rows
    grids = gs.grids
    rows = rng.standard_normal((40, grids.n_b))
    back = grids.to_fourier_many(grids.to_real_many(rows))
    worst = float(np.max(np.linalg.norm(back - rows, axis=1) / np.linalg.norm(rows, axis=1)))
    return {"name": "fft_roundtrip", "passed": worst <= 1e-14, "margin": 1e-14 / max(worst, 1e-300)}


def check_orthonormality(gs: GroundState) -> dict:
    # T is unitary: the orbitals are orthonormal exactly when their cos/sin columns are
    defect = float(np.max(np.abs(gs.u.T @ gs.u - np.eye(gs.n_kept))))
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
    val = _cached_row_norm(gs)          # the row norm grt's tolerances read
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
    # small converged solve on the actual Dyson problem, through the production path
    resp = replace(config.response, tau=max(config.response.tau, 1e-7))
    report = run_response(replace(config, response=resp), gs=gs).igmres
    y = report.y_final
    cycle = report.cycle_est_res[-1]
    worst = 0.0
    for i, yi in enumerate(y):
        bound = cycle[i] / report.sigma_final
        worst = max(worst, abs(yi) / bound if bound > 0 else np.inf)
    return {"name": "y_coefficient_bound", "passed": worst <= 1.0 + 1e-12,
            "margin": 1.0 / max(worst, 1e-300)}


def check_sternheimer_error_bound(gs: GroundState, rng) -> dict:
    # the production solve (every occupied band in one call, against the kept bands u,
    # with the state's cached operator) against a dense pseudo-inverse: a full eigh of
    # H_r on the complement of u, which is range(Q) even where a degenerate level
    # straddles the kept bands; a CG residual below tol bounds each error by
    # tol / (eps_{N_kept+1} - eps_n)
    complement = np.linalg.qr(gs.u, mode="complete")[0][:, gs.n_kept:]
    eps_perp, y = np.linalg.eigh(complement.T @ real_hamiltonian(gs.grids, gs.v_local)
                                 @ complement)
    perp, gaps = complement @ y, eps_perp[:, None] - gs.eps_occ
    rhs = project_out_occupied(gs.u, rng.standard_normal((gs.grids.n_b, gs.n_occ)))
    tol = 1e-8
    res = solve_sternheimer(gs, rhs.T, tol)
    x_ref = perp @ ((perp.T @ rhs) / gaps)
    err = np.linalg.norm(res.solution - x_ref.T, axis=1)
    worst = float(np.max(err * gaps[0] / tol))
    return {"name": "sternheimer_error_bound", "passed": worst <= 1.0 + 1e-9,
            "margin": 1.0 / max(worst, 1e-300)}


def check_mirror_sectors(gs: GroundState) -> dict:
    # the blocks the Sternheimer CG applies: the labels of the operations
    # that generate the sectors, the sector sizes and the guard's bound from vhat
    ham = hamiltonian(gs)
    sizes = [len(block) for block in ham.blocks]
    passed = ham.defect <= SECTOR_DEFECT_LIMIT and sum(sizes) == gs.grids.n_b
    return {"name": "mirror_sectors", "passed": passed,
            "margin": SECTOR_DEFECT_LIMIT / max(ham.defect, 1e-300),
            "details": {"operations": list(ham.basis.labels), "sector_sizes": sizes,
                        "defect": ham.defect}}


def verify_suite(config: ExperimentConfig, gs: GroundState = None,
                 out_dir: str = None) -> dict:
    """Run the executable-lemma checks; returns {ok, checks: [...]}.

    Like `run_response`, it leaves the ground state without what the
    checks derived from it (H_r among them).
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
            check_mirror_sectors(gs),
        ]
    finally:
        gs.drop_derived()
    ok = all(c["passed"] for c in checks)
    result = {"format_version": REPORT_FORMAT_VERSION, "ok": ok, "checks": checks}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write(os.path.join(out_dir, "verify.json"),
                     json.dumps(result, indent=1, default=_json_default).encode())
    if not ok:
        failed = [c["name"] for c in checks if not c["passed"]]
        raise InvariantViolationError(f"verification failed: {', '.join(failed)}")
    return result
