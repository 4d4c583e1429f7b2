"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The toy-model ground states are the session fixtures `toy_metal` and
`toy_insulator` of conftest.py, built once per session.  Set
PWDYSON_TEST_CACHE to a directory to persist the archives between
sessions.

Criterion 2 checks the static-tolerance failure against the floor the
restarted solver provably settles at: each restart of the solver's
second stage refreshes the residual with the same static operator, so
d10's true residual ends at ||(E~ - E) x*|| (1.57 tau on the shipped
toy metal), not at a fixed multiple of tau.  The larger pre-refresh gap
(76.5 tau at the first tau/3 flag with m = 250, before the
Schur-complement split) is described in the test docstring.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.special import erfc, expit

from pwdyson import Lattice, NonConvergenceError, build_grids, groundstate
from pwdyson.harness import (
    TIGHT_CG_TOL,
    check_bound_dominance,
    compare_strategies,
    run_response,
    tolerance_context,
)
from pwdyson.igmres import igmres_solve
from pwdyson.kernels import KernelSpec, KerkerSpec, apply_kerker
from pwdyson.response import apply_chi0, apply_dielectric
from pwdyson.strategies import parse_strategy, select_tolerances

from conftest import dense_chi0_oracle

TAU = 1e-9


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {status}: {detail}")
    return passed


@pytest.fixture(scope="session")
def metal_runs(toy_metal):
    """One respond run per strategy on the shared toy-metal ground state."""
    config, gs = toy_metal
    runs = {}
    for name in ("d10", "pbal", "pgrt", "pagr", "pd10"):
        run_config = dataclasses.replace(
            config, response=dataclasses.replace(config.response, strategy=name))
        try:
            runs[name] = run_response(run_config, gs=gs)
        except Exception as err:  # record failures; criteria decide
            runs[name] = err
    return runs


def test_criterion_1_inexact_gmres_guarantee():
    """100 adversarial budget-saturating trials keep the true residual <= tau."""
    rng = np.random.default_rng(2024)
    start = time.time()
    failures = 0
    for _ in range(100):
        n = int(rng.integers(50, 201))
        a = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)

        def op(v, budget, a=a):
            err = rng.standard_normal(len(v))
            err *= budget / np.linalg.norm(err)
            return a @ v + err, 1

        tau = 1e-8
        result = igmres_solve(op, b, m=10, tau=tau)
        if np.linalg.norm(b - a @ result.solution) > tau:
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60
    assert report(1, ok, f"adversarial trials: {100 - failures}/100 within tau, "
                         f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_static_tolerance_failure(toy_metal, metal_runs):
    """d10's estimate claims convergence but its true residual misses tau,
    while pbal/pgrt hold tau.

    The solver's first stage (budgets for 1e3 tau, restarts from the
    implicit residual) ends once the estimate is <= 1e3 tau.  From then
    on every restart recomputes r0 = b - E~ x with the same static d10
    operator E~, which acts as iterative refinement: the true residual
    settles at the static floor ||(E~ - E) x*||, give or take the final
    estimate; the inner errors of the Krylov steps enter only through the
    final cycle's coefficients y_i, which are tiny by then.  So the
    magnitude d10 misses tau by is that floor, computed here at d10's own
    solution, and not a fixed multiple of tau.

    Measured on the shipped toy_metal config: d10 stops at 1.56e-9
    (1.56 tau) against a floor of 1.57e-9, estimate 1.25e-10; pd10 stops
    at 1.59e-9.  The paper's larger gap shows before the refresh: with
    m = 250 the first tau/3 flag came at iteration 38 with the true
    residual at 7.65e-8 (76.5 tau), measured before the Sternheimer solves
    moved to the complement of the kept extra bands; the s-violation
    restart then refreshes it down to the floor.
    """
    config, gs = toy_metal
    d10, pbal, pgrt = metal_runs["d10"], metal_runs["pbal"], metal_runs["pgrt"]
    for run in (d10, pbal, pgrt):
        assert not isinstance(run, Exception), f"run failed: {run}"
    spec = parse_strategy("d10", tau=config.response.tau, m=config.response.m)
    # d10 reads neither the granted budget nor |Kv|
    static_tols = select_tolerances(spec, tolerance_context(gs, rhs_norm=np.nan),
                                    np.nan, np.nan)
    kernel = KernelSpec(xc=config.model.xc)
    static = apply_dielectric(gs, kernel, d10.solution, static_tols)
    exact = apply_dielectric(gs, kernel, d10.solution, np.full(gs.n_occ, TIGHT_CG_TOL))
    floor = float(np.linalg.norm(static.output - exact.output))

    est, true = d10.final_est_res, d10.final_true_res
    est_ok = est <= TAU / 3
    miss_ok = true > TAU and floor > TAU
    floor_ok = abs(true - floor) <= est
    adaptive_ok = pbal.final_true_res <= TAU and pgrt.final_true_res <= TAU
    ok = est_ok and miss_ok and floor_ok and adaptive_ok
    report(2, ok,
           f"d10 est {est:.2e} (<= tau/3: {est_ok}), true {true:.2e} = "
           f"{true / TAU:.2f} tau, static floor {floor:.2e} = {floor / TAU:.2f} tau "
           f"(both > tau: {miss_ok}), |true - floor| {abs(true - floor):.2e} "
           f"(<= est: {floor_ok}); pbal {pbal.final_true_res:.2e}, "
           f"pgrt {pgrt.final_true_res:.2e} (<= tau: {adaptive_ok})")
    assert ok


def test_criterion_3_efficiency_ordering(metal_runs):
    pbal, pagr, pd10 = metal_runs["pbal"], metal_runs["pagr"], metal_runs["pd10"]
    for run in (pbal, pagr, pd10):
        assert not isinstance(run, Exception), f"run failed: {run}"
    rel_bal = pbal.eta / pd10.eta
    rel_agr = pagr.eta / pd10.eta
    ok = rel_bal > 1.0 and rel_agr > 1.0
    assert report(3, ok, f"eta_rel(pbal/pd10) = {rel_bal:.2f}, "
                         f"eta_rel(pagr/pd10) = {rel_agr:.2f} (both > 1)")


def test_criterion_4_error_bound_dominance(toy_metal):
    _, gs = toy_metal
    rng = np.random.default_rng(7)
    check = check_bound_dominance(gs, KernelSpec(xc=gs.model.xc), rng, draws=20)
    assert report(4, check["passed"],
                  f"20 random (v, tol) draws, min bound/measured = {check['margin']:.2f}")


def test_criterion_5_y_coefficient_bound(metal_runs):
    worst = 0.0
    checked = 0
    for name, run in metal_runs.items():
        if isinstance(run, Exception) or not run.converged:
            continue
        rep = run.igmres
        cycle = rep.cycle_est_res[-1]
        for i, yi in enumerate(rep.y_final):
            bound = cycle[i] / rep.sigma_final
            worst = max(worst, abs(yi) / bound)
            checked += 1
    ok = checked > 0 and worst <= 1.0 + 1e-12
    assert report(5, ok, f"|y_i| <= ||r~_(i-1)|| / sigma_m on {checked} coefficients, "
                         f"worst ratio {worst:.3f}")


def test_criterion_6_kerker_properties():
    grids = build_grids(Lattice.cubic(4.0), 3.0)
    assert grids.n_g <= 512
    spec = KerkerSpec(alpha=0.8)
    t = np.zeros((grids.n_g, grids.n_g))
    for j in range(grids.n_g):
        e = np.zeros(grids.n_g)
        e[j] = 1.0
        t[:, j] = apply_kerker(spec, grids, e)
    herm = float(np.max(np.abs(t - t.T)))
    eig = np.linalg.eigvalsh(0.5 * (t + t.T))
    const = np.ones(grids.n_g)
    const_exact = np.max(np.abs(apply_kerker(spec, grids, const) - const))
    ok = (herm <= 1e-12 and eig.min() > 0 and eig.max() <= 1 + 1e-12
          and abs(eig.max() - 1.0) <= 1e-12 and const_exact <= 1e-12)
    assert report(6, ok, f"dense T at n_g={grids.n_g}: hermiticity {herm:.1e}, "
                         f"eigenvalues in ({eig.min():.3f}, {eig.max():.12f}], "
                         f"T const defect {const_exact:.1e}")


def test_criterion_7_row_norm_bounds(toy_metal, toy_insulator, tiny_oracle_gs):
    from pwdyson.response import _cached_row_norm

    worst_margin = np.inf
    for _, gs in (toy_metal, toy_insulator, (None, tiny_oracle_gs)):
        val = _cached_row_norm(gs)
        vol = gs.grids.lattice.volume
        lo, hi = np.sqrt(gs.n_occ / vol), np.sqrt(gs.grids.n_g / vol)
        if not lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12):
            worst_margin = -1
            break
        worst_margin = min(worst_margin, val / lo, hi / val)
    ok = worst_margin > 0
    assert report(7, ok, f"sqrt(n_occ/V) <= row norm <= sqrt(n_g/V) on all ground "
                         f"states, min margin {worst_margin:.2f}")


def test_criterion_8_dense_oracle_equivalence(tiny_oracle_gs):
    gs = tiny_oracle_gs
    grids = gs.grids
    kernel = KernelSpec()
    chi = dense_chi0_oracle(gs)
    sym_defect = np.max(np.abs(chi - chi.T))
    eigs = np.linalg.eigvalsh(0.5 * (chi + chi.T))
    k_dense = np.zeros((grids.n_g, grids.n_g))
    for j in range(grids.n_g):
        e = np.zeros(grids.n_g)
        e[j] = 1.0
        from pwdyson.kernels import apply_kernel
        k_dense[:, j] = apply_kernel(kernel, grids, gs.rho, e)
    e_dense = np.eye(grids.n_g) - chi @ k_dense

    rng = np.random.default_rng(11)
    dv = rng.standard_normal(grids.n_g)
    b, _ = apply_chi0(gs, dv, np.full(gs.n_occ, 1e-13))

    def op(v, budget):
        app = apply_dielectric(gs, kernel, v, np.full(gs.n_occ, 1e-13))
        return app.output, app.ham_applications

    result = igmres_solve(op, b, m=20, tau=TAU)
    residual = np.linalg.norm(b - e_dense @ result.solution)
    x_direct = np.linalg.solve(e_dense, b)
    diff = np.linalg.norm(result.solution - x_direct)
    ok = residual <= TAU and sym_defect <= 1e-8 and eigs.max() <= 1e-8
    assert report(8, ok, f"n_g={grids.n_g}: GMRES-vs-dense residual {residual:.2e} "
                         f"(<= tau), |x - x_direct| = {diff:.2e}, chi0 symmetry "
                         f"{sym_defect:.1e}, max eigenvalue {eigs.max():.2e}")


def test_criterion_9_superlinearity(metal_runs):
    """Terminal inner-iteration collapse for the efficiency strategies.

    Gated on pbal and pagr, whose strategy prefactors match the loose
    budgets the collapse relies on; pgrt keeps its guarantee factor
    1/(|Kv| row) which on this toy is ~7x below bal, so its terminal CG
    count is reported for reference but not gated.
    """
    details = []
    ok = True
    for name in ("pbal", "pagr"):
        run = metal_runs[name]
        assert not isinstance(run, Exception)
        first, last = run.history[0][5], run.history[-1][5]
        ok &= last <= 2.0 and last <= 0.5 * first
        details.append(f"{name} {first:.1f} -> {last:.1f}")
    pgrt = metal_runs["pgrt"]
    if not isinstance(pgrt, Exception):
        details.append(f"(pgrt {pgrt.history[0][5]:.1f} -> {pgrt.history[-1][5]:.1f}, "
                       f"not gated)")
    assert report(9, ok, "mean CG iterations per band, first -> last outer "
                         "iteration: " + ", ".join(details))


def test_criterion_10_chi0_gauge_invariance(toy_metal, toy_insulator):
    results = []
    ok = True
    for label, (_, gs) in (("metal", toy_metal), ("insulator", toy_insulator)):
        out, _ = apply_chi0(gs, np.full(gs.grids.n_g, 1.0),
                            np.full(gs.n_occ, 1e-14))
        rel = np.linalg.norm(out) / gs.model.n_electrons
        ok &= rel <= 1e-10
        results.append(f"{label} {rel:.2e}")
    assert report(10, ok, "||chi0(const)|| / N <= 1e-10: " + ", ".join(results))


def test_compare_keeps_its_rows_when_grt_meets_the_tolerance_floor(toy_metal):
    """At tau 1e-11 and m 40, unpreconditioned grt's tolerances fall below the
    floor at its second application (|Kv| about 1.7e3, a first-stage budget
    of (s / 3m) 1e3 tau / ||r~_1||): its row is not converged, pbal's stays.

    The shipped tau 1e-9 and m 8 grant that application a budget large
    enough for grt to converge.
    """
    config, gs = toy_metal
    config = dataclasses.replace(
        config, response=dataclasses.replace(config.response, tau=1e-11, m=40))
    grt = dataclasses.replace(config, response=dataclasses.replace(config.response,
                                                                  strategy="grt"))
    with pytest.raises(NonConvergenceError, match="tolerance floor"):
        run_response(grt, gs=gs)
    rows = {r["strategy"]: r for r in compare_strategies(config, ["pbal", "grt"], gs=gs)}
    pbal = run_response(dataclasses.replace(
        config, response=dataclasses.replace(config.response, strategy="pbal")), gs=gs)
    assert rows["pbal"]["converged"] and rows["pbal"]["n_ham"] == pbal.n_ham
    assert rows["pbal"]["final_true_res"] == pbal.final_true_res
    assert rows["grt"]["converged"] is False and rows["grt"]["n_ham"] > 0


@pytest.mark.parametrize("smearing", ["fermi_dirac", "gaussian"])
def test_fermi_level_matches_scipy_smearing(toy_metal, smearing):
    """The bisection on toy_metal's eigenvalues lands where one on scipy's occupations does.

    The reference bisects sum_n f((eps_n - mu) / T) = N with scipy's
    `expit`/`erfc` as f, down to adjacent doubles, independently of the
    program's count.
    """
    _, gs = toy_metal
    eps, n, t = gs.eps, gs.model.n_electrons, gs.model.temperature
    fermi, _ = groundstate.fermi_and_occupations(eps, n, t, smearing)
    f = {"fermi_dirac": lambda x: 2.0 * expit(-x), "gaussian": erfc}[smearing]
    lo, hi = eps.min() - 1.0, eps.max() + 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f((eps - mid) / t).sum() < n else (lo, mid)
    assert abs(fermi - lo) <= 1e-15 * abs(lo)
