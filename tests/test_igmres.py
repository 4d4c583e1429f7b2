"""Tests for the budgeted restarted inexact GMRES."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwdyson import NonConvergenceError
from pwdyson.igmres import (
    STAGE_FACTOR,
    IGmresState,
    estimated_residual_update,
    hessenberg_min_singular,
    igmres_solve,
)


def exact_op(a):
    return lambda v, budget: (a @ v, 1)


def adversarial_op(a, rng):
    """Injects an error of exactly the granted budget, random direction."""

    def op(v, budget):
        err = rng.standard_normal(len(v))
        err *= budget / np.linalg.norm(err)
        return a @ v + err, 1

    return op


def well_conditioned(rng, n):
    return np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)


# -- whole-solver behaviour -----------------------------------------------------


def test_identity_operator_one_iteration():
    # ||b|| <= STAGE_FACTOR tau: no first stage, one step at tau
    rng = np.random.default_rng(0)
    tau = 1e-10
    b = rng.standard_normal(40)
    b *= 0.5 * STAGE_FACTOR * tau / np.linalg.norm(b)
    report = igmres_solve(exact_op(np.eye(40)), b, m=10, tau=tau)
    assert report.converged
    assert report.iterations == 1 and report.total_cost == 1 and not report.restarts
    np.testing.assert_allclose(report.solution, b, rtol=1e-12)


def test_identity_operator_hands_over_after_one_step():
    # the first step ends stage 1; the refresh at tau/3 and one step at tau certify
    rng = np.random.default_rng(0)
    tau = 1e-10
    b = rng.standard_normal(40)
    report = igmres_solve(exact_op(np.eye(40)), b, m=10, tau=tau)
    assert report.converged
    assert report.iterations == 2 and report.total_cost == 3
    assert [r.reason for r in report.restarts] == ["hand-over"]
    assert [(r.iteration, r.cycle, r.target) for r in report.budgets] == [
        (1, 1, STAGE_FACTOR * tau), (0, 2, tau), (2, 2, tau)]
    assert report.budgets[1].budget_raw == tau / 3.0
    np.testing.assert_allclose(report.solution, b, rtol=1e-12)


def test_matches_dense_solve():
    rng = np.random.default_rng(1)
    a = well_conditioned(rng, 50)
    b = rng.standard_normal(50)
    tau = 1e-9
    report = igmres_solve(exact_op(a), b, m=25, tau=tau)
    assert report.converged
    x_ref = np.linalg.solve(a, b)
    assert np.linalg.norm(b - a @ report.solution) <= tau
    np.testing.assert_allclose(report.solution, x_ref, atol=1e-7)


def test_zero_rhs():
    # x = 0 solves it: one cycle of no step, whose coefficients are empty
    report = igmres_solve(exact_op(np.eye(8)), np.zeros(8), m=4, tau=1e-8)
    assert report.converged and report.iterations == 0 and report.total_cost == 0
    np.testing.assert_array_equal(report.solution, np.zeros(8))
    assert report.y_final.shape == (0,) and report.cycle_est_res == [[0.0]]


def test_nonzero_initial_guess():
    rng = np.random.default_rng(2)
    a = well_conditioned(rng, 30)
    b = rng.standard_normal(30)
    x0 = rng.standard_normal(30)
    tau = 1e-8
    report = igmres_solve(exact_op(a), b, x0=x0, m=15, tau=tau)
    assert report.converged
    assert np.linalg.norm(b - a @ report.solution) <= tau
    # the x0 refresh must have been granted its tau/3 budget, and no first stage runs
    assert report.budgets[0].iteration == 0
    assert report.budgets[0].budget_raw == tau / 3.0
    assert all(rec.target == tau for rec in report.budgets)
    assert all(r.reason in ("cycle-full", "s-violation") for r in report.restarts)


def test_adversarial_budget_saturation_keeps_guarantee():
    rng = np.random.default_rng(3)
    failures = 0
    for trial in range(30):
        n = int(rng.integers(30, 80))
        a = well_conditioned(rng, n)
        b = rng.standard_normal(n)
        tau = 1e-8
        report = igmres_solve(adversarial_op(a, rng), b, m=10, tau=tau)
        assert report.converged
        if np.linalg.norm(b - a @ report.solution) > tau:
            failures += 1
    assert failures == 0


@given(n=st.integers(20, 80), m=st.integers(1, 12), log_tau=st.floats(-10.0, -6.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_adversarial_budget_saturation_keeps_guarantee_on_drawn_problems(n, m, log_tau, seed):
    # every application errs by exactly its budget: the true residual still ends below tau
    rng = np.random.default_rng(seed)
    a = well_conditioned(rng, n)
    b = rng.standard_normal(n)
    tau = 10.0 ** log_tau
    report = igmres_solve(adversarial_op(a, rng), b, m=m, tau=tau)
    assert report.converged
    assert np.linalg.norm(b - a @ report.solution) <= tau


@given(n=st.integers(20, 80), m=st.integers(1, 12), log_tau=st.floats(-10.0, -6.0),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-1.0, 9.0))
@settings(max_examples=40, deadline=None)
def test_two_stages_keep_guarantee_on_drawn_problems(n, m, log_tau, seed, log_scale):
    # ||b|| = 10^log_scale STAGE_FACTOR tau: below 1 no first stage runs; above,
    # it hands over mid-cycle or after implicit restarts, drawn with m and ||b||
    rng = np.random.default_rng(seed)
    a = well_conditioned(rng, n)
    tau = 10.0 ** log_tau
    b = rng.standard_normal(n)
    b *= 10.0 ** log_scale * STAGE_FACTOR * tau / np.linalg.norm(b)
    report = igmres_solve(adversarial_op(a, rng), b, m=m, tau=tau)
    assert report.converged
    assert np.linalg.norm(b - a @ report.solution) <= tau
    reasons = [r.reason for r in report.restarts]
    staged = np.linalg.norm(b) > STAGE_FACTOR * tau
    assert reasons.count("hand-over") == int(staged)
    if staged:
        # implicit restarts only before the hand-over, refreshed ones only after
        k = reasons.index("hand-over")
        assert set(reasons[:k]) <= {"implicit"}
        assert "implicit" not in reasons[k:]
    else:
        assert "implicit" not in reasons
    final = report.budgets[-1].cycle
    certifying = [rec for rec in report.budgets if rec.cycle == final]
    assert all(rec.target == tau for rec in certifying)
    if report.restarts:
        # the certifying cycle starts from a refresh at tau/3
        assert certifying[0].iteration == 0 and certifying[0].budget_raw == tau / 3.0


def test_restart_involved_convergence():
    # force restarts with a small cycle length
    rng = np.random.default_rng(4)
    a = well_conditioned(rng, 60)
    b = rng.standard_normal(60)
    tau = 1e-9
    report = igmres_solve(exact_op(a), b, m=5, tau=tau)
    assert report.converged
    assert any(r.reason == "cycle-full" for r in report.restarts)
    assert np.linalg.norm(b - a @ report.solution) <= tau


def test_static_operator_error_settles_at_floor():
    # A fixed operator error that ignores the budget: every restart refreshes
    # r0 = b - (A + delta F) x, so the true residual settles at the static
    # floor ||delta F x|| while the estimate reports convergence.
    rng = np.random.default_rng(13)
    n, tau, delta = 40, 1e-9, 1e-8
    a = well_conditioned(rng, n)
    f = rng.standard_normal((n, n))
    f /= np.linalg.norm(f, 2)
    b = rng.standard_normal(n)
    report = igmres_solve(lambda v, budget: (a @ v + delta * (f @ v), 1), b,
                          m=5, tau=tau)
    assert report.converged and report.restarts
    est = report.final_est_res
    assert est <= tau / 3
    true = np.linalg.norm(b - a @ report.solution)
    floor = np.linalg.norm(delta * (f @ report.solution))
    assert true > tau
    assert abs(true - floor) <= est


def test_nonconvergence_carries_report():
    rng = np.random.default_rng(5)
    a = well_conditioned(rng, 40)
    b = rng.standard_normal(40)
    with pytest.raises(NonConvergenceError) as err:
        igmres_solve(exact_op(a), b, m=2, tau=1e-13, max_total_iterations=4)
    assert err.value.report is not None
    assert err.value.report.iterations == 4
    assert not err.value.report.converged


def test_iteration_cap_counts_both_stages():
    # a cap two steps past the hand-over stops in the second stage, refresh included
    rng = np.random.default_rng(5)
    a = well_conditioned(rng, 40)
    b = rng.standard_normal(40)
    tau = 1e-13
    full = igmres_solve(exact_op(a), b, m=2, tau=tau)
    hand_over = next(r for r in full.budgets if r.target == tau).cycle
    steps_before = max(r.iteration for r in full.budgets if r.cycle < hand_over)
    cap = steps_before + 2
    assert cap < full.iterations
    with pytest.raises(NonConvergenceError) as err:
        igmres_solve(exact_op(a), b, m=2, tau=tau, max_total_iterations=cap)
    report = err.value.report
    assert report is not None and not report.converged
    assert report.iterations == cap
    assert report.budgets[-1].target == tau
    assert report.total_cost == len(report.budgets) == cap + 1      # one refresh


# -- invariants -------------------------------------------------------------------


def test_estimated_residual_monotone_within_cycles():
    rng = np.random.default_rng(6)
    a = well_conditioned(rng, 50)
    b = rng.standard_normal(50)
    report = igmres_solve(adversarial_op(a, rng), b, m=7, tau=1e-8)
    for cycle in report.cycle_est_res:
        assert all(x >= y - 1e-15 for x, y in zip(cycle, cycle[1:]))


def test_budget_formula_audit():
    # every step's budget follows the formula at its own target: STAGE_FACTOR tau
    # up to the hand-over, tau from the hand-over's refresh (granted tau/3) on
    rng = np.random.default_rng(7)
    a = well_conditioned(rng, 45)
    b = rng.standard_normal(45)
    m, tau = 8, 1e-9
    report = igmres_solve(adversarial_op(a, rng), b, m=m, tau=tau)
    targets = [rec.target for rec in report.budgets]
    first = targets.index(tau)
    assert targets[:first] == [STAGE_FACTOR * tau] * first and first > 0
    assert set(targets[first:]) == {tau}
    assert report.budgets[first].iteration == 0
    for rec in report.budgets:
        if rec.iteration == 0:
            assert rec.budget_raw == tau / 3.0
            continue
        assert rec.budget_raw == (rec.s / (3.0 * m)) * rec.target / rec.est_res_prev
        if not rec.clamped:
            assert rec.budget == rec.budget_raw


def test_residual_gap_identity():
    # ||[w_1 ... w_i] - V_{i+1} H_i||_F stays at roundoff level for inexact products w_j
    rng = np.random.default_rng(8)
    a = well_conditioned(rng, 40)
    op = adversarial_op(a, rng)
    state = IGmresState(max_dim=25)
    state.start(rng.standard_normal(40))
    products = []
    for _ in range(25):
        w, _ = op(state.v[state.size], 1e-6)
        products.append(w)
        estimated_residual_update(state, state.arnoldi_step(w))
    h = state.hessenberg()
    v = np.array(state.v).T
    assert h.shape == (26, 25) and v.shape == (40, 26)
    gap = np.linalg.norm(np.array(products).T - v @ h)
    assert gap <= 1e-10 * max(np.linalg.norm(h), 1.0)


def test_y_coefficient_bound():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = well_conditioned(rng, 35)
        b = rng.standard_normal(35)
        report = igmres_solve(adversarial_op(a, rng), b, m=12, tau=1e-8)
        assert report.converged
        y = report.y_final
        sigma = report.sigma_final
        final_cycle = report.cycle_est_res[-1]
        for i, yi in enumerate(y):
            assert abs(yi) <= final_cycle[i] / sigma * (1 + 1e-12)


def test_final_s_below_sigma():
    rng = np.random.default_rng(10)
    a = well_conditioned(rng, 30)
    b = rng.standard_normal(30)
    report = igmres_solve(adversarial_op(a, rng), b, m=6, tau=1e-8)
    assert report.converged
    assert report.s_final <= report.sigma_final


# -- estimated_residual_update ------------------------------------------------------


def test_two_by_one_closed_form():
    state = IGmresState(max_dim=3)
    r0 = np.array([2.0, 0.0, 0.0, 0.0])
    state.start(r0)
    a_val, h_val = 1.3, 0.7
    est = estimated_residual_update(state, np.array([a_val, h_val]))
    beta = 2.0
    assert est == pytest.approx(abs(h_val) * beta / np.hypot(a_val, h_val), rel=1e-14)


def test_update_matches_dense_least_squares():
    rng = np.random.default_rng(11)
    n, k = 30, 8
    state = IGmresState(max_dim=k)
    r0 = rng.standard_normal(n)
    state.start(r0)
    beta = np.linalg.norm(r0)
    h = np.zeros((k + 1, k))
    for i in range(k):
        col = rng.standard_normal(i + 2)
        col[-1] = abs(col[-1]) + 0.1
        h[: i + 2, i] = col
        est = estimated_residual_update(state, col)
        rhs = np.zeros(i + 2)
        rhs[0] = beta
        _, res, *_ = np.linalg.lstsq(h[: i + 2, : i + 1], rhs, rcond=None)
        dense = np.sqrt(res[0]) if len(res) else np.linalg.norm(
            rhs - h[: i + 2, : i + 1] @ np.linalg.pinv(h[: i + 2, : i + 1]) @ rhs)
        assert est == pytest.approx(dense, rel=1e-12, abs=1e-14)


def test_lucky_breakdown_estimated_residual_zero():
    state = IGmresState(max_dim=2)
    state.start(np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
    est = estimated_residual_update(state, np.array([2.0, 0.0]))
    assert est == 0.0


# -- hessenberg_min_singular -----------------------------------------------------------


def test_min_singular_column():
    assert hessenberg_min_singular(np.array([[2.0], [0.0]])) == pytest.approx(2.0)


def test_min_singular_identity_padded():
    h = np.vstack([np.eye(4), np.zeros(4)])
    assert hessenberg_min_singular(h) == pytest.approx(1.0)


def test_min_singular_random_matches_svd():
    rng = np.random.default_rng(12)
    h = np.triu(rng.standard_normal((21, 20)), k=-1)
    ref = np.linalg.svd(h, compute_uv=False)[-1]
    assert hessenberg_min_singular(h) == pytest.approx(ref, rel=1e-12)
