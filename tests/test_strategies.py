"""Tests for the tolerance-selection strategies."""

import numpy as np
import pytest

from pwdyson import ConfigurationError, Lattice, harness
from pwdyson.config import Perturbation
from pwdyson.groundstate import GaussianWell, ModelSpec, run_scf
from pwdyson.strategies import (
    StrategySpec,
    ToleranceContext,
    parse_strategy,
    select_tolerances,
)


KV_NORM = 2.5


def make_ctx(n_occ=3, **overrides):
    defaults = dict(occ=np.array([2.0, 1.5, 0.5][:n_occ]),
                    gap=np.array([0.3, 0.2, 0.1][:n_occ]), volume=64.0, n_g=512,
                    row_norm=0.4, rhs_norm=0.05)
    defaults.update(overrides)
    return ToleranceContext(**defaults)


def granted(s=0.9, m=10, tau=1e-9, est_res_prev=1e-3):
    """The budget igmres_solve grants inside the solve: (s / 3m) tau / ||r~_{i-1}||."""
    return (s / (3.0 * m)) * tau / est_res_prev


def test_parse_names():
    for name, kind, precond in [("pbal", "bal", True), ("grt", "grt", False),
                                ("pd10n", "d10n", True), ("D10", "d10", False),
                                ("Pagr", "agr", True)]:
        spec = parse_strategy(name, tau=1e-9, m=10)
        assert spec.kind == kind and spec.preconditioned == precond
    with pytest.raises(ConfigurationError):
        parse_strategy("fast", tau=1e-9, m=10)


def test_agr_formula_arithmetic():
    spec = StrategySpec(kind="agr", preconditioned=False, tau=1e-9, m=10)
    tol = select_tolerances(spec, make_ctx(), granted(s=1.0, est_res_prev=1e-3), KV_NORM)
    expected = (1.0 / 30.0) * 1e-9 / 1e-3
    np.testing.assert_allclose(tol, expected, rtol=1e-14)


def test_baselines_static():
    ctx = make_ctx()
    budget = granted()
    d10 = select_tolerances(StrategySpec("d10", False, 1e-9, 10), ctx, budget, KV_NORM)
    np.testing.assert_allclose(d10, 1e-10, rtol=1e-15)
    d100 = select_tolerances(StrategySpec("d100", False, 1e-9, 10), ctx, budget, KV_NORM)
    np.testing.assert_allclose(d100, 1e-11, rtol=1e-15)
    d10n = select_tolerances(StrategySpec("d10n", False, 1e-9, 10), ctx, budget, KV_NORM)
    np.testing.assert_allclose(d10n, 1e-9 / (10 * ctx.rhs_norm), rtol=1e-15)


def test_grt_vs_bal_ratio_audit():
    tau, m = 1e-9, 8
    ctx = make_ctx()
    budget = granted(m=m, tau=tau)
    grt = select_tolerances(StrategySpec("grt", False, tau, m), ctx, budget, KV_NORM)
    bal = select_tolerances(StrategySpec("bal", False, tau, m), ctx, budget, KV_NORM)
    expected_ratio = ctx.gap / (KV_NORM * ctx.row_norm * np.sqrt(ctx.volume / ctx.n_occ))
    np.testing.assert_allclose(grt / bal, expected_ratio, rtol=1e-13)


def test_ordering_grt_bal_agr():
    ctx = make_ctx()
    tau, m = 1e-9, 10
    budget = granted(m=m, tau=tau)
    grt = select_tolerances(StrategySpec("grt", False, tau, m), ctx, budget, KV_NORM)
    bal = select_tolerances(StrategySpec("bal", False, tau, m), ctx, budget, KV_NORM)
    agr = select_tolerances(StrategySpec("agr", False, tau, m), ctx, budget, KV_NORM)
    crossover = KV_NORM * ctx.row_norm >= np.sqrt(ctx.n_occ / ctx.volume)
    assert crossover
    assert np.all(grt <= bal + 1e-300)
    assert np.all(bal <= agr + 1e-300)


def test_monotone_loosening_as_residual_shrinks():
    spec = StrategySpec("bal", True, 1e-9, 10)
    residuals = [1e-2, 1e-3, 1e-4, 1e-5]
    tols = [select_tolerances(spec, make_ctx(), granted(est_res_prev=r), KV_NORM)
            for r in residuals]
    for a, b in zip(tols, tols[1:]):
        assert np.all(b >= a)


def test_grt_tolerances_invert_the_error_bound(metal_gs):
    # the bound of grt's own tolerances is the granted budget, up to round-off
    from pwdyson.response import dielectric_error_bound

    ctx = harness.tolerance_context(metal_gs, rhs_norm=np.nan)
    spec = StrategySpec("grt", True, 1e-9, 8)
    for budget, kv_norm in ((1e-10, 0.3), (3.7e-7, 2.5), (2e-4, 40.0)):
        tol = select_tolerances(spec, ctx, budget, kv_norm)
        bound = dielectric_error_bound(metal_gs, kv_norm, tol)
        assert abs(bound - budget) <= 1e-14 * budget
    assert np.all(ctx.gap == metal_gs.eps_gap_ref - metal_gs.eps_occ)


def test_grt_requires_a_positive_gap():
    with pytest.raises(ConfigurationError, match="gap"):
        select_tolerances(StrategySpec("grt", False, 1e-9, 10),
                          make_ctx(gap=np.array([0.3, 0.0, 0.1])), granted(), KV_NORM)


def test_fn_dependence_strictly_decreasing():
    ctx = make_ctx(occ=np.array([2.0, 1.0, 0.2]))
    for kind in ("grt", "bal"):
        tol = select_tolerances(StrategySpec(kind, False, 1e-9, 10), ctx, granted(), KV_NORM)
        assert tol[0] < tol[1] < tol[2]


def test_iteration_zero_uses_third_of_tau(metal_gs, monkeypatch):
    # the right-hand-side build grants tau/3 for the one application of chi0
    calls = []

    def recording(spec, ctx, budget, kv_norm):
        calls.append((budget, kv_norm))
        return select_tolerances(spec, ctx, budget, kv_norm)

    monkeypatch.setattr(harness, "select_tolerances", recording)
    spec = StrategySpec("agr", False, 1e-7, 8)
    dv0, _, _ = harness.build_perturbation(
        metal_gs, Perturbation(gaussian=0, direction=(1, 0, 0)), spec)
    assert calls == [(1e-7 / 3.0, float(np.linalg.norm(dv0)))]


def test_budget_passes_through_bitwise():
    ctx = make_ctx()
    budget = 3.7e-7
    agr = select_tolerances(StrategySpec("agr", False, 1e-9, 10), ctx, budget, KV_NORM)
    assert np.all(agr == budget)
    bal = select_tolerances(StrategySpec("bal", False, 1e-9, 10), ctx, budget, KV_NORM)
    band = np.sqrt(ctx.volume) / (2.0 * ctx.occ * np.sqrt(ctx.n_g * ctx.n_occ))
    assert np.all(bal == band * np.sqrt(ctx.volume) / np.sqrt(ctx.n_occ) * budget)


def test_clamped_at_floor():
    spec = StrategySpec("bal", False, 1e-12, 10)
    tol = select_tolerances(spec, make_ctx(occ=np.array([2.0, 2.0, 2.0])),
                            granted(tau=1e-12, est_res_prev=1e3), KV_NORM)
    assert np.all(tol >= 1e-16)


def test_division_by_zero_is_configuration_error():
    ctx, budget = make_ctx(), granted()
    with pytest.raises(ConfigurationError):
        select_tolerances(StrategySpec("grt", False, 1e-9, 10), ctx, budget, 0.0)
    with pytest.raises(ConfigurationError):
        select_tolerances(StrategySpec("d10n", False, 1e-9, 10), make_ctx(rhs_norm=0.0),
                          budget, KV_NORM)
    with pytest.raises(ConfigurationError):
        select_tolerances(StrategySpec("bal", False, 1e-9, 10), ctx, 0.0, KV_NORM)


def test_bal_prefactor_scaling_with_cell_doubling():
    """Doubling the cell in x scales the bal prefactor like 1/sqrt(2)."""

    def build(lx, n_electrons, centers):
        model = ModelSpec(
            lattice=Lattice.orthorhombic(lx, 3.0, 3.0), e_cut=4.0,
            n_electrons=n_electrons, temperature=2e-3,
            gaussians=tuple(GaussianWell(center=c, amplitude=-4.5, width=0.7)
                            for c in centers),
        )
        return run_scf(model, tol=1e-9, max_iter=400, damping=0.3)

    gs1 = build(4.0, 2, [(0.5, 0.5, 0.5)])
    gs2 = build(8.0, 4, [(0.25, 0.5, 0.5), (0.75, 0.5, 0.5)])

    def bal_prefactor(gs):
        occ = gs.occ_occ
        return float(np.max(np.sqrt(gs.grids.lattice.volume)
                            / (2 * occ * np.sqrt(gs.grids.n_g * gs.n_occ))
                            * np.sqrt(gs.grids.lattice.volume / gs.n_occ)))

    ratio = bal_prefactor(gs2) / bal_prefactor(gs1)
    assert abs(ratio - 1 / np.sqrt(2.0)) <= 0.2 * (1 / np.sqrt(2.0))
