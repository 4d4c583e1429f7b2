"""Tests for perturbation building, archives, runs, compare and verify."""

import csv
import json
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from pwdyson import (
    ArchiveError,
    ConfigurationError,
    InvariantViolationError,
    Lattice,
    NonConvergenceError,
    cli,
)
from pwdyson.archive import FORMAT_VERSION, load_ground_state, save_ground_state
from pwdyson.config import (
    ExperimentConfig,
    Perturbation,
    ResponseParams,
    ScfParams,
    config_from_dict,
    model_to_dict,
    reference_config,
)
from pwdyson.groundstate import GaussianWell, ModelSpec, external_potential
from pwdyson.harness import (
    TIGHT_CG_TOL,
    build_perturbation,
    check_orthonormality,
    compare_strategies,
    ensure_ground_state,
    run_response,
    tolerance_context,
    true_residual,
    verify_suite,
)
from pwdyson.igmres import igmres_solve
from pwdyson.kernels import KernelSpec, KerkerSpec, apply_kerker
from pwdyson.response import apply_dielectric, orbital_row_norm
from pwdyson.strategies import StrategySpec, parse_strategy, select_tolerances


def tiny_config(gs, strategy="pbal", tau=1e-7, m=8):
    return ExperimentConfig(
        model=gs.model, scf=ScfParams(tol=1e-11, damping=0.3),
        response=ResponseParams(strategy=strategy, tau=tau, m=m,
                                perturbation=Perturbation(gaussian=0, direction=(1, 0, 0))),
    )


# -- perturbation ------------------------------------------------------------------


def test_perturbation_finite_difference(metal_gs):
    gs = metal_gs
    spec = StrategySpec("d10", False, 1e-7, 8)
    pert = Perturbation(gaussian=1, direction=(0.6, 0.8, 0.0))
    dv_analytic, _, _ = build_perturbation(gs, pert, spec)
    dv_fd, _, _ = build_perturbation(
        gs, Perturbation(gaussian=1, direction=(0.6, 0.8, 0.0), analytic=False), spec)
    np.testing.assert_allclose(dv_analytic, dv_fd, atol=1e-8 * np.max(np.abs(dv_analytic)))


def test_perturbation_zero_direction_rejected(metal_gs):
    spec = StrategySpec("d10", False, 1e-7, 8)
    with pytest.raises(ConfigurationError):
        build_perturbation(metal_gs, Perturbation(gaussian=0, direction=(0, 0, 0)), spec)


def test_perturbation_index_out_of_range(metal_gs):
    # both the analytic and the finite-difference branch, below and above the range
    spec = StrategySpec("d10", False, 1e-7, 8)
    for analytic in (True, False):
        for index in (-1, 99):
            pert = Perturbation(gaussian=index, direction=(1, 0, 0), analytic=analytic)
            with pytest.raises(ConfigurationError):
                build_perturbation(metal_gs, pert, spec)


def test_base_context_reuses_row_norm(metal_gs, monkeypatch):
    gs = metal_gs
    first = tolerance_context(gs, rhs_norm=1.0)
    calls = []
    grids_type = type(gs.grids)
    for name in ("to_real", "to_real_many"):
        def counted(self, arg, _name=name, _original=getattr(grids_type, name)):
            calls.append(_name)
            return _original(self, arg)
        monkeypatch.setattr(grids_type, name, counted)
    second = tolerance_context(gs, rhs_norm=1.0)
    assert calls == []
    monkeypatch.undo()
    assert first.row_norm == second.row_norm
    assert second.row_norm == orbital_row_norm(gs.grids, gs.phi_occ)


def test_perturbation_mean_vanishes(metal_gs):
    # displacing a periodic lattice sum conserves its integral
    gs = metal_gs
    spec = StrategySpec("bal", False, 1e-7, 8)
    dv0, _, _ = build_perturbation(gs, Perturbation(gaussian=0, direction=(1, 0, 0)), spec)
    mean = abs(dv0.mean()) * gs.grids.lattice.volume
    assert mean <= 1e-10 * np.linalg.norm(dv0)


def test_rhs_uses_strategy_tolerances(metal_gs, h_applications):
    gs = metal_gs
    loose = StrategySpec("d10", False, 1e-5, 8)
    tight = StrategySpec("d10", False, 1e-9, 8)
    pert = Perturbation(gaussian=0, direction=(1, 0, 0))
    _, b_loose, cost_loose = build_perturbation(gs, pert, loose)
    assert h_applications() == cost_loose
    _, b_tight, cost_tight = build_perturbation(gs, pert, tight)
    assert cost_tight > cost_loose
    assert np.linalg.norm(b_loose - b_tight) <= 1e-4


# -- archive ------------------------------------------------------------------------


def test_archive_roundtrip_bit_exact(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    old_umask = os.umask(0o022)
    try:
        save_ground_state(path, metal_gs)
    finally:
        os.umask(old_umask)
    # readable by group and others, as under the default umask
    for name in os.listdir(path):
        assert stat.S_IMODE(os.stat(os.path.join(path, name)).st_mode) == 0o644, name
    loaded = load_ground_state(path)
    np.testing.assert_array_equal(loaded.phi, metal_gs.phi)
    np.testing.assert_array_equal(loaded.rho, metal_gs.rho)
    np.testing.assert_array_equal(loaded.v_local, metal_gs.v_local)
    np.testing.assert_array_equal(loaded.eps, metal_gs.eps)
    np.testing.assert_array_equal(loaded.occ, metal_gs.occ)
    assert loaded.fermi_level == metal_gs.fermi_level
    assert loaded.n_occ == metal_gs.n_occ


def test_archive_truncated_blob(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    blob = os.path.join(path, "rho.bin")
    with open(blob, "r+b") as fh:
        fh.truncate(100)
    with pytest.raises(ArchiveError, match="rho.bin"):
        load_ground_state(path)


def test_archive_version_mismatch(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    meta_path = os.path.join(path, "meta.json")
    meta = json.load(open(meta_path))
    meta["format_version"] = 99
    json.dump(meta, open(meta_path, "w"))
    with pytest.raises(ArchiveError, match="version"):
        load_ground_state(path)


def as_format_1(path, gs):
    """Rewrite the archive at `path` in format 1: the complex phi as two blobs."""
    meta_path = os.path.join(path, "meta.json")
    meta = json.load(open(meta_path))
    meta["format_version"] = 1
    json.dump(meta, open(meta_path, "w"))
    os.remove(os.path.join(path, "u.bin"))
    gs.phi.real.tofile(os.path.join(path, "phi_re.bin"))
    gs.phi.imag.tofile(os.path.join(path, "phi_im.bin"))


def test_archive_stores_real_orbitals_in_half_the_bytes(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    assert FORMAT_VERSION == 2
    assert json.load(open(os.path.join(path, "meta.json")))["format_version"] == 2
    assert sorted(os.listdir(path)) == ["meta.json", "rho.bin", "u.bin", "v_local.bin"]
    assert os.path.getsize(os.path.join(path, "u.bin")) == metal_gs.phi.nbytes // 2
    np.testing.assert_array_equal(load_ground_state(path).u, metal_gs.u)


def test_save_writes_meta_last_and_deletes_format_1_blobs(metal_gs, tmp_path, monkeypatch):
    from pwdyson import archive

    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    as_format_1(path, metal_gs)
    written = []
    original = archive.atomic_write

    def recorded(target, data):
        written.append(os.path.basename(target))
        original(target, data)

    monkeypatch.setattr(archive, "atomic_write", recorded)
    save_ground_state(path, metal_gs)
    assert written[-1] == "meta.json"
    assert sorted(written) == sorted(os.listdir(path)) == ["meta.json", "rho.bin", "u.bin",
                                                           "v_local.bin"]
    np.testing.assert_array_equal(load_ground_state(path).u, metal_gs.u)


def test_interrupted_save_is_not_loaded_as_an_archive(metal_gs, tmp_path, monkeypatch):
    # archive A, then a save of model B (well 0 1.05 times deeper) that stops at
    # u.bin: no meta.json may name B over A's blobs, so B's SCF runs again
    from pwdyson import archive

    path = str(tmp_path / "gs")
    save_ground_state(path, metal_gs)
    wells = list(metal_gs.model.gaussians)
    wells[0] = replace(wells[0], amplitude=1.05 * wells[0].amplitude)
    model_b = replace(metal_gs.model, gaussians=tuple(wells))
    original = archive.atomic_write

    def stops_at_u(target, data):
        if os.path.basename(target) == "u.bin":
            raise OSError("no space left on device")
        original(target, data)

    monkeypatch.setattr(archive, "atomic_write", stops_at_u)
    with pytest.raises(OSError):
        save_ground_state(path, replace(metal_gs, model=model_b))
    monkeypatch.setattr(archive, "atomic_write", original)
    with pytest.raises(ArchiveError, match="meta.json"):
        load_ground_state(path)
    rebuilt = ensure_ground_state(tiny_config(replace(metal_gs, model=model_b)), archive_path=path)
    assert model_to_dict(rebuilt.model) == model_to_dict(model_b)
    assert not np.array_equal(rebuilt.v_local, metal_gs.v_local)
    assert not np.array_equal(rebuilt.u, metal_gs.u)
    loaded = load_ground_state(path)
    assert model_to_dict(loaded.model) == model_to_dict(model_b)
    np.testing.assert_array_equal(loaded.u, rebuilt.u)
    np.testing.assert_array_equal(loaded.v_local, rebuilt.v_local)


def test_archive_format_1_rejected(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    as_format_1(path, metal_gs)
    with pytest.raises(ArchiveError, match="format version 1, expected 2"):
        load_ground_state(path)


def test_ensure_ground_state_rebuilds_older_format_archive(metal_gs, tmp_path, monkeypatch):
    path = str(tmp_path / "gs")
    config = tiny_config(metal_gs)
    save_ground_state(path, metal_gs)
    as_format_1(path, metal_gs)
    scf_runs = []

    def counted(*args, **kwargs):
        scf_runs.append(args)
        return run_scf(*args, **kwargs)

    from pwdyson.groundstate import run_scf
    monkeypatch.setattr("pwdyson.harness.run_scf", counted)
    rebuilt = ensure_ground_state(config, archive_path=path)
    assert len(scf_runs) == 1
    assert json.load(open(os.path.join(path, "meta.json")))["format_version"] == FORMAT_VERSION
    np.testing.assert_array_equal(load_ground_state(path).u, rebuilt.u)
    # the rewritten archive is reused; an archive of a newer format is not overwritten
    again = ensure_ground_state(config, archive_path=path)
    assert len(scf_runs) == 1
    np.testing.assert_array_equal(again.phi, rebuilt.phi)
    meta_path = os.path.join(path, "meta.json")
    meta = json.load(open(meta_path))
    meta["format_version"] = FORMAT_VERSION + 1
    json.dump(meta, open(meta_path, "w"))
    with pytest.raises(ArchiveError, match="version"):
        ensure_ground_state(config, archive_path=path)
    assert len(scf_runs) == 1


def test_ensure_ground_state_rebuilds_archive_of_another_model(tmp_path, monkeypatch):
    def config(amplitude):
        model = ModelSpec(
            lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=2, temperature=1e-3,
            gaussians=(GaussianWell(center=(0.5, 0.5, 0.5), amplitude=amplitude, width=0.8),),
        )
        return ExperimentConfig(model=model, scf=ScfParams(tol=1e-9, damping=0.3))

    path = str(tmp_path / "gs")
    first = ensure_ground_state(config(-5.0), archive_path=path)
    second = ensure_ground_state(config(-3.0), archive_path=path)
    assert model_to_dict(second.model) == model_to_dict(config(-3.0).model)
    assert second.eps[0] > first.eps[0]
    # the archive now holds the second model and is reused for it without an SCF
    assert model_to_dict(load_ground_state(path).model) == model_to_dict(second.model)
    monkeypatch.setattr("pwdyson.harness.run_scf", lambda *args, **kwargs: pytest.fail("SCF rerun"))
    again = ensure_ground_state(config(-3.0), archive_path=path)
    np.testing.assert_array_equal(again.rho, second.rho)


def test_archive_meta_matches_grid_rebuild(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    meta = json.load(open(os.path.join(path, "meta.json")))
    from pwdyson import build_grids
    from pwdyson.config import model_from_dict

    model = model_from_dict(meta["model"])
    grids = build_grids(model.lattice, model.e_cut)
    assert grids.n_b == meta["n_b"]
    assert list(grids.cube_dims) == meta["cube_dims"]


# -- run_response ---------------------------------------------------------------------


def test_run_response_writes_reports(metal_gs, tmp_path):
    config = tiny_config(metal_gs, strategy="pbal", tau=1e-7)
    out = str(tmp_path / "run")
    metrics = run_response(config, gs=metal_gs, out_dir=out)
    assert metrics.converged
    assert metrics.final_true_res <= 1e-7
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["strategy"] == "pbal"
    assert report["n_ham"] == metrics.n_ham
    with open(os.path.join(out, "history.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["iter", "est_res", "true_res", "cum_ham", "mean_cg_tol", "mean_cg_iters"]


def test_run_response_counts_hamiltonian(metal_gs, h_applications):
    config = tiny_config(metal_gs, strategy="d10", tau=1e-6)
    metrics = run_response(config, gs=metal_gs)
    assert metrics.n_ham == metrics.n_ham_rhs + metrics.igmres.total_cost
    # final true-residual evaluation spends extra applications on top of n_ham
    assert h_applications() > metrics.n_ham > metrics.n_ham_rhs > 0


def test_run_response_applies_tight_operator_once(metal_gs, monkeypatch, h_applications):
    config = tiny_config(metal_gs, strategy="pbal", tau=1e-7)
    events = []

    def solve(*args, **kwargs):
        report = igmres_solve(*args, **kwargs)
        events.append("solved")
        return report

    def dielectric(gs, kernel, v, tolerances):
        app = apply_dielectric(gs, kernel, v, tolerances)
        if not callable(tolerances) and np.all(np.asarray(tolerances) == TIGHT_CG_TOL):
            events.append(app)
        return app

    monkeypatch.setattr("pwdyson.harness.igmres_solve", solve)
    monkeypatch.setattr("pwdyson.harness.apply_dielectric", dielectric)
    metrics = run_response(config, gs=metal_gs)
    after_solve = events[events.index("solved") + 1:]
    assert len(after_solve) == 1
    tight = after_solve[0]
    # both final residuals come from one tight application, outside n_ham
    assert tight.ham_applications > 0
    assert h_applications() - metrics.n_ham == tight.ham_applications
    residual = metrics.rhs - tight.output
    assert metrics.final_true_res == np.linalg.norm(residual)
    kerker = KerkerSpec(alpha=config.response.kerker_alpha)
    assert metrics.final_true_res_precond == np.linalg.norm(
        apply_kerker(kerker, metal_gs.grids, residual))


def test_diagnostics_never_count_as_solver_work(metal_gs):
    runs = []
    for every in (0, 1):
        config = tiny_config(metal_gs, strategy="pbal")
        config = replace(config, response=replace(config.response, true_residual_every=every))
        runs.append(run_response(config, gs=metal_gs))
    plain, checked = runs
    assert np.isnan(plain.history[0][2]) and np.isfinite(checked.history[0][2])
    assert plain.n_ham == checked.n_ham
    assert [row[3] for row in plain.history] == [row[3] for row in checked.history]
    for metrics in runs:
        assert metrics.n_ham == metrics.n_ham_rhs + sum(rec.cost for rec in metrics.igmres.budgets)
        assert metrics.history[-1][3] == metrics.n_ham


STALL_COST = 7


def _stalled_sternheimer(*args, **kwargs):
    raise NonConvergenceError("Sternheimer CG for band 0 stalled", residual=1.0,
                              cost=STALL_COST)


def test_run_response_reraises_sternheimer_stall(metal_gs, monkeypatch):
    spent = []

    def stall_third(*args, **kwargs):
        if len(spent) == 2:
            _stalled_sternheimer()
        app = apply_dielectric(*args, **kwargs)
        spent.append(app.ham_applications)
        return app

    monkeypatch.setattr("pwdyson.harness.apply_dielectric", stall_third)
    with pytest.raises(NonConvergenceError, match="Sternheimer") as err:
        run_response(tiny_config(metal_gs), gs=metal_gs)
    report = err.value.report
    assert report.converged is False
    assert report.n_ham_rhs > 0 and min(spent) > 0
    assert report.n_ham == report.n_ham_rhs + sum(spent) + STALL_COST
    assert np.isnan(report.final_true_res)


def test_run_response_builds_h_r_once_and_drops_it(metal_gs, monkeypatch):
    # one H_r per response solve: the extra-band guard runs on it, then Q is
    # folded into it, and every application of chi0 reuses it until the end
    import dataclasses

    from pwdyson import response, sternheimer

    builds, solves = [], []
    original_h, original_solve = response.real_hamiltonian, response.solve_sternheimer

    def counted(grids, v_local):
        builds.append(grids.n_b)
        return original_h(grids, v_local)

    def recorded(*args, **kwargs):
        solves.append(kwargs.get("h_q") is not None)
        return original_solve(*args, **kwargs)

    for module in (response, sternheimer):
        monkeypatch.setattr(module, "real_hamiltonian", counted)
    monkeypatch.setattr(response, "solve_sternheimer", recorded)
    metal_gs.drop_derived()
    metrics = run_response(tiny_config(metal_gs), gs=metal_gs)
    assert metrics.converged and len(solves) > 2 and all(solves)
    assert builds == [metal_gs.grids.n_b]
    assert metal_gs._derived == {}

    # a stall inside the outer solve drops it too
    calls = []

    def stall_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            _stalled_sternheimer()
        return apply_dielectric(*args, **kwargs)

    monkeypatch.setattr("pwdyson.harness.apply_dielectric", stall_second)
    with pytest.raises(NonConvergenceError, match="Sternheimer"):
        run_response(tiny_config(metal_gs), gs=metal_gs)
    assert len(builds) == 2
    assert metal_gs._derived == {}
    monkeypatch.setattr("pwdyson.harness.apply_dielectric", apply_dielectric)

    # a corrupted extra band raises from the production path before any CG step
    u = metal_gs.u.copy()
    a, b = metal_gs.u[:, metal_gs.n_occ - 1], metal_gs.u[:, metal_gs.n_occ]
    u[:, metal_gs.n_occ - 1], u[:, metal_gs.n_occ] = (a + b) / np.sqrt(2), (b - a) / np.sqrt(2)
    mixed = dataclasses.replace(metal_gs, u=u)
    solves.clear()
    with pytest.raises(InvariantViolationError, match="extra bands"):
        run_response(tiny_config(mixed), gs=mixed)
    assert solves == [] and len(builds) == 3
    assert mixed._derived == {}


def test_run_response_drops_what_the_solve_derived(metal_gs, monkeypatch):
    run_response(tiny_config(metal_gs), gs=metal_gs)
    assert metal_gs._derived == {}
    cached = []

    def stall(gs, *args, **kwargs):
        cached.extend(gs._derived)
        _stalled_sternheimer()

    monkeypatch.setattr("pwdyson.harness.apply_dielectric", stall)
    with pytest.raises(NonConvergenceError, match="Sternheimer"):
        run_response(tiny_config(metal_gs), gs=metal_gs)
    assert {"psi_occ_real", "kept_bases"} <= set(cached)
    assert metal_gs._derived == {}


def test_budgets_reach_select_tolerances_unchanged(metal_gs, monkeypatch):
    budgets = []

    def recording(spec, ctx, budget, kv_norm):
        budgets.append(budget)
        return select_tolerances(spec, ctx, budget, kv_norm)

    monkeypatch.setattr("pwdyson.harness.select_tolerances", recording)
    metrics = run_response(tiny_config(metal_gs, strategy="pbal"), gs=metal_gs)
    granted = [record.budget for record in metrics.igmres.budgets]
    assert len(granted) > 1
    # the right-hand-side build's tau/3 comes first, then one call per application
    assert budgets[0] == 1e-7 / 3.0
    assert budgets[1:] == granted


def test_run_response_est_res_monotone_within_cycles(metal_gs):
    config = tiny_config(metal_gs, strategy="pd10", tau=1e-7)
    metrics = run_response(config, gs=metal_gs)
    rows = metrics.history
    # history stores only Arnoldi steps; iter resets are absent, so check
    # global non-increase between consecutive steps of equal cycle via est drop
    iters = [r[0] for r in rows]
    assert iters == sorted(iters)


def test_true_residual_of_exact_solution_and_zero(metal_gs):
    gs = metal_gs
    kernel = KernelSpec()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(gs.grids.n_g)
    assert true_residual(gs, kernel, np.zeros_like(b), b) == pytest.approx(np.linalg.norm(b))


def test_compare_strategies_table(metal_gs, tmp_path):
    config = tiny_config(metal_gs, tau=1e-6)
    out = str(tmp_path / "cmp")
    rows = compare_strategies(config, ["pbal", "pd10"], out_dir=out, gs=metal_gs)
    by_name = {r["strategy"]: r for r in rows}
    assert by_name["pd10"]["eta_rel"] == pytest.approx(1.0)
    assert set(by_name) == {"pbal", "pd10"}
    data = json.load(open(os.path.join(out, "compare.json")))
    assert data["reference"] == "pd10"
    assert os.path.exists(os.path.join(out, "compare.csv"))


def test_compare_csv_cells_parse(metal_gs, tmp_path):
    config = tiny_config(metal_gs, tau=1e-6)
    out = str(tmp_path / "cmp")
    compare_strategies(config, ["pbal", "d10"], out_dir=out, gs=metal_gs)
    with open(os.path.join(out, "compare.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["strategy"] for r in rows] == ["pbal", "d10"]
    for r in rows:
        assert r["converged"] == "True"
        assert int(r["n_ham"]) > 0
        for column in ("final_true_res", "eta", "eta_rel"):
            assert np.isfinite(float(r[column])), (column, r[column])


def test_compare_records_sternheimer_stall_and_goes_on(metal_gs, monkeypatch):
    calls = []

    def stall_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            _stalled_sternheimer()
        return apply_dielectric(*args, **kwargs)

    monkeypatch.setattr("pwdyson.harness.apply_dielectric", stall_first)
    config = tiny_config(metal_gs, tau=1e-6)
    rows = compare_strategies(config, ["pbal", "pd10"], gs=metal_gs)
    by_name = {r["strategy"]: r for r in rows}
    assert by_name["pbal"]["converged"] is False
    _, _, n_ham_rhs = build_perturbation(metal_gs, config.response.perturbation,
                                         parse_strategy("pbal", tau=1e-6, m=8))
    assert by_name["pbal"]["n_ham"] >= n_ham_rhs > 0
    assert by_name["pd10"]["converged"] is True
    assert by_name["pd10"]["final_true_res"] <= 1e-6


def test_compare_is_reproducible(metal_gs):
    config = tiny_config(metal_gs, tau=1e-6)
    rows1 = compare_strategies(config, ["pbal", "pd10"], gs=metal_gs)
    rows2 = compare_strategies(config, ["pbal", "pd10"], gs=metal_gs)
    for a, b in zip(rows1, rows2):
        assert a == b


# -- verify suite ----------------------------------------------------------------------


def test_verify_suite_passes_on_tiny_model(metal_gs, tmp_path):
    config = tiny_config(metal_gs, strategy="pbal", tau=1e-7)
    out = str(tmp_path / "verify")
    result = verify_suite(config, gs=metal_gs, out_dir=out)
    assert result["ok"]
    names = {c["name"] for c in result["checks"]}
    assert {"fft_roundtrip", "kerker_lemma", "row_norm_bounds",
            "chi0_gauge_invariance", "error_bound_dominance",
            "y_coefficient_bound", "sternheimer_error_bound"} <= names
    for check in result["checks"]:
        assert check["margin"] >= 1.0
    assert json.load(open(os.path.join(out, "verify.json")))["ok"]
    assert metal_gs._derived == {}


def test_verify_negative_control(metal_gs):
    import copy

    corrupted = copy.copy(metal_gs)
    corrupted.phi = metal_gs.phi.copy()
    corrupted.phi[:, 0] *= 1.5
    check = check_orthonormality(corrupted)
    assert not check["passed"]


# -- config -------------------------------------------------------------------------


def test_config_roundtrip(metal_gs):
    d = {
        "model": model_to_dict(metal_gs.model),
        "scf": {"tol": 1e-9, "damping": 0.4},
        "response": {"strategy": "pgrt", "tau": 1e-8, "m": 12,
                     "perturbation": {"gaussian": 1, "direction": [0, 1, 0]}},
    }
    config = config_from_dict(d)
    assert config.response.strategy == "pgrt"
    assert config.response.perturbation.gaussian == 1
    assert config.scf.damping == 0.4
    assert config.model.n_electrons == metal_gs.model.n_electrons


def _config_dict(metal_gs):
    return {
        "model": model_to_dict(metal_gs.model),
        "scf": {"tol": 1e-9},
        "response": {"strategy": "pbal", "perturbation": {"gaussian": 0}},
    }


@pytest.mark.parametrize("level,key", [
    ((), "outptu_dir"),
    (("model",), "e_cutt"),
    (("model", "gaussians", 0), "widht"),
    (("scf",), "dampng"),
    (("response",), "use_gapp"),
    (("response", "perturbation"), "analytc"),
], ids=["top", "model", "gaussian", "scf", "response", "perturbation"])
def test_unknown_config_key_rejected(metal_gs, level, key):
    d = _config_dict(metal_gs)
    config_from_dict(d)
    target = d
    for step in level:
        target = target[step]
    target[key] = 1
    with pytest.raises(ConfigurationError, match=key):
        config_from_dict(d)


@pytest.mark.parametrize("section,value", [
    ("model", None), ("response", "pbal"), ("scf", [1e-9]),
], ids=["missing-model", "response-string", "scf-list"])
def test_malformed_config_section_rejected(metal_gs, section, value):
    d = _config_dict(metal_gs)
    if value is None:
        del d[section]
    else:
        d[section] = value
    with pytest.raises(ConfigurationError, match=section):
        config_from_dict(d)


@pytest.mark.parametrize("level,key,value", [
    (("response",), "tau", "1e-9"),
    (("response",), "m", 10.0),
    (("response", "perturbation"), "analytic", "false"),
    (("scf",), "damping", "0.1"),
    (("scf",), "max_iter", True),
    (("model",), "e_cut", "6.5"),
    (("model",), "n_electrons", 4.0),
    (("model", "gaussians", 0), "amplitude", "-3"),
], ids=["response-tau", "response-m", "perturbation-analytic", "scf-damping",
        "scf-max_iter", "model-e_cut", "model-n_electrons", "gaussian-amplitude"])
def test_config_value_of_wrong_type_rejected(metal_gs, level, key, value):
    d = _config_dict(metal_gs)
    target = d
    for step in level:
        target = target.setdefault(step, {}) if isinstance(step, str) else target[step]
    target[key] = value
    with pytest.raises(ConfigurationError, match=f"'{key}' in .* must be"):
        config_from_dict(d)


def test_cli_reports_string_number_in_one_line(metal_gs, tmp_path, capsys):
    d = _config_dict(metal_gs)
    d["response"]["tau"] = "1e-9"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert cli.main(["respond", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'tau'" in err[0]


def test_cli_rejects_removed_use_gap_key(metal_gs, tmp_path, capsys):
    d = _config_dict(metal_gs)
    d["response"]["use_gap"] = True
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert cli.main(["verify", str(path)]) == cli.EXIT_CONFIG == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "use_gap" in err[0]


def test_reference_configs_load():
    for name in ("toy_metal", "toy_insulator"):
        config = reference_config(name)
        assert config.model.n_electrons % 2 == 0
    with pytest.raises(ConfigurationError):
        reference_config("no_such_config")
