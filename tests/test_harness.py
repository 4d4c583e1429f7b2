"""Tests for perturbation building, archives, runs, compare and verify."""

import csv
import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pwdyson.groundstate import GaussianWell, ModelSpec, run_scf
from pwdyson.harness import (
    BOUND_RTOL,
    TIGHT_CG_TOL,
    bound_margin,
    budgeted_dielectric,
    build_perturbation,
    check_orthonormality,
    check_sternheimer_error_bound,
    check_y_bound,
    compare_strategies,
    ensure_ground_state,
    run_response,
    tolerance_context,
    true_residual,
    verify_suite,
)
from pwdyson.igmres import igmres_solve
from pwdyson.kernels import KernelSpec, KerkerSpec, apply_kerker
from pwdyson.response import apply_dielectric
from pwdyson.sternheimer import hamiltonian
from pwdyson.strategies import TOLERANCE_FLOOR, StrategySpec, parse_strategy, select_tolerances

from oracles import finite_difference_density, finite_difference_potential, phi


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
    dv0, _, _ = build_perturbation(gs, pert, spec)
    dv_fd = finite_difference_potential(gs.model, gs.grids, 1, (0.6, 0.8, 0.0))
    np.testing.assert_allclose(dv0, dv_fd, atol=1e-8 * np.max(np.abs(dv0)))


def _lda_x_metal_config():
    """`metal_gs`'s two wells with LDA exchange, displaced obliquely: xc kernel and delta_f."""
    model = ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=4, temperature=5e-3,
        smearing="fermi_dirac", xc="lda_x",
        gaussians=(GaussianWell(center=(0.3, 0.4, 0.5), amplitude=-3.0, width=0.8),
                   GaussianWell(center=(0.7, 0.6, 0.4), amplitude=-2.0, width=0.7)))
    return ExperimentConfig(
        model=model, scf=ScfParams(tol=1e-12, max_iter=400, damping=0.3),
        response=ResponseParams(strategy="pgrt", tau=1e-10, m=10,
                                perturbation=Perturbation(gaussian=0, direction=(1.0, 0.5, 0.2))))


FD_STEPS = ((1e-3, 1e-12), (2e-4, 1e-13))   # (h in Bohr, SCF tolerance)


@pytest.mark.parametrize("name", ["toy_insulator", "lda_x_metal"])
def test_dyson_solution_is_the_finite_difference_of_the_density(name):
    # x = d rho / dR, against two SCFs moved by -h and +h. The difference quotient errs
    # by (h^2 / 6) |d^3 rho / dR^3| (1.0-1.7 h^2 relative here) plus the SCFs' error
    # over h: held to 4 h^2 + 100 tol / h, and to the h^2 rate between the two steps
    config = reference_config("toy_insulator") if name == "toy_insulator" else _lda_x_metal_config()
    scf = config.scf
    gs = run_scf(config.model, tol=1e-12, max_iter=scf.max_iter, mixing=scf.mixing,
                 kerker_alpha=scf.kerker_alpha, damping=scf.damping)
    if name == "lda_x_metal":
        assert abs(gs.fprime_occ().sum()) > 1e-6, "must be metallic"
    x = run_response(config, gs=gs).solution
    rel = []
    for h, tol in FD_STEPS:
        fd = finite_difference_density(config, h, tol)
        rel.append(np.linalg.norm(x - fd) / np.linalg.norm(fd))
        assert rel[-1] <= 4.0 * h**2 + 100.0 * tol / h, (h, rel[-1])
    (h1, _), (h2, _) = FD_STEPS
    assert 0.8 <= (rel[0] / rel[1]) / (h1 / h2) ** 2 <= 1.2, rel


def test_perturbation_zero_direction_rejected(metal_gs):
    spec = StrategySpec("d10", False, 1e-7, 8)
    with pytest.raises(ConfigurationError):
        build_perturbation(metal_gs, Perturbation(gaussian=0, direction=(0, 0, 0)), spec)


def test_perturbation_index_out_of_range(metal_gs):
    # below and above the range
    spec = StrategySpec("d10", False, 1e-7, 8)
    for index in (-1, 99):
        with pytest.raises(ConfigurationError):
            build_perturbation(metal_gs, Perturbation(gaussian=index, direction=(1, 0, 0)), spec)


def test_base_context_reuses_row_norm(metal_gs, monkeypatch):
    gs = metal_gs
    first = tolerance_context(gs, rhs_norm=1.0)
    monkeypatch.setattr(type(gs.grids), "to_real_many", lambda *args: pytest.fail("recomputed"))
    second = tolerance_context(gs, rhs_norm=1.0)
    monkeypatch.undo()
    assert first.row_norm == second.row_norm
    psi = gs.grids.to_real_many(gs.u_occ.T)
    assert second.row_norm == float(np.sqrt(np.max(np.sum(psi ** 2, axis=0))))


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
    np.testing.assert_array_equal(loaded.u, metal_gs.u)
    np.testing.assert_array_equal(loaded.rho, metal_gs.rho)
    np.testing.assert_array_equal(loaded.v_local, metal_gs.v_local)
    np.testing.assert_array_equal(loaded.eps, metal_gs.eps)
    np.testing.assert_array_equal(loaded.occ, metal_gs.occ)
    assert loaded.fermi_level == metal_gs.fermi_level
    assert loaded.n_occ == metal_gs.n_occ
    # the real u is the one orbital representation, after the SCF and after a load
    for gs in (metal_gs, loaded):
        arrays = {name: v for name, v in vars(gs).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == ["eps", "occ", "rho", "u", "v_local"]
        assert not any(np.iscomplexobj(v) for v in arrays.values())


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
    phi(gs).real.tofile(os.path.join(path, "phi_re.bin"))
    phi(gs).imag.tofile(os.path.join(path, "phi_im.bin"))


def test_archive_stores_real_orbitals_in_half_the_bytes(metal_gs, tmp_path):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    assert FORMAT_VERSION == 2
    assert json.load(open(os.path.join(path, "meta.json")))["format_version"] == 2
    assert sorted(os.listdir(path)) == ["meta.json", "rho.bin", "u.bin", "v_local.bin"]
    assert os.path.getsize(os.path.join(path, "u.bin")) == phi(metal_gs).nbytes // 2
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


META_CORRUPTIONS = {
    "truncated": (lambda text: text[:len(text) // 2], "not valid JSON"),
    "list": (lambda text: json.dumps([json.loads(text)]), "not a JSON object"),
    "no-n_kept": (lambda text: _edit(text, "n_kept"), "'n_kept'"),
    "no-model": (lambda text: _edit(text, "model"), "'model'"),
    "string-eps": (lambda text: _edit(text, "eps", "0.1 0.2"), "'eps'"),
    "n_occ-999": (lambda text: _edit(text, "n_occ", 999), "'n_occ'"),
    "n_occ-0": (lambda text: _edit(text, "n_occ", 0), "'n_occ'"),
    "n_occ-true": (lambda text: _edit(text, "n_occ", True), "'n_occ'"),
    "string-version": (lambda text: _edit(text, "format_version", "2"),
                       "format version '2', expected 2"),
    "model-without-e_cut": (lambda text: _edit(text, "model", {
        k: v for k, v in json.loads(text)["model"].items() if k != "e_cut"}), "'model'.*e_cut"),
    "nan-eps": (lambda text: _edit(text, "eps", json.loads(text)["eps"][:-1] + [float("nan")]),
                "'eps' must be a list of finite numbers"),
    "infinite-occ": (lambda text: _edit(text, "occ", [float("inf")] + json.loads(text)["occ"][1:]),
                     "'occ' must be a list of finite numbers"),
    "nan-fermi_level": (lambda text: _edit(text, "fermi_level", float("nan")),
                        "'fermi_level' must be a finite number"),
    "infinite-scf_residual": (lambda text: _edit(text, "scf_residual", float("-inf")),
                              "'scf_residual' must be a finite number"),
}
_DELETED = object()


def _edit(text, key, value=_DELETED):
    """meta.json text with `key` set to `value`, or deleted when no value is given."""
    meta = json.loads(text)
    if value is _DELETED:
        del meta[key]
    else:
        meta[key] = value
    return json.dumps(meta)


@pytest.mark.parametrize("name", list(META_CORRUPTIONS))
def test_malformed_archive_metadata_raises_archive_error(metal_gs, tmp_path, monkeypatch, name):
    corrupt, message = META_CORRUPTIONS[name]
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    meta_path = os.path.join(path, "meta.json")
    with open(meta_path) as fh:
        text = corrupt(fh.read())
    with open(meta_path, "w") as fh:
        fh.write(text)
    with pytest.raises(ArchiveError, match=message):
        load_ground_state(path)
    # ensure_ground_state leaves the archive in place and raises, with no SCF
    monkeypatch.setattr("pwdyson.harness.run_scf", lambda *args, **kwargs: pytest.fail("SCF"))
    with pytest.raises(ArchiveError, match=message):
        ensure_ground_state(tiny_config(metal_gs), archive_path=path)
    with open(meta_path) as fh:
        assert fh.read() == text


@pytest.mark.parametrize("blob", ["u.bin", "rho.bin", "v_local.bin"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_blob_raises_archive_error(metal_gs, tmp_path, monkeypatch, blob, value):
    path = str(tmp_path / "archive")
    save_ground_state(path, metal_gs)
    blob_path = os.path.join(path, blob)
    data = np.fromfile(blob_path, dtype="<f8")
    data[3] = value
    data.tofile(blob_path)
    message = f"{blob}: 1 non-finite value\\(s\\), the first {value} at index 3"
    with pytest.raises(ArchiveError, match=message):
        load_ground_state(path)
    monkeypatch.setattr("pwdyson.harness.run_scf", lambda *args, **kwargs: pytest.fail("SCF"))
    with pytest.raises(ArchiveError, match=message):
        ensure_ground_state(tiny_config(metal_gs), archive_path=path)
    np.testing.assert_array_equal(np.fromfile(blob_path, dtype="<f8"), data)


# the keys load_ground_state reads, and JSON values none of them may take
META_KEYS = ("format_version", "endianness", "model", "cube_dims", "n_b", "n_occ", "n_kept",
             "eps", "occ", "fermi_level", "scf_residual")
WRONG_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5),
    st.lists(st.one_of(st.text(max_size=3), st.none()), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@settings(max_examples=60, deadline=None)
@given(corruption=st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("delete"), st.sampled_from(META_KEYS)),
    st.tuples(st.just("retype"), st.sampled_from(META_KEYS), WRONG_JSON_VALUES)))
def test_drawn_corruption_of_archive_metadata_raises_archive_error(metal_gs, tmp_path_factory,
                                                                   corruption):
    path = str(tmp_path_factory.getbasetemp() / "drawn-corruption")
    save_ground_state(path, metal_gs)
    meta_path = os.path.join(path, "meta.json")
    with open(meta_path) as fh:
        text = fh.read()
    if corruption[0] == "truncate":
        text = text[:int(corruption[1] * len(text))]
    else:
        text = _edit(text, *corruption[1:])
    with open(meta_path, "w") as fh:
        fh.write(text)
    with pytest.raises(ArchiveError):
        load_ground_state(path)


def test_cli_exits_4_on_a_truncated_archive(metal_gs, tmp_path, capsys):
    d = _config_dict(metal_gs)
    d["archive"] = str(tmp_path / "archive")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    save_ground_state(d["archive"], metal_gs)
    meta_path = os.path.join(d["archive"], "meta.json")
    with open(meta_path, "r+b") as fh:
        fh.truncate(40)
    assert cli.main(["respond", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "meta.json" in err[0]
    assert os.path.getsize(meta_path) == 40


def test_cli_exits_4_on_a_nan_eigenvalue_in_the_archive(metal_gs, tmp_path, capsys):
    # the NaN must not reach grt, which would refuse it as its gap (a configuration error)
    d = _config_dict(metal_gs)
    d["archive"] = str(tmp_path / "archive")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    save_ground_state(d["archive"], metal_gs)
    meta_path = os.path.join(d["archive"], "meta.json")
    meta = json.load(open(meta_path))
    meta["eps"][-1] = float("nan")
    json.dump(meta, open(meta_path, "w"))
    text = open(meta_path).read()
    status = cli.main(["respond", str(path), "--strategy", "grt", "-o", str(tmp_path / "out")])
    assert status == cli.EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'eps'" in err[0]
    assert open(meta_path).read() == text


def test_ensure_ground_state_rebuilds_older_format_archive(metal_gs, tmp_path, monkeypatch):
    path = str(tmp_path / "gs")
    config = tiny_config(metal_gs)
    save_ground_state(path, metal_gs)
    as_format_1(path, metal_gs)
    scf_runs = []

    def counted(*args, **kwargs):
        scf_runs.append(args)
        return run_scf(*args, **kwargs)

    monkeypatch.setattr("pwdyson.harness.run_scf", counted)
    rebuilt = ensure_ground_state(config, archive_path=path)
    assert len(scf_runs) == 1
    assert json.load(open(os.path.join(path, "meta.json")))["format_version"] == FORMAT_VERSION
    np.testing.assert_array_equal(load_ground_state(path).u, rebuilt.u)
    # the rewritten archive is reused; an archive of a newer format is not overwritten
    again = ensure_ground_state(config, archive_path=path)
    assert len(scf_runs) == 1
    np.testing.assert_array_equal(again.u, rebuilt.u)
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
    # the final residual comes from one tight application, outside n_ham
    assert tight.ham_applications > 0
    assert h_applications() - metrics.n_ham == tight.ham_applications
    assert metrics.final_true_res == np.linalg.norm(metrics.rhs - tight.output)


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
    # the monitor maps the solver's last iterate y to x = P y, as the final residual does
    assert checked.history[-1][2] == checked.final_true_res
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


def test_run_response_builds_h_r_once_and_drops_it(metal_gs, monkeypatch, h_applications):
    # one sector Hamiltonian per response solve: the extra-band guard runs on
    # it, and every application of chi0 reuses it until the end
    import dataclasses

    from pwdyson import sternheimer

    builds = []
    original = sternheimer.sector_hamiltonian

    def counted(grids, v_local):
        builds.append(grids.n_b)
        return original(grids, v_local)

    monkeypatch.setattr(sternheimer, "sector_hamiltonian", counted)
    metal_gs.drop_derived()
    metrics = run_response(tiny_config(metal_gs), gs=metal_gs)
    assert metrics.converged and metrics.igmres.iterations > 1
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
    spent = h_applications()
    with pytest.raises(InvariantViolationError, match="extra bands"):
        run_response(tiny_config(mixed), gs=mixed)
    assert h_applications() == spent and len(builds) == 3
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
    assert {"psi_occ_real", "hamiltonian", "sector_constants"} <= set(cached)
    assert any(key.startswith("sternheimer_group_") for key in cached)
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


def test_grt_honours_every_budget_it_is_granted(metal_gs):
    for strategy in ("grt", "pgrt"):
        metrics = run_response(tiny_config(metal_gs, strategy=strategy), gs=metal_gs)
        assert metrics.converged and len(metrics.igmres.budgets) > 1
        assert 1.0 - BOUND_RTOL <= metrics.bound_margin_min <= 1.0 + BOUND_RTOL
        assert metrics.final_true_res <= 1e-7


def test_pgrt_meets_tau_on_the_true_residual_with_strong_kerker(toy_metal):
    # the shipped toy_metal at alpha 4, where ||P^-1|| is large: a certificate on
    # ||P (b - E x)|| would leave b - E x at 2.79 tau; pgrt's covers b - E x itself
    config, gs = toy_metal
    config = replace(config, response=replace(config.response, strategy="pgrt",
                                              kerker_alpha=4.0))
    assert config.response.tau == 1e-9 and config.response.m == 8
    assert config.response.perturbation == Perturbation(gaussian=0, direction=(1.0, 0.0, 0.0))
    metrics = run_response(config, gs=gs)
    assert metrics.converged and metrics.final_true_res <= 1e-9
    assert metrics.bound_margin_min >= 1.0 - BOUND_RTOL


@settings(max_examples=12, deadline=None)
@given(center=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda d: np.linalg.norm(d) >= 0.1),
       log_tau=st.floats(-10.0, -6.0), strategy=st.sampled_from(["grt", "pgrt"]),
       kerker_alpha=st.floats(0.2, 8.0))
def test_grt_meets_tau_and_honours_its_budgets_on_drawn_problems(tiny_oracle_gs, center,
                                                                 direction, log_tau, strategy,
                                                                 kerker_alpha):
    # well 0 of the tiny model moved to a drawn centre, displaced along a drawn direction;
    # pgrt with a drawn Kerker alpha (grt ignores it)
    wells = tiny_oracle_gs.model.gaussians
    model = replace(tiny_oracle_gs.model, gaussians=(replace(wells[0], center=center), wells[1]))
    gs = run_scf(model, tol=1e-11, max_iter=600, damping=0.3)
    tau = 10.0 ** log_tau
    config = ExperimentConfig(model=model, response=ResponseParams(
        strategy=strategy, tau=tau, m=8, kerker_alpha=kerker_alpha,
        perturbation=Perturbation(gaussian=0, direction=direction)))
    metrics = run_response(config, gs=gs)
    assert metrics.converged and metrics.final_true_res <= tau
    assert metrics.bound_margin_min >= 1.0 - BOUND_RTOL


def test_grt_guard_raises_when_a_bound_exceeds_its_budget(metal_gs, monkeypatch,
                                                          h_applications):
    # a doubled gap doubles grt's tolerances and so the bound: twice the budget
    original = tolerance_context

    def doubled(gs, rhs_norm):
        ctx = original(gs, rhs_norm)
        return replace(ctx, gap=2.0 * ctx.gap)

    monkeypatch.setattr("pwdyson.harness.tolerance_context", doubled)
    # the right-hand-side build is refused before its solve, and so is every
    # application of the budgeted operator inside the solve
    with pytest.raises(InvariantViolationError, match="exceeds the granted budget"):
        run_response(tiny_config(metal_gs, strategy="pgrt"), gs=metal_gs)
    assert metal_gs._derived == {} and h_applications() == 0
    spec = StrategySpec("grt", True, 1e-7, 8)
    kerker = partial(apply_kerker, KerkerSpec(alpha=0.8), metal_gs.grids)
    op, applications = budgeted_dielectric(metal_gs, spec, KernelSpec(xc=metal_gs.model.xc),
                                           kerker, 1.0)
    v = np.random.default_rng(18).standard_normal(metal_gs.grids.n_g)
    with pytest.raises(InvariantViolationError, match=r"margin 0\.5"):
        op(v, 1e-8)
    assert applications == [] and h_applications() == 0
    # bal carries no guarantee and is not held to the bound
    metrics = run_response(tiny_config(metal_gs, strategy="pbal"), gs=metal_gs)
    assert metrics.converged and metrics.bound_margin_min < 1.0 - BOUND_RTOL


def test_grt_budget_out_of_the_floors_reach_is_nonconvergence(metal_gs, h_applications):
    # a budget below what TOLERANCE_FLOOR can honour clamps every band tolerance
    # (with no tolerance at the floor it is a fault: the doubled-gap test above)
    gs = metal_gs
    spec = StrategySpec("grt", False, 1e-7, 8)
    tols = select_tolerances(spec, tolerance_context(gs, rhs_norm=1.0), 1e-30, 2.0)
    assert np.all(tols == TOLERANCE_FLOOR)
    floor = (rf"{gs.n_occ} of {gs.n_occ} band tolerances sat at the tolerance floor 1e-16 "
             r"at \|Kv\| = 2")
    with pytest.raises(NonConvergenceError, match=floor) as err:
        bound_margin(gs, spec, 1e-30, 2.0, tols)
    assert err.value.cost == 0 and err.value.report is None
    # inside the solve the operator is refused at |Kv| before its Sternheimer solve
    op, applications = budgeted_dielectric(gs, spec, KernelSpec(xc=gs.model.xc), None, 1.0)
    v = np.random.default_rng(19).standard_normal(gs.grids.n_g)
    with pytest.raises(NonConvergenceError, match="tolerance floor") as err:
        op(v, 1e-30)
    assert err.value.cost == 0 and h_applications() == 0
    assert applications == []


def test_a_refused_grt_application_makes_no_hamiltonian_application(metal_gs,
                                                                    h_applications,
                                                                    monkeypatch):
    # the right-hand side: tau/3 out of the floor's reach
    pert = Perturbation(gaussian=0, direction=(1, 0, 0))
    with pytest.raises(NonConvergenceError, match="tolerance floor") as err:
        build_perturbation(metal_gs, pert, StrategySpec("grt", False, 1e-40, 8))
    assert err.value.cost == 0 and h_applications() == 0
    # the operator: the third application is granted a budget out of the floor's reach, so
    # the stopped solve has spent the right-hand side and two applications, and nothing more
    costs = []

    def starved_third(op, *args, **kwargs):
        def starved(v, budget):
            out, cost = op(v, budget * (1e-30 if len(costs) == 2 else 1.0))
            costs.append(cost)
            return out, cost
        return igmres_solve(starved, *args, **kwargs)

    monkeypatch.setattr("pwdyson.harness.igmres_solve", starved_third)
    with pytest.raises(NonConvergenceError, match="tolerance floor") as err:
        run_response(tiny_config(metal_gs, strategy="grt"), gs=metal_gs)
    partial = err.value.report
    assert len(costs) == 2 and min(costs) > 0
    assert partial.n_ham == partial.n_ham_rhs + sum(costs) == h_applications()
    assert partial.history[-1][3] == partial.n_ham


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
    np.testing.assert_array_equal(true_residual(gs, kernel, np.zeros_like(b), b), b)


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
            "y_coefficient_bound", "sternheimer_error_bound", "mirror_sectors"} <= names
    for check in result["checks"]:
        assert check["margin"] >= 1.0
    assert json.load(open(os.path.join(out, "verify.json")))["ok"]
    assert metal_gs._derived == {}
    # the row norm checked is the one grt's tolerances read
    row_norm = next(c for c in result["checks"] if c["name"] == "row_norm_bounds")
    assert row_norm["details"]["value"] == tolerance_context(metal_gs, 1.0).row_norm


def test_y_bound_check_passes_on_a_zero_right_hand_side(metal_gs):
    # a well of zero amplitude: dV0 = 0, so the Dyson solve stops at x = 0 before any
    # Arnoldi step, and the y-coefficient bound holds vacuously
    well = GaussianWell(center=(0.5, 0.5, 0.5), amplitude=0.0, width=0.7)
    gs = replace(metal_gs, model=replace(metal_gs.model,
                                         gaussians=metal_gs.model.gaussians + (well,)))
    config = tiny_config(gs)
    config = replace(config, response=replace(config.response,
                                              perturbation=Perturbation(gaussian=2)))
    report = run_response(config, gs=gs).igmres
    assert report.converged and report.total_cost == 0 and not np.any(report.solution)
    assert check_y_bound(gs, config)["passed"]


def test_verify_negative_control(metal_gs):
    import copy

    assert check_orthonormality(metal_gs)["passed"]
    corrupted = copy.copy(metal_gs)
    corrupted.u = metal_gs.u.copy()
    corrupted.u[:, 0] *= 1.5
    check = check_orthonormality(corrupted)
    assert not check["passed"]


def test_sternheimer_error_bound_check_applies_the_cached_operator(metal_gs, insulator_gs):
    # the check runs the production solve, so a state whose cached operator is
    # off by 1e-6 I fails it against the full eigh of H_r
    import dataclasses

    for gs in (metal_gs, insulator_gs):
        check = check_sternheimer_error_bound(gs, np.random.default_rng(40))
        assert check["passed"] and check["margin"] >= 1.0
    ham = hamiltonian(metal_gs)
    shifted = dataclasses.replace(
        ham, blocks=tuple(block + 1e-6 * np.eye(len(block)) for block in ham.blocks))
    perturbed = dataclasses.replace(metal_gs)
    assert perturbed.derived("hamiltonian", lambda: shifted) is shifted
    check = check_sternheimer_error_bound(perturbed, np.random.default_rng(40))
    assert not check["passed"] and check["margin"] < 1.0
    for gs in (metal_gs, insulator_gs):
        gs.drop_derived()


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
    (("response", "perturbation"), "analytic"),         # a key that earlier configs held
], ids=["top", "model", "gaussian", "scf", "response", "perturbation",
        "perturbation-analytic"])
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
    (("response", "perturbation"), "gaussian", "0"),
    (("response",), "seed", -1),
    (("response",), "true_residual_every", -1),
    (("scf",), "damping", "0.1"),
    (("scf",), "max_iter", True),
    (("model",), "e_cut", "6.5"),
    (("model",), "n_electrons", 4.0),
    (("model", "gaussians", 0), "amplitude", "-3"),
    # JSON's Infinity and NaN parse as floats: no number, vector or well takes them
    (("response",), "tau", float("nan")),
    (("model", "gaussians", 0), "amplitude", float("nan")),
    (("model", "gaussians", 0), "amplitude", float("inf")),
    (("model", "gaussians", 0), "center", [0.3, float("-inf"), 0.5]),
    (("model", "gaussians", 0), "center", "middle"),
    (("response", "perturbation"), "direction", [float("inf"), 0.0, 0.0]),
    (("response", "perturbation"), "direction", [0.0, float("nan"), 1.0]),
    (("response", "perturbation"), "direction", [1.0, 0.0]),
    # JSON integers have no size limit: one too large for a double is no finite number
    (("model",), "temperature", 10 ** 400),
    (("model", "gaussians", 0), "amplitude", -10 ** 400),
    (("model", "gaussians", 0), "center", [0.3, 10 ** 400, 0.5]),
    (("response", "perturbation"), "direction", [10 ** 400, 0, 0]),
    (("model",), "lattice", [[10 ** 400, 0, 0], [0, 3.0, 0], [0, 0, 3.0]]),
    (("model",), "lattice", [[3.0, 0, 0], [0, 3.0, 0]]),
], ids=["response-tau", "response-m", "perturbation-gaussian", "response-seed-negative",
        "response-true_residual_every-negative", "scf-damping",
        "scf-max_iter", "model-e_cut", "model-n_electrons", "gaussian-amplitude",
        "response-tau-nan", "gaussian-amplitude-nan", "gaussian-amplitude-inf",
        "gaussian-center-inf", "gaussian-center-string", "perturbation-direction-inf",
        "perturbation-direction-nan", "perturbation-direction-short", "model-temperature-huge",
        "gaussian-amplitude-huge", "gaussian-center-huge", "perturbation-direction-huge",
        "model-lattice-huge", "model-lattice-short"])
def test_config_value_of_wrong_type_rejected(metal_gs, level, key, value):
    d = _config_dict(metal_gs)
    target = d
    for step in level:
        target = target.setdefault(step, {}) if isinstance(step, str) else target[step]
    target[key] = value
    with pytest.raises(ConfigurationError, match=f"'{key}' in .* must be"):
        config_from_dict(d)


def test_cli_reports_infinite_direction_in_one_line(metal_gs, tmp_path, capsys):
    d = _config_dict(metal_gs)
    d["response"]["perturbation"]["direction"] = [float("inf"), 0, 0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert "Infinity" in path.read_text()
    for strategy in ("bal", "grt"):
        assert cli.main(["respond", str(path), "--strategy", strategy,
                         "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'direction'" in err[0]


def test_cli_reports_string_number_in_one_line(metal_gs, tmp_path, capsys):
    d = _config_dict(metal_gs)
    d["response"]["tau"] = "1e-9"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert cli.main(["respond", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'tau'" in err[0]


def test_cli_reports_negative_seed_in_one_line(metal_gs, tmp_path, capsys):
    d = _config_dict(metal_gs)
    d["response"]["seed"] = -1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    assert cli.main(["verify", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'seed'" in err[0]


@pytest.mark.parametrize("key, digits", [("temperature", 401), ("e_cut", 5000)])
def test_cli_reports_huge_integer_in_one_line(metal_gs, tmp_path, capsys, key, digits):
    # 401 digits overflow a double; 5000 exceed the digits Python's JSON reader converts
    d = _config_dict(metal_gs)
    d["model"][key] = 987654321987
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d).replace("987654321987", "1" + "0" * (digits - 1)))
    assert cli.main(["respond", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert (f"'{key}' in model must be a finite number" if digits < 4300
            else "not valid JSON") in err[0]


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


# -- runtime dependencies -----------------------------------------------------------

NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None             # from here on, importing scipy raises ImportError
import pwdyson.cli
import pwdyson.harness
from pwdyson.config import config_from_dict
from pwdyson.groundstate import run_scf

config = config_from_dict({
    "model": {"lattice": [[3.4, 0, 0], [0, 3.4, 0], [0, 0, 3.4]], "e_cut": 3.8,
              "n_electrons": 4, "temperature": 5e-3, "smearing": "gaussian",
              "gaussians": [{"center": [0.4, 0.45, 0.5], "amplitude": -3.0, "width": 0.8},
                            {"center": [0.7, 0.6, 0.45], "amplitude": -2.0, "width": 0.7}]},
    "scf": {"tol": 1e-10, "damping": 0.3},
    "response": {"strategy": "pgrt", "tau": 1e-7, "perturbation": {"gaussian": 0}},
})
gs = run_scf(config.model, tol=config.scf.tol, max_iter=600, damping=config.scf.damping)
metrics = pwdyson.harness.run_response(config, gs=gs)
print(gs.grids.n_g, metrics.converged, metrics.n_ham)
"""


def test_the_program_runs_without_scipy():
    """SCF and a pgrt solve in a process where any import of scipy, eager or lazy, fails."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    n_g, converged, n_ham = proc.stdout.split()
    assert int(n_g) <= 400 and converged == "True" and int(n_ham) > 0


SETUP_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import pwdyson.cli
import pwdyson.harness
from pwdyson import pwbasis
import worker

configs = worker.chain_configs(0)       # parsed by config_from_dict
print(len(configs), "scipy" in sys.modules, pwbasis._last_grids == (None, None))
"""


def test_import_and_config_parsing_load_no_scipy_and_build_no_grid():
    """What a benchmark process does before its clock starts: imports and the chain's config."""
    root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    proc = subprocess.run([sys.executable, "-c", SETUP_RUN, perfbench], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "False", "True"]
