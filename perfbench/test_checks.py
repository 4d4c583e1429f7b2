"""The benchmark's checks pass on the program's output and fail on a mutated one.

    PYTHONPATH=src python3 -m pytest perfbench

Runs on a two-well chain (n_b 43, n_g 648), so the whole file takes seconds.
"""

import copy
import json
import os

import numpy as np
import pytest

import reference
import worker
from pwdyson import harness
from pwdyson.groundstate import external_potential, external_potential_derivative
from pwdyson.kernels import KernelSpec
from pwdyson.response import apply_chi0, apply_dielectric


@pytest.fixture(scope="module")
def chain():
    config = worker.chain_configs(seed=3, wells=2)[0]
    gs = harness.ensure_ground_state(config)
    metrics = harness.run_response(config, gs=gs)
    return config, gs, metrics, reference.SumOverStates(gs)


def solve_checks(chain, metrics):
    config, _, _, sos = chain
    found = worker.Checks()
    worker.check_solve(metrics, sos, config, found)
    return {c["name"].split(": ", 1)[1]: c["passed"] for c in found}


def mutated(metrics, solution):
    out = copy.copy(metrics)
    out.solution = solution
    return out


def test_checks_pass_on_program_output(chain):
    _, gs, metrics, _ = chain
    found = worker.Checks()
    worker.check_ground_state(gs, found)
    assert found.passed, found
    assert all(solve_checks(chain, metrics).values())


def test_scaled_solution_fails_residual_checks(chain):
    metrics = chain[2]
    result = solve_checks(chain, mutated(metrics, metrics.solution * (1 + 1e-6)))
    assert not result["reference residual <= tau"]
    assert not result["|final_true_res - reference| <= 1e-3 tau"]


def test_perturbed_right_hand_side_fails_budget_check(chain):
    metrics = copy.copy(chain[2])
    metrics.rhs = metrics.rhs + 2e-10 * chain[3].basis.flat(chain[3].basis.frac[..., 0])
    result = solve_checks(chain, metrics)
    assert result["right-hand side matches chi0 dV0"]
    assert not result["right-hand side within tau/3 of chi0 dV0"]


def test_only_gated_checks_decide_the_verdict():
    found = worker.Checks()
    found("reported only", 2.0, 1.0, gate=False)
    assert found.passed
    found("gated", 2.0, 1.0)
    assert not found.passed


def test_scaled_right_hand_side_fails_rhs_check(chain):
    metrics = copy.copy(chain[2])
    metrics.rhs = metrics.rhs * (1 + 1e-5)
    assert not solve_checks(chain, metrics)["right-hand side matches chi0 dV0"]


def test_asymmetric_solution_fails_mirror_check(chain):
    _, gs, metrics, sos = chain
    y = sos.basis.frac[..., 1] - 0.5
    bump = sos.basis.flat(y * np.exp(-40 * y**2))
    x = metrics.solution + 1e-6 * np.abs(metrics.solution).max() * bump
    assert not solve_checks(chain, mutated(metrics, x))["mirror defect in y and z"]


def test_charged_solution_fails_charge_check(chain):
    metrics = chain[2]
    x = metrics.solution + 1e-6 * np.abs(metrics.solution).max()
    assert not solve_checks(chain, mutated(metrics, x))["net charge"]


def test_perturbed_density_fails_ground_state_checks(chain):
    gs = chain[1]
    found = worker.Checks()
    scaled = copy.copy(gs)
    scaled.rho = gs.rho * (1 + 1e-6)
    worker.check_ground_state(scaled, found)
    assert not any(c["passed"] for c in found)


def test_reference_operators_match_the_program(chain):
    _, gs, _, sos = chain
    basis = sos.basis
    v_ext = basis.flat(reference.external_potential(gs.model, basis))
    assert np.abs(v_ext - external_potential(gs.model, gs.grids)).max() <= 1e-12
    dv_ref = basis.flat(reference.external_potential_derivative(gs.model, basis, 1, (1, 0, 0)))
    dv = external_potential_derivative(gs.model, gs.grids, 1, np.array([1.0, 0, 0]))
    assert np.abs(dv_ref - dv).max() <= 1e-12
    rng = np.random.default_rng(0)
    v = rng.standard_normal(gs.grids.n_g)
    tight = np.full(gs.n_occ, 1e-14)
    chi, _ = apply_chi0(gs, v, tight)
    assert np.linalg.norm(basis.flat(sos.chi0(basis.grid(v))) - chi) <= 1e-10 * np.linalg.norm(chi)
    ev = apply_dielectric(gs, KernelSpec(), v, tight).output
    assert np.linalg.norm(basis.flat(sos.dielectric(basis.grid(v))) - ev) <= 1e-10 * np.linalg.norm(ev)


def test_tracer_reports_missing_functions_and_keeps_running():
    import sys
    import types

    import spans

    pkg = types.ModuleType("fakepw")
    gs_mod = types.ModuleType("fakepw.groundstate")
    sp_mod = types.ModuleType("fakepw.sternheimer")

    def apply_hamiltonian(x):
        return 2 * x

    def solve_sternheimer(x):
        return types.SimpleNamespace(cg_iterations=apply_hamiltonian(x))

    gs_mod.apply_hamiltonian = apply_hamiltonian
    sp_mod.apply_hamiltonian = apply_hamiltonian       # imported by name, as the program does
    sp_mod.solve_sternheimer = solve_sternheimer
    modules = {"fakepw": pkg, "fakepw.groundstate": gs_mod, "fakepw.sternheimer": sp_mod}
    sys.modules.update(modules)
    try:
        tracer = spans.Tracer().install(package="fakepw")
        assert sp_mod.solve_sternheimer(3).cg_iterations == 6
        assert sp_mod.apply_hamiltonian is gs_mod.apply_hamiltonian is not apply_hamiltonian
    finally:
        for name in modules:
            del sys.modules[name]
    assert "groundstate.run_scf" in tracer.missing
    assert "sternheimer.solve_sternheimer" not in tracer.missing
    metrics = tracer.metrics()
    assert metrics["solve_sternheimer.calls"]["value"] == 1
    assert metrics["cg_iterations"]["value"] == 6
    assert metrics["run_scf.s"]["value"] == 0
    assert len(metrics) == len(spans.PER_LAYER)


def test_build_mode_prints_the_result_line_run_py_reads(monkeypatch, capsys, tmp_path):
    built = []
    monkeypatch.setattr(worker, "build", built.append)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cache = str(tmp_path / "toy_metal")
    worker.main(["--mode", "build", "--root", root, "--cache", cache])
    assert built == [cache]
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == {"built": cache}
