"""Tests for the projected Sternheimer CG solver."""

import numpy as np
import pytest

from pwdyson import InvariantViolationError, Lattice, NonConvergenceError
from pwdyson.groundstate import GaussianWell, ModelSpec, run_scf
from pwdyson.sternheimer import project_out_occupied, solve_sternheimer


@pytest.fixture(scope="module")
def tiny_gs():
    model = ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=4,
        temperature=5e-3, smearing="fermi_dirac",
        gaussians=(
            GaussianWell(center=(0.3, 0.4, 0.5), amplitude=-3.0, width=0.8),
            GaussianWell(center=(0.7, 0.6, 0.4), amplitude=-2.0, width=0.7),
        ),
    )
    return run_scf(model, tol=1e-11, max_iter=300, damping=0.3)


def dense_operator(gs, n):
    """Dense A_n = Q (H - eps_n) Q via matvec columns (independent path)."""
    from pwdyson.groundstate import apply_hamiltonian

    grids = gs.grids
    nb = grids.n_b
    phi = gs.phi_occ
    q = np.eye(nb, dtype=complex) - phi @ phi.conj().T
    h = np.zeros((nb, nb), dtype=complex)
    for j in range(nb):
        e = np.zeros(nb, dtype=complex)
        e[j] = 1.0
        h[:, j] = apply_hamiltonian(grids, gs.v_local, e)
    return q @ (h - gs.eps[n] * np.eye(nb)) @ q


def test_projector_with_kept_adjoint_is_bit_identical(tiny_gs):
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(tiny_gs.grids.n_b) + 1j * rng.standard_normal(tiny_gs.grids.n_b)
    phi = tiny_gs.phi_occ
    np.testing.assert_array_equal(project_out_occupied(phi, psi, tiny_gs.phi_occ_h),
                                  project_out_occupied(phi, psi))


def test_projector_annihilates_occupied(tiny_gs):
    gs = tiny_gs
    for k in range(gs.n_occ):
        out = project_out_occupied(gs.phi_occ, gs.phi[:, k])
        assert np.linalg.norm(out) < 1e-12


def test_projector_leaves_orthogonal_complement(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b)
    q_psi = project_out_occupied(gs.phi_occ, psi)
    again = project_out_occupied(gs.phi_occ, q_psi)
    assert np.linalg.norm(again - q_psi) <= 1e-12 * np.linalg.norm(q_psi)


def test_projector_pythagoras(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(1)
    phi = gs.phi_occ
    p_dense = phi @ phi.conj().T
    for _ in range(5):
        psi = rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b)
        q_psi = project_out_occupied(phi, psi)
        p_psi = p_dense @ psi
        lhs = np.linalg.norm(q_psi) ** 2 + np.linalg.norm(p_psi) ** 2
        assert lhs == pytest.approx(np.linalg.norm(psi) ** 2, rel=1e-12)


def test_zero_rhs_one_iteration(tiny_gs, h_applications):
    gs = tiny_gs
    result = solve_sternheimer(gs, [0], np.zeros((1, gs.grids.n_b), dtype=complex),
                               tol=1e-10, phi=gs.phi_occ)
    assert result.cg_iterations == 1
    assert h_applications() == 1
    assert np.linalg.norm(result.solution) == 0.0


def test_counter_matches_iterations(tiny_gs, h_applications):
    gs = tiny_gs
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b)
    rhs = project_out_occupied(gs.phi_occ, rhs)
    result = solve_sternheimer(gs, [1], rhs[None], tol=1e-9, phi=gs.phi_occ)
    assert h_applications() == result.cg_iterations
    assert result.final_residual_norm <= 1e-9


def test_solution_stays_in_unoccupied_range(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(3)
    rhs = project_out_occupied(
        gs.phi_occ,
        rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b),
    )
    result = solve_sternheimer(gs, [gs.n_occ - 1], rhs[None], tol=1e-11, phi=gs.phi_occ)
    leak = np.linalg.norm(gs.phi_occ.conj().T @ result.solution[0])
    assert leak <= 1e-10 * np.linalg.norm(result.solution)


def test_matches_dense_pseudoinverse(tiny_gs):
    gs = tiny_gs
    assert gs.grids.n_b <= 100
    rng = np.random.default_rng(4)
    for n in (0, gs.n_occ - 1):
        a = dense_operator(gs, n)
        rhs = project_out_occupied(
            gs.phi_occ,
            rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b),
        )
        tol = 1e-10
        result = solve_sternheimer(gs, [n], rhs[None], tol=tol, phi=gs.phi_occ)
        x_ref = np.linalg.pinv(a, rcond=1e-8) @ rhs
        a_pinv_norm = 1.0 / (gs.eps_gap_ref - gs.eps[n])
        err = np.linalg.norm(result.solution - x_ref)
        assert err <= a_pinv_norm * tol * (1 + 1e-6)


def test_error_bounded_by_gap_scaled_residual(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(5)
    n = gs.n_occ - 1
    a = dense_operator(gs, n)
    x_exact = None
    for tol in (1e-4, 1e-6, 1e-8):
        rhs = project_out_occupied(
            gs.phi_occ,
            rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b),
        )
        if x_exact is None:
            x_exact = np.linalg.pinv(a, rcond=1e-8)
        result = solve_sternheimer(gs, [n], rhs[None], tol=tol, phi=gs.phi_occ)
        z = np.linalg.norm(result.solution - x_exact @ rhs)
        bound = result.final_residual_norm / (gs.eps_gap_ref - gs.eps[n])
        assert z <= bound * (1 + 1e-6)


def test_max_iter_raises_with_residual(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(6)
    rhs = project_out_occupied(
        gs.phi_occ,
        rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b),
    )
    with pytest.raises(NonConvergenceError) as err:
        solve_sternheimer(gs, [0], rhs[None], tol=1e-14, phi=gs.phi_occ, max_iter=2)
    assert err.value.residual is not None and err.value.residual > 0


def test_indefinite_operator_fails_fast(tiny_gs):
    # without band 0 in phi, Q (H - eps_n) Q is indefinite for the top band
    gs = tiny_gs
    rng = np.random.default_rng(7)
    phi = gs.phi_occ[:, 1:]
    rhs = project_out_occupied(
        phi, rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b))
    # a solve still running at step 2 would raise NonConvergenceError instead
    with pytest.raises(InvariantViolationError, match=f"band {gs.n_occ - 1}"):
        solve_sternheimer(gs, [gs.n_occ - 1], rhs[None], tol=1e-10, phi=phi, max_iter=2)


# -- block solves: every band keeps its own CG ------------------------------------


def _block_rhs(gs, seed):
    rng = np.random.default_rng(seed)
    shape = (gs.n_occ, gs.grids.n_b)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return project_out_occupied(gs.phi, raw.T).T


def test_block_solve_matches_one_row_solves(metal_gs):
    gs = metal_gs
    rhs = _block_rhs(gs, 8)
    tols = np.geomspace(1e-6, 1e-11, gs.n_occ)
    block = solve_sternheimer(gs, range(gs.n_occ), rhs, tols, gs.phi)
    assert isinstance(block.cg_iterations, int)
    assert block.cg_iterations == sum(block.iterations_per_band)
    for n in range(gs.n_occ):
        one = solve_sternheimer(gs, [n], rhs[n:n + 1], tols[n], gs.phi)
        assert block.iterations_per_band[n] == one.iterations_per_band[0] == one.cg_iterations
        assert (np.linalg.norm(block.solution[n] - one.solution[0])
                <= 1e-12 * np.linalg.norm(one.solution[0]))
        assert block.final_residual_norm[n] <= tols[n]


def test_zero_rhs_row_costs_one_application(metal_gs, h_applications):
    gs = metal_gs
    rhs = _block_rhs(gs, 9)
    bands = range(gs.n_occ)
    full = solve_sternheimer(gs, bands, rhs, 1e-9, gs.phi)
    rhs[1] = 0.0
    before = h_applications()
    zeroed = solve_sternheimer(gs, bands, rhs, 1e-9, gs.phi)
    assert h_applications() - before == zeroed.cg_iterations
    assert zeroed.iterations_per_band[1] == 1
    assert np.linalg.norm(zeroed.solution[1]) == 0.0
    others = [n for n in bands if n != 1]
    assert ([zeroed.iterations_per_band[n] for n in others]
            == [full.iterations_per_band[n] for n in others])
    np.testing.assert_allclose(zeroed.solution[others], full.solution[others],
                               rtol=0, atol=1e-12 * np.linalg.norm(full.solution))


def test_counter_sums_per_band_iterations_as_bands_drop_out(metal_gs, h_applications):
    gs = metal_gs
    rhs = _block_rhs(gs, 10)
    tols = np.full(gs.n_occ, 1e-11)
    tols[::2] = 1e-4                        # these bands stop early
    result = solve_sternheimer(gs, range(gs.n_occ), rhs, tols, gs.phi)
    assert h_applications() == result.cg_iterations == sum(result.iterations_per_band)
    iters = np.array(result.iterations_per_band)
    assert iters[::2].max() < iters[1::2].min()
    assert result.cg_iterations < gs.n_occ * iters.max()
