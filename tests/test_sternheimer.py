"""Tests for the projected Sternheimer CG solver."""

import copy

import numpy as np
import pytest

from pwdyson import InvariantViolationError, Lattice, NonConvergenceError, build_grids
from pwdyson.groundstate import (
    _REAL_H_ROWS,
    GaussianWell,
    ModelSpec,
    dense_hamiltonian,
    diagonalize_dense,
    real_hamiltonian,
    run_scf,
)
from pwdyson.pwbasis import from_cos_sin, to_cos_sin
from pwdyson.sternheimer import (
    PRECONDITIONER_SHIFT_FLOOR,
    project_out_occupied,
    real_basis,
    solve_sternheimer,
)


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
                               tol=1e-10, basis=real_basis(gs.phi_occ))
    assert result.cg_iterations == 1
    assert h_applications() == 1
    assert np.linalg.norm(result.solution) == 0.0


def test_counter_matches_iterations(tiny_gs, h_applications):
    gs = tiny_gs
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b)
    rhs = project_out_occupied(gs.phi_occ, rhs)
    result = solve_sternheimer(gs, [1], rhs[None], tol=1e-9, basis=real_basis(gs.phi_occ))
    assert h_applications() == result.cg_iterations
    assert result.final_residual_norm <= 1e-9


def test_solution_stays_in_unoccupied_range(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(3)
    rhs = project_out_occupied(
        gs.phi_occ,
        rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b),
    )
    result = solve_sternheimer(gs, [gs.n_occ - 1], rhs[None], tol=1e-11,
                               basis=real_basis(gs.phi_occ))
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
        result = solve_sternheimer(gs, [n], rhs[None], tol=tol, basis=real_basis(gs.phi_occ))
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
        result = solve_sternheimer(gs, [n], rhs[None], tol=tol, basis=real_basis(gs.phi_occ))
        z = np.linalg.norm(result.solution - x_exact @ rhs)
        bound = result.final_residual_norm / (gs.eps_gap_ref - gs.eps[n])
        assert z <= bound * (1 + 1e-6)


def test_max_iter_raises_with_residual(tiny_gs, h_applications):
    gs = tiny_gs
    rng = np.random.default_rng(6)
    rhs = project_out_occupied(
        gs.phi_occ,
        rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b),
    )
    with pytest.raises(NonConvergenceError) as err:
        solve_sternheimer(gs, [0], rhs[None], tol=1e-14, basis=real_basis(gs.phi_occ),
                          max_iter=2)
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.cost == h_applications() == 2


def test_indefinite_operator_fails_fast(tiny_gs):
    # without band 0 in phi, Q (H - eps_n) Q is indefinite for the top band
    gs = tiny_gs
    rng = np.random.default_rng(7)
    phi = gs.phi_occ[:, 1:]
    rhs = project_out_occupied(
        phi, rng.standard_normal(gs.grids.n_b) + 1j * rng.standard_normal(gs.grids.n_b))
    # a solve still running at step 2 would raise NonConvergenceError instead
    with pytest.raises(InvariantViolationError, match=f"band {gs.n_occ - 1}"):
        solve_sternheimer(gs, [gs.n_occ - 1], rhs[None], tol=1e-10, basis=real_basis(phi),
                          max_iter=2)


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
    block = solve_sternheimer(gs, range(gs.n_occ), rhs, tols, real_basis(gs.phi))
    assert isinstance(block.cg_iterations, int)
    assert block.cg_iterations == sum(block.iterations_per_band)
    for n in range(gs.n_occ):
        one = solve_sternheimer(gs, [n], rhs[n:n + 1], tols[n], real_basis(gs.phi))
        assert block.iterations_per_band[n] == one.iterations_per_band[0] == one.cg_iterations
        assert (np.linalg.norm(block.solution[n] - one.solution[0])
                <= 1e-12 * np.linalg.norm(one.solution[0]))
        assert block.final_residual_norm[n] <= tols[n]


def test_zero_rhs_row_costs_one_application(metal_gs, h_applications):
    gs = metal_gs
    rhs = _block_rhs(gs, 9)
    bands = range(gs.n_occ)
    full = solve_sternheimer(gs, bands, rhs, 1e-9, real_basis(gs.phi))
    rhs[1] = 0.0
    before = h_applications()
    zeroed = solve_sternheimer(gs, bands, rhs, 1e-9, real_basis(gs.phi))
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
    result = solve_sternheimer(gs, range(gs.n_occ), rhs, tols, real_basis(gs.phi))
    assert h_applications() == result.cg_iterations == sum(result.iterations_per_band)
    iters = np.array(result.iterations_per_band)
    assert iters[::2].max() < iters[1::2].min()
    assert result.cg_iterations < gs.n_occ * iters.max()


def test_stall_cost_counts_converged_and_stalled_bands(metal_gs, h_applications):
    gs = metal_gs
    rhs = _block_rhs(gs, 11)
    basis = real_basis(gs.phi)
    tols = np.full(gs.n_occ, 1e-14)
    tols[0] = 1e-4
    early = solve_sternheimer(gs, [0], rhs[:1], tols[0], basis).cg_iterations
    before = h_applications()
    with pytest.raises(NonConvergenceError) as err:
        solve_sternheimer(gs, range(gs.n_occ), rhs, tols, basis, max_iter=early + 3)
    assert err.value.cost == h_applications() - before == early + (gs.n_occ - 1) * (early + 3)


# -- real arithmetic in the cos/sin basis of the (G, -G) pairs ---------------------


def cos_sin_matrix(n_b):
    """T as a dense matrix: column j is T e_j."""
    return to_cos_sin(np.eye(n_b, dtype=complex)).T


def test_cos_sin_map_is_unitary_and_round_trips(metal_gs):
    n_b = metal_gs.grids.n_b
    t = cos_sin_matrix(n_b)
    np.testing.assert_allclose(t.conj().T @ t, np.eye(n_b), rtol=0, atol=1e-15)
    np.testing.assert_allclose(from_cos_sin(np.eye(n_b, dtype=complex)).T, t.conj().T,
                               rtol=0, atol=1e-15)
    rng = np.random.default_rng(20)
    c = rng.standard_normal((3, n_b)) + 1j * rng.standard_normal((3, n_b))
    np.testing.assert_allclose(from_cos_sin(to_cos_sin(c)), c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(to_cos_sin(c), c @ t.T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cell", ["metal_gs", "non_orthogonal"])
def test_real_hamiltonian_is_the_rotated_dense_one(cell, request):
    if cell == "metal_gs":
        gs = request.getfixturevalue("metal_gs")
        grids, v = gs.grids, gs.v_local
    else:
        grids = build_grids(Lattice.from_vectors([3.2, 0, 0], [1.3, 2.9, 0], [0.7, -0.9, 3.1]),
                            30.0)
        v = np.random.default_rng(21).standard_normal(grids.n_g)
        rows = grids.n_b // 2
        assert rows > _REAL_H_ROWS and rows % _REAL_H_ROWS, "a full and a partial row block"
    t = cos_sin_matrix(grids.n_b)
    ref = t @ dense_hamiltonian(grids, v) @ t.conj().T
    h_r = real_hamiltonian(grids, v)
    scale = np.abs(h_r).max()
    assert h_r.dtype == np.float64
    assert np.abs(ref.imag).max() <= 1e-13 * scale
    assert np.abs(h_r - ref.real).max() <= 1e-13 * scale
    assert np.abs(h_r - h_r.T).max() <= 1e-13 * scale


def test_real_hamiltonian_rejects_sphere_out_of_reversal_order(metal_gs):
    grids = copy.copy(metal_gs.grids)
    grids.g_int = grids.g_int[[1, 0, *range(2, grids.n_b)]]
    with pytest.raises(InvariantViolationError, match="reversal"):
        real_hamiltonian(grids, metal_gs.v_local)


def textbook_cg(gs, n, b, tol, phi):
    """Per-band complex CG on Q (H - eps_n) Q, Q = I - Phi Phi^H: the reference.

    Preconditioned like `solve_sternheimer`, with every vector re-projected
    at the same points; returns (x, iterations).
    """
    h = dense_hamiltonian(gs.grids, gs.v_local)

    def q(y):
        return y - phi @ (phi.conj().T @ y)

    minv = 1.0 / (0.5 * gs.grids.g2_sphere + max(gs.eps[n], PRECONDITIONER_SHIFT_FLOOR))
    x = np.zeros_like(b)
    r = b.copy()
    p = q(minv * r)
    rz = np.vdot(r, p).real
    for it in range(1, 10 * gs.grids.n_b + 1):
        p = q(p)
        ap = q(h @ p - gs.eps[n] * p)
        alpha = rz / np.vdot(p, ap).real
        x = q(x + alpha * p)
        r = q(r - alpha * ap)
        if np.linalg.norm(r) <= tol:
            return x, it
        z = q(minv * r)
        rz_next = np.vdot(r, z).real
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("reference CG did not converge")


@pytest.mark.parametrize("fixture", ["metal_gs", "tiny_gs"])
def test_real_block_cg_matches_textbook_complex_cg(fixture, request):
    gs = request.getfixturevalue(fixture)
    basis = real_basis(gs.phi)
    for seed, tol in ((22, 1e-6), (23, 1e-10), (24, 1e-13)):
        rhs = _block_rhs(gs, seed)
        block = solve_sternheimer(gs, range(gs.n_occ), rhs, tol, basis)
        for n in range(gs.n_occ):
            x, iterations = textbook_cg(gs, n, rhs[n], tol, gs.phi)
            assert block.iterations_per_band[n] == iterations
            assert np.linalg.norm(block.solution[n] - x) <= 1e-12 * np.linalg.norm(x)


def test_real_basis_rejects_span_not_closed_under_conjugation(insulator_gs):
    # a complex mix of a degenerate pair is still an eigenvector of H, but the
    # span it and its partner leave behind is not closed under conjugation
    gs = insulator_gs
    assert gs.eps[2] == pytest.approx(gs.eps[3], abs=1e-9) == pytest.approx(0.48942, abs=1e-5)
    u, v = real_basis(gs.phi[:, 2:4]).T
    mixed = from_cos_sin((u + 1j * v) / np.sqrt(2))
    _, full = diagonalize_dense(gs.grids, gs.v_local, 5)
    third = full[:, 4] - gs.phi[:, 2:4] @ (gs.phi[:, 2:4].conj().T @ full[:, 4])
    kept = np.column_stack([gs.phi[:, :2], mixed, third / np.linalg.norm(third)])
    np.testing.assert_allclose(kept.conj().T @ kept, np.eye(4), rtol=0, atol=1e-12)
    assert real_basis(gs.phi).shape == (gs.grids.n_b, 4)
    with pytest.raises(InvariantViolationError, match="conjugation"):
        real_basis(kept[:, :3])
    with pytest.raises(InvariantViolationError, match="conjugation"):
        real_basis(kept)
