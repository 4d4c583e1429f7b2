"""Tests for the projected Sternheimer CG solver."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pwdyson import InvariantViolationError, Lattice, NonConvergenceError, build_grids
from pwdyson.groundstate import (
    _REAL_H_ROWS,
    GaussianWell,
    GroundState,
    ModelSpec,
    dense_hamiltonian,
    external_potential,
    real_hamiltonian,
    run_scf,
)
from pwdyson.pwbasis import from_cos_sin, real_basis, to_cos_sin
from pwdyson.sternheimer import (
    PRECONDITIONER_SHIFT_FLOOR,
    fold_projector,
    project_out_occupied,
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


def solve_on_sphere(gs, bands, rhs, tol, basis, **kwargs):
    """`solve_sternheimer` with right-hand sides and solutions as sphere coefficients.

    The solver works on the real cos/sin rows T b_n: the rows are mapped
    with T on the way in (complex rows whose imaginary part is not
    round-off are the solver's to reject) and back with T^H on the way out.
    """
    result = solve_sternheimer(gs, bands, to_cos_sin(rhs), tol, basis, **kwargs)
    result.solution = from_cos_sin(result.solution)
    return result


def real_functions(rng, shape):
    """Sphere coefficients of random real functions: T^H of random real rows."""
    return from_cos_sin(rng.standard_normal(shape))


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
    np.testing.assert_array_equal(project_out_occupied(phi, psi, phi.conj().T),
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
    result = solve_on_sphere(gs, [0], np.zeros((1, gs.grids.n_b), dtype=complex),
                             tol=1e-10, basis=real_basis(gs.phi_occ))
    assert result.cg_iterations == 1
    assert h_applications() == 1
    assert np.linalg.norm(result.solution) == 0.0


def test_counter_matches_iterations(tiny_gs, h_applications):
    gs = tiny_gs
    rng = np.random.default_rng(2)
    rhs = project_out_occupied(gs.phi_occ, real_functions(rng, gs.grids.n_b))
    result = solve_on_sphere(gs, [1], rhs[None], tol=1e-9, basis=real_basis(gs.phi_occ))
    assert h_applications() == result.cg_iterations
    assert result.final_residual_norm <= 1e-9


def test_solution_stays_in_unoccupied_range(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(3)
    rhs = project_out_occupied(gs.phi_occ, real_functions(rng, gs.grids.n_b))
    result = solve_on_sphere(gs, [gs.n_occ - 1], rhs[None], tol=1e-11,
                             basis=real_basis(gs.phi_occ))
    leak = np.linalg.norm(gs.phi_occ.conj().T @ result.solution[0])
    assert leak <= 1e-10 * np.linalg.norm(result.solution)


def test_matches_dense_pseudoinverse(tiny_gs):
    gs = tiny_gs
    assert gs.grids.n_b <= 100
    rng = np.random.default_rng(4)
    for n in (0, gs.n_occ - 1):
        a = dense_operator(gs, n)
        rhs = project_out_occupied(gs.phi_occ, real_functions(rng, gs.grids.n_b))
        tol = 1e-10
        result = solve_on_sphere(gs, [n], rhs[None], tol=tol, basis=real_basis(gs.phi_occ))
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
        rhs = project_out_occupied(gs.phi_occ, real_functions(rng, gs.grids.n_b))
        if x_exact is None:
            x_exact = np.linalg.pinv(a, rcond=1e-8)
        result = solve_on_sphere(gs, [n], rhs[None], tol=tol, basis=real_basis(gs.phi_occ))
        z = np.linalg.norm(result.solution - x_exact @ rhs)
        bound = result.final_residual_norm / (gs.eps_gap_ref - gs.eps[n])
        assert z <= bound * (1 + 1e-6)


def test_max_iter_raises_with_residual(tiny_gs, h_applications):
    gs = tiny_gs
    rng = np.random.default_rng(6)
    rhs = project_out_occupied(gs.phi_occ, real_functions(rng, gs.grids.n_b))
    with pytest.raises(NonConvergenceError) as err:
        solve_on_sphere(gs, [0], rhs[None], tol=1e-14, basis=real_basis(gs.phi_occ),
                        max_iter=2)
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.cost == h_applications() == 2


def test_indefinite_operator_fails_fast(tiny_gs):
    # without band 0 in phi, Q (H - eps_n) Q is indefinite for the top band
    gs = tiny_gs
    rng = np.random.default_rng(7)
    phi = gs.phi_occ[:, 1:]
    rhs = project_out_occupied(phi, real_functions(rng, gs.grids.n_b))
    # a solve still running at step 2 would raise NonConvergenceError instead
    with pytest.raises(InvariantViolationError, match=f"band {gs.n_occ - 1}"):
        solve_on_sphere(gs, [gs.n_occ - 1], rhs[None], tol=1e-10, basis=real_basis(phi),
                        max_iter=2)


# -- block solves: every band keeps its own CG ------------------------------------


def _block_rhs(gs, seed):
    raw = real_functions(np.random.default_rng(seed), (gs.n_occ, gs.grids.n_b))
    return project_out_occupied(gs.phi, raw.T).T


def test_block_solve_matches_one_row_solves(metal_gs):
    gs = metal_gs
    rhs = _block_rhs(gs, 8)
    tols = np.geomspace(1e-6, 1e-11, gs.n_occ)
    block = solve_on_sphere(gs, range(gs.n_occ), rhs, tols, real_basis(gs.phi))
    assert isinstance(block.cg_iterations, int)
    assert block.cg_iterations == sum(block.iterations_per_band)
    for n in range(gs.n_occ):
        one = solve_on_sphere(gs, [n], rhs[n:n + 1], tols[n], real_basis(gs.phi))
        assert block.iterations_per_band[n] == one.iterations_per_band[0] == one.cg_iterations
        assert (np.linalg.norm(block.solution[n] - one.solution[0])
                <= 1e-12 * np.linalg.norm(one.solution[0]))
        assert block.final_residual_norm[n] <= tols[n]


def test_zero_rhs_row_costs_one_application(metal_gs, h_applications):
    gs = metal_gs
    rhs = _block_rhs(gs, 9)
    bands = range(gs.n_occ)
    full = solve_on_sphere(gs, bands, rhs, 1e-9, real_basis(gs.phi))
    rhs[1] = 0.0
    before = h_applications()
    zeroed = solve_on_sphere(gs, bands, rhs, 1e-9, real_basis(gs.phi))
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
    result = solve_on_sphere(gs, range(gs.n_occ), rhs, tols, real_basis(gs.phi))
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
    early = solve_on_sphere(gs, [0], rhs[:1], tols[0], basis).cg_iterations
    before = h_applications()
    with pytest.raises(NonConvergenceError) as err:
        solve_on_sphere(gs, range(gs.n_occ), rhs, tols, basis, max_iter=early + 3)
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


def complex_block_real_hamiltonian(grids, v_local):
    """H_r from the real and imaginary parts of complex rows of V: the earlier construction."""
    n_b, h = grids.n_b, grids.n_b // 2
    hr = np.empty((n_b, n_b))
    vfft = grids.cube_fft(v_local) / grids.n_g
    sin_rows = hr[:h:-1]
    for start in range(0, h, _REAL_H_ROWS):
        i = slice(start, min(start + _REAL_H_ROWS, h))
        block = vfft[grids.sphere_difference_index[i]]
        same, opposite, centre = block[:, :h], block[:, :h:-1], block[:, h]
        np.add(same.real, opposite.real, out=hr[i, :h])
        np.subtract(same.imag, opposite.imag, out=hr[i, :h:-1])
        np.add(same.imag, opposite.imag, out=sin_rows[i, :h])
        np.negative(sin_rows[i, :h], out=sin_rows[i, :h])
        np.subtract(same.real, opposite.real, out=sin_rows[i, :h:-1])
        np.multiply(centre.real, np.sqrt(2.0), out=hr[i, h])
        np.multiply(centre.imag, -np.sqrt(2.0), out=sin_rows[i, h])
    hr[h, :h], hr[h, h + 1:] = hr[:h, h], hr[h + 1:, h]
    hr[h, h] = vfft[0].real
    hr.ravel()[::n_b + 1] += 0.5 * grids.g2_sphere
    return hr


def test_real_hamiltonian_from_real_gathers_equals_complex_block_construction(metal_gs):
    # a full and a partial row block on the sheared cell, one block on the metal
    sheared = build_grids(Lattice.from_vectors([3.2, 0, 0], [1.3, 2.9, 0], [0.7, -0.9, 3.1]),
                          30.0)
    v = np.random.default_rng(28).standard_normal(sheared.n_g)
    for grids, v_local in ((metal_gs.grids, metal_gs.v_local), (sheared, v)):
        np.testing.assert_array_equal(real_hamiltonian(grids, v_local),
                                      complex_block_real_hamiltonian(grids, v_local))


def test_real_hamiltonian_rejects_sphere_out_of_reversal_order(metal_gs):
    grids = copy.copy(metal_gs.grids)
    grids.g_int = grids.g_int[[1, 0, *range(2, grids.n_b)]]
    with pytest.raises(InvariantViolationError, match="reversal"):
        real_hamiltonian(grids, metal_gs.v_local)


def textbook_cg(gs, n, b, tol, phi):
    """Per-band complex CG on Q (H - eps_n) Q, Q = I - Phi Phi^H: the reference.

    Preconditioned like `solve_sternheimer`, with H_Q = Q H Q applied to
    the unprojected search direction and the residual, the preconditioned
    residual and (once, at the end) the iterate re-projected at the same
    points; returns (x, iterations).
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
        ap = q(h @ q(p)) - gs.eps[n] * p
        alpha = rz / np.vdot(p, ap).real
        x = x + alpha * p
        r = q(r - alpha * ap)
        if np.linalg.norm(r) <= tol:
            return q(x), it
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
        block = solve_on_sphere(gs, range(gs.n_occ), rhs, tol, basis)
        for n in range(gs.n_occ):
            x, iterations = textbook_cg(gs, n, rhs[n], tol, gs.phi)
            assert block.iterations_per_band[n] == iterations
            assert np.linalg.norm(block.solution[n] - x) <= 1e-12 * np.linalg.norm(x)


def test_real_basis_rejects_span_not_closed_under_conjugation(insulator_gs):
    # a degenerate pair mixed by a complex phase is still a pair of orthonormal
    # eigenvectors of H with the same span, but neither is a real function;
    # with one of them alone the span is not closed under conjugation either
    gs = insulator_gs
    assert gs.eps[2] == pytest.approx(gs.eps[3], abs=1e-9) == pytest.approx(0.48942, abs=1e-5)
    a, b = gs.phi[:, 2], gs.phi[:, 3]
    phased = np.column_stack([gs.phi[:, :2], (a + 1j * b) / np.sqrt(2),
                              (a - 1j * b) / np.sqrt(2), gs.phi[:, 4:]])
    np.testing.assert_allclose(phased.conj().T @ phased, np.eye(gs.n_kept), rtol=0, atol=1e-12)
    np.testing.assert_allclose(phased[:, 2:4] @ phased[:, 2:4].conj().T,
                               gs.phi[:, 2:4] @ gs.phi[:, 2:4].conj().T, rtol=0, atol=1e-12)
    assert real_basis(gs.phi).shape == (gs.grids.n_b, gs.n_kept)
    with pytest.raises(InvariantViolationError, match="row 2 is not a real function"):
        real_basis(phased)
    with pytest.raises(InvariantViolationError, match="not a real function"):
        real_basis(phased[:, :3])
    # an overall phase leaves the span and the density, not the real basis
    with pytest.raises(InvariantViolationError, match="row 0 is not a real function"):
        real_basis(np.exp(0.3j) * gs.phi)


def test_complex_gauge_rhs_rejected(metal_gs, h_applications):
    # i b for a real function b: in range(Q) and of the right shape, but T (i b)
    # is imaginary, and a solve of its real part alone would be wrong
    gs = metal_gs
    rhs = _block_rhs(gs, 25)
    basis = real_basis(gs.phi)
    solve_on_sphere(gs, range(gs.n_occ), rhs, 1e-8, basis)
    rhs[1] *= np.exp(0.25j)
    with pytest.raises(InvariantViolationError, match="row 1 is not a real function"):
        solve_on_sphere(gs, range(gs.n_occ), rhs, 1e-8, basis)
    with pytest.raises(InvariantViolationError, match="not a real function"):
        solve_on_sphere(gs, [0], 1j * _block_rhs(gs, 26)[:1], 1e-8, basis)


def test_rhs_of_real_orbitals_is_real_to_roundoff(metal_gs):
    # the right-hand sides apply_chi0 builds: -Q dv phi_n for a real dv
    from pwdyson.response import _occupied_matrix

    # is built from real rows T(dv phi_n); the complex transforms of the same
    # products give those rows with an imaginary part at round-off
    gs = metal_gs
    dv = np.random.default_rng(27).standard_normal(gs.grids.n_g)
    dvpsi, _ = _occupied_matrix(gs, dv)
    assert dvpsi.dtype == np.float64
    products = np.array([gs.grids.to_fourier(dv * gs.grids.to_real(phi)) for phi in gs.phi_occ.T])
    rows = to_cos_sin(-project_out_occupied(gs.phi, products.T).T)
    rel = np.linalg.norm(rows.imag, axis=1) / np.linalg.norm(rows, axis=1)
    assert rel.max() <= 1e-14
    real_rows = -project_out_occupied(gs.u, dvpsi.T, gs.u.T).T
    assert np.linalg.norm(real_rows - rows.real) <= 1e-13 * np.linalg.norm(rows)


@pytest.mark.parametrize("fixture", ["metal_gs", "tiny_gs"])
def test_fold_projector_gives_q_h_q(fixture, request):
    gs = request.getfixturevalue(fixture)
    h = real_hamiltonian(gs.grids, gs.v_local)
    basis = real_basis(gs.phi)
    q = np.eye(gs.grids.n_b) - basis @ basis.T
    expected = q @ h @ q
    fold_projector(h, basis)
    scale = np.abs(expected).max()
    assert np.abs(h - expected).max() <= 1e-13 * scale
    assert np.abs(h - h.T).max() <= 1e-13 * scale


# -- property: the one-row CG against a dense solve on drawn tiny models --------------


@given(center=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       amplitude=st.floats(-6.0, -1.0), width=st.floats(0.5, 1.2),
       n_kept=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       log_tol=st.floats(-12.0, -5.0))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_row_cg_matches_dense_pseudo_inverse(center, amplitude, width, n_kept, seed,
                                                 log_tol):
    """Each band's error is at most tol / gap against Q (H - eps_n)^-1 Q on a drawn model.

    gap is eps_{n_kept+1} - eps_n, the lowest eigenvalue the basis leaves
    in range(Q); a draw whose gap is under 1e-3 is skipped.
    """
    lattice = Lattice.cubic(3.4)
    model = ModelSpec(lattice=lattice, e_cut=3.8, n_electrons=2, temperature=5e-3,
                      gaussians=(GaussianWell(center=center, amplitude=amplitude, width=width),))
    grids = build_grids(lattice, model.e_cut)
    assert grids.n_g <= 400
    v = external_potential(model, grids)
    eps, u = np.linalg.eigh(real_hamiltonian(grids, v))
    gaps = eps[n_kept] - eps[:n_kept]
    assume(gaps.min() > 1e-3)
    gs = GroundState(model=model, grids=grids, u=u[:, :n_kept], eps=eps[:n_kept],
                     occ=np.zeros(n_kept), fermi_level=0.0, rho=np.zeros(grids.n_g),
                     n_occ=n_kept, v_local=v)
    basis = u[:, :n_kept]
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_kept, grids.n_b))
    rows -= (rows @ basis) @ basis.T
    tol = 10.0 ** log_tol * np.linalg.norm(rows, axis=1)
    result = solve_on_sphere(gs, range(n_kept), from_cos_sin(rows), tol, basis)
    perp = u[:, n_kept:]
    for n in range(n_kept):
        exact = perp @ ((perp.T @ rows[n]) / (eps[n_kept:] - eps[n]))
        err = np.linalg.norm(result.solution[n] - from_cos_sin(exact))
        assert err <= tol[n] / gaps[n] * (1 + 1e-6)
        assert result.final_residual_norm[n] <= tol[n]
