"""Tests for the projected Sternheimer CG solver."""

import copy
import dataclasses

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
    diagonalize_dense,
    external_potential,
    real_hamiltonian,
    run_scf,
)
from pwdyson.sternheimer import project_out_occupied, solve_sternheimer

from conftest import full_spectrum
from oracles import (dense_from_matvec, dense_hamiltonian, dense_sternheimer, from_cos_sin, phi,
                     project_out, real_basis, real_rows, to_cos_sin, to_fourier, to_real)


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


def solve_on_sphere(gs, rhs, tol, **kwargs):
    """`solve_sternheimer` with right-hand sides and solutions as sphere coefficients.

    Rows, one per occupied band, go in as Re T b_n (`oracles.real_rows`
    rejects those not real to round-off) and come out as T^H x_n.
    """
    result = solve_sternheimer(gs, real_rows(to_cos_sin(rhs), atol=tol), tol, **kwargs)
    result.solution = from_cos_sin(result.solution)
    return result


def real_functions(rng, shape):
    """Sphere coefficients of random real functions: T^H of random real rows."""
    return from_cos_sin(rng.standard_normal(shape))


def phi_occ(gs):
    """The occupied orbitals as sphere coefficients, (n_b, n_occ)."""
    return phi(gs)[:, :gs.n_occ]


def kept_rhs(gs, seed):
    """One random real right-hand side per occupied band in range(Q), as sphere coefficients."""
    raw = real_functions(np.random.default_rng(seed), (gs.n_occ, gs.grids.n_b))
    return project_out(phi(gs), raw.T).T


def dense_operator(gs, n, orbitals):
    """Dense A_n = Q (H - eps_n) Q, Q = I - Phi Phi^H, via matvec columns (independent path)."""
    nb = gs.grids.n_b
    q = np.eye(nb, dtype=complex) - orbitals @ orbitals.conj().T
    h = dense_from_matvec(gs.grids, gs.v_local)
    return q @ (h - gs.eps[n] * np.eye(nb)) @ q


def test_projector_annihilates_occupied(tiny_gs):
    gs = tiny_gs
    for k in range(gs.n_occ):
        out = project_out_occupied(gs.u_occ, gs.u[:, k])
        assert np.linalg.norm(out) < 1e-12


def test_projector_leaves_orthogonal_complement(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(gs.grids.n_b)
    q_psi = project_out_occupied(gs.u_occ, psi)
    again = project_out_occupied(gs.u_occ, q_psi)
    assert np.linalg.norm(again - q_psi) <= 1e-12 * np.linalg.norm(q_psi)


def test_projector_pythagoras(tiny_gs):
    gs = tiny_gs
    rng = np.random.default_rng(1)
    basis = gs.u_occ
    p_dense = basis @ basis.T
    for _ in range(5):
        psi = rng.standard_normal(gs.grids.n_b)
        q_psi = project_out_occupied(basis, psi)
        p_psi = p_dense @ psi
        lhs = np.linalg.norm(q_psi) ** 2 + np.linalg.norm(p_psi) ** 2
        assert lhs == pytest.approx(np.linalg.norm(psi) ** 2, rel=1e-12)


def test_zero_rhs_one_iteration(tiny_gs, h_applications):
    gs = tiny_gs
    result = solve_on_sphere(gs, np.zeros((gs.n_occ, gs.grids.n_b), dtype=complex), tol=1e-10)
    assert result.iterations_per_band == [1] * gs.n_occ
    assert h_applications() == result.cg_iterations == gs.n_occ
    assert np.linalg.norm(result.solution) == 0.0


def test_counter_matches_iterations(tiny_gs, h_applications):
    gs = tiny_gs
    result = solve_on_sphere(gs, kept_rhs(gs, 2), tol=1e-9)
    assert h_applications() == result.cg_iterations
    assert np.all(result.final_residual_norm <= 1e-9)


def test_solution_stays_in_unoccupied_range(tiny_gs):
    gs = tiny_gs
    result = solve_on_sphere(gs, kept_rhs(gs, 3), tol=1e-11)
    leak = np.linalg.norm(phi(gs).conj().T @ result.solution.T, axis=0)
    assert leak.max() <= 1e-10 * np.linalg.norm(result.solution)


def test_matches_dense_pseudoinverse(tiny_gs):
    # the program's solve on the complement of the kept bands, and the dense oracle CG
    # on that of the occupied bands alone: each error is at most tol / gap against
    # the pseudo-inverse of the dense A_n, gap the lowest eigenvalue left in range(Q)
    gs = tiny_gs
    assert gs.grids.n_b <= 100
    rng = np.random.default_rng(4)
    tol = 1e-10
    for complement in ("kept", "occupied"):
        orbitals = phi(gs) if complement == "kept" else phi_occ(gs)
        rhs = project_out(orbitals, real_functions(rng, (gs.n_occ, gs.grids.n_b)).T).T
        if complement == "kept":
            solution = solve_on_sphere(gs, rhs, tol=tol).solution
            lowest = full_spectrum(gs)[0][gs.n_kept]
        else:
            rows = real_rows(to_cos_sin(rhs), atol=tol)
            solution = from_cos_sin(dense_sternheimer(gs, range(gs.n_occ), rows, tol,
                                                      real_basis(orbitals))[0])
            lowest = gs.eps_gap_ref
        for n in range(gs.n_occ):
            x_ref = np.linalg.pinv(dense_operator(gs, n, orbitals), rcond=1e-8) @ rhs[n]
            err = np.linalg.norm(solution[n] - x_ref)
            assert err <= tol / (lowest - gs.eps[n]) * (1 + 1e-6)


def test_error_bounded_by_gap_scaled_residual(tiny_gs):
    gs = tiny_gs
    n = gs.n_occ - 1
    x_exact = np.linalg.pinv(dense_operator(gs, n, phi(gs)), rcond=1e-8)
    gap = full_spectrum(gs)[0][gs.n_kept] - gs.eps[n]
    for seed, tol in ((5, 1e-4), (6, 1e-6), (7, 1e-8)):
        rhs = kept_rhs(gs, seed)
        result = solve_on_sphere(gs, rhs, tol=tol)
        z = np.linalg.norm(result.solution[n] - x_exact @ rhs[n])
        bound = result.final_residual_norm[n] / gap
        assert z <= bound * (1 + 1e-6)


def test_max_iter_raises_with_residual(tiny_gs, h_applications):
    gs = tiny_gs
    with pytest.raises(NonConvergenceError) as err:
        solve_on_sphere(gs, kept_rhs(gs, 6), tol=1e-14, max_iter=2)
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.cost == h_applications() == 2 * gs.n_occ


def test_indefinite_operator_fails_fast(tiny_gs):
    # a state whose lowest kept band is swapped for the eigenvector just above the kept
    # set: band 0 is left in range(Q), so Q (H - eps_n) Q is indefinite for the top band
    gs = tiny_gs
    _, above = diagonalize_dense(gs.grids, gs.v_local, gs.n_kept + 1)
    u = gs.u.copy()
    u[:, 0] = above[:, gs.n_kept]
    swapped = dataclasses.replace(gs, u=u)
    rhs = np.zeros((gs.n_occ, gs.grids.n_b), dtype=complex)
    rhs[-1] = project_out(phi(swapped), real_functions(np.random.default_rng(7), gs.grids.n_b))
    # a solve still running at step 2 would raise NonConvergenceError instead
    with pytest.raises(InvariantViolationError, match=f"band {gs.n_occ - 1}: p\\^H A p"):
        solve_on_sphere(swapped, rhs, tol=1e-10, max_iter=2)


# -- block solves: every band keeps its own CG ------------------------------------


def test_block_solve_matches_one_row_solves(metal_gs):
    # a band's CG does not see the other rows: alone among zero rows it gives the same
    gs = metal_gs
    rhs = kept_rhs(gs, 8)
    tols = np.geomspace(1e-6, 1e-11, gs.n_occ)
    block = solve_on_sphere(gs, rhs, tols)
    assert isinstance(block.cg_iterations, int)
    assert block.cg_iterations == sum(block.iterations_per_band)
    for n in range(gs.n_occ):
        alone = np.zeros_like(rhs)
        alone[n] = rhs[n]
        one = solve_on_sphere(gs, alone, tols)
        assert block.iterations_per_band[n] == one.iterations_per_band[n]
        assert one.cg_iterations == one.iterations_per_band[n] + gs.n_occ - 1
        assert (np.linalg.norm(block.solution[n] - one.solution[n])
                <= 1e-12 * np.linalg.norm(one.solution[n]))
        assert block.final_residual_norm[n] <= tols[n]


def test_zero_rhs_row_costs_one_application(metal_gs, h_applications):
    gs = metal_gs
    rhs = kept_rhs(gs, 9)
    bands = range(gs.n_occ)
    full = solve_on_sphere(gs, rhs, 1e-9)
    rhs[1] = 0.0
    before = h_applications()
    zeroed = solve_on_sphere(gs, rhs, 1e-9)
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
    rhs = kept_rhs(gs, 10)
    tols = np.full(gs.n_occ, 1e-11)
    tols[::2] = 1e-4                        # these bands stop early
    result = solve_on_sphere(gs, rhs, tols)
    assert h_applications() == result.cg_iterations == sum(result.iterations_per_band)
    iters = np.array(result.iterations_per_band)
    assert iters[::2].max() < iters[1::2].min()
    assert result.cg_iterations < gs.n_occ * iters.max()


def test_stall_cost_counts_converged_and_stalled_bands(metal_gs, h_applications):
    gs = metal_gs
    rhs = kept_rhs(gs, 11)
    tols = np.full(gs.n_occ, 1e-14)
    tols[0] = 1e-4
    early = solve_on_sphere(gs, rhs, tols[0]).iterations_per_band[0]
    before = h_applications()
    with pytest.raises(NonConvergenceError) as err:
        solve_on_sphere(gs, rhs, tols, max_iter=early + 3)
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

    Preconditioned like `solve_sternheimer`, by diag(1/(|G|^2/2 + T_n))
    with T_n = sum_G |G|^2 |phi_{G,n}|^2 / 2 the band's kinetic energy,
    raised to the smallest nonzero |G|^2/2; H_Q = Q H Q is applied to the
    search direction, and the residual, the preconditioned residual and
    (once, at the end) the iterate are re-projected at the same points as
    there; returns (x, iterations).
    """
    h = dense_hamiltonian(gs.grids, gs.v_local)
    g2 = gs.grids.g2_sphere

    def q(y):
        return y - phi @ (phi.conj().T @ y)

    kinetic = max(0.5 * np.sum(g2 * np.abs(phi[:, n]) ** 2), 0.5 * np.min(g2[g2 > 0]))
    minv = 1.0 / (0.5 * g2 + kinetic)
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
    for seed, tol in ((22, 1e-6), (23, 1e-10), (24, 1e-13)):
        rhs = kept_rhs(gs, seed)
        block = solve_on_sphere(gs, rhs, tol)
        for n in range(gs.n_occ):
            x, iterations = textbook_cg(gs, n, rhs[n], tol, phi(gs))
            assert block.iterations_per_band[n] == iterations
            assert np.linalg.norm(block.solution[n] - x) <= 1e-12 * np.linalg.norm(x)


def test_real_basis_rejects_span_not_closed_under_conjugation(insulator_gs):
    # a degenerate pair mixed by a complex phase is still a pair of orthonormal
    # eigenvectors of H with the same span, but neither is a real function;
    # with one of them alone the span is not closed under conjugation either
    gs = insulator_gs
    assert gs.eps[2] == pytest.approx(gs.eps[3], abs=1e-9) == pytest.approx(0.48942, abs=1e-5)
    orbitals = phi(gs)
    a, b = orbitals[:, 2], orbitals[:, 3]
    phased = np.column_stack([orbitals[:, :2], (a + 1j * b) / np.sqrt(2),
                              (a - 1j * b) / np.sqrt(2), orbitals[:, 4:]])
    np.testing.assert_allclose(phased.conj().T @ phased, np.eye(gs.n_kept), rtol=0, atol=1e-12)
    np.testing.assert_allclose(phased[:, 2:4] @ phased[:, 2:4].conj().T,
                               orbitals[:, 2:4] @ orbitals[:, 2:4].conj().T, rtol=0, atol=1e-12)
    assert real_basis(orbitals).shape == (gs.grids.n_b, gs.n_kept)
    with pytest.raises(ValueError, match="row 2 is not a real function"):
        real_basis(phased)
    with pytest.raises(ValueError, match="not a real function"):
        real_basis(phased[:, :3])
    # an overall phase leaves the span and the density, not the real basis
    with pytest.raises(ValueError, match="row 0 is not a real function"):
        real_basis(np.exp(0.3j) * orbitals)


def test_complex_gauge_rhs_rejected(metal_gs):
    # i b for a real function b: in range(Q) and of the right shape, but T (i b)
    # is imaginary, and a solve of its real part alone would be wrong
    gs = metal_gs
    rhs = kept_rhs(gs, 25)
    solve_on_sphere(gs, rhs, 1e-8)
    rhs[1] *= np.exp(0.25j)
    with pytest.raises(ValueError, match="row 1 is not a real function"):
        solve_on_sphere(gs, rhs, 1e-8)
    with pytest.raises(ValueError, match="not a real function"):
        solve_on_sphere(gs, 1j * kept_rhs(gs, 26), 1e-8)


def test_complex_rhs_raises_before_any_hamiltonian_application(metal_gs, h_applications):
    # the solver takes real cos/sin rows only, even when the imaginary part is zero
    gs = metal_gs
    rows = real_rows(to_cos_sin(kept_rhs(gs, 25)), atol=1e-8)
    with pytest.raises(TypeError, match="real cos/sin rows"):
        solve_sternheimer(gs, rows.astype(complex), 1e-8)
    assert h_applications() == 0
    solve_sternheimer(gs, rows, 1e-8)
    assert h_applications() > 0


def test_rhs_of_real_orbitals_is_real_to_roundoff(metal_gs):
    # the right-hand sides apply_chi0 builds: -Q dv phi_n for a real dv
    from pwdyson.response import _occupied_matrix

    # is built from real rows T(dv phi_n); the complex transforms of the same
    # products give those rows with an imaginary part at round-off
    gs = metal_gs
    dv = np.random.default_rng(27).standard_normal(gs.grids.n_g)
    dvpsi, _ = _occupied_matrix(gs, dv)
    assert dvpsi.dtype == np.float64
    products = np.array([to_fourier(gs.grids, dv * to_real(gs.grids, orbital))
                         for orbital in phi_occ(gs).T])
    rows = to_cos_sin(-project_out(phi(gs), products.T).T)
    rel = np.linalg.norm(rows.imag, axis=1) / np.linalg.norm(rows, axis=1)
    assert rel.max() <= 1e-14
    program_rows = -project_out_occupied(gs.u, dvpsi.T).T
    assert np.linalg.norm(program_rows - rows.real) <= 1e-13 * np.linalg.norm(rows)


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
    eps, u = diagonalize_dense(grids, v, grids.n_b)        # each eigenvector in one sector
    gaps = eps[n_kept] - eps[:n_kept]
    assume(gaps.min() > 1e-3)
    gs = GroundState(model=model, grids=grids, u=u[:, :n_kept], eps=eps[:n_kept],
                     occ=np.zeros(n_kept), fermi_level=0.0, rho=np.zeros(grids.n_g),
                     n_occ=n_kept, v_local=v)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_kept, grids.n_b))
    rows -= (rows @ gs.u) @ gs.u.T
    tol = 10.0 ** log_tol * np.linalg.norm(rows, axis=1)
    result = solve_on_sphere(gs, from_cos_sin(rows), tol)
    perp = u[:, n_kept:]
    for n in range(n_kept):
        exact = perp @ ((perp.T @ rows[n]) / (eps[n_kept:] - eps[n]))
        err = np.linalg.norm(result.solution[n] - from_cos_sin(exact))
        assert err <= tol[n] / gaps[n] * (1 + 1e-6)
        assert result.final_residual_norm[n] <= tol[n]
