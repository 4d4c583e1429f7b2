"""Tests for chi0, the dielectric adjoint and the computable error bound."""

import dataclasses

import numpy as np
import pytest

from pwdyson import InvariantViolationError, Lattice
from pwdyson.groundstate import GaussianWell, ModelSpec, diagonalize_dense, run_scf
from pwdyson.kernels import KernelSpec, apply_kernel
from pwdyson.response import (
    _cached_row_norm,
    _extra_band_response,
    _first_order_occupations,
    _occupied_matrix,
    _occupied_orbital_response,
    apply_chi0,
    apply_dielectric,
    dielectric_error_bound,
)
from pwdyson.sternheimer import kinetic_energies, project_out_occupied, solve_sternheimer

from conftest import dense_chi0_oracle
from oracles import dense_sternheimer, from_cos_sin, phi, to_fourier, to_real

TIGHT = 1e-13


def tight_tols(gs, value=TIGHT):
    return np.full(gs.n_occ, value)


def delta_eigen_occupations(gs, dv):
    """First-order (delta_eps, delta_eps_F, delta_f) as `apply_chi0` computes them."""
    return _first_order_occupations(gs, _occupied_matrix(gs, dv)[1])


def delta_phi_occupied(gs, dv):
    """`apply_chi0`'s occupied-subspace orbital response, one sphere column per band."""
    return from_cos_sin(_occupied_orbital_response(gs, _occupied_matrix(gs, dv)[1]).T).T


# -- first-order eigenvalues and occupations -------------------------------------


def test_constant_shift_metal(metal_gs):
    gs = metal_gs
    c = 0.83
    de, def_, df = delta_eigen_occupations(gs, np.full(gs.grids.n_g, c))
    np.testing.assert_allclose(de, c, rtol=1e-10)
    assert def_ == pytest.approx(c, rel=1e-10)
    np.testing.assert_allclose(df, 0.0, atol=1e-12)


def test_insulator_branch(insulator_gs):
    gs = insulator_gs
    rng = np.random.default_rng(0)
    dv = rng.standard_normal(gs.grids.n_g)
    de, def_, df = delta_eigen_occupations(gs, dv)
    assert def_ == 0.0
    np.testing.assert_allclose(df, 0.0, atol=1e-12)


def test_charge_conservation(metal_gs):
    rng = np.random.default_rng(1)
    dv = rng.standard_normal(metal_gs.grids.n_g)
    _, _, df = delta_eigen_occupations(metal_gs, dv)
    assert abs(df.sum()) <= 1e-12 * max(np.abs(df).max(), 1e-300)


def test_eigenvalue_shift_finite_difference(metal_gs):
    gs = metal_gs
    rng = np.random.default_rng(2)
    dv = rng.standard_normal(gs.grids.n_g)
    de, _, _ = delta_eigen_occupations(gs, dv)
    h = 1e-5
    plus, _ = diagonalize_dense(gs.grids, gs.v_local + h * dv, gs.n_occ)
    minus, _ = diagonalize_dense(gs.grids, gs.v_local - h * dv, gs.n_occ)
    fd = (plus - minus) / (2 * h)
    np.testing.assert_allclose(de, fd, atol=5e-7)


def test_complex_perturbation_is_refused(metal_gs, h_applications):
    # a complex dv has complex <phi_n, dv phi_n>: both the helper and the
    # production chi0 path must refuse it rather than drop the imaginary part,
    # even one whose imaginary part is zero
    gs = metal_gs
    rng = np.random.default_rng(4)
    dv = rng.standard_normal(gs.grids.n_g) + 1j * rng.standard_normal(gs.grids.n_g)
    with pytest.raises(TypeError, match="real grid values"):
        delta_eigen_occupations(gs, dv)
    for complex_dv in (dv, dv.real.astype(complex)):
        with pytest.raises(TypeError, match="real grid values"):
            apply_chi0(gs, complex_dv, tight_tols(gs))
    assert h_applications() == 0


def test_occupied_orbitals_in_real_space_are_kept_read_only(metal_gs):
    gs = metal_gs
    psi_r = gs.psi_occ_real
    assert psi_r is gs.psi_occ_real
    assert psi_r.dtype == np.float64 and psi_r.shape == (gs.n_occ, gs.grids.n_g)
    np.testing.assert_array_equal(psi_r, gs.grids.to_real_many(gs.u_occ.T))
    for n in (0, gs.n_occ - 1):
        psi_n = to_real(gs.grids, phi(gs)[:, n])
        assert np.linalg.norm(psi_r[n] - psi_n) <= 1e-13 * np.linalg.norm(psi_n)
    with pytest.raises(ValueError):
        psi_r[0, 0] = 0.0


# -- occupied-subspace orbital response ----------------------------------------


def test_constant_perturbation_gives_zero_occupied_response(metal_gs):
    gs = metal_gs
    out = delta_phi_occupied(gs, np.full(gs.grids.n_g, 1.7))
    assert np.linalg.norm(out) <= 1e-10


def test_two_band_hand_assembly(metal_gs):
    # independent elementwise assembly of the pair-weighted sum over states
    gs = metal_gs
    rng = np.random.default_rng(3)
    dv = rng.standard_normal(gs.grids.n_g)
    out = delta_phi_occupied(gs, dv)

    grids = gs.grids
    f, eps, fprime = gs.occ_occ, gs.eps_occ, gs.fprime_occ()
    orbitals = phi(gs)
    expected = np.zeros_like(out)
    for n in range(gs.n_occ):
        psi_n = to_real(grids, orbitals[:, n])
        dvpsi = to_fourier(grids, dv * psi_n)
        for m in range(gs.n_occ):
            if m == n:
                continue
            de = eps[n] - eps[m]
            if abs(de) <= 1e-8 * max(1.0, abs(eps[n])):
                ratio = fprime[n]
            else:
                ratio = (f[n] - f[m]) / de
            weight = ratio * f[n] / (f[n] ** 2 + f[m] ** 2)
            expected[:, n] += weight * np.vdot(orbitals[:, m], dvpsi) * orbitals[:, m]
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_pair_weights_reconstruct_divided_difference(metal_gs):
    from pwdyson.response import _occupied_pair_weights

    gs = metal_gs
    w = _occupied_pair_weights(gs)
    f, eps, fprime = gs.occ_occ, gs.eps_occ, gs.fprime_occ()
    for n in range(gs.n_occ):
        for m in range(gs.n_occ):
            if m == n:
                assert w[m, n] == 0.0
                continue
            de = eps[n] - eps[m]
            dd = fprime[n] if abs(de) <= 1e-8 * max(1.0, abs(eps[n])) else (f[n] - f[m]) / de
            assert f[n] * w[m, n] + f[m] * w[n, m] == pytest.approx(dd, rel=1e-12, abs=1e-300)


# -- apply_chi0 ------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["metal_gs", "insulator_gs"])
def test_chi0_annihilates_constants(fixture, request):
    gs = request.getfixturevalue(fixture)
    c = 2.4
    out, _ = apply_chi0(gs, np.full(gs.grids.n_g, c), tight_tols(gs))
    assert np.linalg.norm(out) <= 1e-10 * c * gs.model.n_electrons


def test_chi0_matches_dense_oracle(metal_gs):
    gs = metal_gs
    rng = np.random.default_rng(4)
    chi = dense_chi0_oracle(gs)
    for _ in range(3):
        dv = rng.standard_normal(gs.grids.n_g)
        out, _ = apply_chi0(gs, dv, tight_tols(gs))
        ref = chi @ dv
        np.testing.assert_allclose(out, ref, atol=1e-7 * np.linalg.norm(ref))


def test_chi0_matches_dense_oracle_insulator(insulator_gs):
    gs = insulator_gs
    rng = np.random.default_rng(5)
    chi = dense_chi0_oracle(gs)
    dv = rng.standard_normal(gs.grids.n_g)
    out, _ = apply_chi0(gs, dv, tight_tols(gs))
    np.testing.assert_allclose(out, chi @ dv, atol=1e-7 * np.linalg.norm(chi @ dv))


def test_dense_chi0_symmetric_negative_semidefinite(metal_gs):
    chi = dense_chi0_oracle(metal_gs)
    np.testing.assert_allclose(chi, chi.T, atol=1e-8)
    eig = np.linalg.eigvalsh(0.5 * (chi + chi.T))
    assert eig.max() <= 1e-8


def test_chi0_sign(metal_gs):
    gs = metal_gs
    rng = np.random.default_rng(6)
    for _ in range(5):
        dv = rng.standard_normal(gs.grids.n_g)
        out, _ = apply_chi0(gs, dv, tight_tols(gs))
        assert np.dot(dv, out) <= 1e-10


def test_chi0_output_neutral_and_real(metal_gs):
    gs = metal_gs
    rng = np.random.default_rng(7)
    dv = rng.standard_normal(gs.grids.n_g)
    out, _ = apply_chi0(gs, dv, tight_tols(gs))
    assert out.dtype.kind == "f"
    assert abs(out.sum()) <= 1e-8 * np.linalg.norm(out) * np.sqrt(gs.grids.n_g)


def test_chi0_ham_accounting(metal_gs, h_applications):
    gs = metal_gs
    rng = np.random.default_rng(8)
    dv = rng.standard_normal(gs.grids.n_g)
    _, solve = apply_chi0(gs, dv, tight_tols(gs, 1e-8))
    assert solve.cg_iterations == sum(solve.iterations_per_band)
    assert h_applications() == solve.cg_iterations


def test_chi0_tolerance_validation(metal_gs):
    gs = metal_gs
    dv = np.zeros(gs.grids.n_g)
    with pytest.raises(ValueError):
        apply_chi0(gs, dv, np.full(gs.n_occ + 1, 1e-8))
    with pytest.raises(ValueError):
        apply_chi0(gs, dv, np.zeros(gs.n_occ))


# -- Schur-complement split: extra bands by sum over states, CG on range(Q_kept) --


@pytest.fixture(scope="module")
def wide_gs():
    """Three-well metal with n_b = 179, n_occ = 4 and 3 extra bands."""
    model = ModelSpec(
        lattice=Lattice.orthorhombic(9.0, 3.0, 3.0), e_cut=12.0, n_electrons=6,
        temperature=2e-2, smearing="fermi_dirac",
        gaussians=(
            GaussianWell(center=(0.2, 0.5, 0.5), amplitude=-3.0, width=0.7),
            GaussianWell(center=(0.55, 0.5, 0.5), amplitude=-2.5, width=0.6),
            GaussianWell(center=(0.8, 0.4, 0.5), amplitude=-2.0, width=0.7),
        ),
    )
    return run_scf(model, tol=1e-11, max_iter=600, damping=0.3)


@pytest.mark.parametrize("fixture", ["tiny_oracle_gs", "metal_gs", "insulator_gs"])
def test_split_chi0_matches_dense_oracle_tightly(fixture, request):
    gs = request.getfixturevalue(fixture)
    assert gs.n_kept > gs.n_occ
    chi = dense_chi0_oracle(gs)
    rng = np.random.default_rng(15)
    for _ in range(2):
        dv = rng.standard_normal(gs.grids.n_g)
        out, _ = apply_chi0(gs, dv, tight_tols(gs, 1e-14))
        ref = chi @ dv
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_chi0_of_free_electrons_preconditions_the_zero_kinetic_energy_band():
    # no wells: the occupied band is the constant, T_0 = 0, and its
    # preconditioner diag(1/(|G|^2/2 + T_0)) would divide by zero at G = 0
    model = ModelSpec(lattice=Lattice.cubic(3.4), e_cut=3.8, n_electrons=2,
                      temperature=5e-3, smearing="fermi_dirac", gaussians=())
    gs = run_scf(model, tol=1e-11, max_iter=600, damping=0.3)
    g2 = gs.grids.g2_sphere
    assert gs.n_occ == 1 and 0.5 * (g2 @ gs.u[:, 0] ** 2) <= 1e-14
    shift = kinetic_energies(gs)
    assert shift[0] == 0.5 * np.min(g2[g2 > 0]) > 0
    np.testing.assert_allclose(shift[1:], 0.5 * (g2 @ gs.u[:, 1:] ** 2), rtol=1e-14)
    dv = np.random.default_rng(29).standard_normal(gs.grids.n_g)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        out, solve = apply_chi0(gs, dv, tight_tols(gs))
    assert solve.final_residual_norm[0] <= TIGHT
    expected = dense_chi0_oracle(gs) @ dv
    assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("fixture", ["wide_gs", "metal_gs"])
def test_split_band_response_equals_occupied_complement_solve(fixture, request):
    # extra-band sum over states + solve on range(Q_kept) == solve on range(Q_occ),
    # all in the cos/sin basis, where the kept orbitals are the real columns of u
    gs = request.getfixturevalue(fixture)
    rng = np.random.default_rng(16)
    dvpsi, _ = _occupied_matrix(gs, rng.standard_normal(gs.grids.n_g))
    extra = _extra_band_response(gs, dvpsi)
    # the program solves on range(Q_kept) only; the dense oracle CG solves on range(Q_occ)
    bands = np.arange(gs.n_occ)
    whole, _, _ = dense_sternheimer(gs, bands, -project_out_occupied(gs.u_occ, dvpsi.T).T,
                                    1e-14, gs.u_occ)
    rest = solve_sternheimer(gs, -project_out_occupied(gs.u, dvpsi.T).T, 1e-14).solution
    for n in bands:
        assert np.linalg.norm(extra[:, n] + rest[n] - whole[n]) <= 1e-10 * np.linalg.norm(whole[n])


def test_kept_complement_solution_has_no_kept_component(wide_gs):
    gs = wide_gs
    rng = np.random.default_rng(17)
    rhs = project_out_occupied(gs.u, rng.standard_normal(gs.grids.n_b))
    result = solve_sternheimer(gs, np.tile(rhs, (gs.n_occ, 1)), 1e-11)
    for n in range(gs.n_occ):
        leak = np.abs(phi(gs).conj().T @ from_cos_sin(result.solution[n]))
        assert leak.max() <= 1e-10 * np.linalg.norm(result.solution[n])


def test_extra_band_guard_rejects_mixed_bands(metal_gs, h_applications):
    # rotate the highest occupied band into the lowest extra one: still
    # orthonormal real orbitals, but the extra band is no longer an eigenvector of H
    gs = metal_gs
    u = gs.u.copy()
    a, b = gs.u[:, gs.n_occ - 1], gs.u[:, gs.n_occ]
    u[:, gs.n_occ - 1] = (a + b) / np.sqrt(2)
    u[:, gs.n_occ] = (b - a) / np.sqrt(2)
    mixed = dataclasses.replace(gs, u=u)
    dv = np.random.default_rng(18).standard_normal(gs.grids.n_g)
    with pytest.raises(InvariantViolationError, match="extra bands"):
        apply_chi0(mixed, dv, tight_tols(gs, 1e-8))
    assert h_applications() == 0 and "hamiltonian" not in mixed._derived
    _, solve = apply_chi0(gs, dv, tight_tols(gs, 1e-8))
    assert h_applications() == solve.cg_iterations > 0


# -- apply_dielectric -------------------------------------------------------------


def test_dielectric_identity_on_kernel_null_space(metal_gs):
    gs = metal_gs
    kernel = KernelSpec(xc="none")
    v = np.full(gs.grids.n_g, 3.3)          # constant: Hartree kernel kills it
    app = apply_dielectric(gs, kernel, v, tight_tols(gs))
    np.testing.assert_array_equal(app.output, v)
    assert app.kv_norm == 0.0
    assert app.ham_applications == 0


def test_dielectric_matches_dense_assembly(metal_gs):
    gs = metal_gs
    kernel = KernelSpec(xc="none")
    grids = gs.grids
    chi = dense_chi0_oracle(gs)
    k_dense = np.zeros((grids.n_g, grids.n_g))
    for j in range(grids.n_g):
        e = np.zeros(grids.n_g)
        e[j] = 1.0
        k_dense[:, j] = apply_kernel(kernel, grids, gs.rho, e)
    e_dense = np.eye(grids.n_g) - chi @ k_dense

    rng = np.random.default_rng(10)
    v = rng.standard_normal(grids.n_g)
    app = apply_dielectric(gs, kernel, v, tight_tols(gs))
    ref = e_dense @ v
    np.testing.assert_allclose(app.output, ref, atol=1e-7 * np.linalg.norm(ref))


def test_dielectric_callable_tolerances(metal_gs):
    gs = metal_gs
    kernel = KernelSpec(xc="none")
    rng = np.random.default_rng(11)
    v = rng.standard_normal(gs.grids.n_g)
    seen = {}

    def choose(kv_norm):
        seen["kv"] = kv_norm
        return tight_tols(gs, 1e-8)

    app = apply_dielectric(gs, kernel, v, choose)
    assert seen["kv"] == app.kv_norm > 0


# -- error bound -------------------------------------------------------------------


def test_bound_zero_tolerances(metal_gs):
    assert dielectric_error_bound(metal_gs, 1.0, np.zeros(metal_gs.n_occ)) == 0.0


def test_bound_linear_in_tolerances(metal_gs):
    gs = metal_gs
    rng = np.random.default_rng(12)
    tols = 10.0 ** rng.uniform(-10, -6, gs.n_occ)
    b1 = dielectric_error_bound(gs, 2.0, tols)
    b2 = dielectric_error_bound(gs, 2.0, 2 * tols)
    assert b2 == pytest.approx(2 * b1, rel=1e-12)


def test_bound_dominates_measured_error(metal_gs):
    gs = metal_gs
    kernel = KernelSpec(xc="none")
    rng = np.random.default_rng(13)
    for trial in range(20):
        v = rng.standard_normal(gs.grids.n_g)
        tols = 10.0 ** rng.uniform(-8, -4, gs.n_occ)
        approx = apply_dielectric(gs, kernel, v, tols)
        exact = apply_dielectric(gs, kernel, v, tight_tols(gs))
        measured = np.linalg.norm(approx.output - exact.output)
        bound = dielectric_error_bound(gs, approx.kv_norm, tols)
        assert measured <= bound, f"trial {trial}: {measured} > {bound}"


# -- orbital row norm ----------------------------------------------------------------


def test_row_norm_constant_orbital(metal_gs):
    grids = metal_gs.grids
    izero = int(np.flatnonzero((grids.g_int == 0).all(axis=1))[0])
    u = np.zeros((grids.n_b, 1))
    u[izero, 0] = 1.0
    val = _cached_row_norm(dataclasses.replace(metal_gs, u=u, n_occ=1))
    assert val == pytest.approx(np.sqrt(1.0 / grids.lattice.volume), rel=1e-12)


def test_row_norm_bounds_random_orthonormal(metal_gs):
    grids = metal_gs.grids
    rng = np.random.default_rng(14)
    k = 4
    q, _ = np.linalg.qr(rng.standard_normal((grids.n_b, k)))
    val = _cached_row_norm(dataclasses.replace(metal_gs, u=q, n_occ=k))
    vol = grids.lattice.volume
    assert np.sqrt(k / vol) - 1e-12 <= val <= np.sqrt(grids.n_g / vol) + 1e-12


def test_row_norm_matches_direct_evaluation(metal_gs):
    gs = metal_gs
    grids = gs.grids
    psi = np.array([to_real(grids, orbital) for orbital in phi(gs)[:, :gs.n_occ].T])
    direct = np.sqrt(np.max(np.sum(np.abs(psi.T) ** 2, axis=1)))
    assert _cached_row_norm(gs) == pytest.approx(direct, rel=1e-14)
    # the orbitals are real functions: their real parts carry the whole norm
    real_part = np.sqrt(np.max(np.sum(psi.real.T ** 2, axis=1)))
    assert _cached_row_norm(gs) == pytest.approx(real_part, rel=1e-14)
