"""Tests for the mirror sectors: the adapted basis, the blocks of H_r, the blocked eigh and CG."""

import numpy as np
import pytest
import scipy.linalg

from pwdyson import InvariantViolationError, Lattice, build_grids
from pwdyson.config import reference_config
from pwdyson.groundstate import (
    MIRROR_RTOL,
    SECTOR_DEFECT_LIMIT,
    GaussianWell,
    ModelSpec,
    diagonalize_dense,
    external_potential,
    mirror_defect,
    real_hamiltonian,
    run_scf,
    sector_hamiltonian,
)
from pwdyson.harness import check_mirror_sectors
from pwdyson.pwbasis import SectorBasis
from pwdyson.response import _occupied_matrix
from pwdyson.sternheimer import hamiltonian, project_out_occupied, solve_sternheimer

from conftest import chain_model
from oracles import dense_sternheimer


MODELS = {
    "toy_metal": lambda: reference_config("toy_metal").model,
    "toy_insulator": lambda: reference_config("toy_insulator").model,
    "chain": chain_model,
}
SECTORS = {"toy_metal": [282, 106, 106, 31], "toy_insulator": 8, "chain": 4}


def model_potential(name):
    model = MODELS[name]()
    grids = build_grids(model.lattice, model.e_cut)
    return grids, external_potential(model, grids)


@pytest.fixture(scope="module")
def mirror_gs():
    """Tiny metal with wells at y = z = 0.5 of different depths: mirrors in y and z, not x."""
    model = ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=4,
        temperature=5e-3, smearing="fermi_dirac",
        gaussians=(
            GaussianWell(center=(0.3, 0.5, 0.5), amplitude=-3.0, width=0.8),
            GaussianWell(center=(0.7, 0.5, 0.5), amplitude=-2.0, width=0.7),
        ),
    )
    return run_scf(model, tol=1e-11, max_iter=400, damping=0.3)


@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator"])
def test_adapted_basis_is_orthogonal_with_equal_entries_on_each_orbit(name):
    grids, v = model_potential(name)
    basis = grids.sector_basis(v, MIRROR_RTOL)
    assert basis.mirror_axes == {"toy_metal": (1, 2), "toy_insulator": (0, 1, 2)}[name]
    s = basis.to_sectors(np.eye(grids.n_b))             # rows of I times S: S itself
    np.testing.assert_allclose(s.T @ s, np.eye(grids.n_b), rtol=0, atol=1e-14)
    np.testing.assert_allclose(s @ s.T, np.eye(grids.n_b), rtol=0, atol=1e-14)
    np.testing.assert_allclose(basis.from_sectors(np.eye(grids.n_b)), s.T, rtol=0, atol=1e-15)
    for column in s.T:
        entries = np.abs(column[column != 0])
        assert 1 <= len(entries) <= 8
        np.testing.assert_allclose(entries, 1 / np.sqrt(len(entries)), rtol=1e-14)
    # |G| is the same on each orbit, so the kinetic energy is diagonal in S
    g2 = grids.g2_sphere
    np.testing.assert_allclose(s.T @ (g2[:, None] * s), np.diag(g2[basis.orbit_index]),
                               rtol=0, atol=1e-12 * g2.max())


@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator", "chain"])
def test_blocked_product_equals_the_dense_one(name):
    grids, v = model_potential(name)
    ham = sector_hamiltonian(grids, v)
    sizes = [len(block) for block in ham.blocks]
    expected = SECTORS[name]
    assert sizes == expected if isinstance(expected, list) else len(sizes) == expected
    assert sum(sizes) == grids.n_b and ham.defect <= SECTOR_DEFECT_LIMIT
    h_r = real_hamiltonian(grids, v)
    p = np.random.default_rng(30).standard_normal((5, grids.n_b))
    blocked = ham.basis.from_sectors(ham.apply(ham.basis.to_sectors(p)))
    dense = p @ h_r
    assert np.abs(blocked - dense).max() <= 1e-13 * np.abs(dense).max()


def dense_sector_product(basis, h_r):
    """S^T H_r S with S from `to_sectors(I)`, and the largest |entry| outside its blocks."""
    s = basis.to_sectors(np.eye(len(h_r)))
    dense = s.T @ h_r @ s
    off = dense.copy()
    for sector in basis.sectors:
        off[sector, sector] = 0.0
    return dense, float(np.abs(off).max(initial=0.0))


@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator", "chain"])
def test_representative_row_blocks_equal_the_dense_product(name):
    grids, v = model_potential(name)
    ham = sector_hamiltonian(grids, v)
    assert len(ham.blocks) == {"toy_metal": 4, "toy_insulator": 8, "chain": 4}[name]
    h_r = real_hamiltonian(grids, v)
    dense, _ = dense_sector_product(ham.basis, h_r)
    for sector, block in zip(ham.basis.sectors, ham.blocks):
        assert np.abs(block - dense[sector, sector]).max() <= 1e-14 * np.abs(h_r).max()


def mirror_breaking(grids, v, kind, size):
    """v plus a perturbation of size * max |v| that no mirror of v leaves unchanged.

    "odd": a sine along each mirror axis of v, odd under that mirror;
    "white": uniform noise in [-size, size] max |v|.
    """
    if kind == "white":
        noise = np.random.default_rng(33).uniform(-1.0, 1.0, grids.n_g)
    else:
        cube = np.zeros(grids.cube_dims[::-1])
        for axis in grids.sector_basis(v, MIRROR_RTOL).mirror_axes:
            n = grids.cube_dims[axis]
            shape = [1, 1, 1]
            shape[2 - axis] = n
            cube = cube + np.sin(2 * np.pi * np.arange(n) / n).reshape(shape)
        noise = cube.ravel() / np.abs(cube).max()
    return v + size * np.abs(v).max() * noise


@pytest.mark.parametrize("kind", ["odd", "white"])
@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator", "chain"])
def test_defect_bounds_the_entries_the_blocks_drop(name, kind):
    # the noise stays below MIRROR_RTOL, so the mirrors are still taken as symmetries
    grids, v = model_potential(name)
    noisy = mirror_breaking(grids, v, kind, 4e-14)
    ham = sector_hamiltonian(grids, noisy)
    assert ham.basis.mirror_axes == grids.sector_basis(v, MIRROR_RTOL).mirror_axes != ()
    h_r = real_hamiltonian(grids, noisy)
    _, off = dense_sector_product(ham.basis, h_r)
    scale = np.abs(h_r).max()
    if kind == "odd":
        assert off >= 1e-15 * scale      # well above the dense product's round-off
    assert 2.0 * off / scale <= ham.defect <= SECTOR_DEFECT_LIMIT


@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator", "chain"])
def test_blocked_eigh_matches_the_full_eigh(name):
    grids, v = model_potential(name)
    n_states = 20
    eps, u = diagonalize_dense(grids, v, n_states)
    h_r = real_hamiltonian(grids, v)
    full = scipy.linalg.eigh(h_r, eigvals_only=True, subset_by_index=[0, n_states - 1])
    np.testing.assert_allclose(eps, full, rtol=0, atol=1e-12)
    assert np.all(np.diff(eps) >= 0)
    np.testing.assert_allclose(u.T @ u, np.eye(n_states), rtol=0, atol=1e-13)
    assert np.abs(h_r @ u - u * eps).max() <= 1e-11
    # every orbital lies in one sector
    rows = grids.sector_basis(v, MIRROR_RTOL).to_sectors(u.T)
    sectors = sector_hamiltonian(grids, v).basis.sectors
    weights = np.array([np.linalg.norm(rows[:, s], axis=1) for s in sectors])
    assert np.allclose(np.sort(weights, axis=0)[:-1], 0, atol=1e-12)


def test_asymmetric_state_has_one_sector_and_runs_the_dense_cg_bit_for_bit(metal_gs):
    grids = metal_gs.grids
    ham = sector_hamiltonian(grids, metal_gs.v_local)
    assert ham.basis.mirror_axes == () and ham.basis.sectors == (slice(0, grids.n_b),)
    np.testing.assert_array_equal(ham.blocks[0], real_hamiltonian(grids, metal_gs.v_local))
    assert ham.defect == 0.0
    eps, u = diagonalize_dense(grids, metal_gs.v_local, metal_gs.n_kept)
    expected_eps, expected_u = np.linalg.eigh(real_hamiltonian(grids, metal_gs.v_local))
    np.testing.assert_array_equal(eps, expected_eps[:metal_gs.n_kept])
    np.testing.assert_array_equal(u, expected_u[:, :metal_gs.n_kept])

    dvpsi, _ = _occupied_matrix(metal_gs, np.random.default_rng(31).standard_normal(grids.n_g))
    basis = metal_gs.u
    rhs = -project_out_occupied(basis, dvpsi.T).T
    bands = np.arange(metal_gs.n_occ)
    for tol in (1e-6, 1e-11):
        result = solve_sternheimer(metal_gs, bands, rhs, tol, basis)
        solution, residual, iterations = dense_sternheimer(metal_gs, bands, rhs, tol, basis)
        np.testing.assert_array_equal(result.solution, solution)
        np.testing.assert_array_equal(result.final_residual_norm, residual)
        assert result.iterations_per_band == iterations


def test_per_band_cg_counts_equal_the_dense_oracle_on_a_mirror_symmetric_state(mirror_gs):
    gs = mirror_gs
    basis, ham = gs.u, hamiltonian(gs)
    assert ham.basis.mirror_axes == (1, 2) and len(ham.blocks) == 4
    # a random perturbation, and one symmetric in y and z like a well displaced along x
    for perturbation in (np.random.default_rng(32).standard_normal(gs.grids.n_g),
                         external_potential(gs.model, gs.grids)):
        dvpsi, _ = _occupied_matrix(gs, perturbation)
        rhs = -project_out_occupied(basis, dvpsi.T).T
        bands = np.arange(gs.n_occ)
        for tol in (1e-6, 1e-11):
            result = solve_sternheimer(gs, bands, rhs, tol, basis)
            solution, _, iterations = dense_sternheimer(gs, bands, rhs, tol, basis)
            assert result.iterations_per_band == iterations
            assert np.abs(result.solution - solution).max() <= 1e-9 * np.abs(solution).max()
    gs.drop_derived()


def test_potential_asymmetric_at_1e_8_finds_no_mirror():
    grids, v = model_potential("toy_metal")
    assert grids.sector_basis(v, MIRROR_RTOL).mirror_axes == (1, 2)
    nudged = v.copy()
    nudged.reshape(grids.cube_dims[::-1])[1, 2, 3] += 1e-8 * np.abs(v).max()   # off every plane
    assert grids.sector_basis(nudged, MIRROR_RTOL).mirror_axes == ()
    ham = sector_hamiltonian(grids, nudged)
    assert len(ham.blocks) == 1 and ham.defect == 0.0


def test_a_mirror_that_does_not_commute_with_h_raises(monkeypatch):
    grids, v = model_potential("toy_metal")
    # toy_metal's wells are not symmetric in x: blocks under the x mirror drop large entries
    x_mirror = [m for m in grids.mirrors if m.axis == 0]
    monkeypatch.setattr(grids, "sector_basis",
                        lambda values, rtol: SectorBasis(grids.n_b, x_mirror))
    with pytest.raises(InvariantViolationError, match="do not commute"):
        sector_hamiltonian(grids, v)


def test_mirror_sectors_check_reports_sizes_and_defect(mirror_gs, metal_gs):
    check = check_mirror_sectors(mirror_gs)
    assert check["passed"] and check["margin"] >= 1.0
    assert check["details"]["mirror_axes"] == [1, 2]
    assert len(check["details"]["sector_sizes"]) == 4
    assert sum(check["details"]["sector_sizes"]) == mirror_gs.grids.n_b
    assert 0 <= check["details"]["defect"] <= SECTOR_DEFECT_LIMIT
    # the value reported is the guard's bound from vhat
    grids, v = mirror_gs.grids, mirror_gs.v_local
    mirrors = grids.sector_basis(v, MIRROR_RTOL).mirrors
    bound = mirror_defect(grids, grids.cube_fft(v) / grids.n_g, mirrors)
    assert check["details"]["defect"] == bound / np.abs(real_hamiltonian(grids, v)).max()
    asymmetric = check_mirror_sectors(metal_gs)
    assert asymmetric["passed"] and asymmetric["details"]["sector_sizes"] == [metal_gs.grids.n_b]
    mirror_gs.drop_derived()
    metal_gs.drop_derived()
