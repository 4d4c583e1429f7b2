"""Tests for the sectors: the chosen operations, the adapted basis, the blocks of H_r, the blocked eigh and CG."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from pwdyson import InvariantViolationError, Lattice, build_grids
from pwdyson.config import reference_config
from pwdyson.groundstate import (
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
from pwdyson import groundstate
from pwdyson.harness import check_mirror_sectors
from pwdyson.pwbasis import SectorBasis
from pwdyson.response import _occupied_matrix
from pwdyson.sternheimer import (
    hamiltonian,
    project_out_occupied,
    sector_constants,
    solve_sternheimer,
)

from conftest import chain_model
from oracles import dense_sternheimer


MODELS = {
    "toy_metal": lambda: reference_config("toy_metal").model,
    "toy_insulator": lambda: reference_config("toy_insulator").model,
    "chain": chain_model,
}
# the operations that generate the chosen sectors, and the sector sizes; with the
# coordinate mirrors alone they would be (y, z) [282, 106, 106, 31] (84,741 block
# entries against 102,957) on toy_metal, (x, y, z) [39, 31, 23, 18, 23, 18, 13, 10]
# on toy_insulator and (y, z) [66, 24, 24, 7] on the chain
OPERATIONS = {"toy_metal": ("y<->z", "-y-z"), "toy_insulator": ("-x", "y<->z", "-y-z"),
              "chain": ("y<->z", "-y-z")}
SECTORS = {"toy_metal": [238, 75, 106, 106], "toy_insulator": [34, 27, 18, 14, 23, 18, 23, 18],
           "chain": [56, 17, 24, 24]}


def model_potential(name):
    model = MODELS[name]()
    grids = build_grids(model.lattice, model.e_cut)
    return grids, external_potential(model, grids)


def basis_of(grids, v):
    """The adapted basis the program picks for the potential v."""
    return sector_hamiltonian(grids, v).basis


@pytest.fixture(scope="module")
def mirror_gs():
    """Tiny metal with wells at y = z = 0.5 of different depths: symmetric in y, z and y <-> z, not x."""
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
    basis = basis_of(grids, v)
    assert basis.labels == OPERATIONS[name]
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
    assert sizes == SECTORS[name]
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
    assert len(ham.blocks) == len(SECTORS[name])
    h_r = real_hamiltonian(grids, v)
    dense, _ = dense_sector_product(ham.basis, h_r)
    for sector, block in zip(ham.basis.sectors, ham.blocks):
        assert np.abs(block - dense[sector, sector]).max() <= 1e-14 * np.abs(h_r).max()


def mirror_breaking(grids, v, kind, size):
    """v plus a perturbation of size * max |v| that no operation of v's basis leaves unchanged.

    "odd": f - f o M summed over the basis's generators M, for the smooth
    f = sum_a w_a sin(2 pi n_a / N_a) with unequal weights, so each term
    is odd under its M; "white": uniform noise in [-size, size] max |v|.
    """
    if kind == "white":
        noise = np.random.default_rng(33).uniform(-1.0, 1.0, grids.n_g)
    else:
        nx, ny, nz = grids.cube_dims
        iz, iy, ix = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
        f = (0.3 * np.sin(2 * np.pi * ix / nx) + np.sin(2 * np.pi * iy / ny)
             + 0.6 * np.sin(2 * np.pi * iz / nz)).ravel()
        noise = sum(f - f[m.cube] for m in basis_of(grids, v).mirrors)
        noise = noise / np.abs(noise).max()
    return v + size * np.abs(v).max() * noise


@pytest.mark.parametrize("kind", ["odd", "white"])
@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator", "chain"])
def test_defect_bounds_the_entries_the_blocks_drop(name, kind):
    # the noise stays below MIRROR_RTOL, so the operations are still taken as symmetries
    grids, v = model_potential(name)
    noisy = mirror_breaking(grids, v, kind, 4e-14)
    ham = sector_hamiltonian(grids, noisy)
    assert ham.basis.labels == OPERATIONS[name]
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
    rows = basis_of(grids, v).to_sectors(u.T)
    sectors = basis_of(grids, v).sectors
    weights = np.array([np.linalg.norm(rows[:, s], axis=1) for s in sectors])
    assert np.allclose(np.sort(weights, axis=0)[:-1], 0, atol=1e-12)


def test_asymmetric_state_has_one_sector_and_runs_the_dense_cg_bit_for_bit(metal_gs):
    grids = metal_gs.grids
    ham = sector_hamiltonian(grids, metal_gs.v_local)
    assert ham.basis.labels == () and ham.basis.sectors == (slice(0, grids.n_b),)
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
        result = solve_sternheimer(metal_gs, rhs, tol)
        solution, residual, iterations = dense_sternheimer(metal_gs, bands, rhs, tol, basis)
        np.testing.assert_array_equal(result.solution, solution)
        np.testing.assert_array_equal(result.final_residual_norm, residual)
        assert result.iterations_per_band == iterations


def test_per_band_cg_counts_equal_the_dense_oracle_on_a_mirror_symmetric_state(mirror_gs):
    gs = mirror_gs
    basis, ham = gs.u, hamiltonian(gs)
    assert ham.basis.labels == ("y<->z", "-y-z") and len(ham.blocks) == 4
    # a random perturbation, and one symmetric in y and z like a well displaced along x
    for perturbation in (np.random.default_rng(32).standard_normal(gs.grids.n_g),
                         external_potential(gs.model, gs.grids)):
        dvpsi, _ = _occupied_matrix(gs, perturbation)
        rhs = -project_out_occupied(basis, dvpsi.T).T
        bands = np.arange(gs.n_occ)
        for tol in (1e-6, 1e-11):
            result = solve_sternheimer(gs, rhs, tol)
            solution, _, iterations = dense_sternheimer(gs, bands, rhs, tol, basis)
            assert result.iterations_per_band == iterations
            assert np.abs(result.solution - solution).max() <= 1e-9 * np.abs(solution).max()
    gs.drop_derived()


def test_all_sector_rhs_runs_the_full_row_cg_bit_for_bit(mirror_gs):
    # every band of a random right-hand side keeps every sector: one group, the whole rows
    gs = mirror_gs
    raw = np.random.default_rng(36).standard_normal((gs.grids.n_b, gs.n_occ))
    rhs = project_out_occupied(gs.u, raw).T
    rows = hamiltonian(gs).basis.to_sectors(rhs)
    assert all(np.linalg.norm(rows[:, s], axis=1).min() > 0.1 for s in hamiltonian(gs).basis.sectors)
    bands = np.arange(gs.n_occ)
    for tol in (1e-4, 1e-10):
        result = solve_sternheimer(gs, rhs, tol)
        solution, residual, iterations = dense_sternheimer(gs, bands, rhs, tol, gs.u, blocks=True)
        assert result.iterations_per_band == iterations
        np.testing.assert_array_equal(result.final_residual_norm, residual)
        np.testing.assert_array_equal(result.solution, solution)
    gs.drop_derived()


def test_a_kept_band_across_sectors_is_rejected(mirror_gs, h_applications):
    # the degenerate extra pair 4, 5 lies in sectors 3 and 2; rotated by 45 degrees it
    # is still a pair of orthonormal eigenvectors with the same span, as a full eigh of
    # H_r may return it, but each band spans both sectors and Q is not block-diagonal
    gs = mirror_gs
    assert sector_constants(gs)[1].tolist() == [0, 0, 0, 0, 3, 2]
    u = gs.u.copy()
    a, b = gs.u[:, 4], gs.u[:, 5]
    u[:, 4], u[:, 5] = (a + b) / np.sqrt(2), (b - a) / np.sqrt(2)
    mixed = dataclasses.replace(gs, u=u)
    hamiltonian(mixed)                      # the extra bands are still eigenvectors of H
    dvpsi, _ = _occupied_matrix(gs, external_potential(gs.model, gs.grids))
    rhs = -project_out_occupied(u, dvpsi.T).T
    with pytest.raises(InvariantViolationError, match="kept band 4 spans several sectors: 7.07e-01"):
        solve_sternheimer(mixed, rhs, 1e-10)
    assert h_applications() == 0
    gs.drop_derived()


def test_small_segments_in_a_second_sector_are_skipped_and_reported(toy_metal, h_applications):
    _, gs = toy_metal
    sectors = hamiltonian(gs).basis
    # a well displaced along x keeps the state's symmetry: each right-hand side lies in
    # its band's sector
    dv = groundstate.external_potential_derivative(gs.model, gs.grids, 0, [1.0, 0.0, 0.0])
    dvpsi, _ = _occupied_matrix(gs, dv / np.linalg.norm(dv))
    rhs = -project_out_occupied(gs.u, dvpsi.T).T
    bands = np.arange(gs.n_occ)
    other = [sectors.sectors[(c + 1) % len(sectors.sectors)] for c in sector_constants(gs)[1][bands]]
    q = np.eye(gs.grids.n_b) - gs.u @ gs.u.T
    qhq = q @ real_hamiltonian(gs.grids, gs.v_local) @ q
    rng = np.random.default_rng(37)
    for tol in (1e-5, 1e-9):
        # segments in range(Q) in another sector: skipped up to tol / 2, kept above
        for size, skipped in ((0.1, True), (0.45, True), (0.6, False)):
            segment = np.zeros_like(rhs)
            for n, s in enumerate(other):
                segment[n, s] = rng.standard_normal(s.stop - s.start)
            segment = project_out_occupied(gs.u, sectors.from_sectors(segment).T).T
            segment *= size * tol / np.linalg.norm(segment, axis=1)[:, None]
            before = h_applications()
            result = solve_sternheimer(gs, rhs + segment, tol)
            assert h_applications() - before == result.cg_iterations
            x = sectors.to_sectors(result.solution)
            moved = np.array([np.abs(x[n, s]).max() for n, s in enumerate(other)])
            reported = result.final_residual_norm
            assert np.all(reported <= tol)
            if skipped:
                # x stays 0 there, so the segment is left in the residual and counted
                assert np.all(moved == 0.0) and np.all(reported >= 0.99 * size * tol)
            else:
                assert np.all(moved > 0.0)
            ax = result.solution @ qhq - gs.eps[bands, None] * (result.solution @ q)
            true = np.linalg.norm(rhs + segment - ax, axis=1)
            assert np.abs(true - reported).max() <= 1e-3 * tol
    # the CG part stops at sqrt(tol^2 - skipped): at a tolerance just above the residual
    # the solve without the segment stops at, the segment costs more iterations
    plain = solve_sternheimer(gs, rhs, 1e-7)
    tol = plain.final_residual_norm / 0.95
    segment = 0.45 * tol[:, None] * segment / np.linalg.norm(segment, axis=1)[:, None]
    result = solve_sternheimer(gs, rhs + segment, tol)
    assert all(a > b for a, b in zip(result.iterations_per_band, plain.iterations_per_band))
    assert np.all(result.final_residual_norm <= tol)
    gs.drop_derived()


def test_zero_rhs_costs_one_application_per_band_on_a_state_with_sectors(mirror_gs, h_applications):
    gs = mirror_gs
    assert len(hamiltonian(gs).blocks) == 4
    before = h_applications()
    result = solve_sternheimer(gs, np.zeros((gs.n_occ, gs.grids.n_b)), 1e-10)
    assert result.iterations_per_band == [1] * gs.n_occ
    assert result.cg_iterations == h_applications() - before == gs.n_occ
    assert np.all(result.solution == 0.0) and np.all(result.final_residual_norm == 0.0)
    gs.drop_derived()


def test_drop_derived_forgets_the_group_tables_and_the_solve_repeats_bit_for_bit(toy_metal):
    # bands keeping one sector, all four, two apart (gathered columns) and two adjacent
    # (a slice); the kept bands of toy_metal all lie in sector 0
    _, gs = toy_metal
    gs.drop_derived()
    sectors = hamiltonian(gs).basis
    kept_sets = [(0,), (0, 1, 2, 3), (1, 3), (2, 3), (0, 2)]
    rng = np.random.default_rng(43)
    rows = np.zeros((gs.n_occ, gs.grids.n_b))
    for n in range(gs.n_occ):
        for c in kept_sets[n % len(kept_sets)]:
            s = sectors.sectors[c]
            rows[n, s] = rng.standard_normal(s.stop - s.start)
    rhs = project_out_occupied(gs.u, sectors.from_sectors(rows).T).T
    before = solve_sternheimer(gs, rhs, 1e-8)
    groups = {key for key in gs._derived if key.startswith("sternheimer_group_")}
    assert groups == {f"sternheimer_group_{sum(1 << c for c in kept)}" for kept in kept_sets}
    gs.drop_derived()
    assert gs._derived == {}
    after = solve_sternheimer(gs, rhs, 1e-8)
    assert np.array_equal(after.solution, before.solution)
    assert np.array_equal(after.final_residual_norm, before.final_residual_norm)
    assert after.iterations_per_band == before.iterations_per_band
    assert np.all(before.final_residual_norm <= 1e-8)
    gs.drop_derived()


@pytest.mark.parametrize("name", ["toy_metal", "toy_insulator", "chain"])
def test_chosen_operations_hold_every_kept_band_in_one_sector(name, request):
    if name == "chain":
        gs = run_scf(chain_model(), tol=1e-10, max_iter=400)
    else:
        _, gs = request.getfixturevalue(name)
    ham = hamiltonian(gs)
    assert ham.basis.labels == OPERATIONS[name]
    assert [len(block) for block in ham.blocks] == SECTORS[name]
    # fewer block entries than the coordinate mirrors of the potential give
    mirrors = SectorBasis(gs.grids.n_b, [m for m in gs.grids.mirrors if m.label in
                                         {"toy_metal": ("-y", "-z"), "chain": ("-y", "-z"),
                                          "toy_insulator": ("-x", "-y", "-z")}[name]])
    entries = [sum((s.stop - s.start) ** 2 for s in b.sectors) for b in (ham.basis, mirrors)]
    assert entries[0] < entries[1]
    rows, sector_of, _ = sector_constants(gs)
    for n, c in enumerate(sector_of):
        column = rows[:, n]
        assert np.linalg.norm(column[ham.basis.sectors[c]]) ** 2 >= 1.0 - 1e-14
    expected = {"toy_metal": [0] * 18, "toy_insulator": [0, 1, 0, 0, 1], "chain": [0] * 6}
    assert sector_of.tolist() == expected[name]
    gs.drop_derived()


def test_a_potential_without_the_exchange_keeps_the_coordinate_mirrors():
    # a pair of wells at z = 1/4, 3/4 and a shallower pair at x = 1/4, 3/4, both on lines
    # through the cell's centre: symmetric in x, y and z, under no exchange of two axes
    wells = [((0.5, 0.5, 0.25), -3.0), ((0.5, 0.5, 0.75), -3.0),
             ((0.25, 0.5, 0.5), -2.0), ((0.75, 0.5, 0.5), -2.0)]
    model = ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=2, temperature=5e-3,
        gaussians=tuple(GaussianWell(center=c, amplitude=a, width=0.7) for c, a in wells))
    grids = build_grids(model.lattice, model.e_cut)
    assert {"x<->y", "x<->z", "y<->z"} <= {m.label for m in grids.mirrors}
    ham = sector_hamiltonian(grids, external_potential(model, grids))
    assert ham.basis.labels == ("-x", "-y", "-z")
    assert sum(len(block) for block in ham.blocks) == grids.n_b


def test_an_operation_whose_bound_exceeds_the_limit_is_dropped_not_raised(monkeypatch):
    # the 4e-14 odd mode passes MIRROR_RTOL; with the limit below its bound, the set
    # loses an operation instead of stopping the run
    grids, v = model_potential("toy_metal")
    noisy = mirror_breaking(grids, v, "odd", 4e-14)
    assert sector_hamiltonian(grids, noisy).defect > 6e-13
    monkeypatch.setattr(groundstate, "SECTOR_DEFECT_LIMIT", 3e-13)
    ham = sector_hamiltonian(grids, noisy)
    assert 0 < len(ham.basis.labels) < len(OPERATIONS["toy_metal"])
    assert ham.defect <= 3e-13
    h_r = real_hamiltonian(grids, noisy)
    _, off = dense_sector_product(ham.basis, h_r)
    assert 2.0 * off / np.abs(h_r).max() <= ham.defect


def test_potential_asymmetric_at_1e_8_finds_no_mirror():
    grids, v = model_potential("toy_metal")
    assert basis_of(grids, v).labels == OPERATIONS["toy_metal"]
    nudged = v.copy()
    nudged.reshape(grids.cube_dims[::-1])[1, 2, 3] += 1e-8 * np.abs(v).max()   # off every plane
    ham = sector_hamiltonian(grids, nudged)
    assert ham.basis.labels == () and len(ham.blocks) == 1 and ham.defect == 0.0


def test_a_mirror_that_does_not_commute_with_h_raises(monkeypatch):
    grids, v = model_potential("toy_metal")
    # toy_metal's wells are not symmetric in x: blocks under the x mirror drop large entries
    x_mirror = [m for m in grids.mirrors if m.label == "-x"]
    monkeypatch.setattr(grids, "sector_basis", lambda mirrors: SectorBasis(grids.n_b, x_mirror))
    with pytest.raises(InvariantViolationError, match="do not commute"):
        sector_hamiltonian(grids, v)


def test_mirror_sectors_check_reports_sizes_and_defect(mirror_gs, metal_gs):
    check = check_mirror_sectors(mirror_gs)
    assert check["passed"] and check["margin"] >= 1.0
    assert check["details"]["operations"] == ["y<->z", "-y-z"]
    assert len(check["details"]["sector_sizes"]) == 4
    assert sum(check["details"]["sector_sizes"]) == mirror_gs.grids.n_b
    assert 0 <= check["details"]["defect"] <= SECTOR_DEFECT_LIMIT
    # the value reported is the guard's bound from vhat
    grids, v = mirror_gs.grids, mirror_gs.v_local
    mirrors = basis_of(grids, v).mirrors
    bound = mirror_defect(grids, grids.cube_fft(v) / grids.n_g, mirrors)
    assert check["details"]["defect"] == bound / np.abs(real_hamiltonian(grids, v)).max()
    asymmetric = check_mirror_sectors(metal_gs)
    assert asymmetric["passed"] and asymmetric["details"]["sector_sizes"] == [metal_gs.grids.n_b]
    mirror_gs.drop_derived()
    metal_gs.drop_derived()
