"""Tests for the toy-solid Hamiltonian, smearing and SCF."""

import dataclasses

import numpy as np
import pytest
from scipy.special import erfc, expit

from pwdyson import FourierGrids, Lattice, NonConvergenceError, build_grids, groundstate
from pwdyson.config import reference_config
from pwdyson.groundstate import (
    DEGENERACY_RTOL,
    GaussianWell,
    ModelSpec,
    compute_density,
    diagonalize_dense,
    external_potential,
    external_potential_derivative,
    fermi_and_occupations,
    hartree_potential,
    real_hamiltonian,
    run_scf,
    smearing_function,
)

from conftest import chain_model, full_spectrum, sheared_model
from oracles import (apply_hamiltonian, dense_from_matvec, dense_hamiltonian,
                     finite_difference_potential, from_cos_sin, phi, to_cos_sin, to_real)


def small_grids(e_cut=4.0, alat=3.0):
    return build_grids(Lattice.cubic(alat), e_cut)


# -- Hamiltonian --------------------------------------------------------------


def test_pure_kinetic():
    grids = small_grids()
    v = np.zeros(grids.n_g)
    for j in (0, grids.n_b // 2, grids.n_b - 1):
        psi = np.zeros(grids.n_b, dtype=complex)
        psi[j] = 1.0
        out = apply_hamiltonian(grids, v, psi)
        expected = np.zeros(grids.n_b, dtype=complex)
        expected[j] = 0.5 * grids.g2_sphere[j]
        np.testing.assert_allclose(out, expected, atol=1e-14)


def test_constant_potential_shift():
    rng = np.random.default_rng(0)
    grids = small_grids()
    psi = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
    c = 0.37
    out = apply_hamiltonian(grids, np.full(grids.n_g, c), psi)
    np.testing.assert_allclose(out, 0.5 * grids.g2_sphere * psi + c * psi,
                               rtol=1e-12, atol=1e-12)


def test_matches_dense_assembly():
    rng = np.random.default_rng(1)
    grids = build_grids(Lattice.cubic(2.5), 3.0)
    assert grids.n_b <= 200
    v = rng.standard_normal(grids.n_g)
    h_matvec = dense_from_matvec(grids, v)
    h_conv = dense_hamiltonian(grids, v)
    np.testing.assert_allclose(h_conv, h_matvec, rtol=1e-11, atol=1e-11)


def test_dense_hamiltonian_reuses_difference_index(monkeypatch):
    # the cached index, built in row blocks (several and a partial last
    # one), gives the H of a fresh per-call index bit for bit, on a
    # non-cubic cell, and a second call does not rebuild it
    rng = np.random.default_rng(4)
    # a fresh grid: build_grids may hand back one whose index is built
    grids = FourierGrids(Lattice.from_vectors([5.0, 0, 0], [0.4, 2.6, 0], [0, 0.3, 2.2]), 40.0)
    assert grids.n_b > 3 * 64 and grids.n_b % 64 != 0
    v = rng.standard_normal(grids.n_g)
    nx, ny, nz = grids.cube_dims
    diff = grids.g_int[:, None, :] - grids.g_int[None, :, :]
    flat = (diff[..., 0] % nx) + nx * ((diff[..., 1] % ny) + ny * (diff[..., 2] % nz))
    uncached = grids.cube_fft(v)[flat] / grids.n_g
    uncached[np.arange(grids.n_b), np.arange(grids.n_b)] += 0.5 * grids.g2_sphere
    assert "sphere_difference_index" not in vars(grids)
    np.testing.assert_array_equal(dense_hamiltonian(grids, v), uncached)
    index = grids.sphere_difference_index
    assert index.dtype == np.int32
    np.testing.assert_array_equal(index, flat)
    monkeypatch.setattr(type(grids).sphere_difference_index, "func",
                        lambda self: pytest.fail("difference index rebuilt"))
    np.testing.assert_array_equal(dense_hamiltonian(grids, v), uncached)
    assert grids.sphere_difference_index is index
    assert not index.flags.writeable


def test_hermiticity():
    rng = np.random.default_rng(2)
    grids = small_grids()
    v = rng.standard_normal(grids.n_g)
    for _ in range(5):
        psi = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
        chi = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
        left = np.vdot(psi, apply_hamiltonian(grids, v, chi))
        right = np.vdot(chi, apply_hamiltonian(grids, v, psi))
        assert abs(left - np.conj(right)) < 1e-12 * max(abs(left), 1.0)


# -- lattice sums of Gaussian wells ---------------------------------------------

DIRECTION = np.array([0.48, -0.6, 0.64])


def box_image_sum(model, grids, well, n=10):
    """Well `well` summed over every image with |n_k| <= n, plus its derivative along DIRECTION.

    Images outside the box lie beyond 9 plane spacings (> 20 Bohr here),
    where exp(-r^2 / 2w^2) < 1e-44 for w = 1.4.
    """
    g = model.gaussians[well]
    points = grids.real_space_points()
    center = np.asarray(g.center) @ model.lattice.a
    v, dv = np.zeros(grids.n_g), np.zeros(grids.n_g)
    span = np.arange(-n, n + 1)
    n2, n3 = (m.ravel() for m in np.meshgrid(span, span, indexing="ij"))
    for n1 in span:
        ints = np.stack([np.full(n2.size, n1), n2, n3], axis=1)
        d = points[None, :, :] - center - (ints @ model.lattice.a)[:, None, :]
        gauss = g.amplitude * np.exp(-np.einsum("sij,sij->si", d, d) / (2 * g.width**2))
        v += gauss.sum(axis=0)
        dv += (gauss * (d @ DIRECTION) / g.width**2).sum(axis=0)
    return v, dv


@pytest.fixture(scope="module")
def sheared_reference():
    model = sheared_model()
    grids = build_grids(model.lattice, model.e_cut)
    return model, grids, [box_image_sum(model, grids, k) for k in range(2)]


def test_lattice_sum_matches_box_on_sheared_cell(sheared_reference):
    model, grids, ref = sheared_reference
    v = external_potential(model, grids)
    assert np.max(np.abs(v - ref[0][0] - ref[1][0])) <= 1e-13
    for k in range(2):
        dv = external_potential_derivative(model, grids, k, DIRECTION)
        assert np.max(np.abs(dv - ref[k][1])) <= 1e-13


def test_lattice_sum_invariant_under_integer_center_shift():
    model = sheared_model()
    grids = build_grids(model.lattice, model.e_cut)
    moved = sheared_model(((1.1, -1.2, 3.3), (-0.05, 2.05, -1.5)))
    assert np.max(np.abs(external_potential(moved, grids)
                         - external_potential(model, grids))) <= 1e-13
    for k in range(2):
        assert np.max(np.abs(external_potential_derivative(moved, grids, k, DIRECTION)
                             - external_potential_derivative(model, grids, k, DIRECTION))) <= 1e-13


def test_lattice_sum_tail_bound_is_needed(sheared_reference, monkeypatch):
    # a 3-width tail radius, without the cell diameter, misses images of the wide well
    model, grids, ref = sheared_reference
    monkeypatch.setattr(groundstate, "_TAIL_WIDTHS", 3.0)
    wide = dataclasses.replace(model, gaussians=model.gaussians[:1])
    assert np.max(np.abs(external_potential(wide, grids) - ref[0][0])) > 1e-4


ORTHOGONAL_MODELS = {
    "toy_metal": lambda: reference_config("toy_metal").model,
    "toy_insulator": lambda: reference_config("toy_insulator").model,
    "chain": chain_model,
    # a a^T diagonal, but no vector along its own coordinate axis, and one reversed
    "permuted": lambda: dataclasses.replace(
        sheared_model(), lattice=Lattice.from_vectors([0, 0, 3.1], [-3.2, 0, 0], [0, 2.9, 0])),
}
AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def lattice_sums(model, grids):
    """v, dv of well 0 along each axis and DIRECTION, and the finite-difference dV0s."""
    v = external_potential(model, grids)
    dv = [external_potential_derivative(model, grids, 0, np.array(d)) for d in AXES + (DIRECTION,)]
    fd = [finite_difference_potential(model, grids, 0, d) for d in AXES]
    return v, dv, fd


@pytest.mark.parametrize("name", list(ORTHOGONAL_MODELS))
def test_per_axis_lattice_sum_matches_the_image_loop(name, monkeypatch):
    model = ORTHOGONAL_MODELS[name]()
    grids = build_grids(model.lattice, model.e_cut)
    with monkeypatch.context() as m:
        m.setattr(groundstate, "_image_displacements",
                  lambda *args: pytest.fail("image loop on an orthogonal cell"))
        v, dv, fd = lattice_sums(model, grids)
    monkeypatch.setattr(groundstate, "_orthogonal", lambda lattice: False)    # the oracle
    v_ref, dv_ref, fd_ref = lattice_sums(model, grids)
    scale = np.abs(v_ref).max()
    assert np.abs(v - v_ref).max() <= 1e-13 * scale
    for got, ref in zip(dv, dv_ref):
        assert np.abs(ref).max() > 1e-2 * scale
        assert np.abs(got - ref).max() <= 1e-13 * scale
    # the quotient divides two potentials, each within 1e-13 max |v|, by 2h with h = 1e-5
    for got, ref in zip(fd, fd_ref):
        assert np.abs(got - ref).max() <= 1e-13 * scale / 1e-5


def test_non_orthogonal_cell_never_takes_the_per_axis_path(sheared_reference, monkeypatch):
    model, grids, ref = sheared_reference
    assert not groundstate._orthogonal(model.lattice)
    assert not groundstate._orthogonal(Lattice.from_vectors([3.0, 0, 0], [1e-12, 3.0, 0],
                                                            [0, 0, 3.0]))
    monkeypatch.setattr(groundstate, "_axis_sum",
                        lambda *args: pytest.fail("per-axis sum on a non-orthogonal cell"))
    v, dv, fd = lattice_sums(model, grids)
    assert np.max(np.abs(v - ref[0][0] - ref[1][0])) <= 1e-13
    assert np.max(np.abs(dv[-1] - ref[0][1])) <= 1e-13
    assert all(np.all(np.isfinite(x)) for x in fd)


@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("name", ["toy_metal", "sheared"])
def test_real_hamiltonian_is_exactly_symmetric(name, noise):
    model = reference_config("toy_metal").model if name == "toy_metal" else sheared_model()
    grids = build_grids(model.lattice, model.e_cut)
    rng = np.random.default_rng(34)
    v = external_potential(model, grids) + noise * rng.standard_normal(grids.n_g)
    h_r = real_hamiltonian(grids, v)
    assert np.array_equal(h_r, h_r.T)


# -- dense diagonalisation -----------------------------------------------------


def test_free_electron_eigenvalues():
    grids = small_grids()
    eps, phi = diagonalize_dense(grids, np.zeros(grids.n_g), grids.n_b)
    np.testing.assert_allclose(eps, np.sort(0.5 * grids.g2_sphere), atol=1e-12)


def test_eigenpair_residuals_and_orthonormality():
    rng = np.random.default_rng(4)
    grids = small_grids(e_cut=8.0)
    v = 0.5 * rng.standard_normal(grids.n_g)
    n_states = 10
    eps, u = diagonalize_dense(grids, v, n_states)
    phi = from_cos_sin(u.T).T
    assert np.all(np.diff(eps) >= -1e-12)
    np.testing.assert_allclose(phi.conj().T @ phi, np.eye(n_states), atol=1e-12)
    for k in range(n_states):
        r = apply_hamiltonian(grids, v, phi[:, k]) - eps[k] * phi[:, k]
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, abs(eps[k]))


def test_dense_eigenvectors_are_real_functions():
    rng = np.random.default_rng(5)
    grids = small_grids(e_cut=8.0)
    v = 0.5 * rng.standard_normal(grids.n_g)
    _, u = diagonalize_dense(grids, v, 10)
    assert u.dtype == np.float64 and u.shape == (grids.n_b, 10)
    # T phi = T T^H u is real bit for bit; to_real(phi) is real to round-off
    phi = from_cos_sin(u.T).T
    assert not np.any(to_cos_sin(phi.T).imag)
    psi = np.array([to_real(grids, c) for c in phi.T])
    assert np.abs(psi.imag).max() <= 1e-14 * np.abs(psi).max()
    np.testing.assert_allclose(grids.to_real_many(u.T), psi.real,
                               rtol=0, atol=1e-13 * np.abs(psi).max())


@pytest.mark.parametrize("fixture", ["metal_gs", "insulator_gs"])
def test_scf_orbitals_are_real_eigenfunctions(fixture, request):
    gs = request.getfixturevalue(fixture)
    assert gs.u.dtype == np.float64 and gs.u.shape == (gs.grids.n_b, gs.n_kept)
    orbitals = phi(gs)
    assert not np.any(to_cos_sin(orbitals.T).imag)
    np.testing.assert_allclose(gs.u.T @ gs.u, np.eye(gs.n_kept), rtol=0, atol=1e-12)
    for k in range(gs.n_kept):
        r = apply_hamiltonian(gs.grids, gs.v_local, orbitals[:, k]) - gs.eps[k] * orbitals[:, k]
        assert np.linalg.norm(r) <= 1e-10


def test_cosine_chain_matches_mathieu_oracle():
    # Quasi-1D cell: only Gamma survives in y/z, V = v0 cos(2 pi x / L).
    length, v0 = 8.0, 0.35
    lat = Lattice.orthorhombic(length, 1.0, 1.0)
    grids = build_grids(lat, 6.0)
    assert np.all(grids.g_int[:, 1] == 0) and np.all(grids.g_int[:, 2] == 0)
    x = grids.real_space_points()[:, 0]
    v = v0 * np.cos(2 * np.pi * x / length)
    eps, _ = diagonalize_dense(grids, v, 4)

    # Independent Mathieu-type matrix in the 1D integer basis.
    ks = sorted(grids.g_int[:, 0])
    idx = {k: i for i, k in enumerate(ks)}
    h = np.zeros((len(ks), len(ks)))
    for k in ks:
        h[idx[k], idx[k]] = 0.5 * (2 * np.pi * k / length) ** 2
        for k2 in (k - 1, k + 1):
            if k2 in idx:
                h[idx[k], idx[k2]] = v0 / 2
    ref = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(eps, ref[:4], atol=1e-10)
    assert eps[1] - eps[0] == pytest.approx(ref[1] - ref[0], abs=1e-10)


def test_too_many_states_rejected():
    grids = small_grids()
    with pytest.raises(Exception):
        diagonalize_dense(grids, np.zeros(grids.n_g), grids.n_b + 1)


# -- smearing -------------------------------------------------------------------


def test_gapped_two_level():
    fermi, occ = fermi_and_occupations([0.0, 10.0], 2, 1e-3)
    assert 0.0 < fermi < 10.0
    np.testing.assert_allclose(occ, [2.0, 0.0], atol=1e-12)


def test_degenerate_levels_split_evenly():
    fermi, occ = fermi_and_occupations([0.0, 0.0], 2, 1e-3)
    assert fermi == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(occ, [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("smearing", ["fermi_dirac", "gaussian"])
def test_bisection_against_fine_scan(smearing):
    rng = np.random.default_rng(5)
    eps = np.sort(rng.uniform(-1.0, 1.0, size=20))
    n, t = 14, 0.05
    fermi, occ = fermi_and_occupations(eps, n, t, smearing)
    assert abs(occ.sum() - n) < 1e-12
    # fine scan oracle, 4e7 values of f: scipy's ufuncs, not `math.erfc` one by one
    f = {"fermi_dirac": lambda x: 2.0 * expit(-x), "gaussian": erfc}[smearing]
    mus = np.linspace(eps.min() - 1, eps.max() + 1, 2_000_001)
    counts = f((eps[None, :] - mus[:, None]) / t).sum(axis=1)
    scan = mus[np.argmin(np.abs(counts - n))]
    assert abs(fermi - scan) < 1e-5  # limited by scan resolution
    f, _ = smearing_function(smearing)
    # refine scan by local bisection to confirm at 1e-10
    lo, hi = scan - 1e-5, scan + 1e-5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f((eps - mid) / t).sum() < n:
            lo = mid
        else:
            hi = mid
    assert abs(fermi - 0.5 * (lo + hi)) < 1e-10


@pytest.mark.parametrize("smearing", ["fermi_dirac", "gaussian"])
@pytest.mark.parametrize("t", [0.05, 1e-4])
def test_fermi_level_of_the_float_count_matches_a_vectorised_count(smearing, t):
    # an odd electron count puts the level inside a state; at t = 1e-4, |x| reaches 2e4,
    # where e^x overflows a double
    eps = np.sort(np.random.default_rng(35).uniform(-1.0, 1.0, size=20))
    fermi, occ = fermi_and_occupations(eps, 13, t, smearing)
    assert abs(occ.sum() - 13) < 1e-12
    f = {"fermi_dirac": lambda x: 2.0 * expit(-x), "gaussian": erfc}[smearing]
    lo, hi = eps.min() - 1.0, eps.max() + 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f((eps - mid) / t).sum() < 13 else (lo, mid)
    assert abs(fermi - lo) <= 1e-15 * abs(lo)


def test_insufficient_states():
    with pytest.raises(NonConvergenceError):
        fermi_and_occupations([0.0, 1.0], 4, 1e-2)


@pytest.mark.parametrize("smearing", ["fermi_dirac", "gaussian"])
def test_smearing_matches_scipy(smearing):
    """f and f' against scipy.special on [-40, 40], +-700, +-inf and 0-d inputs.

    scipy's erfc is itself off by up to 5.7e-14 relative for x > 0.5,
    where `math.erfc` stays within 3e-16 of the exact value (checked with
    mpmath), so there the gaussian f is held to 1e-13.  Values below the
    smallest normal double are compared absolutely.
    """
    f, fp = smearing_function(smearing)
    line = np.concatenate([np.linspace(-40.0, 40.0, 16001), [-700.0, 700.0, -np.inf, np.inf]])
    for x in (line, np.array(0.3), np.float64(-1.7)):
        if smearing == "fermi_dirac":
            f_ref, fp_ref, rtol = 2.0 * expit(-x), -2.0 * expit(x) * expit(-x), 1e-15
        else:
            f_ref, fp_ref = erfc(x), -2.0 / np.sqrt(np.pi) * np.exp(-x * x)
            rtol = np.where(x <= 0.5, 1e-15, 1e-13)
        assert np.shape(f(x)) == np.shape(fp(x)) == np.shape(x)
        assert np.all(np.abs(f(x) - f_ref) <= rtol * np.abs(f_ref) + np.finfo(float).tiny)
        assert np.all(np.abs(fp(x) - fp_ref) <= 1e-15 * np.abs(fp_ref) + np.finfo(float).tiny)


def test_fprime_finite_difference():
    for smearing in ("fermi_dirac", "gaussian"):
        f, fp = smearing_function(smearing)
        h = 1e-6
        for x in (-3.0, -0.5, 0.0, 0.7, 2.5):
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(fp(x) - fd) < 1e-8


# -- density and Hartree --------------------------------------------------------


def test_constant_orbital_density():
    grids = small_grids()
    izero = int(np.flatnonzero((grids.g_int == 0).all(axis=1))[0])
    # G = 0 is its own cos/sin function: the constant orbital has u = e_izero
    u = np.zeros((grids.n_b, 1))
    u[izero, 0] = 1.0
    rho = compute_density(grids, u, np.array([2.0]))
    np.testing.assert_allclose(rho, 2.0 / grids.lattice.volume, rtol=1e-12)


def test_density_quadrature_normalisation():
    rng = np.random.default_rng(6)
    grids = small_grids()
    k = 5
    u, _ = np.linalg.qr(rng.standard_normal((grids.n_b, k)))    # orthonormal real orbitals
    occ = rng.uniform(0.0, 2.0, size=k)
    rho = compute_density(grids, u, occ)
    total = rho.sum() * grids.lattice.volume / grids.n_g
    assert abs(total - occ.sum()) < 1e-10 * occ.sum()
    assert rho.min() > -1e-12


def test_density_matches_direct_summation():
    rng = np.random.default_rng(7)
    grids = build_grids(Lattice.cubic(2.2), 3.0)
    u = rng.standard_normal((grids.n_b, 2))
    phi = from_cos_sin(u.T).T
    occ = np.array([2.0, 0.5])
    points = grids.real_space_points()
    phases = np.exp(1j * points @ grids.g_cart.T) / np.sqrt(grids.lattice.volume)
    direct = sum(occ[k] * np.abs(phases @ phi[:, k]) ** 2 for k in range(2))
    np.testing.assert_allclose(compute_density(grids, u, occ), direct,
                               rtol=1e-11, atol=1e-11)


def test_hartree_of_constant_vanishes():
    grids = small_grids()
    np.testing.assert_allclose(hartree_potential(grids, np.full(grids.n_g, 1.3)),
                               0.0, atol=1e-13)


def test_hartree_single_mode():
    grids = small_grids()
    g0 = grids.lattice.b[0]
    x = grids.real_space_points()
    rho = np.cos(x @ g0)
    expected = 4 * np.pi / np.dot(g0, g0) * rho
    np.testing.assert_allclose(hartree_potential(grids, rho), expected,
                               rtol=1e-11, atol=1e-12)


def test_hartree_poisson_residual_spectrally():
    rng = np.random.default_rng(8)
    grids = small_grids()
    rho = rng.standard_normal(grids.n_g)
    v = hartree_potential(grids, rho)
    spectrum = (grids.g2_cube * grids.cube_fft(v)).reshape(grids.cube_dims[::-1])
    lap = np.fft.ifftn(spectrum).real.ravel()                      # -Laplacian v
    target = 4 * np.pi * (rho - rho.mean())
    np.testing.assert_allclose(lap, target, rtol=1e-10, atol=1e-9)


# -- SCF -------------------------------------------------------------------------


def toy_insulating_model(e_cut=5.0, alat=4.0, xc="none"):
    return ModelSpec(
        lattice=Lattice.cubic(alat), e_cut=e_cut, n_electrons=2,
        temperature=1e-3, smearing="fermi_dirac", xc=xc,
        gaussians=(GaussianWell(center=(0.5, 0.5, 0.5), amplitude=-4.0, width=0.9),),
    )


def test_free_electrons_converge_immediately():
    model = ModelSpec(lattice=Lattice.cubic(4.0), e_cut=4.0, n_electrons=4,
                      temperature=1e-2, gaussians=())
    gs = run_scf(model, tol=1e-10, mixing="identity")
    np.testing.assert_allclose(gs.rho, gs.rho.mean(), rtol=1e-10)
    assert gs.scf_residual <= 1e-10


def metal_chain_model(wells=10, spacing=3.5):
    """A short version of the benchmark's metallic chain: host wells plus an impurity."""
    length = wells * spacing
    hosts = tuple(GaussianWell(center=((k + 0.003 * (-1) ** k) / wells, 0.5, 0.5),
                               amplitude=-4.5, width=0.55) for k in range(wells))
    impurity = GaussianWell(center=(0.5 / wells, 0.5, 0.5), amplitude=-10.0, width=0.28)
    return ModelSpec(lattice=Lattice.orthorhombic(length, 2.6, 2.6), e_cut=6.5,
                     n_electrons=wells + 2, temperature=0.005, smearing="gaussian",
                     gaussians=(impurity,) + hosts)


def scf_iterations(monkeypatch):
    """Callable returning how many times the SCF has diagonalised: one per iteration."""
    calls = [0]
    original = groundstate.diagonalize_dense

    def counted(*args):
        calls[0] += 1
        return original(*args)
    monkeypatch.setattr(groundstate, "diagonalize_dense", counted)
    return lambda: calls[0]


@pytest.fixture(scope="module")
def metal_chain_gs():
    return run_scf(metal_chain_model(), tol=1e-10, max_iter=400, kerker_alpha=0.8, damping=0.1)


def test_scf_fixed_point_reverified(metal_chain_gs):
    from pwdyson.groundstate import total_local_potential

    assert abs(metal_chain_gs.fprime_occ().sum()) > 1.0, "the chain must be metallic"
    insulator = run_scf(toy_insulating_model(), tol=1e-9, mixing="identity")
    for gs, tol in ((insulator, 1e-9), (metal_chain_gs, 1e-10)):
        model = gs.model
        # one extra F_KS evaluation at the returned density, which must be
        # the SCF's certified input density: on the Kerker-mixed metal its
        # output F_KS(rho) is off by more than ten times tol
        v_ext = external_potential(model, gs.grids)
        v_loc = total_local_potential(model, gs.grids, v_ext, gs.rho)
        eps, u = diagonalize_dense(gs.grids, v_loc, gs.n_kept)
        _, occ = fermi_and_occupations(eps, model.n_electrons, model.temperature,
                                       model.smearing)
        rho_next = compute_density(gs.grids, u, occ)
        res = np.linalg.norm(rho_next - gs.rho) * np.sqrt(model.lattice.volume / gs.grids.n_g)
        assert res <= tol
        assert res == pytest.approx(gs.scf_residual, rel=1e-3)
        np.testing.assert_array_equal(v_loc, gs.v_local)


def test_anderson_scf_converges_in_few_iterations(monkeypatch):
    # damped mixing (rho + damping f, no history) takes 224 iterations on
    # the chain and 31 on the insulator; Anderson mixing took 33 and 10
    iterations = scf_iterations(monkeypatch)
    run_scf(metal_chain_model(), tol=1e-10, max_iter=400, kerker_alpha=0.8, damping=0.1)
    assert iterations() <= 60
    iterations = scf_iterations(monkeypatch)
    run_scf(toy_insulating_model(), tol=1e-10, mixing="identity", damping=0.5)
    assert iterations() <= 20


def test_scf_asking_for_more_states_keeps_anderson_history(monkeypatch):
    # from the fourth iteration on, with two Anderson pairs stored, the SCF
    # wants five more extra bands than it diagonalised: it diagonalises the
    # same density again with more states and carries on where it was
    model = toy_insulating_model()
    iterations = scf_iterations(monkeypatch)
    plain = run_scf(model, tol=1e-10)
    n_plain = iterations()
    assert n_plain > 5

    original, asked = groundstate._choose_n_extra, []

    def more_after_three(n_occ):
        asked.append(n_occ)
        return original(n_occ) + (5 if len(asked) > 3 else 0)

    monkeypatch.setattr(groundstate, "_choose_n_extra", more_after_three)
    iterations = scf_iterations(monkeypatch)
    wider = run_scf(model, tol=1e-10)
    assert iterations() == n_plain + 1
    # 1 + 3 and 1 + 3 + 5 kept states would each end inside a degenerate level
    assert plain.n_kept == 5 and wider.n_kept == 11
    diff = np.linalg.norm(wider.rho - plain.rho) * np.sqrt(model.lattice.volume / plain.grids.n_g)
    assert diff <= 1e-12

    # out of iterations while the first one asks for more states: no residual yet
    monkeypatch.setattr(groundstate, "_choose_n_extra", lambda n_occ: original(n_occ) + 5)
    with pytest.raises(NonConvergenceError) as err:
        run_scf(model, tol=1e-10, max_iter=1)
    assert np.isnan(err.value.residual)


def test_kept_set_holds_a_degenerate_level_whole(insulator_gs):
    """The p-like triplet at 0.48942 Ha is kept whole or not at all."""
    eps = full_spectrum(insulator_gs)[0]
    triplet = np.flatnonzero(np.abs(eps - 0.48942) < 1e-4)
    assert len(triplet) == 3
    kept = triplet < insulator_gs.n_kept
    assert kept.all() or not kept.any()
    n_kept = insulator_gs.n_kept
    assert eps[n_kept] - eps[n_kept - 1] > DEGENERACY_RTOL * max(1.0, abs(eps[n_kept]))


def test_scf_diagonalises_again_when_a_level_runs_past_its_states(monkeypatch):
    # 1 + 3 + 2 kept states end inside the pair at 0.622 Ha, and the 7 states
    # diagonalised end with it: the SCF cannot see where the level ends, so it
    # diagonalises the same density again with more states
    model = toy_insulating_model()
    iterations = scf_iterations(monkeypatch)
    plain = run_scf(model, tol=1e-10)
    n_plain = iterations()

    original = groundstate._choose_n_extra
    monkeypatch.setattr(groundstate, "_choose_n_extra", lambda n_occ: original(n_occ) + 2)
    iterations = scf_iterations(monkeypatch)
    wider = run_scf(model, tol=1e-10)
    assert iterations() == n_plain + 1
    assert wider.n_kept == 7 and wider.eps[5] == pytest.approx(wider.eps[6], abs=1e-8)
    diff = np.linalg.norm(wider.rho - plain.rho) * np.sqrt(model.lattice.volume / plain.grids.n_g)
    assert diff <= 1e-12


def test_scf_ground_state_invariants():
    model = toy_insulating_model()
    gs = run_scf(model, tol=1e-10)
    n_kept = gs.n_kept
    orbitals = phi(gs)
    np.testing.assert_allclose(orbitals.conj().T @ orbitals, np.eye(n_kept), atol=1e-10)
    assert abs(gs.occ.sum() - model.n_electrons) < 1e-10
    assert gs.rho.min() >= -1e-12
    total = gs.rho.sum() * model.lattice.volume / gs.grids.n_g
    assert abs(total - model.n_electrons) < 1e-8 * model.n_electrons
    assert gs.eps[gs.n_occ] > gs.eps[gs.n_occ - 1]
    assert gs.n_kept >= gs.n_occ + 3


def test_scf_self_consistency_against_tighter_run():
    model = toy_insulating_model()
    tol = 1e-8
    loose = run_scf(model, tol=tol)
    tight = run_scf(model, tol=1e-12, max_iter=400)
    diff = np.linalg.norm(loose.rho - tight.rho) * np.sqrt(model.lattice.volume / loose.grids.n_g)
    assert diff <= 10 * tol


def test_identity_and_kerker_mixing_agree():
    model = toy_insulating_model()
    tol = 1e-10
    a = run_scf(model, tol=tol, mixing="identity")
    b = run_scf(model, tol=tol, mixing="kerker", kerker_alpha=0.8)
    diff = np.linalg.norm(a.rho - b.rho) * np.sqrt(model.lattice.volume / a.grids.n_g)
    assert diff <= 10 * tol


def test_scf_runs_on_one_model_share_grids():
    model = toy_insulating_model()
    first = run_scf(model, tol=1e-6)
    second = run_scf(model, tol=1e-6)
    assert second.grids is first.grids
    assert not first.grids.g2_cube.flags.writeable


def test_scf_nonconvergence_error():
    model = toy_insulating_model()
    with pytest.raises(NonConvergenceError) as err:
        run_scf(model, tol=1e-13, max_iter=2)
    assert err.value.residual is not None


def test_lda_exchange_scf_runs():
    model = toy_insulating_model(xc="lda_x")
    gs = run_scf(model, tol=1e-9, max_iter=300)
    assert abs(gs.occ.sum() - model.n_electrons) < 1e-10
