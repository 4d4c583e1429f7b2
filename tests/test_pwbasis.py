"""Tests for lattice, Fourier grids and the normalised transforms."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pwdyson import ConfigurationError, FourierGrids, Lattice, build_grids
from pwdyson.pwbasis import from_cos_sin, to_cos_sin


def brute_force_sphere_count(lattice, e_cut):
    """Independent enumeration of {G : |G| <= sqrt(2 e_cut)} over a box."""
    radius = np.sqrt(2.0 * e_cut)
    nmax = [int(np.ceil(radius * np.linalg.norm(a) / (2 * np.pi))) + 1 for a in lattice.a]
    count = 0
    for i1 in range(-nmax[0], nmax[0] + 1):
        for i2 in range(-nmax[1], nmax[1] + 1):
            for i3 in range(-nmax[2], nmax[2] + 1):
                g = i1 * lattice.b[0] + i2 * lattice.b[1] + i3 * lattice.b[2]
                if np.dot(g, g) <= 2.0 * e_cut * (1 + 1e-14):
                    count += 1
    return count


def direct_inverse_dft(grids, coeffs):
    """O(n_b * n_g) direct summation sum_G c_G exp(iG.r) / sqrt(|Omega|)."""
    points = grids.real_space_points()
    phases = np.exp(1j * points @ grids.g_cart.T)
    return phases @ coeffs / np.sqrt(grids.lattice.volume)


def test_lattice_duality_and_volume():
    lat = Lattice.from_vectors([3.0, 0.1, 0.0], [0.0, 2.5, 0.2], [0.1, 0.0, 4.0])
    assert lat.duality_defect() < 1e-12
    assert lat.volume == pytest.approx(abs(np.linalg.det(lat.a)))
    assert lat.volume > 0


def test_lattice_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        Lattice.from_vectors([1, 0, 0], [2, 0, 0], [0, 0, 1])
    with pytest.raises(ConfigurationError):
        Lattice.from_vectors([np.nan, 0, 0], [0, 1, 0], [0, 0, 1])


def test_only_gamma_fits_small_cutoff():
    # |b| = 1 for a cubic cell with a = 2 pi; sqrt(2 * 0.4) < 1.
    grids = build_grids(Lattice.cubic(2 * np.pi), 0.4)
    assert grids.n_b == 1
    np.testing.assert_array_equal(grids.g_int, [[0, 0, 0]])


def test_sphere_count_matches_brute_force():
    lat = Lattice.cubic(1.0)
    e_cut = 200.0
    grids = build_grids(lat, e_cut)
    assert grids.n_b == brute_force_sphere_count(lat, e_cut)


def test_sphere_count_brute_force_nonorthogonal():
    lat = Lattice.from_vectors([2.0, 0.3, 0.0], [0.2, 2.4, 0.1], [0.0, 0.4, 1.8])
    e_cut = 30.0
    grids = build_grids(lat, e_cut)
    assert grids.n_b == brute_force_sphere_count(lat, e_cut)


def test_asymptotic_sphere_count():
    # n_b ~ (sqrt(2) / (3 pi^2)) E^{3/2} |Omega| once n_b is large.
    lat = Lattice.cubic(1.0)
    e_cut = 3600.0
    grids = build_grids(lat, e_cut)
    assert grids.n_b > 10_000
    predicted = np.sqrt(2.0) / (3 * np.pi**2) * e_cut**1.5 * lat.volume
    assert abs(grids.n_b / predicted - 1.0) < 0.05


def test_cutoff_validation():
    lat = Lattice.cubic(4.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            build_grids(lat, bad)


def test_cube_dims_even_5smooth_and_cover_sphere():
    grids = build_grids(Lattice.orthorhombic(5.0, 4.0, 3.0), 12.0)
    for n in grids.cube_dims:
        assert n % 2 == 0
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        assert m == 1
    # every sphere vector fits in [-N/2, N/2)
    for d in range(3):
        assert grids.g_int[:, d].max() < grids.cube_dims[d] / 2
        assert grids.g_int[:, d].min() >= -grids.cube_dims[d] / 2
    # the cube holds the doubled sphere radius in sup norm
    r_cube = 2 * np.sqrt(2 * grids.e_cut)
    for d in range(3):
        # walking along b_d alone, indices up to r_cube/|b_d| must fit
        steps = int(r_cube / np.linalg.norm(grids.lattice.b[d]))
        assert steps < grids.cube_dims[d] / 2


def test_sphere_closed_under_negation_and_sorted():
    grids = build_grids(Lattice.orthorhombic(4.0, 3.0, 5.0), 8.0)
    as_set = {tuple(g) for g in grids.g_int}
    assert all((-i, -j, -k) in as_set for (i, j, k) in as_set)
    assert (0, 0, 0) in as_set
    order = np.lexsort((grids.g_int[:, 2], grids.g_int[:, 1], grids.g_int[:, 0]))
    np.testing.assert_array_equal(order, np.arange(grids.n_b))


def test_deterministic_rebuild():
    # two independent constructions: build_grids may return the grids it built last
    lat = Lattice.from_vectors([3.0, 0.5, 0.0], [0.0, 3.0, 0.5], [0.5, 0.0, 3.0])
    g1 = build_grids(lat, 9.0)
    g2 = FourierGrids(lat, 9.0)
    assert g2 is not g1
    np.testing.assert_array_equal(g1.g_int, g2.g_int)
    assert g1.cube_dims == g2.cube_dims
    np.testing.assert_array_equal(g1.sphere_flat, g2.sphere_flat)


def test_build_grids_returns_the_last_grids_for_the_same_cell():
    vectors = ([3.0, 0.5, 0.0], [0.0, 3.0, 0.5], [0.5, 0.0, 3.0])
    first = build_grids(Lattice.from_vectors(*vectors), 9.0)
    assert build_grids(Lattice.from_vectors(*vectors), 9.0) is first
    assert all(not a.flags.writeable for a in vars(first).values() if isinstance(a, np.ndarray))
    other = build_grids(Lattice.from_vectors(*vectors), 8.0)
    assert other is not first and other.n_b < first.n_b
    assert build_grids(Lattice.from_vectors(*vectors), 9.0) is not first


def test_to_real_constant_mode():
    grids = build_grids(Lattice.cubic(3.0), 5.0)
    coeffs = np.zeros(grids.n_b, dtype=complex)
    izero = int(np.flatnonzero((grids.g_int == 0).all(axis=1))[0])
    coeffs[izero] = np.sqrt(grids.lattice.volume)
    np.testing.assert_allclose(grids.to_real(coeffs), np.ones(grids.n_g), atol=1e-13)


def test_to_fourier_constant_vector():
    grids = build_grids(Lattice.cubic(3.0), 5.0)
    coeffs = grids.to_fourier(np.ones(grids.n_g))
    izero = int(np.flatnonzero((grids.g_int == 0).all(axis=1))[0])
    expected = np.zeros(grids.n_b, dtype=complex)
    expected[izero] = np.sqrt(grids.lattice.volume)
    np.testing.assert_allclose(coeffs, expected, atol=1e-13)


def test_to_real_matches_direct_summation():
    rng = np.random.default_rng(7)
    grids = build_grids(Lattice.from_vectors([2.2, 0.2, 0], [0, 2.0, 0.1], [0.1, 0, 1.9]), 6.0)
    coeffs = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
    direct = direct_inverse_dft(grids, coeffs)
    np.testing.assert_allclose(grids.to_real(coeffs), direct, rtol=1e-12, atol=1e-12)


def test_to_fourier_matches_direct_projection():
    rng = np.random.default_rng(8)
    grids = build_grids(Lattice.cubic(2.5), 6.0)
    values = rng.standard_normal(grids.n_g) + 1j * rng.standard_normal(grids.n_g)
    # <e_G, u> by grid quadrature: (|Omega|/n_g) sum_r conj(e_G(r)) u(r)
    points = grids.real_space_points()
    phases = np.exp(-1j * points @ grids.g_cart.T) / np.sqrt(grids.lattice.volume)
    direct = (grids.lattice.volume / grids.n_g) * (phases.T @ values)
    np.testing.assert_allclose(grids.to_fourier(values), direct, rtol=1e-12, atol=1e-12)


def test_to_fourier_matches_direct_projection_sheared():
    rng = np.random.default_rng(12)
    grids = build_grids(Lattice.from_vectors([2.2, 0.2, 0], [0, 2.0, 0.1], [0.1, 0, 1.9]), 6.0)
    values = rng.standard_normal(grids.n_g) + 1j * rng.standard_normal(grids.n_g)
    points = grids.real_space_points()
    phases = np.exp(-1j * points @ grids.g_cart.T) / np.sqrt(grids.lattice.volume)
    direct = (grids.lattice.volume / grids.n_g) * (phases.T @ values)
    np.testing.assert_allclose(grids.to_fourier(values), direct, rtol=1e-12, atol=1e-12)


def full_cube_transforms(grids):
    """Reference transforms: plain `ifftn`/`fftn` of the zero-padded (Nx, Ny, Nz) cube."""
    dims = grids.cube_dims
    index = tuple((grids.g_int % np.array(dims)).T)
    to_real_scale = grids.n_g / np.sqrt(grids.lattice.volume)

    def to_real(coeffs):
        cube = np.zeros(dims, dtype=complex)
        cube[index] = coeffs
        return scipy.fft.ifftn(cube).ravel(order="F") * to_real_scale

    def to_fourier(values):
        return scipy.fft.fftn(values.reshape(dims, order="F"))[index] / to_real_scale

    return to_real, to_fourier


@pytest.mark.parametrize("cell, e_cut", [
    (([87.5, 0, 0], [0, 2.6, 0], [0, 0, 2.6]), 6.5),       # elongated, like toy_metal
    (([2.2, 0.2, 0], [0, 2.0, 0.1], [0.1, 0, 1.9]), 30.0),   # sheared
])
def test_pruned_transforms_match_full_cube_fft(cell, e_cut):
    rng = np.random.default_rng(13)
    grids = build_grids(Lattice.from_vectors(*cell), e_cut)
    ref_real, ref_fourier = full_cube_transforms(grids)
    xs = rng.standard_normal((3, grids.n_b)) + 1j * rng.standard_normal((3, grids.n_b))
    us = rng.standard_normal((3, grids.n_g)) + 1j * rng.standard_normal((3, grids.n_g))
    us[0] = us[0].real
    # the real pair on the cos/sin rows of real functions
    rows = xs.real
    many_real = grids.to_real_many(rows)
    many_fourier = grids.to_fourier_many(us.real)
    for k in range(3):
        expected = ref_real(xs[k])
        got = grids.to_real(xs[k])
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        expected = ref_real(from_cos_sin(rows[k]))
        assert np.linalg.norm(many_real[k] - expected) <= 1e-13 * np.linalg.norm(expected)
        expected = ref_fourier(us[k])
        got = grids.to_fourier(us[k])
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        expected = to_cos_sin(ref_fourier(us[k].real))
        assert np.linalg.norm(many_fourier[k] - expected) <= 1e-13 * np.linalg.norm(expected)


def test_gamma_only_grid_transforms():
    rng = np.random.default_rng(14)
    grids = build_grids(Lattice.cubic(2 * np.pi), 0.4)
    assert grids.n_b == 1
    root_vol = np.sqrt(grids.lattice.volume)
    coeffs = np.array([1.5 - 0.5j])
    np.testing.assert_allclose(grids.to_real(coeffs), np.full(grids.n_g, coeffs[0] / root_vol),
                               rtol=1e-14)
    values = rng.standard_normal(grids.n_g) + 1j * rng.standard_normal(grids.n_g)
    np.testing.assert_allclose(grids.to_fourier(values), [values.sum() * root_vol / grids.n_g],
                               rtol=1e-13)
    np.testing.assert_allclose(grids.to_fourier(grids.to_real(coeffs)), coeffs, rtol=1e-14)
    assert grids.to_real_many(np.ones((2, 1))).shape == (2, grids.n_g)


def test_roundtrip_identity_on_sphere():
    rng = np.random.default_rng(9)
    grids = build_grids(Lattice.orthorhombic(3.0, 2.4, 2.8), 7.0)
    for _ in range(100):
        x = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
        back = grids.to_fourier(grids.to_real(x))
        assert np.linalg.norm(back - x) <= 1e-14 * np.linalg.norm(x)


def test_norm_identities():
    rng = np.random.default_rng(10)
    grids = build_grids(Lattice.cubic(2.0), 8.0)
    for _ in range(10):
        x = rng.standard_normal(grids.n_b) + 1j * rng.standard_normal(grids.n_b)
        ratio = np.linalg.norm(grids.to_real(x)) / np.linalg.norm(x)
        assert ratio == pytest.approx(np.sqrt(grids.n_g / grids.lattice.volume), rel=1e-12)
        u = rng.standard_normal(grids.n_g) + 1j * rng.standard_normal(grids.n_g)
        assert np.linalg.norm(grids.to_fourier(u)) <= grids.w * np.linalg.norm(u) * (1 + 1e-12)


def test_batched_transforms_agree():
    rng = np.random.default_rng(11)
    grids = build_grids(Lattice.cubic(2.0), 8.0)
    rows = rng.standard_normal((5, grids.n_b))
    many = grids.to_real_many(rows)
    values = rng.standard_normal((5, grids.n_g))
    many_fourier = grids.to_fourier_many(values)
    assert many.dtype == many_fourier.dtype == np.float64
    for k in range(5):
        np.testing.assert_allclose(many[k], grids.to_real(from_cos_sin(rows[k])),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(many_fourier[k], to_cos_sin(grids.to_fourier(values[k])),
                                   rtol=1e-13, atol=1e-13)


def test_real_pair_refuses_complex_input():
    # the real pair has no imaginary part to carry: it raises rather than drop it
    grids = build_grids(Lattice.cubic(2.0), 8.0)
    with pytest.raises(TypeError, match="real"):
        grids.to_fourier_many(np.ones((2, grids.n_g), dtype=complex))
    with pytest.raises(TypeError, match="real"):
        grids.to_real_many(np.ones((2, grids.n_b), dtype=complex))
    with pytest.raises(ValueError):
        grids.to_real_many(np.ones((2, grids.n_b + 1)))
    with pytest.raises(ValueError):
        grids.to_fourier_many(np.ones(grids.n_g))


@given(lengths=st.tuples(*[st.floats(1.5, 5.0)] * 3),
       shear=st.tuples(*[st.floats(-0.6, 0.6)] * 3),
       n_target=st.floats(1.0, 400.0), seed=st.integers(0, 2**32 - 1))
@example(lengths=(2 * np.pi,) * 3, shear=(0.0, 0.0, 0.0), n_target=0.09, seed=0)  # gamma only
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_real_pair_matches_full_cube_fft(lengths, shear, n_target, seed):
    """The real pair against `ifftn`/`fftn` of the zero-padded cube, plus the sphere round trip.

    Orthorhombic cells (zero shear) and sheared ones, with the cutoff
    chosen for about n_target sphere points; n_b <= 400.
    """
    ax, ay, az = lengths
    lattice = Lattice.from_vectors([ax, 0, 0], [shear[0], ay, 0], [shear[1], shear[2], az])
    e_cut = 0.5 * (n_target * 3 * np.pi**2 / (np.sqrt(2.0) * lattice.volume)) ** (2 / 3)
    grids = FourierGrids(lattice, e_cut)
    assume(grids.n_b <= 400)
    ref_real, ref_fourier = full_cube_transforms(grids)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, grids.n_b))
    values = rng.standard_normal((3, grids.n_g))
    on_grid = grids.to_real_many(rows)
    on_sphere = grids.to_fourier_many(values)
    assert on_grid.dtype == on_sphere.dtype == np.float64
    for k in range(3):
        expected = ref_real(from_cos_sin(rows[k]))
        assert np.linalg.norm(on_grid[k] - expected) <= 1e-13 * np.linalg.norm(expected)
        expected = to_cos_sin(ref_fourier(values[k]))
        assert np.abs(expected.imag).max() <= 1e-13 * np.linalg.norm(expected)
        assert np.linalg.norm(on_sphere[k] - expected.real) <= 1e-13 * np.linalg.norm(expected)
    back = grids.to_fourier_many(on_grid)
    assert np.linalg.norm(back - rows) <= 1e-13 * np.linalg.norm(rows)


def test_length_mismatch_raises():
    grids = build_grids(Lattice.cubic(2.0), 5.0)
    with pytest.raises(ValueError):
        grids.to_real(np.zeros(grids.n_b + 1, dtype=complex))
    with pytest.raises(ValueError):
        grids.to_fourier(np.zeros(grids.n_g - 1))
