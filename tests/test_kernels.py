"""Tests for the response kernel and the Kerker preconditioner."""

import numpy as np
import pytest

from pwdyson import Lattice, build_grids
from pwdyson.kernels import KernelSpec, KerkerSpec, apply_kernel, apply_kerker

from oracles import assemble_dense


def small_grids(alat=3.0, e_cut=2.0):
    # e_cut chosen so the dense assembly stays tiny (n_g <= 512)
    return build_grids(Lattice.cubic(alat), e_cut)


def test_kernel_annihilates_constants():
    grids = small_grids()
    spec = KernelSpec(xc="none")
    rho = np.ones(grids.n_g)
    out = apply_kernel(spec, grids, rho, np.full(grids.n_g, 2.5))
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_kernel_single_mode():
    grids = small_grids()
    g0 = grids.lattice.b[0] + grids.lattice.b[1]
    x = grids.real_space_points()
    v = np.cos(x @ g0)
    out = apply_kernel(KernelSpec(), grids, np.ones(grids.n_g), v)
    np.testing.assert_allclose(out, 4 * np.pi / np.dot(g0, g0) * v, rtol=1e-11, atol=1e-12)


def test_kernel_symmetry_dense():
    rng = np.random.default_rng(0)
    grids = small_grids()
    assert grids.n_g <= 1000
    rho = 0.5 + rng.uniform(0, 1, grids.n_g)
    for xc in ("none", "lda_x"):
        spec = KernelSpec(xc=xc)
        k = assemble_dense(lambda v: apply_kernel(spec, grids, rho, v), grids.n_g)
        np.testing.assert_allclose(k, k.T, atol=1e-11)


def test_kernel_linearity():
    rng = np.random.default_rng(1)
    grids = small_grids()
    rho = 0.5 + rng.uniform(0, 1, grids.n_g)
    spec = KernelSpec(xc="lda_x")
    u = rng.standard_normal(grids.n_g)
    v = rng.standard_normal(grids.n_g)
    a, b = 1.7, -0.3
    lhs = apply_kernel(spec, grids, rho, a * u + b * v)
    rhs = a * apply_kernel(spec, grids, rho, u) + b * apply_kernel(spec, grids, rho, v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_lda_kernel_pointwise_value():
    grids = small_grids()
    rho = np.full(grids.n_g, 0.8)
    v = np.full(grids.n_g, 1.0)
    out = apply_kernel(KernelSpec(xc="lda_x"), grids, rho, v)
    expected = -(1.0 / 3.0) * (3.0 / np.pi) ** (1.0 / 3.0) * 0.8 ** (-2.0 / 3.0)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_kerker_alpha_zero_is_identity():
    rng = np.random.default_rng(2)
    grids = small_grids()
    v = rng.standard_normal(grids.n_g)
    np.testing.assert_array_equal(apply_kerker(KerkerSpec(alpha=0.0), grids, v), v)


def test_kerker_preserves_constants():
    grids = small_grids()
    v = np.full(grids.n_g, -1.4)
    np.testing.assert_allclose(apply_kerker(KerkerSpec(alpha=0.8), grids, v), v,
                               rtol=1e-13, atol=1e-13)


def test_kerker_preserves_mean():
    rng = np.random.default_rng(3)
    grids = small_grids()
    v = rng.standard_normal(grids.n_g)
    out = apply_kerker(KerkerSpec(alpha=1.1), grids, v)
    assert abs(out.mean() - v.mean()) < 1e-14 * max(1.0, abs(v.mean()))


def test_kerker_dense_spectrum():
    grids = small_grids()
    assert grids.n_g <= 512 or grids.n_g <= 1000
    spec = KerkerSpec(alpha=0.8)
    t = assemble_dense(lambda v: apply_kerker(spec, grids, v), grids.n_g)
    np.testing.assert_allclose(t, t.T, atol=1e-12)
    eig = np.linalg.eigvalsh(0.5 * (t + t.T))
    assert eig.min() > 0.0
    assert eig.max() <= 1.0 + 1e-12
    assert abs(eig.max() - 1.0) < 1e-12


def test_kerker_contraction_and_equality_on_constants():
    rng = np.random.default_rng(4)
    grids = small_grids()
    spec = KerkerSpec(alpha=0.9)
    for _ in range(5):
        v = rng.standard_normal(grids.n_g)
        assert np.linalg.norm(apply_kerker(spec, grids, v)) <= np.linalg.norm(v) * (1 + 1e-12)
    c = np.full(grids.n_g, 2.0)
    assert np.linalg.norm(apply_kerker(spec, grids, c)) == pytest.approx(np.linalg.norm(c))


def test_kerker_damping_monotone_in_g():
    grids = build_grids(Lattice.cubic(4.0), 6.0)
    spec = KerkerSpec(alpha=0.8)
    damp = grids.g2_cube / (grids.g2_cube + spec.alpha**2)
    order = np.argsort(grids.g2_cube)
    assert np.all(np.diff(damp[order]) >= -1e-15)
