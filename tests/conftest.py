"""Shared tiny model fixtures for the response-side tests."""

import dataclasses
import os

import numpy as np
import pytest

from pwdyson import Lattice, build_grids
from pwdyson.config import reference_config
from pwdyson.groundstate import GaussianWell, ModelSpec, run_scf
from pwdyson.harness import ensure_ground_state


@pytest.fixture
def h_applications(monkeypatch):
    """Callable returning how many band vectors the Sternheimer CG has multiplied by H.

    The CG applies the state's `sternheimer.hamiltonian`, counted as it
    is handed out, so one cached before the test counts too.  Every
    `apply` of that object counts the rows it is handed, once however
    many sector blocks it multiplies them by.  A band vector is one real
    row, so the count is the number of band-vector products with H, and
    the returned costs can be checked against the work actually done.
    The extra-band guard runs inside the wrapped call, uncounted.
    """
    from pwdyson import sternheimer
    from pwdyson.groundstate import SectorHamiltonian

    rows = [0]

    class Counted(SectorHamiltonian):
        def apply(self, vectors, out=None, sectors=None):
            rows[0] += len(vectors)
            return super().apply(vectors, out, sectors)

    original = sternheimer.hamiltonian

    def counted(gs):
        ham = original(gs)
        return Counted(**{f.name: getattr(ham, f.name) for f in dataclasses.fields(ham)})
    monkeypatch.setattr(sternheimer, "hamiltonian", counted)
    return lambda: rows[0]


def build_or_load(name, config):
    """The ground state of `config.model`, reused from PWDYSON_TEST_CACHE.

    `ensure_ground_state` reuses a cached archive only when it holds the
    configured model and otherwise rebuilds and overwrites it, so a stale
    archive cannot decide a criterion.
    """
    cache = os.environ.get("PWDYSON_TEST_CACHE")
    return ensure_ground_state(config, archive_path=os.path.join(cache, name) if cache else None)


@pytest.fixture(scope="session")
def toy_metal():
    """(config, ground state) of the shipped `toy_metal`."""
    config = reference_config("toy_metal")
    return config, build_or_load("toy_metal", config)


@pytest.fixture(scope="session")
def toy_insulator():
    """(config, ground state) of the shipped `toy_insulator`."""
    config = reference_config("toy_insulator")
    return config, build_or_load("toy_insulator", config)


@pytest.fixture(scope="session")
def metal_gs():
    """Tiny metallic state: partial occupations, nonzero sum of f'."""
    model = ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=4,
        temperature=5e-3, smearing="fermi_dirac",
        gaussians=(
            GaussianWell(center=(0.3, 0.4, 0.5), amplitude=-3.0, width=0.8),
            GaussianWell(center=(0.7, 0.6, 0.4), amplitude=-2.0, width=0.7),
        ),
    )
    gs = run_scf(model, tol=1e-11, max_iter=400, damping=0.3)
    fprime = gs.fprime_occ()
    assert abs(fprime.sum()) > 1e-6, "fixture must be metallic"
    return gs


@pytest.fixture(scope="session")
def insulator_gs():
    """Tiny gapped state: integer occupations, f' ~ 0."""
    model = ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=2,
        temperature=1e-3, smearing="fermi_dirac",
        gaussians=(GaussianWell(center=(0.5, 0.5, 0.5), amplitude=-5.0, width=0.8),),
    )
    gs = run_scf(model, tol=1e-11, max_iter=400, damping=0.3)
    assert gs.eps_gap_ref - gs.eps[gs.n_occ - 1] > 0.1, "fixture must be gapped"
    return gs


@pytest.fixture(scope="session")
def tiny_oracle_gs():
    """Small dense-oracle model with n_g <= 400."""
    model = ModelSpec(
        lattice=Lattice.cubic(3.4), e_cut=3.8, n_electrons=4,
        temperature=5e-3, smearing="fermi_dirac",
        gaussians=(
            GaussianWell(center=(0.4, 0.45, 0.5), amplitude=-3.0, width=0.8),
            GaussianWell(center=(0.7, 0.6, 0.45), amplitude=-2.0, width=0.7),
        ),
    )
    grids = build_grids(model.lattice, model.e_cut)
    assert grids.n_g <= 400
    return run_scf(model, tol=1e-11, max_iter=600, damping=0.3)


def lda_x_metal_model():
    """`metal_gs`'s two wells with LDA exchange: an xc kernel and moving occupations."""
    return ModelSpec(
        lattice=Lattice.cubic(4.0), e_cut=3.0, n_electrons=4, temperature=5e-3,
        smearing="fermi_dirac", xc="lda_x",
        gaussians=(GaussianWell(center=(0.3, 0.4, 0.5), amplitude=-3.0, width=0.8),
                   GaussianWell(center=(0.7, 0.6, 0.4), amplitude=-2.0, width=0.7)))


@pytest.fixture(scope="session")
def lda_x_metal_gs():
    """The ground state of `lda_x_metal_model`."""
    gs = run_scf(lda_x_metal_model(), tol=1e-12, max_iter=400, damping=0.3)
    assert abs(gs.fprime_occ().sum()) > 1e-6, "fixture must be metallic"
    return gs


def chain_model():
    """Six jittered wells 3.5 Bohr apart at y = z = 0.5, like the benchmark's chain."""
    x = (3.5 * np.arange(6) + np.array([0.02, -0.01, 0.015, 0.0, -0.02, 0.01])) / 21.0
    return ModelSpec(
        lattice=Lattice.orthorhombic(21.0, 2.6, 2.6), e_cut=6.5,
        n_electrons=6, temperature=5e-3, smearing="gaussian",
        gaussians=tuple(GaussianWell(center=(xi, 0.5, 0.5), amplitude=-4.5, width=0.55)
                        for xi in x))


def sheared_model(centers=((0.1, 0.8, 0.3), (0.95, 0.05, 0.5))):
    """A non-orthogonal cell with one well wider than the plane spacing and one narrow well."""
    lattice = Lattice.from_vectors([3.2, 0, 0], [1.3, 2.9, 0], [0.7, -0.9, 3.1])
    wells = (GaussianWell(center=centers[0], amplitude=-2.0, width=1.4),
             GaussianWell(center=centers[1], amplitude=-4.0, width=0.4))
    return ModelSpec(lattice=lattice, e_cut=3.0, n_electrons=2, temperature=1e-2,
                     gaussians=wells)


def full_spectrum(gs):
    """All n_b eigenpairs (eps, u) of the stored Hamiltonian plus their occupations."""
    from pwdyson.groundstate import diagonalize_dense, smearing_function

    eps, u = diagonalize_dense(gs.grids, gs.v_local, gs.grids.n_b)
    f, _ = smearing_function(gs.model.smearing)
    occ = f((eps - gs.fermi_level) / gs.model.temperature)
    return eps, u, occ


def dense_chi0_oracle(gs):
    """Exact discretised chi0 as a dense matrix on grid values.

    Textbook sum over all states: divided-difference pair terms plus the
    Fermi-level-conserving occupation term.  Entirely independent of the
    Sternheimer implementation path.
    """
    grids = gs.grids
    eps, u, occ = full_spectrum(gs)
    nstates = len(eps)
    psi = grids.to_real_many(u.T)            # (nstates, n_g), real orbitals
    quad = grids.lattice.volume / grids.n_g
    _, fp_fun = (None, None)
    from pwdyson.groundstate import smearing_function
    _, fp = smearing_function(gs.model.smearing)
    fprime = fp((eps - gs.fermi_level) / gs.model.temperature) / gs.model.temperature

    chi = np.zeros((grids.n_g, grids.n_g), dtype=complex)
    for p in range(nstates):
        for q in range(p + 1, nstates):
            de = eps[p] - eps[q]
            if abs(de) <= 1e-8 * max(1.0, abs(eps[p])):
                d = fprime[p]
            else:
                d = (occ[p] - occ[q]) / de
            if abs(d) < 1e-18:
                continue
            a = psi[p].conj() * psi[q]
            chi += d * (np.outer(a, a.conj()) + np.outer(a.conj(), a))
    fp_sum = fprime.sum()
    g = np.abs(psi) ** 2
    chi += np.einsum("p,pr,ps->rs", fprime, g, g)
    if abs(fp_sum) > 1e-14 * nstates:
        s = fprime @ g
        chi -= np.outer(s, s) / fp_sum
    return chi.real * quad
