"""Shared tiny model fixtures for the response-side tests."""

import numpy as np
import pytest

from pwdyson import Lattice, build_grids
from pwdyson.groundstate import GaussianWell, ModelSpec, run_scf


@pytest.fixture
def h_applications(monkeypatch):
    """Callable returning how many band vectors the Sternheimer CG has multiplied by H.

    The CG applies the array `real_hamiltonian` returns, with the projector
    folded into it in place, H_Q = Q H_r Q: the one `response._kept_bases`
    holds for a response solve (counted as it is handed out, so an H_Q
    cached before the test counts too), or one `solve_sternheimer` builds
    itself when it is given none.  Every product y @ H with that array on
    the right counts the rows of y.  A band vector is one real row in the
    cos/sin basis, so the count is the number of band-vector products with
    H, and the returned costs can be checked against the work actually
    done.
    """
    from pwdyson import response, sternheimer

    rows = [0]

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[-1] is self:
                rows[0] += len(inputs[0]) if np.ndim(inputs[0]) == 2 else 1
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    original = sternheimer.real_hamiltonian
    monkeypatch.setattr(sternheimer, "real_hamiltonian",
                        lambda grids, v_local: original(grids, v_local).view(Counted))
    kept_bases = response._kept_bases

    def counted_kept_bases(gs):
        basis, h_q = kept_bases(gs)
        return basis, h_q.view(Counted)
    monkeypatch.setattr(response, "_kept_bases", counted_kept_bases)
    return lambda: rows[0]


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
