"""Application of chi0 and the (inexact) dielectric adjoint E = I - chi0 K.

The density response to a local perturbation dv splits into four pieces:
first-order occupation changes, the occupied-subspace orbital response
(explicit sum over states), the response in the extra bands kept by the
SCF (explicit sum over states), and the rest of the unoccupied response
from Sternheimer solves in the complement of every kept band, one per
occupied band, run together as one block CG.  This is the
Schur-complement split of Cances, Herbst, Kemlin, Levitt and Stamm
(Lett. Math. Phys. 113, 21 (2023)): it gives the same chi0 as a solve
in the complement of the occupied bands alone, but the CG then works
against the wider gap eps_{N_kept+1} - eps_n.  The per-band solve
tolerances are an explicit argument so this module stays agnostic of
how they are chosen.

E is always applied in rescaled form, E v = v - |Kv| chi0(Kv / |Kv|),
so the Sternheimer right-hand sides stay O(1) and small Kv cannot
underflow.  The same rescaling links the solve tolerances to the
computable error bound of `dielectric_error_bound`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .groundstate import GroundState, real_hamiltonian
from .kernels import KernelSpec, apply_kernel
from .pwbasis import from_cos_sin, to_cos_sin
from .sternheimer import fold_projector, project_out_occupied, solve_sternheimer

DEGENERACY_RTOL = 1e-8
EXTRA_BAND_RESIDUAL_LIMIT = 1e-10
IMAG_EIGENSHIFT_RTOL = 1e-10


@dataclass
class DielectricApplication:
    """One application of E and what it spent; empty lists when Kv = 0."""

    output: np.ndarray
    kv_norm: float
    cg_iterations_per_band: list
    tolerances_used: list
    ham_applications: int           # Hamiltonian applications of the block solve


def delta_eigen_occupations(gs: GroundState, dv: np.ndarray):
    """First-order eigenvalue, Fermi-level and occupation changes.

    delta_eps_n = <phi_n, dv phi_n>; the Fermi-level shift distributes the
    occupation change so that sum_n delta_f_n = 0.  For gapped systems
    (all f'_n ~ 0) the Fermi level is pinned and delta_eps_F = 0.
    """
    _, m = _occupied_matrix(gs, dv)
    return _first_order_occupations(gs, m)


def _occupied_matrix(gs: GroundState, dv: np.ndarray):
    """Rows T(dv phi_n), (n_occ, n_b), and M[m, n] = <phi_m, dv phi_n>, both real.

    One batched real transform of dv psi_n for every occupied band, in
    the cos/sin basis, where M = U_occ^T T(dv Phi_occ).  A complex dv
    passes only through `_real_perturbation`.
    """
    rows = gs.grids.to_fourier_many(_real_perturbation(gs, dv) * gs.psi_occ_real)
    return rows, gs.u_occ.T @ rows.T


def _real_perturbation(gs: GroundState, dv: np.ndarray) -> np.ndarray:
    """dv when it is real; for a complex dv, its real part once Im dv is shown to be noise.

    Im dv shifts eigenvalue n by the imaginary part of <phi_n, dv phi_n>
    = (|Omega|/n_g) sum_r psi_n(r)^2 dv(r).  Below FFT round-off of the
    scale max(|<phi_n, Re dv phi_n>|, |dv| w) it is dropped.

    Raises:
        FloatingPointError: a first-order eigenvalue shift has an
            imaginary part above IMAG_EIGENSHIFT_RTOL times that scale.
    """
    if not np.iscomplexobj(dv):
        return dv
    density = gs.psi_occ_real ** 2
    shifts = (density @ dv.real) * gs.grids.w ** 2
    imag = float(np.max(np.abs(density @ dv.imag))) * gs.grids.w ** 2
    scale = max(float(np.max(np.abs(shifts), initial=0.0)),
                float(np.linalg.norm(dv)) * gs.grids.w)
    if scale > 0 and imag > IMAG_EIGENSHIFT_RTOL * scale:
        raise FloatingPointError(
            f"first-order eigenvalue shifts have imaginary part {imag:.2e} "
            f"relative to {scale:.2e}")
    return dv.real


def _first_order_occupations(gs: GroundState, m: np.ndarray):
    """(delta_eps, delta_eps_F, delta_f) from M[m, n] = <phi_m, dv phi_n>."""
    delta_eps = np.diag(m)
    fprime = gs.fprime_occ()
    fp_sum = fprime.sum()
    if abs(fp_sum) > 1e-14 * gs.n_occ:
        delta_eps_f = float(fprime @ delta_eps / fp_sum)
    else:
        delta_eps_f = 0.0
    delta_f = fprime * (delta_eps - delta_eps_f)
    return delta_eps, delta_eps_f, delta_f


def _occupied_pair_weights(gs: GroundState) -> np.ndarray:
    """Weight matrix W[m, n] for the occupied-occupied sum over states.

    W[m, n] multiplies <phi_m, dv phi_n>; the pair (n, m) + (m, n)
    contributions to the density response then reproduce the exact
    divided difference (f_n - f_m)/(eps_n - eps_m):

        f_n W[m, n] + f_m W[n, m] = (f_n - f_m)/(eps_n - eps_m).

    Degenerate pairs use the derivative f'_n for the divided difference.
    The diagonal is zero: the delta_f term carries the full first-order
    occupation response, which is what keeps chi0 of a constant zero
    for metals.
    """
    f = gs.occ_occ
    eps = gs.eps_occ
    fprime = gs.fprime_occ()
    n = gs.n_occ
    de = eps[None, :] - eps[:, None]               # eps_n - eps_m at [m, n]
    df = f[None, :] - f[:, None]
    degenerate = np.abs(de) <= DEGENERACY_RTOL * np.maximum(1.0, np.abs(eps[None, :]))
    ratio = np.where(degenerate, fprime[None, :], df / np.where(degenerate, 1.0, de))
    weights = ratio * f[None, :] / (f[None, :] ** 2 + f[:, None] ** 2)
    np.fill_diagonal(weights, 0.0)
    return weights


def delta_phi_occupied(gs: GroundState, dv: np.ndarray) -> np.ndarray:
    """Occupied-subspace orbital response, one column of sphere coefficients per occupied band."""
    _, m = _occupied_matrix(gs, dv)
    return from_cos_sin(_occupied_orbital_response(gs, m).T).T


def _occupied_orbital_response(gs: GroundState, m: np.ndarray) -> np.ndarray:
    """The occupied-subspace response in the cos/sin basis, (n_b, n_occ)."""
    return gs.u_occ @ (_occupied_pair_weights(gs) * m)


def _kept_bases(gs: GroundState) -> tuple:
    """(R, H_Q) of every kept band, computed once per state.

    R = T Phi, the state's real orbitals `u`, is the real basis the
    Sternheimer CG projects against, and H_Q = Q H_r Q with
    Q = I - R R^T is the operator it applies: H_r is built once, and
    every solve until `drop_derived` reuses it.  The extra-band sum over
    states in `apply_chi0` is exact only for eigenvectors of H[v_local],
    so H_r first checks ||H_r u_e - eps_e u_e|| for every extra band (a
    diagnostic is not a Hamiltonian application); then Q is folded into
    it in place.

    Raises:
        InvariantViolationError: an extra band's eigen-residual exceeds
            EXTRA_BAND_RESIDUAL_LIMIT.
    """
    def compute():
        h = real_hamiltonian(gs.grids, gs.v_local)
        extra = gs.u[:, gs.n_occ:]                              # (n_b, n_extra)
        residuals = np.linalg.norm(h @ extra - extra * gs.eps[gs.n_occ:], axis=0)
        worst = float(np.max(residuals, initial=0.0))
        if worst > EXTRA_BAND_RESIDUAL_LIMIT:
            raise InvariantViolationError(
                f"kept extra bands are not eigenvectors of H: residual {worst:.2e} "
                f"> {EXTRA_BAND_RESIDUAL_LIMIT:.0e}")
        fold_projector(h, gs.u)
        return gs.u, h
    return gs.derived("kept_bases", compute)


def _extra_band_response(gs: GroundState, dvpsi: np.ndarray) -> np.ndarray:
    """-sum_e u_e <phi_e, dv phi_n> / (eps_e - eps_n), (n_b, n_occ) in the cos/sin basis."""
    extra = gs.u[:, gs.n_occ:]
    gaps = gs.eps[gs.n_occ:, None] - gs.eps_occ[None, :]
    return -(extra @ ((extra.T @ dvpsi.T) / gaps))


def apply_chi0(gs: GroundState, dv: np.ndarray, tolerances) -> tuple:
    """Density response chi0 dv with per-band Sternheimer tolerances.

    Each band's unoccupied response -Q_occ (H - eps_n)^-1 Q_occ dv phi_n is
    the extra-band sum over states plus a CG solve on range(Q_kept),
    Q_kept = I - Phi_kept Phi_kept^H; every band's solve is a row of one
    block CG call, and only the solve costs Hamiltonian applications.
    Returns (delta_rho, the solve's SternheimerResult).  The per-band
    contributions are accumulated in a fixed-order array and reduced with
    a pairwise sum.
    """
    grids = gs.grids
    n_occ = gs.n_occ
    tolerances = np.asarray(tolerances, dtype=float)
    if tolerances.shape != (n_occ,):
        raise ValueError(f"need one tolerance per occupied band ({n_occ}), "
                         f"got shape {tolerances.shape}")
    if np.any(tolerances <= 0):
        raise ValueError("Sternheimer tolerances must be positive")

    psi_r = gs.psi_occ_real                                   # (n_occ, n_g) real
    basis, h_q = _kept_bases(gs)
    dvpsi, m = _occupied_matrix(gs, dv)
    _, _, delta_f = _first_order_occupations(gs, m)
    dphi = _occupied_orbital_response(gs, m) + _extra_band_response(gs, dvpsi)

    rhs = -project_out_occupied(basis, dvpsi.T, basis.T).T
    solve = solve_sternheimer(gs, np.arange(n_occ), rhs, tolerances, basis, h_q=h_q)
    dphi += solve.solution.T
    # every array below is real; in place, as these (n_occ, n_g) arrays
    # set the memory high-water mark: psi (2 f dphi + delta_f psi)
    contrib = grids.to_real_many(dphi.T)
    contrib *= 2.0 * gs.occ_occ[:, None]
    contrib += delta_f[:, None] * psi_r
    contrib *= psi_r
    return contrib.sum(axis=0), solve


def apply_dielectric(gs: GroundState, kernel: KernelSpec, v: np.ndarray,
                     tolerances) -> DielectricApplication:
    """E v = v - |Kv| chi0(Kv / |Kv|); exact identity when Kv = 0.

    `tolerances` is either a per-band vector or a callable |Kv| -> vector,
    for strategies whose prefactor needs the kernel-product norm of the
    very vector being applied.
    """
    grids = gs.grids
    u = apply_kernel(kernel, grids, gs.rho, np.asarray(v, dtype=float))
    kv_norm = float(np.linalg.norm(u))
    if kv_norm == 0.0:
        return DielectricApplication(
            output=np.array(v, dtype=float, copy=True), kv_norm=0.0,
            cg_iterations_per_band=[], tolerances_used=[], ham_applications=0,
        )
    tol_vec = tolerances(kv_norm) if callable(tolerances) else tolerances
    drho, solve = apply_chi0(gs, u / kv_norm, tol_vec)
    return DielectricApplication(
        output=v - kv_norm * drho, kv_norm=kv_norm,
        cg_iterations_per_band=solve.iterations_per_band,
        tolerances_used=list(tol_vec),
        ham_applications=solve.cg_iterations,
    )


def orbital_row_norm(grids, phi: np.ndarray) -> float:
    """Maximum over grid points of the l2 row norm of to_real(Phi), Phi (n_b, k).

    For orthonormal Phi this lies between sqrt(n_occ/|Omega|) and
    sqrt(n_g/|Omega|).  to_real(Phi) = X + i Y with X and Y the real
    transforms of Re T Phi and Im T Phi, so |to_real(Phi)|^2 = X^2 + Y^2.
    """
    rows = to_cos_sin(phi.T)
    return _max_row_norm(grids.to_real_many(np.concatenate([rows.real, rows.imag])))


def _max_row_norm(psi_r: np.ndarray) -> float:
    """The row norm of real orbitals on the grid, (k, n_g)."""
    return float(np.sqrt(np.max(np.sum(psi_r ** 2, axis=0))))


def dielectric_error_bound(gs: GroundState, kv_norm: float, tolerances) -> float:
    """Computable bound on ||(E - E_inexact) v|| from the solve tolerances.

        2 |Kv| ||to_real(Phi)||_{2,inf} sqrt(n_g n_occ / |Omega|)
            * max_n f_n tau_n / (eps_{N_occ+1} - eps_n)

    `apply_chi0` solves on the complement of every kept band, so the error
    of band n's solve is at most tau_n / (eps_{N_kept+1} - eps_n), which is
    at most the tau_n / (eps_{N_occ+1} - eps_n) used here: the bound still
    dominates, with more slack.  eps_{N_kept+1} is not stored, so the
    tighter gap cannot be used.
    """
    tolerances = np.asarray(tolerances, dtype=float)
    gaps = gs.eps_gap_ref - gs.eps_occ
    worst = float(np.max(gs.occ_occ * tolerances / gaps))
    row = _cached_row_norm(gs)
    grids = gs.grids
    return (2.0 * kv_norm * row
            * np.sqrt(grids.n_g * gs.n_occ / gs.grids.lattice.volume) * worst)


def _cached_row_norm(gs: GroundState) -> float:
    """`orbital_row_norm` of the occupied orbitals, computed once per state."""
    return gs.derived("row_norm", lambda: _max_row_norm(gs.psi_occ_real))
