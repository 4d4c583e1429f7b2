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

The explicit sums over the kept bands give chi0_K, the exact low-energy
part of chi0, held as A D A^T (`KeptSumOverStates`).
`dyson_preconditioner` inverts I - chi0_K K from it by Woodbury: the
`p` strategies' right preconditioner, the LDOS reasoning of Herbst and
Levitt (J. Phys.: Condens. Matter 33, 085503 (2021)) on the kept set.
"""

from dataclasses import dataclass

import numpy as np

from .groundstate import DEGENERACY_RTOL, GroundState
from .kernels import KernelSpec, apply_kernel, lda_x_kernel
from .sternheimer import project_out_occupied, solve_sternheimer

_GRAM_ROWS = 2              # pair densities per block of `kept_kernel_gram`


@dataclass
class DielectricApplication:
    """One application of E and what it spent; empty lists when Kv = 0."""

    output: np.ndarray
    kv_norm: float
    cg_iterations_per_band: list
    tolerances_used: list
    ham_applications: int           # Hamiltonian applications of the block solve


def _occupied_matrix(gs: GroundState, dv: np.ndarray):
    """Rows T(dv phi_n), (n_occ, n_b), and M[m, n] = <phi_m, dv phi_n>, both real.

    One batched real transform of dv psi_n for every occupied band, in
    the cos/sin basis, where M = U_occ^T T(dv Phi_occ).
    """
    rows = gs.grids.to_fourier_many(dv * gs.psi_occ_real)
    return rows, gs.u_occ.T @ rows.T


def _occupations_fixed(gs: GroundState, fprime: np.ndarray) -> bool:
    """Whether the state is gapped: T |sum_n f'_n| <= 1e-14 per band.

    A gapped state's top band sits where its occupation rounds to 2,
    where T f' is about 2 eps_machine at any T.
    """
    return abs(fprime.sum()) * gs.model.temperature <= 1e-14 * gs.n_occ


def _first_order_occupations(gs: GroundState, m: np.ndarray):
    """(delta_eps, delta_eps_F, delta_f) from M[m, n] = <phi_m, dv phi_n>.

    Occupations move only when `_occupations_fixed` is false.
    """
    delta_eps = np.diag(m)
    fprime = gs.fprime_occ()
    fp_sum = fprime.sum()
    if _occupations_fixed(gs, fprime):
        return delta_eps, 0.0, np.zeros_like(delta_eps)
    delta_eps_f = float(fprime @ delta_eps / fp_sum)
    return delta_eps, delta_eps_f, fprime * (delta_eps - delta_eps_f)


def _occupied_pair_weights(gs: GroundState) -> np.ndarray:
    """Weight matrix W[m, n] for the occupied-occupied sum over states.

    W[m, n] multiplies <phi_m, dv phi_n>; the pair (n, m) + (m, n)
    contributions to the density response then reproduce the exact
    divided difference (f_n - f_m)/(eps_n - eps_m):

        f_n W[m, n] + f_m W[n, m] = (f_n - f_m)/(eps_n - eps_m).

    Degenerate pairs use the derivative f'_n for the divided difference.
    The diagonal is zero: the delta_f term carries the full first-order
    occupation response, which is what keeps chi0 of a constant zero
    for metals.  Computed once per state.
    """
    def compute():
        f, eps = gs.occ_occ, gs.eps_occ
        de = eps[None, :] - eps[:, None]               # eps_n - eps_m at [m, n]
        df = f[None, :] - f[:, None]
        degenerate = np.abs(de) <= DEGENERACY_RTOL * np.maximum(1.0, np.abs(eps[None, :]))
        ratio = np.where(degenerate, gs.fprime_occ()[None, :], df / np.where(degenerate, 1.0, de))
        weights = ratio * f[None, :] / (f[None, :] ** 2 + f[:, None] ** 2)
        np.fill_diagonal(weights, 0.0)
        return weights
    return gs.derived("pair_weights", compute)


def _occupied_orbital_response(gs: GroundState, m: np.ndarray) -> np.ndarray:
    """The occupied-subspace response in the cos/sin basis, (n_b, n_occ)."""
    return gs.u_occ @ (_occupied_pair_weights(gs) * m)


def _extra_band_response(gs: GroundState, dvpsi: np.ndarray) -> np.ndarray:
    """-sum_e u_e <phi_e, dv phi_n> / (eps_e - eps_n), (n_b, n_occ) in the cos/sin basis."""
    extra = gs.u[:, gs.n_occ:]
    return -(extra @ ((extra.T @ dvpsi.T) / _extra_band_gaps(gs)))


def _extra_band_gaps(gs: GroundState) -> np.ndarray:
    """eps_e - eps_n at [e, n], extra band e, occupied band n: the extra-band denominators."""
    return gs.eps[gs.n_occ:, None] - gs.eps_occ[None, :]


@dataclass(frozen=True)
class KeptSumOverStates:
    """chi0_K = A D A^T: the share of chi0 that `apply_chi0` sums over the kept bands.

    Entry j pairs the kept band m = kept[j] with the occupied band
    n = occupied[j], m >= n.  Column j of A is the pair density
    psi_m psi_n on the grid, so A^T x = dvol sum_r psi_m psi_n x.  D,
    `weights`, is block-diagonal:
    - an entry m > n has 2 (f_n - f_m)/(eps_n - eps_m) on the diagonal,
      f' for a degenerate pair and f_m = 0 for an extra band, from the
      weights `apply_chi0` uses (`_occupied_pair_weights`,
      `_extra_band_gaps`);
    - the entries m = n hold diag(f') - f' f'^T / sum f', the first-order
      occupations and their Fermi-level shift, and are absent from a
      state that `_occupations_fixed` calls gapped.

    Only entries of nonzero weight are listed.  chi0_K is symmetric and
    negative semidefinite, and it maps a constant to zero.
    """

    psi: np.ndarray          # (n_kept, n_g): the kept orbitals on the grid
    n_occ: int
    dvol: float
    kept: np.ndarray         # (p,): m of each entry
    occupied: np.ndarray     # (p,): n of each entry
    weights: np.ndarray      # (p, p): D

    def __post_init__(self):
        for part in (self.kept, self.occupied, self.weights):     # shared through gs.derived
            part.flags.writeable = False

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """A^T x, (p,), for a grid vector x: one GEMM against the kept orbitals."""
        overlaps = self.psi @ (x * self.psi[:self.n_occ]).T          # (n_kept, n_occ)
        return self.dvol * overlaps[self.kept, self.occupied]

    def density(self, c: np.ndarray) -> np.ndarray:
        """A c = sum_j c_j psi_m psi_n on the grid: one GEMM against the kept orbitals."""
        table = np.zeros((self.n_occ, len(self.psi)))
        table[self.occupied, self.kept] = c
        return np.vecdot(table @ self.psi, self.psi[:self.n_occ], axis=0)

    def pair_densities(self, entries: slice) -> np.ndarray:
        """The columns `entries` of A, one row each."""
        return self.psi[self.kept[entries]] * self.psi[self.occupied[entries]]


def kept_sum_over_states(gs: GroundState) -> KeptSumOverStates:
    """The state's `KeptSumOverStates`, computed once per state."""
    def compute():
        f, n_occ = gs.occ_occ, gs.n_occ
        weighted = f[None, :] * _occupied_pair_weights(gs)          # f_n W[m, n]
        pair = np.zeros((gs.n_kept, n_occ))
        pair[:n_occ] = 2.0 * np.tril(weighted + weighted.T, -1)
        pair[n_occ:] = -2.0 * f[None, :] / _extra_band_gaps(gs)
        kept, occupied = np.nonzero(pair)
        fprime = gs.fprime_occ()
        moving = (np.zeros(0, dtype=int) if _occupations_fixed(gs, fprime)
                  else np.flatnonzero(fprime))
        fp, n_moving = fprime[moving], len(moving)
        weights = np.zeros((n_moving + len(kept),) * 2)
        weights[:n_moving, :n_moving] = np.diag(fp) - np.outer(fp, fp) / fprime.sum()
        weights[n_moving:, n_moving:] = np.diag(pair[kept, occupied])
        return KeptSumOverStates(
            psi=gs.psi_kept_real, n_occ=n_occ, dvol=gs.grids.lattice.volume / gs.grids.n_g,
            kept=np.concatenate([moving, kept]), occupied=np.concatenate([moving, occupied]),
            weights=weights)
    return gs.derived("kept_sum_over_states", compute)


def kept_kernel_gram(gs: GroundState, kernel: KernelSpec) -> np.ndarray:
    """G = A^T K A, (p, p), for the state's `KeptSumOverStates` A.

    The Hartree part is diagonal in Fourier space, 4 pi / |G|^2 there
    (`coulomb_half`), so by Parseval on the half spectrum G_H = S S^T, row
    j of S holding sqrt(dvol m c / n_g) (Re a_j, Im a_j): a_j the DFT of
    pair density j, c the Coulomb multiplier and m the number of points
    of the full spectrum that a half-spectrum point stands for.  a_j is
    taken only on the grids' `pair_support`, where a product of two
    sphere functions lives, `_GRAM_ROWS` pair densities at a time,
    recomputed from the orbitals: one forward transform each, and G_H
    is exactly symmetric.  LDA exchange adds dvol A^T diag(f_x) A,
    pointwise in real space, a block of at most n_occ entries at a time;
    each block below the diagonal is the transpose of one above it.  No
    (n_g, p) array is held.
    """
    sos, grids = kept_sum_over_states(gs), gs.grids
    p = len(sos.kept)
    support = grids.pair_support
    weight = np.sqrt(sos.dvol / grids.n_g * support.multiplicity
                     * grids.coulomb_half.ravel()[support.half])
    n = len(weight)
    spectra = np.empty((p, 2 * n))
    for start in range(0, p, _GRAM_ROWS):
        rows = slice(start, start + _GRAM_ROWS)
        spectrum = grids.pair_spectra(sos.pair_densities(rows))
        np.multiply(spectrum.real, weight, out=spectra[rows, :n])
        np.multiply(spectrum.imag, weight, out=spectra[rows, n:])
    gram = spectra @ spectra.T
    del spectra
    if kernel.xc == "lda_x":
        f_x = sos.dvol * lda_x_kernel(gs.rho)
        blocks = [slice(start, start + gs.n_occ) for start in range(0, p, gs.n_occ)]
        for j, cols in enumerate(blocks):
            weighted = f_x * sos.pair_densities(cols)
            for rows in blocks[:j + 1]:
                block = sos.pair_densities(rows) @ weighted.T
                gram[rows, cols] += block
                if rows != cols:
                    gram[cols, rows] += block.T
    return gram


def dyson_preconditioner(gs: GroundState, kernel: KernelSpec):
    """v -> P v, P = (I - chi0_K K)^-1 by Woodbury from the `KeptSumOverStates`.

    P = I + A (I - D G)^-1 D A^T K with G = A^T K A, (p, p)
    (`kept_kernel_gram`), so applying P costs one application of K and
    the two GEMMs of A^T and A, and no Hamiltonian application; building
    it costs one forward transform per pair density and no application of
    K.  (I - D G)^-1 D is built once per state and kernel, so once per
    solve.  P maps a constant c to c + chi0_K K c, itself for the Hartree
    kernel, and keeps the mean of any vector, as chi0_K's output has none.
    """
    sos = kept_sum_over_states(gs)

    def compute():
        gram = kept_kernel_gram(gs, kernel)
        return np.linalg.solve(np.eye(len(gram)) - sos.weights @ gram, sos.weights)
    woodbury = gs.derived(f"dyson_woodbury_{kernel.xc}", compute)

    def apply(v):
        kv = apply_kernel(kernel, gs.grids, gs.rho, v)
        return v + sos.density(woodbury @ sos.coefficients(kv))
    return apply


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
    dvpsi, m = _occupied_matrix(gs, dv)
    _, _, delta_f = _first_order_occupations(gs, m)
    dphi = _occupied_orbital_response(gs, m) + _extra_band_response(gs, dvpsi)

    rhs = -project_out_occupied(gs.u, dvpsi.T).T
    solve = solve_sternheimer(gs, rhs, tolerances)
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
    called before `apply_chi0` and not at all when Kv = 0: the budgeted
    operator passes the harness's `checked_tolerances` so, and a refusal
    raised there costs no Hamiltonian application.
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


def dielectric_error_bound(gs: GroundState, kv_norm: float, tolerances) -> float:
    """Computable bound on ||(E - E_inexact) v|| from the solve tolerances.

        2 |Kv| ||psi_occ||_{2,inf} sqrt(n_g n_occ / |Omega|)
            * max_n f_n tau_n / (eps_{N_occ+1} - eps_n)

    with ||psi_occ||_{2,inf} the row norm of the occupied orbitals on the
    grid (`_cached_row_norm`).

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
    """||psi_occ||_{2,inf}, computed once per state.

    The maximum over grid points of the l2 norm of the occupied orbitals'
    values there; for orthonormal orbitals it lies between
    sqrt(n_occ/|Omega|) and sqrt(n_g/|Omega|).
    """
    def compute():
        return float(np.sqrt(np.max(np.sum(gs.psi_occ_real ** 2, axis=0))))
    return gs.derived("row_norm", compute)
