"""Projected preconditioned CG for the unoccupied orbital response.

Solves Q (H - eps_n) Q x = b restricted to range(Q), Q = I - Phi Phi^H,
where the caller chooses the orthonormal eigenvector basis Phi: the
occupied bands, or every kept band (occupied plus extra), in which case
the extra-band part of the response is added separately by a sum over
states.  The operator is Hermitian positive definite on range(Q) as long
as the lowest eigenvalue outside Phi lies above eps_n, which the
occupation cutoff guarantees.  Iterates, residuals and search directions
are re-projected onto range(Q) every iteration to stop roundoff from
leaking components along Phi back in.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .groundstate import GroundState, apply_hamiltonian

PRECONDITIONER_SHIFT_FLOOR = 0.1


@dataclass
class SternheimerResult:
    solution: np.ndarray
    final_residual_norm: float
    cg_iterations: int


def project_out_occupied(phi: np.ndarray, psi: np.ndarray,
                         phi_h: np.ndarray = None) -> np.ndarray:
    """Q psi = psi - Phi (Phi^H psi); idempotent for orthonormal Phi.

    Callers that project many times pass `phi_h` = Phi^H, which saves a
    copy of Phi per call.
    """
    if phi_h is None:
        phi_h = phi.conj().T
    return psi - phi @ (phi_h @ psi)


def solve_sternheimer(gs: GroundState, v_local: np.ndarray, n: int,
                      rhs: np.ndarray, tol: float, phi: np.ndarray,
                      phi_h: np.ndarray = None, max_iter: int = None) -> SternheimerResult:
    """CG on A_n = Q (H - eps_n) Q with kinetic-energy preconditioning.

    The preconditioner is Q diag(1/(|G|^2/2 + c_n)) Q with
    c_n = max(eps_n, 0.1), which stays positive definite for bands with
    nonpositive eigenvalues.  Always performs at least one iteration
    (one A application, one Hamiltonian count), even for a zero rhs.

    Args:
        gs: converged ground state (grids and eigenvalues).
        v_local: total local potential that phi/eps diagonalise.
        n: band index (0-based) of the shift eps_n.
        rhs: right-hand side, already in range(Q).
        tol: absolute l2 tolerance on the (unpreconditioned) CG residual.
        phi: (n_b, k) orthonormal eigenvectors of H spanning the space Q
            projects out; it must hold every eigenvector with eigenvalue
            <= eps_n.
        phi_h: Phi^H, when the caller keeps it.

    Raises:
        NonConvergenceError: more than max_iter (default 10 n_b)
            iterations; carries the last residual norm.
    """
    grids = gs.grids
    if phi_h is None:
        phi_h = phi.conj().T
    eps_n = float(gs.eps[n])
    if max_iter is None:
        max_iter = 10 * grids.n_b
    shift = max(eps_n, PRECONDITIONER_SHIFT_FLOOR)
    minv = 1.0 / (0.5 * grids.g2_sphere + shift)

    def apply_a(p):
        hp = apply_hamiltonian(grids, v_local, p)
        return project_out_occupied(phi, hp - eps_n * p, phi_h)

    x = np.zeros(grids.n_b, dtype=np.complex128)
    r = np.array(rhs, dtype=np.complex128, copy=True)
    z = project_out_occupied(phi, minv * r, phi_h)
    p = z.copy()
    rz = np.vdot(r, z).real
    iterations = 0

    while True:
        p = project_out_occupied(phi, p, phi_h)
        ap = apply_a(p)
        iterations += 1
        denom = np.vdot(p, ap).real
        alpha = rz / denom if denom > 0 else 0.0
        x += alpha * p
        r -= alpha * ap
        x = project_out_occupied(phi, x, phi_h)
        r = project_out_occupied(phi, r, phi_h)
        res = float(np.linalg.norm(r))
        if res <= tol:
            break
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"Sternheimer CG for band {n} stalled at {res:.3e} (target {tol:.3e})",
                residual=res,
            )
        z = project_out_occupied(phi, minv * r, phi_h)
        rz_next = np.vdot(r, z).real
        beta = rz_next / rz if rz != 0 else 0.0
        rz = rz_next
        p = z + beta * p

    return SternheimerResult(solution=x, final_residual_norm=res,
                             cg_iterations=iterations)
