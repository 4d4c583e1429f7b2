"""Projected preconditioned block CG for the unoccupied orbital response.

Solves Q (H - eps_n) Q x_n = b_n restricted to range(Q), Q = I - Phi Phi^H,
for a set of bands n at once, where the caller chooses the orthonormal
eigenvector basis Phi: the occupied bands, or every kept band (occupied
plus extra), in which case the extra-band part of the response is added
separately by a sum over states.  The operator is Hermitian positive
definite on range(Q) as long as the lowest eigenvalue outside Phi lies
above eps_n, which the occupation cutoff guarantees.

The bands' CG runs are independent and share one Hamiltonian, so they
advance in lockstep: each step applies the dense H of `dense_hamiltonian`
to every band still iterating in one matrix product, while each band
keeps its own step lengths, preconditioner shift, tolerance and stopping
iteration; converged bands drop out.  Vectors are rows of (k, n_b)
arrays.  Iterates, residuals and search directions are re-projected onto
range(Q) every iteration to stop roundoff from leaking components along
Phi back in.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, NonConvergenceError
from .groundstate import GroundState, dense_hamiltonian

PRECONDITIONER_SHIFT_FLOOR = 0.1


@dataclass
class SternheimerResult:
    solution: np.ndarray            # (k, n_b), one row per band
    final_residual_norm: np.ndarray  # (k,)
    cg_iterations: int              # total over the bands: the solve's cost in H applications
    iterations_per_band: list       # (k,) ints


def project_out_occupied(phi: np.ndarray, psi: np.ndarray,
                         phi_h: np.ndarray = None) -> np.ndarray:
    """Q psi = psi - Phi (Phi^H psi); idempotent for orthonormal Phi.

    Callers that project many times pass `phi_h` = Phi^H, which saves a
    copy of Phi per call.
    """
    if phi_h is None:
        phi_h = phi.conj().T
    return psi - phi @ (phi_h @ psi)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for every row i."""
    return np.einsum("ij,ij->i", a.conj(), b).real


def solve_sternheimer(gs: GroundState, bands, rhs: np.ndarray, tol, phi: np.ndarray,
                      phi_h: np.ndarray = None, max_iter: int = None) -> SternheimerResult:
    """CG on A_n = Q (H - eps_n) Q with kinetic-energy preconditioning, per band.

    The preconditioner is Q diag(1/(|G|^2/2 + c_n)) Q with
    c_n = max(eps_n, 0.1), which stays positive definite for bands with
    nonpositive eigenvalues.  Every band performs at least one iteration
    (one A application), even for a zero rhs; each band's step applies H to
    one vector, so `cg_iterations` is the solve's Hamiltonian cost.

    Args:
        gs: converged ground state (grids, eigenvalues and the local
            potential that defines H).
        bands: k band indices (0-based) of the shifts eps_n.
        rhs: (k, n_b) right-hand sides, one row per band, already in range(Q).
        tol: absolute l2 tolerance on each band's (unpreconditioned) CG
            residual; a scalar or k values.
        phi: (n_b, m) orthonormal eigenvectors of H spanning the space Q
            projects out; it must hold every eigenvector with eigenvalue
            <= eps_n.
        phi_h: Phi^H, when the caller keeps it.

    Raises:
        InvariantViolationError: a band meets p^H A p <= 0 with its
            residual above tol, so A_n is not positive definite on
            range(Q) (phi misses an eigenvector below eps_n).
        NonConvergenceError: a band needs more than max_iter (default
            10 n_b) iterations; carries its last residual norm.
    """
    grids = gs.grids
    bands = np.asarray(bands, dtype=int)
    k = len(bands)
    if rhs.shape != (k, grids.n_b):
        raise ValueError(f"expected ({k}, {grids.n_b}) right-hand sides, got {rhs.shape}")
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    if phi_h is None:
        phi_h = phi.conj().T
    if max_iter is None:
        max_iter = 10 * grids.n_b
    h_t = dense_hamiltonian(grids, gs.v_local).T             # rows: (H y)^T = y^T H^T
    phi_t, phi_c = phi.T, phi_h.T

    def project(y):
        return y - (y @ phi_c) @ phi_t

    eps = gs.eps[bands][:, None]
    minv = 1.0 / (0.5 * grids.g2_sphere + np.maximum(eps, PRECONDITIONER_SHIFT_FLOOR))
    solution = np.zeros((k, grids.n_b), dtype=np.complex128)
    residual = np.zeros(k)
    iterations = np.zeros(k, dtype=int)

    live = np.arange(k)                     # bands still iterating
    x = np.zeros((k, grids.n_b), dtype=np.complex128)
    r = np.array(rhs, dtype=np.complex128, copy=True)
    p = project(minv * r)
    rz = _row_dots(r, p)
    step = 0

    while True:
        p = project(p)
        ap = project(p @ h_t - eps * p)
        step += 1
        denom = _row_dots(p, ap)
        curved = denom > 0
        alpha = np.divide(rz, denom, out=np.zeros_like(rz), where=curved)[:, None]
        x += alpha * p
        r -= alpha * ap
        x = project(x)
        r = project(r)
        res = np.linalg.norm(r, axis=1)
        done = res <= tol
        flat = ~done & ~curved
        if flat.any():
            j = np.flatnonzero(flat)[0]
            raise InvariantViolationError(
                f"Sternheimer CG for band {bands[live[j]]}: p^H A p = {denom[j]:.3e} <= 0 "
                f"at residual {res[j]:.3e} (target {tol[j]:.3e}); "
                "phi must hold every eigenvector below eps_n")
        if done.any():
            solution[live[done]] = x[done]
            residual[live[done]] = res[done]
            iterations[live[done]] = step
            keep = ~done
            if not keep.any():
                break
            live, x, r, p, rz, res, tol, eps, minv = (
                a[keep] for a in (live, x, r, p, rz, res, tol, eps, minv))
        if step >= max_iter:
            raise NonConvergenceError(
                f"Sternheimer CG for band {bands[live[0]]} stalled at {res[0]:.3e} "
                f"(target {tol[0]:.3e})",
                residual=float(res[0]),
            )
        # rz > 0 for every band still iterating: r != 0 and minv > 0
        z = project(minv * r)
        rz_next = _row_dots(r, z)
        p = z + (rz_next / rz)[:, None] * p
        rz = rz_next

    return SternheimerResult(solution=solution, final_residual_norm=residual,
                             cg_iterations=int(iterations.sum()),
                             iterations_per_band=iterations.tolist())
