"""Projected preconditioned block CG for the unoccupied orbital response.

Solves Q (H - eps_n) Q x_n = b_n restricted to range(Q), Q = I - Phi Phi^H,
for a set of bands n at once, where the caller chooses the orthonormal
eigenvector basis Phi: the occupied bands, or every kept band (occupied
plus extra), in which case the extra-band part of the response is added
separately by a sum over states.  The operator is Hermitian positive
definite on range(Q) as long as the lowest eigenvalue outside Phi lies
above eps_n, which the occupation cutoff guarantees.

The solve runs in real arithmetic.  In the cos/sin basis of the (G, -G)
pairs (`pwbasis.to_cos_sin`, the unitary map T) H is the real symmetric
H_r of `real_hamiltonian`, the kinetic preconditioner keeps its diagonal,
and Q becomes I - R R^T for the real orthonormal R = T Phi of real
orbitals (`real_basis`).  For a real perturbation and real orbitals each
right-hand side T b_n is real, so a band is one real row: the solve
takes and returns real cos/sin rows, and a complex row with an imaginary
part above round-off is rejected.

Q is folded into the Hamiltonian once per response solve, not per call:
H_Q = Q H_r Q, formed in place by a rank-2m update (`fold_projector`),
is built with the kept bases (`response._kept_bases`) and handed to
every call; a call given no H_Q builds its own.  A CG step then applies
A_n = H_Q - eps_n on range(Q) and re-projects only the residual and the
preconditioned residual, to stop roundoff from leaking components along
Phi back in; each band's iterate is projected once, when the band stops.

The bands' CG runs are independent and share one Hamiltonian, so they
advance in lockstep: each step applies H_Q to every band still iterating
in one real matrix product, while each band keeps its own step lengths,
preconditioner shift, tolerance and stopping iteration; converged bands
drop out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, NonConvergenceError
from .groundstate import GroundState, real_hamiltonian
from .pwbasis import real_rows

PRECONDITIONER_SHIFT_FLOOR = 0.1
_FOLD_ROWS = 64             # rows of H per block of the projector fold


@dataclass
class SternheimerResult:
    solution: np.ndarray            # (k, n_b), one real cos/sin row per band
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


def _band_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_n, b_n> for every band n: row-wise dot products of (k, n_b) arrays."""
    return np.einsum("bi,bi->b", a, b)


def fold_projector(h: np.ndarray, basis: np.ndarray):
    """h <- Q h Q in place for a symmetric h, Q = I - R R^T with R = basis.

    Q H Q = H - R U^T - U R^T with U = H R - R (R^T H R) / 2: one rank-2m
    update, applied in blocks of _FOLD_ROWS rows, so no n_b x n_b
    temporary is made.
    """
    u = h @ basis
    u -= basis @ (0.5 * (basis.T @ u))
    left, right = np.hstack([basis, u]), np.hstack([u, basis]).T
    for start in range(0, len(h), _FOLD_ROWS):
        rows = slice(start, start + _FOLD_ROWS)
        h[rows] -= left[rows] @ right


def solve_sternheimer(gs: GroundState, bands, rhs: np.ndarray, tol, basis: np.ndarray,
                      max_iter: int = None, h_q: np.ndarray = None) -> SternheimerResult:
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
        rhs: (k, n_b) right-hand sides T b_n, one real cos/sin row per
            band, already in range(Q).
        tol: absolute l2 tolerance on each band's (unpreconditioned) CG
            residual; a scalar or k values.
        basis: R = T Phi (`real_basis(Phi)`) of the orthonormal real
            eigenvectors of H spanning the space Q projects out; Phi must
            hold every eigenvector with eigenvalue <= eps_n.
        h_q: Q H_r Q for this basis (`fold_projector`), as the response
            solve holds it; built here when not given.

    Returns the solutions as real cos/sin rows, T x_n.

    Raises:
        InvariantViolationError: a complex right-hand side row is not a
            real function: |Im T b_n| exceeds both round-off of |T b_n| and
            tol_n (see `pwbasis.real_rows`); or a band meets p^H A p <= 0 with
            its residual above tol, so A_n is not positive definite on
            range(Q) (Phi misses an eigenvector below eps_n).
        NonConvergenceError: a band needs more than max_iter (default
            10 n_b) iterations; carries its last residual norm and, as
            `cost`, the H applications spent over every band.
    """
    grids = gs.grids
    n_b = grids.n_b
    bands = np.asarray(bands, dtype=int)
    k = len(bands)
    if rhs.shape != (k, n_b):
        raise ValueError(f"expected ({k}, {n_b}) right-hand sides, got {rhs.shape}")
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    if max_iter is None:
        max_iter = 10 * n_b

    # Work buffers, (k, n_b): row n is band n in the cos/sin basis.  The
    # first `n` rows are the bands still iterating.
    work = np.zeros((6, k, n_b))
    x, r, p, ap, z, tmp = work
    r[:] = real_rows(rhs, atol=tol)
    if h_q is None:
        h_q = real_hamiltonian(grids, gs.v_local)
        fold_projector(h_q, basis)              # symmetric: rows of A p are p^T H_Q
    coef = np.empty((k, basis.shape[1]))

    def project(a, n):
        """a[:n] <- Q a[:n] in place."""
        c = coef[:n]
        np.matmul(a[:n], basis, out=c)
        np.matmul(c, basis.T, out=tmp[:n])
        a[:n] -= tmp[:n]

    eps = gs.eps[bands][:, None]
    minv = 1.0 / (0.5 * grids.g2_sphere + np.maximum(eps, PRECONDITIONER_SHIFT_FLOOR))
    solution = np.zeros((k, n_b))
    residual = np.zeros(k)
    iterations = np.zeros(k, dtype=int)

    live = np.arange(k)                     # bands still iterating
    n = k
    np.multiply(minv, r, out=p)
    project(p, n)
    rz = _band_dots(r, p)
    step = 0

    while True:
        np.matmul(p[:n], h_q, out=ap[:n])
        np.multiply(eps, p[:n], out=tmp[:n])
        ap[:n] -= tmp[:n]
        step += 1
        denom = _band_dots(p[:n], ap[:n])
        curved = denom > 0
        alpha = np.divide(rz, denom, out=np.zeros_like(rz), where=curved)[:, None]
        np.multiply(alpha, p[:n], out=tmp[:n])
        x[:n] += tmp[:n]
        np.multiply(alpha, ap[:n], out=tmp[:n])
        r[:n] -= tmp[:n]
        project(r, n)
        res = np.sqrt(_band_dots(r[:n], r[:n]))
        done = res <= tol
        flat = ~done & ~curved
        if flat.any():
            j = np.flatnonzero(flat)[0]
            raise InvariantViolationError(
                f"Sternheimer CG for band {bands[live[j]]}: p^H A p = {denom[j]:.3e} <= 0 "
                f"at residual {res[j]:.3e} (target {tol[j]:.3e}); "
                "phi must hold every eigenvector below eps_n")
        if done.any():
            stopped = x[:n][done]
            solution[live[done]] = stopped - (stopped @ basis) @ basis.T
            residual[live[done]] = res[done]
            iterations[live[done]] = step
            keep = ~done
            n = int(keep.sum())
            if n == 0:
                break
            for a in (x, r, p, minv):
                a[:n] = a[:len(keep)][keep]
            live, rz, res, tol, eps = (a[keep] for a in (live, rz, res, tol, eps))
        if step >= max_iter:
            raise NonConvergenceError(
                f"Sternheimer CG for band {bands[live[0]]} stalled at {res[0]:.3e} "
                f"(target {tol[0]:.3e})",
                residual=float(res[0]), cost=int(iterations.sum()) + step * n,
            )
        # rz > 0 for every band still iterating: r != 0 and minv > 0
        np.multiply(minv[:n], r[:n], out=z[:n])
        project(z, n)
        rz_next = _band_dots(r[:n], z[:n])
        p[:n] *= (rz_next / rz)[:, None]
        p[:n] += z[:n]
        rz = rz_next

    return SternheimerResult(solution=solution,
                             final_residual_norm=residual,
                             cg_iterations=int(iterations.sum()),
                             iterations_per_band=iterations.tolist())
