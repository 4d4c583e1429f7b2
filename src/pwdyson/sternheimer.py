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
and Q becomes I - R R^T for a real orthonormal basis R of span(T Phi)
(`real_basis`).  Each complex right-hand side T b_n is stored as two
real rows (Re, Im), so a band's p^H A p, r^H z and residual norm are sums
over its two rows: in exact arithmetic this is the complex CG step for
step, with the same step lengths and stopping iteration for any gauge
of Phi.

The bands' CG runs are independent and share one Hamiltonian, so they
advance in lockstep: each step applies H_r to every band still iterating
in one real matrix product, while each band keeps its own step lengths,
preconditioner shift, tolerance and stopping iteration; converged bands
drop out.  Iterates, residuals and search directions are re-projected
onto range(Q) every iteration to stop roundoff from leaking components
along Phi back in.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvariantViolationError, NonConvergenceError
from .groundstate import GroundState, real_hamiltonian
from .pwbasis import from_cos_sin, to_cos_sin

PRECONDITIONER_SHIFT_FLOOR = 0.1
EXTRA_BAND_RESIDUAL_LIMIT = 1e-10


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


def real_basis(phi: np.ndarray) -> np.ndarray:
    """Real orthonormal basis R, (n_b, m), of span(T Phi) for orthonormal Phi (n_b, m).

    Then T Phi Phi^H T^H = R R^T, so Q is real in the cos/sin basis.

    Raises:
        InvariantViolationError: span(T Phi) is not closed under
            conjugation (as when Phi splits a degenerate cluster):
            singular value m + 1 of [Re T Phi, Im T Phi] exceeds
            EXTRA_BAND_RESIDUAL_LIMIT.
    """
    m = phi.shape[1]
    rows = to_cos_sin(phi.T)
    # scipy's LAPACK, which the outer solver's singular values already load
    u, sigma, _ = scipy.linalg.svd(np.concatenate([rows.real, rows.imag]).T,
                                   full_matrices=False)
    if m < len(sigma) and sigma[m] > EXTRA_BAND_RESIDUAL_LIMIT:
        raise InvariantViolationError(
            f"span of the {m} projected bands is not closed under conjugation: singular "
            f"value {m + 1} is {sigma[m]:.2e} > {EXTRA_BAND_RESIDUAL_LIMIT:.0e}; "
            "keep or drop degenerate clusters whole")
    return np.ascontiguousarray(u[:, :m])


def _band_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_n, b_n> for every band n of (k, 2, n_b) arrays: the sum over its two rows."""
    return np.einsum("bij,bij->b", a, b)


def solve_sternheimer(gs: GroundState, bands, rhs: np.ndarray, tol, basis: np.ndarray,
                      max_iter: int = None) -> SternheimerResult:
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
        basis: `real_basis(Phi)` of the orthonormal eigenvectors of H
            spanning the space Q projects out; Phi must hold every
            eigenvector with eigenvalue <= eps_n.

    Raises:
        InvariantViolationError: a band meets p^H A p <= 0 with its
            residual above tol, so A_n is not positive definite on
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
    h_t = real_hamiltonian(grids, gs.v_local).T              # rows: (H y)^T = y^T H^T
    basis_t = basis.T

    # Work buffers, (k, 2, n_b): band n holds rows (Re, Im) of its vector in
    # the cos/sin basis.  The first `n` bands are the ones still iterating.
    work = np.zeros((6, k, 2, n_b))
    x, r, p, ap, z, tmp = work
    t_rhs = to_cos_sin(rhs)
    r[:, 0], r[:, 1] = t_rhs.real, t_rhs.imag
    coef = np.empty((2 * k, basis.shape[1]))

    def rows(a, n):
        return a[:n].reshape(2 * n, n_b)

    def project(a, n):
        """a[:n] <- Q a[:n] in place."""
        y, t, c = rows(a, n), rows(tmp, n), coef[:2 * n]
        np.matmul(y, basis, out=c)
        np.matmul(c, basis_t, out=t)
        y -= t

    eps = gs.eps[bands][:, None, None]
    minv = 1.0 / (0.5 * grids.g2_sphere + np.maximum(eps, PRECONDITIONER_SHIFT_FLOOR))
    solution = np.zeros((k, 2, n_b))
    residual = np.zeros(k)
    iterations = np.zeros(k, dtype=int)

    live = np.arange(k)                     # bands still iterating
    n = k
    np.multiply(minv, r, out=p)
    project(p, n)
    rz = _band_dots(r, p)
    step = 0

    while True:
        project(p, n)
        np.matmul(rows(p, n), h_t, out=rows(ap, n))
        np.multiply(eps, p[:n], out=tmp[:n])
        ap[:n] -= tmp[:n]
        project(ap, n)
        step += 1
        denom = _band_dots(p[:n], ap[:n])
        curved = denom > 0
        alpha = np.divide(rz, denom, out=np.zeros_like(rz), where=curved)[:, None, None]
        np.multiply(alpha, p[:n], out=tmp[:n])
        x[:n] += tmp[:n]
        np.multiply(alpha, ap[:n], out=tmp[:n])
        r[:n] -= tmp[:n]
        project(x, n)
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
            solution[live[done]] = x[:n][done]
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
        p[:n] *= (rz_next / rz)[:, None, None]
        p[:n] += z[:n]
        rz = rz_next

    return SternheimerResult(solution=from_cos_sin(solution[:, 0] + 1j * solution[:, 1]),
                             final_residual_norm=residual,
                             cg_iterations=int(iterations.sum()),
                             iterations_per_band=iterations.tolist())
