"""Oracles that the tests check the program against: complex plane-wave objects, a dense CG
and a finite-difference dV0.

The program holds every orbital as real cos/sin coefficients u = T c
(`pwbasis`).  Here are the same objects in the plane-wave basis e_G: T
and T^H, the round-off check that takes complex cos/sin rows to the real
ones the program accepts, a ground state's orbitals phi = T^H u, the
single-vector transforms, the projector off a complex span and the
complex Hamiltonian, and the Sternheimer CG on whole rows: with one dense
real H_r, as the program ran it before it applied H by sector blocks, or
with the blocks on every sector of every band, as it ran before each
band skipped the sectors its right-hand side does not occupy.  The
program solves every occupied band against the complement of the kept
bands only; this CG takes any bands and any orthonormal eigenvector
basis, so it is also the reference for other complements, such as that
of the occupied bands alone.  Last, a central difference of the
external potential, the oracle of the analytic dV0 that every
right-hand side is built from.
"""

from dataclasses import replace

import numpy as np

from pwdyson.groundstate import external_potential

_SQRT_HALF = np.sqrt(0.5)
REAL_FUNCTION_RTOL = 1e-12  # |Im T c| / |T c| above this: c is not a real function


def to_cos_sin(coeffs: np.ndarray) -> np.ndarray:
    """T c for every row of coeffs (last axis n_b): (c_G + c_-G, i (c_G - c_-G)) / sqrt 2."""
    h = coeffs.shape[-1] // 2
    plus, minus = coeffs[..., :h], coeffs[..., :h:-1]       # G_j and -G_j, j < h
    out = np.array(coeffs, dtype=np.complex128)
    out[..., :h] = (plus + minus) * _SQRT_HALF
    out[..., :h:-1] = (plus - minus) * (1j * _SQRT_HALF)
    return out


def from_cos_sin(coeffs: np.ndarray) -> np.ndarray:
    """T^H u for every row of u: the inverse of `to_cos_sin`."""
    h = coeffs.shape[-1] // 2
    cos, sin = coeffs[..., :h], coeffs[..., :h:-1]
    out = np.array(coeffs, dtype=np.complex128)
    out[..., :h] = (cos - 1j * sin) * _SQRT_HALF
    out[..., :h:-1] = (cos + 1j * sin) * _SQRT_HALF
    return out


def real_rows(rows: np.ndarray, atol=0.0) -> np.ndarray:
    """Re u for complex cos/sin rows u, each a real function to round-off.

    `atol` (a scalar or one value per row) lets a row through whose
    imaginary part is no larger, as for a right-hand side that a
    projection has left at round-off level.

    Raises:
        ValueError: a row's Im u has a norm above both REAL_FUNCTION_RTOL
            times that of u and atol, so it is not a real function (such
            as a degenerate pair mixed by a complex phase).
    """
    imag, whole = np.linalg.norm(rows.imag, axis=-1), np.linalg.norm(rows, axis=-1)
    complex_rows = np.flatnonzero(imag > np.maximum(REAL_FUNCTION_RTOL * whole, atol))
    if len(complex_rows):
        j = complex_rows[0]
        raise ValueError(f"row {j} is not a real function: "
                         f"|Im T c| = {imag[j]:.2e} of |T c| = {whole[j]:.2e}")
    return rows.real


def phi(gs) -> np.ndarray:
    """The ground state's orbitals as sphere coefficients, (n_b, n_kept): T^H u."""
    return np.ascontiguousarray(from_cos_sin(gs.u.T).T)


def real_basis(orbitals: np.ndarray) -> np.ndarray:
    """R = T Phi, real (n_b, m), for orthonormal real functions Phi; raises as `real_rows`."""
    return np.ascontiguousarray(real_rows(to_cos_sin(orbitals.T)).T)


def project_out(orbitals: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Q psi = psi - Phi (Phi^H psi) for complex orthonormal columns Phi."""
    return psi - orbitals @ (orbitals.conj().T @ psi)


def to_real(grids, coeffs: np.ndarray) -> np.ndarray:
    """Grid values w^-1 W^-1 Z c of sphere coefficients c, from the real pair by linearity."""
    rows = to_cos_sin(coeffs)
    re, im = grids.to_real_many(np.stack([rows.real, rows.imag]))
    return re + 1j * im


def to_fourier(grids, values: np.ndarray) -> np.ndarray:
    """Sphere coefficients w Z^T W u of grid values u, from the real pair by linearity."""
    re, im = grids.to_fourier_many(np.array([values.real, values.imag], dtype=float))
    return from_cos_sin(re + 1j * im)


def apply_hamiltonian(grids, v_local: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """H psi = |G|^2 psi / 2 + to_fourier(v_local to_real(psi)) for a sphere vector psi."""
    return 0.5 * grids.g2_sphere * psi + to_fourier(grids, v_local * to_real(grids, psi))


def dense_from_matvec(grids, v_local: np.ndarray) -> np.ndarray:
    """The complex n_b x n_b Hamiltonian, column by column through `apply_hamiltonian`."""
    return np.array([apply_hamiltonian(grids, v_local, e) for e in np.eye(grids.n_b)]).T


def dense_hamiltonian(grids, v_local: np.ndarray) -> np.ndarray:
    """The complex Hamiltonian by the convolution theorem, V_{G,G'} = vhat(G - G').

    Every difference of two sphere vectors fits in the cube, so the
    wrap-around indexing is alias-free.
    """
    h = (grids.cube_fft(v_local) / grids.n_g)[grids.sphere_difference_index]
    h[np.arange(grids.n_b), np.arange(grids.n_b)] += 0.5 * grids.g2_sphere
    return h


FD_STEP = 1e-5              # Bohr, the step of `finite_difference_potential`


def finite_difference_potential(model, grids, gaussian, direction) -> np.ndarray:
    """dV0 of well `gaussian` moved along `direction`, by a central difference of FD_STEP.

    The quotient (v(c + h d) - v(c - h d)) / 2h of two `external_potential`s
    of that well alone, d the unit direction: the oracle of the program's
    analytic `external_potential_derivative`.
    """
    direction = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    well = model.gaussians[gaussian]
    frac_step = FD_STEP * direction @ np.linalg.inv(model.lattice.a)

    def shifted(sign):
        moved = replace(well, center=tuple(np.asarray(well.center) + sign * frac_step))
        return external_potential(replace(model, gaussians=(moved,)), grids)

    return (shifted(+1) - shifted(-1)) / (2 * FD_STEP)


def dense_sternheimer(gs, bands, rhs, tol, basis, max_iter=None, blocks=False):
    """The block CG of `sternheimer.solve_sternheimer` on whole rows, for any bands and basis.

    The rows are the right-hand sides of `bands`, and Q = I - R R^T for
    the real orthonormal eigenvectors R = `basis`, which must hold every
    eigenvector below each band's eps_n.  With blocks=False, one dense
    H_r product per step on the cos/sin basis, with `real_hamiltonian` as
    one matrix, as the program ran before the sectors.  With blocks=True,
    in the adapted basis of the state's `hamiltonian`, every band on every
    sector: the program's CG before it skipped sectors.  Returns
    (solution rows, residual norms, per-band iteration counts).
    """
    from pwdyson.groundstate import real_hamiltonian
    from pwdyson.sternheimer import hamiltonian, kinetic_energies

    n_b = gs.grids.n_b
    bands = np.asarray(bands, dtype=int)
    k = len(bands)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    max_iter = 10 * n_b if max_iter is None else max_iter
    g2 = gs.grids.g2_sphere
    if blocks:
        ham = hamiltonian(gs)
        rhs = ham.basis.to_sectors(rhs)
        basis = np.ascontiguousarray(ham.basis.to_sectors(basis.T).T)
        g2 = g2[ham.basis.orbit_index]

        def apply(p, out):
            ham.apply(p, out=out)
    else:
        h_r = real_hamiltonian(gs.grids, gs.v_local)

        def apply(p, out):
            np.matmul(p, h_r, out=out)
    work = np.zeros((7, k, n_b))
    xr, pa, update = work[0:2], work[2:4], work[4:6]
    x, r = xr
    p, nap = pa
    z, tmp = work[6], update[0]
    r[:] = rhs
    coef = np.empty((k, basis.shape[1]))
    alpha = np.empty(k)

    def project(a, n):
        np.matmul(a[:n], basis, out=coef[:n])
        np.matmul(coef[:n], basis.T, out=tmp[:n])
        a[:n] -= tmp[:n]

    eps = gs.eps[bands][:, None]
    minv = 1.0 / (0.5 * g2 + kinetic_energies(gs)[bands][:, None])
    solution, residual = np.zeros((k, n_b)), np.zeros(k)
    iterations = np.zeros(k, dtype=int)
    live, n = np.arange(k), k
    np.multiply(minv, r, out=p)
    project(p, n)
    rz = np.vecdot(r, p)
    step = 0
    while True:
        apply(p[:n], nap[:n])
        np.multiply(eps, p[:n], out=tmp[:n])
        np.subtract(tmp[:n], nap[:n], out=nap[:n])
        step += 1
        denom = -np.vecdot(p[:n], nap[:n])
        curved = denom > 0
        step_length = alpha[:n]
        step_length.fill(0.0)
        np.divide(rz, denom, out=step_length, where=curved)
        np.multiply(step_length[:, None], pa[:, :n], out=update[:, :n])
        xr[:, :n] += update[:, :n]
        project(r, n)
        res = np.sqrt(np.vecdot(r[:n], r[:n]))
        done = res <= tol
        assert not (~done & ~curved).any(), "A_n is not positive definite on range(Q)"
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
        assert step < max_iter, "dense CG stalled"
        np.multiply(minv[:n], r[:n], out=z[:n])
        project(z, n)
        rz_next = np.vecdot(r[:n], z[:n])
        p[:n] *= (rz_next / rz)[:, None]
        p[:n] += z[:n]
        rz = rz_next
    if blocks:
        solution = ham.basis.from_sectors(solution)
    return solution, residual, iterations.tolist()
