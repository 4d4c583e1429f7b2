"""Projected preconditioned block CG for the unoccupied orbital response.

Solves Q (H - eps_n) Q x_n = b_n restricted to range(Q), Q = I - Phi Phi^H,
for every occupied band n at once, where Phi holds every kept band of the
ground state (occupied plus extra): `response.apply_chi0` adds the
extra-band part of the response separately by a sum over states.  The
operator is Hermitian positive definite on range(Q) as long as the lowest
eigenvalue outside Phi lies above eps_n, which the occupation cutoff
guarantees.

The solve runs in real arithmetic.  In the cos/sin basis of the (G, -G)
pairs (the unitary map T of `pwbasis`) H is the real symmetric H_r of
`real_hamiltonian`, the kinetic preconditioner keeps its diagonal, and Q
becomes I - R R^T for the real orthonormal R = T Phi of real orbitals,
the ground state's `u`.  For a real perturbation and real orbitals each
right-hand side T b_n is real, so a band is one real row: the solve
takes and returns real cos/sin rows.

The search directions stay in range(Q), so a CG step applies
A_n = H_r - eps_n to them unprojected and re-projects only the residual
and the preconditioned residual, which stops roundoff from leaking
components along Phi back in; each band's iterate is projected once,
when the band stops.

The CG works in the adapted basis S of `pwbasis.SectorBasis`: the
mirrors, mirror products and axis exchanges that leave v_local unchanged
commute with H_r, so H_r is block-diagonal there, one block per sector
(a character of their group), and `groundstate.sector_hamiltonian` holds
only those blocks.  The kept bands and the preconditioner are mapped
into S once per ground state (`sector_constants`), and cut to the
sectors a group of bands keeps once per state and set of sectors
(`_group_constants`); the blocks are built once per ground state
(`hamiltonian`); every solve on that state uses them.  A solve maps the
right-hand sides into S once and the solutions back.  Every kept band
lies in one sector (the SCF's `eigh` runs per block, and
`sector_constants` checks it), so Q, A_n and the preconditioner are
block-diagonal too, and a band's CG on one sector never touches
another: each band runs only on the sectors its right-hand side
occupies, with parts within its tolerance skipped and counted in its
residual, and the bands that keep the same sectors run together on
those sectors' coefficients, blocks and kept bands alone (Baroni, de Gironcoli, Dal Corso and Giannozzi, Rev. Mod. Phys. 73, 515
(2001), use the same selection rules).  With no symmetry there is one
sector, S is the identity and the block is H_r.

Each band is preconditioned by diag(1/(|G|^2/2 + T_n)), with T_n its
kinetic energy (Teter, Payne and Allan, Phys. Rev. B 40, 12255 (1989));
|G| is constant on an orbit of the operations, so it stays diagonal in S.

The bands' CG runs are independent and share one Hamiltonian, so the
bands of a group advance in lockstep: each step applies H to every band
still iterating in one real matrix product per kept sector, while each
band keeps its own step lengths, preconditioner shift, tolerance and
stopping iteration; converged bands drop out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, NonConvergenceError
from .groundstate import GroundState, SectorHamiltonian, sector_hamiltonian

EXTRA_BAND_RESIDUAL_LIMIT = 1e-10
SECTOR_LEAK_RTOL = 1e-12    # a kept band with more of its norm outside one sector spans several


@dataclass
class SternheimerResult:
    solution: np.ndarray            # (k, n_b), one real cos/sin row per band
    final_residual_norm: np.ndarray  # (k,)
    cg_iterations: int              # total over the bands: the solve's cost in H applications
    iterations_per_band: list       # (k,) ints


def project_out_occupied(basis: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Q psi = psi - R (R^T psi) for a real basis R (n_b, m); idempotent for orthonormal R."""
    return psi - basis @ (basis.T @ psi)


def kinetic_energies(gs: GroundState) -> np.ndarray:
    """T_n = <phi_n|-Laplacian/2|phi_n> of every kept band, computed once per state.

    A band with T_n = 0, the constant lowest band of a free-electron
    model, is given the smallest nonzero |G|^2/2 of the sphere instead,
    which keeps its preconditioner positive definite.
    """
    def compute():
        g2 = gs.grids.g2_sphere
        return np.maximum(0.5 * (g2 @ gs.u ** 2), 0.5 * np.min(g2, where=g2 > 0, initial=np.inf))
    return gs.derived("kinetic_energies", compute)


def hamiltonian(gs: GroundState) -> SectorHamiltonian:
    """The operator the CG applies: `sector_hamiltonian` of the state, built once per state.

    `response.apply_chi0` takes the response in the extra bands by a sum
    over states, exact only for eigenvectors of H[v_local], so before the
    blocks are handed out ||H u_e - eps_e u_e|| is checked for every extra
    band with them (a diagnostic, not a Hamiltonian application).

    Raises:
        InvariantViolationError: an extra band's eigen-residual exceeds
            EXTRA_BAND_RESIDUAL_LIMIT, or `sector_hamiltonian` raises.
    """
    def compute():
        ham = sector_hamiltonian(gs.grids, gs.v_local)
        extra = ham.basis.to_sectors(gs.u[:, gs.n_occ:].T)         # (n_extra, n_b)
        residuals = np.linalg.norm(ham.apply(extra) - gs.eps[gs.n_occ:, None] * extra, axis=1)
        worst = float(np.max(residuals, initial=0.0))
        if worst > EXTRA_BAND_RESIDUAL_LIMIT:
            raise InvariantViolationError(
                f"kept extra bands are not eigenvectors of H: residual {worst:.2e} "
                f"> {EXTRA_BAND_RESIDUAL_LIMIT:.0e}")
        return ham
    return gs.derived("hamiltonian", compute)


def _sector_weights(rows: np.ndarray, sectors) -> np.ndarray:
    """(k, number of sectors): the squared norm of each row's part in each sector."""
    return np.stack([np.vecdot(rows[:, s], rows[:, s]) for s in sectors], axis=1)


def sector_constants(gs: GroundState):
    """(u S, the sector of each kept band, the occupied bands' preconditioner), once per state.

    The CG's per-state constants in the adapted basis of `hamiltonian`:
    the kept bands as (n_b, n_kept) columns with the sector holding most
    of each one's norm, and diag(1/(|G|^2/2 + T_n)) of every occupied band
    n as one (n_occ, n_b) row each.

    Raises:
        InvariantViolationError: a kept band holds more than
            SECTOR_LEAK_RTOL of its norm outside its sector (beyond the
            round-off of the map), so Q is not block-diagonal.
    """
    def compute():
        sectors = hamiltonian(gs).basis
        rows = sectors.to_sectors(gs.u.T)
        weights = _sector_weights(rows, sectors.sectors)
        main = np.argmax(weights, axis=1)
        outside = np.sum(weights, axis=1, where=np.arange(len(sectors.sectors)) != main[:, None])
        mixed = np.flatnonzero(outside > SECTOR_LEAK_RTOL ** 2 * np.sum(weights, axis=1))
        if len(mixed):
            n = mixed[0]
            share = np.sqrt(outside[n] / weights[n].sum())
            raise InvariantViolationError(
                f"kept band {n} spans several sectors: {share:.2e} of its norm lies outside "
                f"sector {main[n]} (limit {SECTOR_LEAK_RTOL:.0e})")
        kinetic = 0.5 * gs.grids.g2_sphere[sectors.orbit_index]
        minv = 1.0 / (kinetic + kinetic_energies(gs)[:gs.n_occ, None])
        return np.ascontiguousarray(rows.T), main, minv
    return gs.derived("sector_constants", compute)


def _group_constants(gs: GroundState, code: int):
    """(columns, sector indices, kept bands, preconditioner) of the sectors in bit set `code`.

    The columns of those sectors in the adapted basis, a slice when they
    are consecutive; their indices; the kept bands in them restricted to
    those columns; and `sector_constants`' preconditioner on those
    columns.  Computed once per state and `code`.
    """
    def compute():
        basis, basis_sector, minv = sector_constants(gs)
        sectors = hamiltonian(gs).basis.sectors
        kept = [c for c in range(len(sectors)) if code >> c & 1]
        columns = np.concatenate([np.arange(sectors[c].start, sectors[c].stop) for c in kept])
        if columns[-1] - columns[0] == len(columns) - 1:
            columns = slice(int(columns[0]), int(columns[-1]) + 1)
        if len(kept) < len(sectors):
            basis = basis[columns][:, np.isin(basis_sector, kept)]
        return columns, kept, basis, np.ascontiguousarray(minv[:, columns])
    return gs.derived(f"sternheimer_group_{code}", compute)


def solve_sternheimer(gs: GroundState, rhs: np.ndarray, tol,
                      max_iter: int = None) -> SternheimerResult:
    """CG on A_n = Q (H - eps_n) Q with kinetic-energy preconditioning, for every occupied band.

    H is the state's `hamiltonian` and Q projects out its kept bands u.
    The preconditioner is Q diag(1/(|G|^2/2 + T_n)) Q with T_n the band's
    kinetic energy (`kinetic_energies`), positive for every band.  Every
    band performs at least one iteration (one A application), even for a
    zero rhs; each band's step applies H to one vector, so
    `cg_iterations` is the solve's Hamiltonian cost.

    A and the preconditioner are block-diagonal in the sectors, since
    every kept band lies in one (`sector_constants`), so each band's
    residual splits into independent sector parts.  The right-hand sides
    are mapped into the sectors once; each band skips its sectors other
    than the one with the largest part, smallest first, while their
    summed squared norm stays <= tol_n^2 / 4, keeps x = 0 there and so
    leaves that part of its residual as it is.  The bands are grouped by
    the sectors they keep, and each group runs the lockstep CG on only
    those sectors' coefficients, blocks and kept bands, its bands
    stopping at sqrt(tol_n^2 - skipped_n).  The residual reported is the
    CG's and the skipped part's together, at most tol_n.

    Args:
        gs: converged ground state (grids, orbitals, eigenvalues and the
            local potential that defines H).
        rhs: (n_occ, n_b) right-hand sides T b_n, one real cos/sin row per
            occupied band, already in range(Q).
        tol: absolute l2 tolerance on each band's (unpreconditioned)
            residual; a scalar or n_occ values.

    Returns the solutions as real cos/sin rows, T x_n.

    Raises:
        TypeError: the right-hand sides are complex.
        InvariantViolationError: a band meets p^H A p <= 0 with its
            residual above tol, so A_n is not positive definite on range(Q)
            (u misses an eigenvector below eps_n); or `hamiltonian` or
            `sector_constants` raises.
        NonConvergenceError: a band needs more than max_iter (default
            10 n_b) iterations; carries its last residual norm and, as
            `cost`, the H applications spent over every band.
    """
    grids = gs.grids
    n_b = grids.n_b
    k = gs.n_occ
    if np.iscomplexobj(rhs):
        raise TypeError("solve_sternheimer takes real cos/sin rows")
    if rhs.shape != (k, n_b):
        raise ValueError(f"expected ({k}, {n_b}) right-hand sides, got {rhs.shape}")
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    if max_iter is None:
        max_iter = 10 * n_b
    ham = hamiltonian(gs)
    sectors = ham.basis.sectors

    rows = ham.basis.to_sectors(rhs)
    weights = _sector_weights(rows, sectors)
    order = np.argsort(weights, axis=1, kind="stable")          # the largest part last
    skip = np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1) <= 0.25 * tol[:, None] ** 2
    skip[:, -1] = False
    keep = np.empty_like(skip)
    np.put_along_axis(keep, order, ~skip, axis=1)
    skipped = np.sum(weights, axis=1, where=~keep)
    target = np.where(skipped > 0, np.sqrt(tol ** 2 - skipped), tol)

    solution = np.zeros((k, n_b))
    residual = np.zeros(k)
    iterations = np.zeros(k, dtype=int)
    codes = keep @ (1 << np.arange(len(sectors)))
    for code in np.unique(codes):
        members = np.flatnonzero(codes == code)
        columns, kept, group_basis, minv = _group_constants(gs, int(code))
        at = (members, columns) if isinstance(columns, slice) else np.ix_(members, columns)
        x, res, steps = _lockstep_cg(
            lambda p, out: ham.apply(p, out=out, sectors=kept), rows[at], group_basis,
            minv[members], gs.eps[members][:, None], target[members], max_iter, members,
            int(iterations.sum()))
        solution[at] = x
        residual[members], iterations[members] = res, steps

    return SternheimerResult(solution=ham.basis.from_sectors(solution),
                             final_residual_norm=np.hypot(residual, np.sqrt(skipped)),
                             cg_iterations=int(iterations.sum()),
                             iterations_per_band=iterations.tolist())


def _lockstep_cg(apply, r0: np.ndarray, basis: np.ndarray, minv: np.ndarray, eps: np.ndarray,
                 tol: np.ndarray, max_iter: int, bands: np.ndarray, spent: int):
    """The projected preconditioned CG of every row of r0 in lockstep: (x, residuals, iterations).

    Rows and the basis hold the same coefficients of the adapted basis;
    `apply(p, out)` writes p H.  `minv` is overwritten.  `spent` is what
    earlier groups cost, for the NonConvergenceError.
    """
    k, m = r0.shape
    # Work buffers, (k, m): row n is band n.  The first `n` rows are the
    # bands still iterating.  The iterate and the residual share one
    # buffer, and the search direction and -A p another, so one broadcast
    # update advances both.
    work = np.zeros((7, k, m))
    work[1] = r0
    coef = np.empty((k, basis.shape[1]))
    alpha = np.empty(k)
    basis_t = basis.T

    def rows(n):
        """Views of the first n rows of every buffer."""
        xr, pa, update = work[0:2, :n], work[2:4, :n], work[4:6, :n]
        return (xr, pa, update, xr[0], xr[1], pa[0], pa[1], work[6, :n], update[0], coef[:n],
                alpha[:n], minv[:n])

    def project(a, c, tmp):
        """a <- Q a in place."""
        np.matmul(a, basis, out=c)
        np.matmul(c, basis_t, out=tmp)
        a -= tmp

    solution = np.zeros((k, m))
    residual = np.zeros(k)
    iterations = np.zeros(k, dtype=int)

    live = np.arange(k)                     # bands still iterating
    xr, pa, update, x, r, p, nap, z, tmp, c, step_length, mv = rows(k)
    np.multiply(mv, r, out=p)
    project(p, c, tmp)
    rz = np.vecdot(r, p)
    step = 0

    while True:
        apply(p, nap)
        np.multiply(eps, p, out=tmp)
        np.subtract(tmp, nap, out=nap)
        step += 1
        denom = -np.vecdot(p, nap)
        curved = denom > 0
        bent = curved.all()
        if bent:
            np.divide(rz, denom, out=step_length)
        else:
            step_length.fill(0.0)
            np.divide(rz, denom, out=step_length, where=curved)
        np.multiply(step_length[:, None], pa, out=update)
        xr += update                            # x += alpha p, r -= alpha A p
        project(r, c, tmp)
        res = np.sqrt(np.vecdot(r, r))
        done = res <= tol
        if not bent and (~done & ~curved).any():
            j = np.flatnonzero(~done & ~curved)[0]
            raise InvariantViolationError(
                f"Sternheimer CG for band {bands[live[j]]}: p^H A p = {denom[j]:.3e} <= 0 "
                f"at residual {res[j]:.3e} (target {tol[j]:.3e}); "
                "the basis must hold every eigenvector below eps_n")
        if done.any():
            stopped = x[done]
            solution[live[done]] = stopped - (stopped @ basis) @ basis_t
            residual[live[done]] = res[done]
            iterations[live[done]] = step
            keep = ~done
            n = int(keep.sum())
            if n == 0:
                break
            for a in (x, r, p, mv):
                a[:n] = a[keep]
            live, rz, res, tol, eps = (a[keep] for a in (live, rz, res, tol, eps))
            xr, pa, update, x, r, p, nap, z, tmp, c, step_length, mv = rows(n)
        if step >= max_iter:
            raise NonConvergenceError(
                f"Sternheimer CG for band {bands[live[0]]} stalled at {res[0]:.3e} "
                f"(target {tol[0]:.3e})",
                residual=float(res[0]), cost=spent + int(iterations.sum()) + step * len(live),
            )
        # rz > 0 for every band still iterating: r != 0 and minv > 0
        np.multiply(mv, r, out=z)
        project(z, c, tmp)
        rz_next = np.vecdot(r, z)
        p *= (rz_next / rz)[:, None]
        p += z
        rz = rz_next
    return solution, residual, iterations
