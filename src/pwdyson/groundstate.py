"""Toy-solid Hamiltonian, dense diagonalisation, smearing and the SCF loop.

The model is a reduced Hartree-Fock solid: kinetic energy, a lattice-summed
sum of Gaussian wells as the external potential, the Hartree potential of
the electron density, and optionally a local LDA exchange term.  At desk
scale (n_b up to a couple thousand) the eigenproblem is solved densely,
which keeps every downstream test exact.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg
from scipy.special import erfc, expit

from .errors import ConfigurationError, InvariantViolationError, NonConvergenceError
from .pwbasis import FourierGrids, Lattice, build_grids, from_cos_sin


@dataclass(frozen=True)
class GaussianWell:
    center: tuple        # fractional coordinates in the cell
    amplitude: float     # Hartree (negative = attractive)
    width: float         # Bohr

    def __post_init__(self):
        if not self.width > 0:
            raise ConfigurationError(f"gaussian width must be positive, got {self.width}")


@dataclass(frozen=True)
class ModelSpec:
    """Definition of the toy solid."""

    lattice: Lattice
    e_cut: float
    n_electrons: int
    temperature: float
    smearing: str = "fermi_dirac"
    occupation_threshold: float = 1e-8
    xc: str = "none"
    gaussians: tuple = ()

    def __post_init__(self):
        if self.n_electrons <= 0 or self.n_electrons % 2 != 0:
            raise ConfigurationError("n_electrons must be an even positive integer")
        if not self.temperature > 0:
            raise ConfigurationError("temperature must be positive")
        if self.smearing not in ("fermi_dirac", "gaussian"):
            raise ConfigurationError(f"unknown smearing {self.smearing!r}")
        if self.xc not in ("none", "lda_x"):
            raise ConfigurationError(f"unknown xc {self.xc!r}")
        if not 0 < self.occupation_threshold < 2:
            raise ConfigurationError("occupation_threshold must lie in (0, 2)")


# -- smearing ---------------------------------------------------------------

def smearing_function(kind: str):
    """Occupation f(x) on [0, 2) and its derivative f'(x), both monotone."""
    if kind == "fermi_dirac":
        def f(x):
            return 2.0 * expit(-np.asarray(x, dtype=float))

        def fprime(x):
            s = expit(-np.asarray(x, dtype=float))
            return -2.0 * s * (1.0 - s)
    elif kind == "gaussian":
        def f(x):
            return erfc(np.asarray(x, dtype=float))

        def fprime(x):
            x = np.asarray(x, dtype=float)
            return -2.0 / np.sqrt(np.pi) * np.exp(-np.clip(x * x, 0, 700))
    else:
        raise ConfigurationError(f"unknown smearing {kind!r}")
    return f, fprime


def fermi_and_occupations(eps, n_electrons, temperature, smearing="fermi_dirac"):
    """Fermi level by bisection and the resulting occupations.

    Bisects sum_n f((eps_n - mu)/T) = N down to float resolution in mu;
    the smearing functions are strictly monotone so the level is unique.

    Raises:
        NonConvergenceError: the retained spectrum cannot hold N electrons
            (sum f < N even as mu -> infinity), i.e. the model is
            under-resolved.
    """
    eps = np.asarray(eps, dtype=float)
    f, _ = smearing_function(smearing)
    n = float(n_electrons)
    if 2 * len(eps) <= n_electrons:
        raise NonConvergenceError(
            f"{len(eps)} states cannot hold {n_electrons} electrons; retain more states"
        )

    def count(mu):
        return float(np.sum(f((eps - mu) / temperature)))

    lo = float(eps.min()) - temperature
    hi = float(eps.max()) + temperature
    while count(lo) >= n:
        lo -= 10 * temperature + abs(lo) * 0.1 + 1.0
    while count(hi) < n:
        hi += 10 * temperature + abs(hi) * 0.1 + 1.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count(mid) < n:
            lo = mid
        else:
            hi = mid
    fermi = min((lo, hi), key=lambda mu: abs(count(mu) - n))
    return fermi, f((eps - fermi) / temperature)


# -- external potential -----------------------------------------------------

# exp(-r^2 / 2w^2) < 1e-18 beyond r_tail = w * _TAIL_WIDTHS
_TAIL_WIDTHS = np.sqrt(2 * np.log(1e18))


def _image_displacements(grids: FourierGrids, well: GaussianWell):
    """Yield r - (c + R) on the grid for every image of `well` within its tail.

    Fractional offsets are reduced to the minimum image, df in [-1/2, 1/2].
    The component of (df + n) @ a along b_k is (df_k + n_k) 2 pi / |b_k|,
    so an image nearer than r_tail has |n_k| <= r_tail |b_k| / 2 pi + 1/2;
    the plane spacing makes this hold for non-orthogonal cells too.
    """
    a = grids.lattice.a
    df = grids.real_space_points() @ np.linalg.inv(a) - np.asarray(well.center, dtype=float)
    df -= np.round(df)
    base = df @ a
    reach = well.width * _TAIL_WIDTHS * np.linalg.norm(grids.lattice.b, axis=1) / (2 * np.pi)
    for n in itertools.product(*(range(-m, m + 1) for m in np.floor(reach + 0.5).astype(int))):
        yield base + np.asarray(n, dtype=float) @ a


def external_potential(model: ModelSpec, grids: FourierGrids) -> np.ndarray:
    """Lattice-summed Gaussian wells evaluated on the cube grid."""
    v = np.zeros(grids.n_g)
    for g in model.gaussians:
        for d in _image_displacements(grids, g):
            v += g.amplitude * np.exp(-np.einsum("ij,ij->i", d, d) / (2 * g.width**2))
    return v


def gaussian_well(model: ModelSpec, index: int) -> GaussianWell:
    """The model's well `index`; negative or too large indices raise."""
    if not 0 <= index < len(model.gaussians):
        raise ConfigurationError(f"gaussian index {index} out of range")
    return model.gaussians[index]


def external_potential_derivative(model: ModelSpec, grids: FourierGrids,
                                  index: int, direction: np.ndarray) -> np.ndarray:
    """d/dc [lattice-summed well `index`] contracted with a unit direction."""
    g = gaussian_well(model, index)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0 or not np.all(np.isfinite(direction)):
        raise ConfigurationError("perturbation direction must be a nonzero vector")
    direction = direction / norm
    dv = np.zeros(grids.n_g)
    for d in _image_displacements(grids, g):
        gauss = np.exp(-np.einsum("ij,ij->i", d, d) / (2 * g.width**2))
        dv += g.amplitude * gauss * (d @ direction) / g.width**2
    return dv


# -- Hamiltonian ------------------------------------------------------------

_REAL_H_ROWS = 64           # rows of V per block in `real_hamiltonian`


def apply_hamiltonian(grids: FourierGrids, v_local: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply H = -Laplacian/2 + v_local to a sphere vector.

    Matrix-free, through the sphere-pruned transforms.  The Sternheimer
    solve applies the dense H_r of `real_hamiltonian` instead; this is the
    independent cross-check the tests build H from.
    """
    if psi.shape != (grids.n_b,):
        raise ValueError(f"expected sphere vector of length {grids.n_b}, got {psi.shape}")
    if v_local.shape != (grids.n_g,):
        raise ValueError(f"expected grid potential of length {grids.n_g}, got {v_local.shape}")
    return 0.5 * grids.g2_sphere * psi + grids.to_fourier(v_local * grids.to_real(psi))


def dense_hamiltonian(grids: FourierGrids, v_local: np.ndarray) -> np.ndarray:
    """Explicit complex n_b x n_b Hamiltonian via the Fourier convolution theorem.

    V_{G,G'} = vhat(G - G'); every difference of two sphere vectors fits
    in the cube, so the wrap-around indexing is alias-free.  The program
    works with the real H_r of `real_hamiltonian`; this form is the
    independent oracle the tests check it against.
    """
    vfft = grids.cube_fft(v_local) / grids.n_g
    h = vfft[grids.sphere_difference_index]
    h[np.arange(grids.n_b), np.arange(grids.n_b)] += 0.5 * grids.g2_sphere
    return h


def real_hamiltonian(grids: FourierGrids, v_local: np.ndarray) -> np.ndarray:
    """H_r = T H T^H, the dense Hamiltonian in the cos/sin basis of `to_cos_sin`.

    For a real v_local H_r is real symmetric.  Its blocks are sums and
    differences of the real and imaginary parts of the first n_b // 2 rows
    of V_{G,G'} = vhat(G - G'), which hold every vhat(G_i - G_j),
    vhat(G_i + G_j) and vhat(G_i) of the pairs.  Those rows are gathered
    from Re vhat and Im vhat separately, in blocks of _REAL_H_ROWS, and
    H_r is written in place.

    Raises:
        InvariantViolationError: the sphere is not symmetric under G -> -G
            in the index order that T assumes.
    """
    if not np.array_equal(grids.g_int[::-1], -grids.g_int):
        raise InvariantViolationError("sphere is not reversal-symmetric: -G of index j "
                                      "must be index n_b - 1 - j")
    n_b, h = grids.n_b, grids.n_b // 2
    hr = np.empty((n_b, n_b))
    vfft = grids.cube_fft(v_local) / grids.n_g
    v_re, v_im = vfft.real.copy(), vfft.imag.copy()
    # rows and columns: cos of pair i at i, sin of pair i at n_b - 1 - i
    sin_rows = hr[:h:-1]
    for start in range(0, h, _REAL_H_ROWS):
        i = slice(start, min(start + _REAL_H_ROWS, h))
        # rows G_i of V; an intp index gathers about three times faster than int32
        index = grids.sphere_difference_index[i].astype(np.intp)
        re, im = v_re[index], v_im[index]
        np.add(re[:, :h], re[:, :h:-1], out=hr[i, :h])
        np.subtract(im[:, :h], im[:, :h:-1], out=hr[i, :h:-1])
        np.add(im[:, :h], im[:, :h:-1], out=sin_rows[i, :h])
        np.negative(sin_rows[i, :h], out=sin_rows[i, :h])
        np.subtract(re[:, :h], re[:, :h:-1], out=sin_rows[i, :h:-1])
        np.multiply(re[:, h], np.sqrt(2.0), out=hr[i, h])
        np.multiply(im[:, h], -np.sqrt(2.0), out=sin_rows[i, h])
    hr[h, :h], hr[h, h + 1:] = hr[:h, h], hr[h + 1:, h]
    hr[h, h] = v_re[0]
    hr.ravel()[::n_b + 1] += 0.5 * grids.g2_sphere
    return hr


def diagonalize_dense(grids: FourierGrids, v_local: np.ndarray, n_states: int):
    """Lowest n_states eigenpairs (eps, u) of the discretised Hamiltonian.

    A real symmetric `eigh` of H_r gives the eigenvectors as u, (n_b,
    n_states), orthonormal real coefficients in the cos/sin basis: every
    orbital is a real function, and phi = T^H u (`from_cos_sin(u.T).T`)
    holds it as sphere coefficients.
    """
    if n_states > grids.n_b:
        raise ConfigurationError(f"n_states={n_states} exceeds basis size {grids.n_b}")
    return scipy.linalg.eigh(real_hamiltonian(grids, v_local), subset_by_index=[0, n_states - 1])


# -- density and potentials ---------------------------------------------------

def compute_density(grids: FourierGrids, u: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """rho(r) = sum_n f_n psi_n(r)^2 for the real orbitals with cos/sin coefficients u (n_b, k).

    psi_n = `to_real_many` of column n: real grid values, so the density
    is a sum of squares with no imaginary part to discard.
    """
    psi_r = grids.to_real_many(u.T)
    psi_r *= psi_r
    return np.asarray(occ, dtype=float) @ psi_r


def hartree_potential(grids: FourierGrids, rho: np.ndarray) -> np.ndarray:
    """Zero-mean solution of -Laplacian v = 4 pi (rho - mean rho)."""
    rhof = grids.cube_fft(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        vf = 4 * np.pi * rhof / grids.g2_cube
    vf[grids.g2_cube == 0] = 0.0
    v = grids.cube_ifft(vf)
    return v.real


def lda_exchange_potential(rho: np.ndarray) -> np.ndarray:
    """Slater exchange V_x = -(3/pi)^(1/3) rho^(1/3)."""
    return -((3.0 / np.pi) ** (1.0 / 3.0)) * np.cbrt(np.clip(rho, 0.0, None))


def total_local_potential(model: ModelSpec, grids: FourierGrids,
                          v_ext: np.ndarray, rho: np.ndarray) -> np.ndarray:
    v = v_ext + hartree_potential(grids, rho)
    if model.xc == "lda_x":
        v = v + lda_exchange_potential(rho)
    return v


# -- ground state -------------------------------------------------------------

@dataclass
class GroundState:
    """Converged SCF state; immutable by convention after construction.

    rho is the SCF's input density whose fixed-point residual
    ||F_KS(rho) - rho|| sqrt(|Omega|/n_g), `scf_residual`, passed the
    stop test; v_local is its potential and phi/eps/occ are the
    eigenstates of H[v_local].  They cover the occupied bands plus
    n_extra unoccupied eigenstates: eps[n_occ] (the lowest retained
    unoccupied level) feeds the response error bounds, and `apply_chi0`
    takes the response in these states by a sum over states instead of a
    Sternheimer solve.

    The orbitals are real functions.  They are stored as u, their real
    coefficients in the cos/sin basis of `to_cos_sin`, which the
    Sternheimer CG projects against and the archive writes; phi = T^H u
    holds the same orbitals as sphere coefficients.

    Quantities derived for a response solve (`psi_occ_real`, the kept
    bases with the projected Hamiltonian H_Q, the row norm) are cached
    until `drop_derived`, which `run_response` calls when it ends.
    """

    model: ModelSpec
    grids: FourierGrids
    u: np.ndarray            # (n_b, n_kept) real orthonormal columns, T phi
    eps: np.ndarray          # (n_kept,) ascending
    occ: np.ndarray          # (n_kept,) in [0, 2)
    fermi_level: float
    rho: np.ndarray          # (n_g,) electrons / Bohr^3 on the grid
    n_occ: int
    v_local: np.ndarray      # (n_g,) total local potential defining phi/eps
    scf_residual: float = 0.0
    phi: np.ndarray = field(init=False, repr=False, compare=False)   # (n_b, n_kept) T^H u
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.phi = np.ascontiguousarray(from_cos_sin(self.u.T).T)

    @property
    def n_kept(self) -> int:
        return self.u.shape[1]

    @property
    def phi_occ(self) -> np.ndarray:
        return self.phi[:, : self.n_occ]

    @property
    def u_occ(self) -> np.ndarray:
        return self.u[:, : self.n_occ]

    @property
    def psi_occ_real(self) -> np.ndarray:
        """Every occupied orbital on the grid, real (n_occ, n_g) float64, computed once."""
        return self.derived("psi_occ_real", lambda: self.grids.to_real_many(self.u_occ.T))

    def derived(self, key: str, compute):
        """The quantity `key` derived from this state: `compute()` on first use.

        Arrays, alone or in a tuple, are kept read-only, so no caller can
        change them for the next.
        """
        if key not in self._derived:
            value = compute()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]

    def drop_derived(self):
        """Forget every derived quantity; the next use computes it again."""
        self._derived.clear()

    @property
    def occ_occ(self) -> np.ndarray:
        return self.occ[: self.n_occ]

    @property
    def eps_occ(self) -> np.ndarray:
        return self.eps[: self.n_occ]

    @property
    def eps_gap_ref(self) -> float:
        """Lowest retained unoccupied eigenvalue eps_{N_occ + 1}."""
        return float(self.eps[self.n_occ])

    def fprime_occ(self) -> np.ndarray:
        """f'_n = (1/T) f'_smear((eps_n - eps_F)/T) for the occupied bands."""
        _, fp = smearing_function(self.model.smearing)
        x = (self.eps_occ - self.fermi_level) / self.model.temperature
        return fp(x) / self.model.temperature


ANDERSON_DEPTH = 8          # density/residual pairs `run_scf` mixes over


def _choose_n_extra(n_occ: int) -> int:
    return max(3, int(np.ceil(0.1 * n_occ)))


def run_scf(model: ModelSpec, tol: float, max_iter: int = 200, *,
            mixing: str = "kerker", kerker_alpha: float = 0.8,
            damping: float = 0.8, grids: FourierGrids = None,
            verbose: bool = False) -> GroundState:
    """Anderson-mixed fixed-point SCF iteration for the toy solid.

    Each iteration maps the input density rho_k to the output density
    F_KS(rho_k) of H[rho_k] and mixes the preconditioned residual
    f_k = M (F_KS(rho_k) - rho_k), M the Kerker preconditioner or the
    identity.  Anderson mixing (Anderson, J. ACM 12, 547 (1965); Walker
    and Ni, SIAM J. Numer. Anal. 49, 1715 (2011)) keeps the differences
    dRho, dF of the last ANDERSON_DEPTH + 1 iterates and of their f, and
    steps

        gamma = argmin ||f_k - dF gamma||,
        rho_{k+1} = rho_k - dRho gamma + damping (f_k - dF gamma),

    so `damping` is the Anderson step; with no history stored this is
    the damped step rho_k + damping f_k.  Converged when the raw
    fixed-point residual satisfies ||F_KS(rho_k) - rho_k||
    sqrt(|Omega|/n_g) <= tol.  The state returned holds that certified
    input density rho_k, its potential and the orbitals of H[rho_k], not
    the output F_KS(rho_k), whose own residual can be many times tol.
    """
    from .kernels import KerkerSpec, apply_kerker

    if not tol > 0:
        raise ConfigurationError("scf tolerance must be positive")
    if mixing not in ("kerker", "identity"):
        raise ConfigurationError(f"unknown mixing {mixing!r}")

    if grids is None:
        grids = build_grids(model.lattice, model.e_cut)
    v_ext = external_potential(model, grids)
    kerker = KerkerSpec(alpha=kerker_alpha) if mixing == "kerker" else None

    rho = np.full(grids.n_g, model.n_electrons / model.lattice.volume)
    n_states = min(grids.n_b, model.n_electrons // 2 + max(6, model.n_electrons // 4))
    weight = np.sqrt(model.lattice.volume / grids.n_g)
    # rows [0, slot]: rho_{j+1} - rho_j, rows [1, slot]: f_{j+1} - f_j, a ring
    history = np.empty((2, ANDERSON_DEPTH, grids.n_g))
    stored, previous, res_norm = 0, None, np.nan

    for it in range(max_iter):
        v_loc = total_local_potential(model, grids, v_ext, rho)
        eps, u = diagonalize_dense(grids, v_loc, n_states)
        fermi, occ = fermi_and_occupations(eps, model.n_electrons,
                                           model.temperature, model.smearing)
        n_occ = int(np.max(np.nonzero(occ > model.occupation_threshold)[0])) + 1
        n_extra = _choose_n_extra(n_occ)
        if n_occ + n_extra > n_states:
            if n_occ + n_extra > grids.n_b:
                raise NonConvergenceError(
                    f"basis too small: need {n_occ + n_extra} states, have {grids.n_b}"
                )
            n_states = min(grids.n_b, n_occ + n_extra + 4)
            continue

        residual = compute_density(grids, u, occ) - rho
        res_norm = np.linalg.norm(residual) * weight
        if verbose:
            print(f"scf iter {it:3d}  residual {res_norm:.3e}  fermi {fermi:+.6f}")
        if res_norm <= tol:
            n_kept = n_occ + n_extra
            return GroundState(
                model=model, grids=grids, u=np.ascontiguousarray(u[:, :n_kept]),
                eps=eps[:n_kept].copy(), occ=occ[:n_kept].copy(),
                fermi_level=fermi, rho=rho, n_occ=n_occ,
                v_local=v_loc, scf_residual=res_norm,
            )
        f = apply_kerker(kerker, grids, residual) if kerker else residual
        if previous is not None:
            slot = stored % ANDERSON_DEPTH
            np.subtract(rho, previous[0], out=history[0, slot])
            np.subtract(f, previous[1], out=history[1, slot])
            stored += 1
        previous = rho, f
        d_rho, d_f = history[:, :min(stored, ANDERSON_DEPTH)]
        gamma = scipy.linalg.lstsq(d_f.T, f)[0] if stored else np.zeros(0)
        rho = rho - gamma @ d_rho + damping * (f - gamma @ d_f)

    raise NonConvergenceError(
        f"SCF did not reach {tol:.1e} in {max_iter} iterations", residual=res_norm
    )
