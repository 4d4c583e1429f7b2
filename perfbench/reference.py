"""Reference computations made apart from the solver, and two properties of a response.

Everything here is written from the textbook formulas with plain numpy:
the plane-wave sphere, the Gaussian lattice sum, the dense Hamiltonian,
chi0 as a sum over every eigenstate of that Hamiltonian, the Hartree
kernel and the Kohn-Sham density.  From the program only the ground
state's stored arrays (orbital ordering, density, local potential, Fermi
level, occupied-set size) and the model definition are read, never one of
its operators.

Real-space arrays are 3-D (Nx, Ny, Nz); the program's flat grid vectors
are x-fastest, i.e. `flat.reshape(dims, order="F")`.
"""

import numpy as np
import scipy.linalg
from scipy.special import erfc, expit

DEGENERACY_RTOL = 1e-8           # same degenerate-pair rule as the model's definition
TAIL_DECADES = 18                # Gaussian images are summed down to exp(-r^2/2w^2) = 1e-18


class Basis:
    """Plane-wave sphere and FFT cube of a model, rebuilt from its definition."""

    def __init__(self, model, cube_dims):
        a = np.asarray(model.lattice.a, dtype=float)
        self.a = a
        self.b = 2.0 * np.pi * np.linalg.inv(a).T
        self.volume = abs(float(np.linalg.det(a)))
        self.dims = tuple(int(n) for n in cube_dims)
        self.n_g = int(np.prod(self.dims))
        # sphere |G| <= sqrt(2 e_cut), lexicographic in the integer coordinates
        r2 = 2.0 * model.e_cut
        nmax = np.floor(np.sqrt(r2) * np.linalg.norm(a, axis=1) / (2 * np.pi)).astype(int)
        ints = np.array(np.meshgrid(*[np.arange(-m, m + 1) for m in nmax], indexing="ij"))
        ints = ints.reshape(3, -1).T
        g = ints @ self.b
        keep = np.einsum("ij,ij->i", g, g) <= r2 * (1 + 1e-14)
        self.g_int = ints[keep]                      # meshgrid "ij" order is lexicographic
        self.g2 = np.einsum("ij,ij->i", g[keep], g[keep])
        self.n_b = len(self.g_int)
        self.slot = tuple((self.g_int % np.array(self.dims)).T)
        freqs = [np.fft.fftfreq(n, 1.0 / n) for n in self.dims]
        n1, n2, n3 = np.meshgrid(*freqs, indexing="ij")
        gc = np.stack([n1, n2, n3], axis=-1) @ self.b
        self.g2_cube = np.einsum("...i,...i->...", gc, gc)
        fr = np.meshgrid(*[np.arange(n) / n for n in self.dims], indexing="ij")
        self.frac = np.stack(fr, axis=-1)            # (Nx, Ny, Nz, 3) fractional
        self.dvol = self.volume / self.n_g

    def grid(self, flat):
        return np.asarray(flat).reshape(self.dims, order="F")

    def flat(self, cube):
        return np.asarray(cube).ravel(order="F")

    def to_real(self, coeffs):
        """Orbital values psi(r) = sum_G c_G exp(iGr) / sqrt(V); rows of (k, n_b)."""
        coeffs = np.atleast_2d(coeffs)
        full = np.zeros((len(coeffs), *self.dims), dtype=complex)
        full[(slice(None), *self.slot)] = coeffs
        return np.fft.ifftn(full, axes=(1, 2, 3)) * (self.n_g / np.sqrt(self.volume))

    def hartree(self, x):
        """Zero-mean v with -Laplacian v = 4 pi x, for a real grid function."""
        xf = np.fft.fftn(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xf = np.where(self.g2_cube > 0, 4 * np.pi * xf / self.g2_cube, 0.0)
        return np.fft.ifftn(xf).real


def _images(basis, width):
    """Integer lattice shifts that reach within the Gaussian tail radius."""
    r_tail = width * np.sqrt(2 * TAIL_DECADES * np.log(10.0))
    nmax = np.floor(r_tail * np.linalg.norm(basis.b, axis=1) / (2 * np.pi) + 0.5).astype(int)
    ints = np.array(np.meshgrid(*[np.arange(-m, m + 1) for m in nmax], indexing="ij"))
    return ints.reshape(3, -1).T


def _min_image(basis, center):
    """Cartesian displacement of every grid point from `center`, minimum image."""
    d = basis.frac - np.asarray(center, dtype=float)
    return d - np.round(d)


def external_potential(model, basis):
    """Sum of periodic Gaussian wells, minimum image plus the images in the tail."""
    v = np.zeros(basis.dims)
    for well in model.gaussians:
        dfrac = _min_image(basis, well.center)
        for n in _images(basis, well.width):
            d = (dfrac + n) @ basis.a
            v += well.amplitude * np.exp(-np.einsum("...i,...i->...", d, d) / (2 * well.width**2))
    return v


def external_potential_derivative(model, basis, index, direction):
    """d/dc of well `index`'s lattice sum, along the unit `direction`."""
    well = model.gaussians[index]
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    dfrac = _min_image(basis, well.center)
    dv = np.zeros(basis.dims)
    for n in _images(basis, well.width):
        d = (dfrac + n) @ basis.a
        gauss = np.exp(-np.einsum("...i,...i->...", d, d) / (2 * well.width**2))
        dv += well.amplitude * gauss * (d @ u) / well.width**2
    return dv


def dense_hamiltonian(basis, v_local):
    """H[G, G'] = |G|^2/2 delta + vhat(G - G') for a real local potential."""
    vhat = np.fft.fftn(v_local) / basis.n_g
    diff = (basis.g_int[:, None, :] - basis.g_int[None, :, :]) % np.array(basis.dims)
    h = vhat[diff[..., 0], diff[..., 1], diff[..., 2]]
    h[np.diag_indices(basis.n_b)] += 0.5 * basis.g2
    return h


def occupation(smearing, x):
    """f on [0, 2) and df/dx for the two smearing kinds of the model."""
    x = np.asarray(x, dtype=float)
    if smearing == "fermi_dirac":
        s = expit(-x)
        return 2.0 * s, -2.0 * s * (1.0 - s)
    if smearing == "gaussian":
        return erfc(x), -2.0 / np.sqrt(np.pi) * np.exp(-np.minimum(x * x, 700.0))
    raise ValueError(f"reference has no smearing {smearing!r}")


def fermi_level(eps, model):
    lo, hi = eps[0] - 50 * model.temperature - 1.0, eps[-1] + 50 * model.temperature + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(occupation(model.smearing, (eps - mid) / model.temperature)[0]) < model.n_electrons:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class SumOverStates:
    """chi0 and E = I - chi0 K_Hartree from every eigenstate of the stored H.

    Occupations are the smearing function at the stored Fermi level,
    restricted to the ground state's occupied set; pairs are weighted by
    the divided difference (f_p - f_q)/(eps_p - eps_q) (f'_p for a
    degenerate pair), and the first-order Fermi-level shift keeps the
    total charge fixed.
    """

    def __init__(self, gs):
        model = gs.model
        if model.xc != "none":
            raise ValueError("the reference kernel is Hartree only")
        self.basis = basis = Basis(model, gs.grids.cube_dims)
        if basis.n_b != gs.grids.n_b or not np.array_equal(basis.g_int, gs.grids.g_int):
            raise ValueError("the program's plane-wave sphere differs from the model's")
        self.eps, vecs = scipy.linalg.eigh(dense_hamiltonian(basis, basis.grid(gs.v_local)))
        n_occ = gs.n_occ
        x = (self.eps[:n_occ] - gs.fermi_level) / model.temperature
        f_occ, fp = occupation(model.smearing, x)
        f = np.zeros(basis.n_b)
        f[:n_occ] = f_occ
        self.fprime = fp / model.temperature
        self.n_occ = n_occ
        self.psi = basis.to_real(vecs.T)                       # (n_b, Nx, Ny, Nz)
        ep, eq = self.eps[:n_occ][None, :], self.eps[:, None]   # [q, p]
        de = ep - eq
        degenerate = np.abs(de) <= DEGENERACY_RTOL * np.maximum(1.0, np.abs(ep))
        divided = np.where(degenerate, self.fprime[None, :],
                           (f[:n_occ][None, :] - f[:, None])
                           / np.where(degenerate, 1.0, de))
        # ordered pairs (p occupied, q any): an occupied q is visited from both
        # ends, an unoccupied one only from p, hence its factor two
        self.weights = divided * np.where(np.arange(basis.n_b) < n_occ, 1.0, 2.0)[:, None]
        self.weights[np.arange(n_occ), np.arange(n_occ)] = 0.0

    def chi0(self, dv):
        b = self.basis
        occ = self.psi[: self.n_occ].reshape(self.n_occ, -1)
        allp = self.psi.reshape(b.n_b, -1)
        m = (allp.conj() * dv.ravel()[None, :]) @ occ.T * b.dvol     # <q|dv|p>, (n_b, n_occ)
        y = (self.weights * m).T @ allp                                # (n_occ, n_g)
        out = np.einsum("pr,pr->r", occ.conj(), y).real
        diag = np.diag(m[: self.n_occ]).real
        fp_sum = self.fprime.sum()
        shift = self.fprime @ diag / fp_sum if abs(fp_sum) > 1e-14 * self.n_occ else 0.0
        out += (self.fprime * (diag - shift)) @ (np.abs(occ) ** 2)
        return out.reshape(b.dims)

    def dielectric(self, x):
        return x - self.chi0(self.basis.hartree(x))

    def residual(self, x_flat, b_flat):
        """||b - E x|| of the program's flat grid vectors."""
        x, b = self.basis.grid(x_flat), self.basis.grid(b_flat)
        return float(np.linalg.norm(b - self.dielectric(x)))


def kohn_sham_density(model, basis, v_ext, rho):
    """One application of the Kohn-Sham map (Hartree only) to a density."""
    h = dense_hamiltonian(basis, v_ext + basis.hartree(rho))
    eps, vecs = scipy.linalg.eigh(h)
    f = occupation(model.smearing, (eps - fermi_level(eps, model)) / model.temperature)[0]
    keep = f > 0
    return np.einsum("p,pxyz->xyz", f[keep], np.abs(basis.to_real(vecs[:, keep].T)) ** 2)


# -- properties that every density response of a mirror-symmetric model has ----------

def mirror_defect(basis, x_flat):
    """Largest relative change of x under y -> -y and z -> -z about the wells' plane."""
    x = basis.grid(x_flat)
    norm = np.linalg.norm(x)
    worst = 0.0
    for axis in (1, 2):
        mirrored = np.roll(np.flip(x, axis=axis), 1, axis=axis)   # index i -> -i mod N
        worst = max(worst, float(np.linalg.norm(x - mirrored)) / norm)
    return worst


def net_charge(basis, x_flat):
    """|integral of x| relative to the integral of |x|."""
    x = basis.grid(x_flat)
    return abs(float(x.sum())) / float(np.abs(x).sum())
