"""Periodic lattice, spherical/cubic Fourier grids and normalised FFTs.

Plane waves are normalised as e_G(r) = exp(i G.r) / sqrt(|Omega|).
Orbitals live on a sphere of reciprocal vectors |G| <= sqrt(2 E_cut)
(`n_b` coefficients), densities and potentials on a cubic FFT grid large
enough to hold every difference of two sphere vectors (`n_g` points).

The sphere is symmetric under G -> -G and sorted lexicographically, so
-G of sphere index j is index n_b - 1 - j and G = 0 sits at n_b // 2.
The program stores every orbital in the cos/sin basis: the unitary map T
takes e_G coefficients c to coefficients on the real functions
sqrt(2) cos(G.r) (at j < n_b // 2), 1 (at n_b // 2) and sqrt(2) sin(G.r)
(at n_b - 1 - j), each over sqrt(|Omega|),

    (T c)_j = (c_j + c_-j) / sqrt 2,   (T c)_{n_b-1-j} = i (c_j - c_-j) / sqrt 2.

A real function (c_-G = conj c_G) has real coefficients u = T c there,
and a real local potential is a real symmetric matrix in that basis.

Real-space vectors are stored flat with x fastest:
index = ix + Nx * (iy + Ny * iz), so `flat.reshape(Nz, Ny, Nx)` is a view.
The transforms are one band-batched real pair on cos/sin rows,

    to_fourier_many = T w Z^T W,      to_real_many = w^-1 W^-1 Z T^H,

with W the unitary DFT, Z the sphere-into-cube zero-padding isometry and
w = sqrt(|Omega|) / sqrt(n_g): `to_real_many` returns unscaled function
values on the grid and `to_fourier_many . to_real_many` is the identity
on cos/sin rows.  They run a half-spectrum `irfft`/`rfft` along x and
complex FFTs along y and z over only the lines that hold sphere points of
the half spectrum kx >= 0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import ConfigurationError, InvariantViolationError

TWO_PI = 2.0 * np.pi
_DIFFERENCE_ROWS = 64       # rows per block of `sphere_difference_index`
_SQRT_HALF = np.sqrt(0.5)
REAL_FUNCTION_RTOL = 1e-12  # |Im T c| / |T c| above this: c is not a real function


@dataclass(frozen=True)
class Lattice:
    """Simulation cell with lattice vectors as rows of `a`.

    Reciprocal vectors (rows of `b`) satisfy b_i . a_j = 2 pi delta_ij.
    """

    a: np.ndarray        # (3, 3) Bohr, rows a1, a2, a3
    b: np.ndarray        # (3, 3) 1/Bohr, rows b1, b2, b3
    volume: float        # Bohr^3

    @classmethod
    def from_vectors(cls, a1, a2, a3) -> "Lattice":
        a = np.array([a1, a2, a3], dtype=float)
        if not np.all(np.isfinite(a)):
            raise ConfigurationError("lattice vectors must be finite")
        det = np.linalg.det(a)
        if abs(det) < 1e-14:
            raise ConfigurationError("lattice vectors are linearly dependent")
        b = TWO_PI * np.linalg.inv(a).T
        return cls(a=a, b=b, volume=abs(det))

    @classmethod
    def cubic(cls, alat: float) -> "Lattice":
        return cls.from_vectors([alat, 0, 0], [0, alat, 0], [0, 0, alat])

    @classmethod
    def orthorhombic(cls, ax: float, ay: float, az: float) -> "Lattice":
        return cls.from_vectors([ax, 0, 0], [0, ay, 0], [0, 0, az])

    def duality_defect(self) -> float:
        """Max relative deviation of b_i . a_j from 2 pi delta_ij."""
        return float(np.max(np.abs(self.b @ self.a.T / TWO_PI - np.eye(3))))


def _is_5smooth_even(n: int) -> bool:
    if n % 2 != 0:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _next_5smooth_even(n: int) -> int:
    n = max(2, n)
    while not _is_5smooth_even(n):
        n += 1
    return n


def _integer_box(b: np.ndarray, a: np.ndarray, radius: float) -> np.ndarray:
    """All integer triples whose lattice vector could lie within `radius`.

    Uses |i_d| = |G . a_d| / 2pi <= |G| |a_d| / 2pi as the per-dimension
    bound, so the box is guaranteed to contain the 2-norm ball.
    """
    nmax = np.floor(radius * np.linalg.norm(a, axis=1) / TWO_PI).astype(int)
    ranges = [np.arange(-m, m + 1) for m in nmax]
    i1, i2, i3 = np.meshgrid(*ranges, indexing="ij")
    return np.stack([i1.ravel(), i2.ravel(), i3.ravel()], axis=1)


class FourierGrids:
    """Spherical orbital grid and cubic density grid for one cutoff.

    Immutable after construction, apart from `sphere_difference_index`,
    which is built on first use; every stored array is read-only, and
    transforms are pure functions of the stored index tables.

    Attributes:
        lattice: the unit cell.
        e_cut: kinetic cutoff (Hartree); sphere radius is sqrt(2 e_cut).
        g_int: (n_b, 3) integer coordinates of sphere vectors, sorted
            lexicographically.
        g_cart: (n_b, 3) Cartesian sphere vectors.
        g2_sphere: (n_b,) squared norms |G|^2 (twice the kinetic energy).
        cube_dims: (Nx, Ny, Nz) even 5-smooth FFT dimensions.
        n_b, n_g: sphere / cube sizes.
        w: FFT normalisation sqrt(|Omega|)/sqrt(n_g).
        g2_cube: (n_g,) squared norms on the cube, flat x-fastest.
        sphere_difference_index: (n_b, n_b) flat cube index of
            g_int[i] - g_int[j], read-only.
    """

    def __init__(self, lattice: Lattice, e_cut: float):
        if not np.isfinite(e_cut) or e_cut <= 0:
            raise ConfigurationError(f"e_cut must be positive, got {e_cut}")
        self.lattice = lattice
        self.e_cut = float(e_cut)

        r_sphere = np.sqrt(2.0 * e_cut)
        r_cube = 2.0 * r_sphere

        # Sphere: |G|_2 <= sqrt(2 E_cut), lexicographic order on (i1,i2,i3).
        box = _integer_box(lattice.b, lattice.a, r_sphere)
        cart = box @ lattice.b
        inside = np.einsum("ij,ij->i", cart, cart) <= r_sphere**2 * (1 + 1e-14)
        g_int = box[inside]
        order = np.lexsort((g_int[:, 2], g_int[:, 1], g_int[:, 0]))
        self.g_int = np.ascontiguousarray(g_int[order])
        self.g_cart = self.g_int @ lattice.b
        self.g2_sphere = np.einsum("ij,ij->i", self.g_cart, self.g_cart)
        self.n_b = len(self.g_int)

        # Cube: smallest even dims holding every |G|_inf <= 2 sqrt(2 E_cut),
        # rounded up to 5-smooth even integers for FFT efficiency.
        box = _integer_box(lattice.b, lattice.a, np.sqrt(3.0) * r_cube)
        cart = box @ lattice.b
        keep = np.max(np.abs(cart), axis=1) <= r_cube * (1 + 1e-14)
        max_idx = np.max(np.abs(box[keep]), axis=0)
        self.cube_dims = tuple(_next_5smooth_even(2 * int(m) + 2) for m in max_idx)
        self.n_g = int(np.prod(self.cube_dims))
        self.w = np.sqrt(lattice.volume) / np.sqrt(self.n_g)

        nx, ny, nz = self.cube_dims
        self._cube_shape = (nz, ny, nx)        # C-order view of a flat x-fastest vector
        wrapped = self.g_int % np.array(self.cube_dims)
        self.sphere_flat = np.ascontiguousarray(
            wrapped[:, 0] + nx * (wrapped[:, 1] + ny * wrapped[:, 2])
        )
        if len(np.unique(self.sphere_flat)) != self.n_b:
            raise ConfigurationError("cube grid cannot hold the sphere without aliasing")

        # Pruning tables of the real pair.  A real function's coefficients
        # obey c_-G = conj c_G, so the half spectrum kx >= 0 (wrapped x
        # below nx / 2) holds all of them.  Its points lie on z-lines
        # (kx, ky); `to_real_many` transforms along z only those lines,
        # along y only the sphere's kx >= 0 columns, and then runs one
        # real `irfft` along x; `to_fourier_many` runs the same passes
        # backwards.
        h = self.n_b // 2
        wx, wy, wz = wrapped.T
        half = np.flatnonzero(wx < nx // 2)
        self._half_x, x_of = np.unique(wx[half], return_inverse=True)
        lines, line_of = np.unique(x_of + len(self._half_x) * wy[half], return_inverse=True)
        self._line_x, self._line_y = lines % len(self._half_x), lines // len(self._half_x)
        self._half_z, self._half_line = wz[half], line_of
        # c_s = (a_s u[cos_s] + i b_s u[sin_s]) / sqrt|Omega| for the half's
        # points s, from T^H; G = 0 has a = 1, b = 0
        mirror = self.n_b - 1 - half
        self._half_cos, self._half_sin = np.minimum(half, mirror), np.maximum(half, mirror)
        self._half_re = np.where(half == h, 1.0, _SQRT_HALF) / np.sqrt(lattice.volume)
        self._half_im = np.sign(half - h) * _SQRT_HALF / np.sqrt(lattice.volume)
        # the sphere's upper half (index >= h, G = 0 first) on those lines
        upper = np.searchsorted(half, np.arange(h, self.n_b))
        self._upper_z, self._upper_line = self._half_z[upper], self._half_line[upper]

        # Signed integer coordinates of every cube point, x fastest.
        freqs = [np.fft.fftfreq(n, 1.0 / n).astype(int) for n in self.cube_dims]
        iz, iy, ix = np.meshgrid(*freqs[::-1], indexing="ij")
        cube_int = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        cube_cart = cube_int @ lattice.b
        self.g2_cube = np.einsum("ij,ij->i", cube_cart, cube_cart)

        self._to_fourier_scale = np.sqrt(lattice.volume) / self.n_g
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @cached_property
    def sphere_difference_index(self) -> np.ndarray:
        """Flat cube index of every sphere-vector difference, for the dense Hamiltonian."""
        nx, ny, nz = self.cube_dims
        # int32, kept for the grid's lifetime: half the memory; built in row
        # blocks so no (n_b, n_b, 3) int64 difference table is allocated
        index = np.empty((self.n_b, self.n_b), dtype=np.int32)
        for start in range(0, self.n_b, _DIFFERENCE_ROWS):
            diff = self.g_int[start:start + _DIFFERENCE_ROWS, None, :] - self.g_int[None, :, :]
            index[start:start + _DIFFERENCE_ROWS] = (
                (diff[..., 0] % nx) + nx * ((diff[..., 1] % ny) + ny * (diff[..., 2] % nz)))
        index.flags.writeable = False
        return index

    def real_space_points(self) -> np.ndarray:
        """(n_g, 3) Cartesian grid points, flat x-fastest order."""
        fracs = [np.arange(n) / n for n in self.cube_dims]
        fz, fy, fx = np.meshgrid(*fracs[::-1], indexing="ij")
        frac = np.stack([fx.ravel(), fy.ravel(), fz.ravel()], axis=1)
        return frac @ self.lattice.a

    # -- sphere <-> real space --------------------------------------------
    #
    # A row u holds the cos/sin coefficients T c of one real function; the
    # pair never forms a complex grid array, only the half spectrum the
    # real FFT along x needs.

    def to_real_many(self, rows: np.ndarray) -> np.ndarray:
        """Real functions on the grid, (k, n_g), from (k, n_b) real cos/sin rows u = T c.

        w^-1 W^-1 Z T^H u for each row; z-lines, then y, then one
        half-spectrum `irfft` along x.  Complex rows raise TypeError.
        """
        if np.iscomplexobj(rows):
            raise TypeError("to_real_many takes real cos/sin rows")
        k = len(rows)
        if rows.shape != (k, self.n_b):
            raise ValueError(f"expected (k, {self.n_b}) cos/sin rows, got {rows.shape}")
        nz, ny, nx = self._cube_shape
        lines = np.zeros((k, len(self._line_x), nz), dtype=np.complex128)
        lines.real[:, self._half_line, self._half_z] = rows[:, self._half_cos] * self._half_re
        lines.imag[:, self._half_line, self._half_z] = rows[:, self._half_sin] * self._half_im
        lines = scipy.fft.ifft(lines, axis=2, norm="forward", overwrite_x=True)
        columns = np.zeros((k, nz, ny, len(self._half_x)), dtype=np.complex128)
        columns[:, :, self._line_y, self._line_x] = lines.transpose(0, 2, 1)
        columns = scipy.fft.ifft(columns, axis=2, norm="forward", overwrite_x=True)
        spectrum = np.zeros((k, nz, ny, nx // 2 + 1), dtype=np.complex128)
        spectrum[..., self._half_x] = columns
        values = scipy.fft.irfft(spectrum, n=nx, axis=3, norm="forward", overwrite_x=True)
        return values.reshape(k, self.n_g)

    def to_fourier_many(self, values: np.ndarray) -> np.ndarray:
        """Real cos/sin rows T c, (k, n_b), of the sphere projection of (k, n_g) real grid values.

        T w Z^T W of each row; one `rfft` along x, then y on the sphere's
        kx >= 0 columns, then z on its lines.  Complex values raise
        TypeError rather than lose their imaginary part.
        """
        if np.iscomplexobj(values):
            raise TypeError("to_fourier_many takes real grid values")
        k = len(values)
        if values.shape != (k, self.n_g):
            raise ValueError(f"expected (k, {self.n_g}) grid values, got {values.shape}")
        spectrum = scipy.fft.rfft(values.reshape(k, *self._cube_shape), axis=3)
        columns = scipy.fft.fft(spectrum[..., self._half_x], axis=2, overwrite_x=True)
        lines = scipy.fft.fft(columns[:, :, self._line_y, self._line_x], axis=1,
                              overwrite_x=True)
        upper = lines[:, self._upper_z, self._upper_line]
        h = self.n_b // 2
        rows = np.empty((k, self.n_b))
        np.multiply(upper[:, 0].real, self._to_fourier_scale, out=rows[:, h])
        np.multiply(upper[:, :0:-1].real, self._to_fourier_scale / _SQRT_HALF, out=rows[:, :h])
        np.multiply(upper[:, 1:].imag, self._to_fourier_scale / _SQRT_HALF, out=rows[:, h + 1:])
        return rows

    # -- full-cube FFTs (for Fourier-diagonal operators) --------------------
    # axes=(2, 1, 0) keeps the x -> y -> z pass order on the C-order view.

    def cube_fft(self, values: np.ndarray) -> np.ndarray:
        """Plain forward DFT of a flat grid vector (no normalisation)."""
        cube = values.astype(np.complex128).reshape(self._cube_shape)
        return scipy.fft.fftn(cube, axes=(2, 1, 0)).ravel()

    def cube_ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """Plain inverse DFT of a flat coefficient vector (1/N normalised)."""
        return scipy.fft.ifftn(coeffs.reshape(self._cube_shape), axes=(2, 1, 0)).ravel()


def real_rows(rows: np.ndarray, atol=0.0) -> np.ndarray:
    """Re u for rows u of cos/sin coefficients, each a real function (u real to round-off).

    Real rows are returned as they are.  `atol` (a scalar or one value
    per row) lets a row through whose imaginary part is no larger, as for
    a right-hand side that a projection has left at round-off level.

    Raises:
        InvariantViolationError: a row's Im u has a norm above both
            REAL_FUNCTION_RTOL times that of u and atol, so it is not a
            real function (such as a degenerate pair mixed by a complex
            phase).
    """
    if not np.iscomplexobj(rows):
        return rows
    imag, whole = np.linalg.norm(rows.imag, axis=-1), np.linalg.norm(rows, axis=-1)
    complex_rows = np.flatnonzero(imag > np.maximum(REAL_FUNCTION_RTOL * whole, atol))
    if len(complex_rows):
        j = complex_rows[0]
        raise InvariantViolationError(
            f"row {j} is not a real function: |Im T c| = {imag[j]:.2e} of |T c| = {whole[j]:.2e}")
    return rows.real


_last_grids = (None, None)         # (key, FourierGrids) of the last `build_grids` call


def build_grids(lattice: Lattice, e_cut: float) -> FourierGrids:
    """Build the sphere/cube Fourier grids for the given cutoff.

    The sphere enumerates exactly {G : |G|_2 <= sqrt(2 e_cut)} in
    lexicographic integer order; the cube is the smallest even 5-smooth
    FFT box holding |G|_inf <= 2 sqrt(2 e_cut).  Grids are read-only, so
    a call with the same lattice (compared by the bytes of its vectors)
    and cutoff as the call before returns the same grids, difference
    index included.
    """
    global _last_grids
    if lattice.duality_defect() > 1e-12:
        raise ConfigurationError("lattice reciprocal vectors violate b_i . a_j = 2 pi delta_ij")
    key = (lattice.a.tobytes(), lattice.b.tobytes(), lattice.volume, e_cut)
    if _last_grids[0] != key:
        _last_grids = key, FourierGrids(lattice, e_cut)
    return _last_grids[1]
