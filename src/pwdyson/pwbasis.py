"""Periodic lattice, spherical/cubic Fourier grids and normalised FFTs.

Plane waves are normalised as e_G(r) = exp(i G.r) / sqrt(|Omega|).
Orbitals live on a sphere of reciprocal vectors |G| <= sqrt(2 E_cut)
(`n_b` coefficients), densities and potentials on a cubic FFT grid large
enough to hold every difference of two sphere vectors (`n_g` points).

The forward/inverse transforms between sphere coefficients and real-space
grid values are

    to_fourier = w Z^T W,      to_real = w^-1 W^-1 Z,

with W the unitary DFT, Z the sphere-into-cube zero-padding isometry and
w = sqrt(|Omega|) / sqrt(n_g).  With this convention `to_real` returns
unscaled function values on the grid and `to_fourier . to_real` is the
identity on sphere coefficients.

The sphere is symmetric under G -> -G and sorted lexicographically, so
-G of sphere index j is index n_b - 1 - j and G = 0 sits at n_b // 2.
`to_cos_sin` is the unitary map T from e_G coefficients to coefficients
on the real functions sqrt(2) cos(G.r) (at j < n_b // 2), 1 (at
n_b // 2) and sqrt(2) sin(G.r) (at n_b - 1 - j), each over sqrt(|Omega|):
O(n_b) slicing, never a dense matrix.  A real local potential is a real
symmetric matrix in that basis, and a real function (c_-G = conj c_G)
has real coefficients there (`real_cos_sin`, `real_basis`).

Real-space vectors are stored flat with x fastest:
index = ix + Nx * (iy + Ny * iz), so `flat.reshape(Nz, Ny, Nx)` is a view.
The sphere <-> grid transforms are sphere-pruned: they skip the FFT lines
that hold no sphere point.
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

        # Pruning tables.  `to_real` transforms along x only the sticks
        # (x-lines holding sphere points) and along y only the z-planes
        # holding sticks; `to_fourier` transforms along y only the sphere's
        # x values and along z only the (x, y) lines holding sphere points.
        wx, wy, wz = wrapped.T
        sticks, stick_of = np.unique(wy + ny * wz, return_inverse=True)
        self._stick_y = sticks % ny
        self._planes, self._stick_plane = np.unique(sticks // ny, return_inverse=True)
        self._sphere_in_sticks = stick_of * nx + wx
        self._sphere_x, x_of = np.unique(wx, return_inverse=True)
        n_x = len(self._sphere_x)
        lines, line_of = np.unique(x_of + n_x * wy, return_inverse=True)
        self._line_x, self._line_y = lines % n_x, lines // n_x
        self._sphere_in_lines = wz * len(lines) + line_of

        # Signed integer coordinates of every cube point, x fastest.
        freqs = [np.fft.fftfreq(n, 1.0 / n).astype(int) for n in self.cube_dims]
        iz, iy, ix = np.meshgrid(*freqs[::-1], indexing="ij")
        cube_int = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        cube_cart = cube_int @ lattice.b
        self.g2_cube = np.einsum("ij,ij->i", cube_cart, cube_cart)

        self._to_real_scale = self.n_g / np.sqrt(lattice.volume)
        self._to_fourier_scale = np.sqrt(lattice.volume) / self.n_g
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @cached_property
    def sphere_difference_index(self) -> np.ndarray:
        """Flat cube index of every sphere-vector difference, for the dense Hamiltonians."""
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
    # Both transforms run the same 1-D passes, in the same x -> y -> z order,
    # as a full-cube `ifftn`/`fftn`, and skip only lines that are zero on
    # input or unused on output, so they agree bit for bit with the plain
    # transforms of the zero-padded cube.

    def to_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform w^-1 W^-1 Z: sphere coefficients -> grid values."""
        if coeffs.shape != (self.n_b,):
            raise ValueError(f"expected sphere vector of length {self.n_b}, got {coeffs.shape}")
        _, ny, nx = self._cube_shape
        sticks = np.zeros((len(self._stick_y), nx), dtype=np.complex128)
        sticks.ravel()[self._sphere_in_sticks] = coeffs
        sticks = scipy.fft.ifft(sticks, axis=1, norm="forward", overwrite_x=True)
        sticks *= 1.0 / self.n_g        # where ifftn applies its 1/N
        planes = np.zeros((len(self._planes), ny, nx), dtype=np.complex128)
        planes[self._stick_plane, self._stick_y] = sticks
        cube = np.zeros(self._cube_shape, dtype=np.complex128)
        cube[self._planes] = scipy.fft.ifft(planes, axis=1, norm="forward", overwrite_x=True)
        cube = scipy.fft.ifft(cube, axis=0, norm="forward", overwrite_x=True)
        cube *= self._to_real_scale
        return cube.ravel()

    def to_fourier(self, values: np.ndarray) -> np.ndarray:
        """Forward transform w Z^T W: grid values -> sphere coefficients."""
        if values.shape != (self.n_g,):
            raise ValueError(f"expected grid vector of length {self.n_g}, got {values.shape}")
        cube = np.asarray(values, dtype=np.complex128).reshape(self._cube_shape)
        cube = scipy.fft.fft(cube, axis=2)
        cube = scipy.fft.fft(cube[:, :, self._sphere_x], axis=1, overwrite_x=True)
        lines = scipy.fft.fft(cube[:, self._line_y, self._line_x], axis=0, overwrite_x=True)
        return lines.ravel()[self._sphere_in_lines] * self._to_fourier_scale

    # The batched form returns a column-major (k, n_g) array: the band sums
    # downstream (density, chi0) round differently on row-major input, and
    # this layout reproduces the archived ground states bit for bit.

    def to_real_many(self, coeffs: np.ndarray) -> np.ndarray:
        """`to_real` of each row of a (k, n_b) array -> (k, n_g)."""
        out = np.empty((self.n_g, len(coeffs)), dtype=np.complex128)
        for j, c in enumerate(coeffs):
            out[:, j] = self.to_real(c)
        return out.T

    # -- full-cube FFTs (for Fourier-diagonal operators) --------------------
    # axes=(2, 1, 0) keeps the x -> y -> z pass order on the C-order view.

    def cube_fft(self, values: np.ndarray) -> np.ndarray:
        """Plain forward DFT of a flat grid vector (no normalisation)."""
        cube = values.astype(np.complex128).reshape(self._cube_shape)
        return scipy.fft.fftn(cube, axes=(2, 1, 0)).ravel()

    def cube_ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """Plain inverse DFT of a flat coefficient vector (1/N normalised)."""
        return scipy.fft.ifftn(coeffs.reshape(self._cube_shape), axes=(2, 1, 0)).ravel()


def to_cos_sin(coeffs: np.ndarray) -> np.ndarray:
    """T c for every row of coeffs (last axis n_b): (c_G + c_-G, i (c_G - c_-G)) / sqrt 2."""
    h = coeffs.shape[-1] // 2
    plus, minus = coeffs[..., :h], coeffs[..., :h:-1]       # G_j and -G_j, j < h
    out = np.empty(coeffs.shape, dtype=np.complex128)
    out[..., h] = coeffs[..., h]
    out[..., :h] = (plus + minus) * _SQRT_HALF
    out[..., :h:-1] = (plus - minus) * (1j * _SQRT_HALF)
    return out


def from_cos_sin(coeffs: np.ndarray) -> np.ndarray:
    """T^H u for every row of u: the inverse of `to_cos_sin`."""
    h = coeffs.shape[-1] // 2
    cos, sin = coeffs[..., :h], coeffs[..., :h:-1]
    out = np.empty(coeffs.shape, dtype=np.complex128)
    out[..., h] = coeffs[..., h]
    out[..., :h] = (cos - 1j * sin) * _SQRT_HALF
    out[..., :h:-1] = (cos + 1j * sin) * _SQRT_HALF
    return out


def real_cos_sin(coeffs: np.ndarray, atol=0.0) -> np.ndarray:
    """Re T c for every row c of coeffs, each a real function (T c real to round-off).

    `atol` (a scalar or one value per row) lets a row through whose
    imaginary part is no larger, as for a right-hand side that a
    projection has left at round-off level.

    Raises:
        InvariantViolationError: a row's Im T c has a norm above both
            REAL_FUNCTION_RTOL times that of T c and atol, so it is not a
            real function (such as a degenerate pair mixed by a complex
            phase).
    """
    rows = to_cos_sin(coeffs)
    imag, whole = np.linalg.norm(rows.imag, axis=-1), np.linalg.norm(rows, axis=-1)
    complex_rows = np.flatnonzero(imag > np.maximum(REAL_FUNCTION_RTOL * whole, atol))
    if len(complex_rows):
        j = complex_rows[0]
        raise InvariantViolationError(
            f"row {j} is not a real function: |Im T c| = {imag[j]:.2e} of |T c| = {whole[j]:.2e}")
    return rows.real


def real_basis(phi: np.ndarray) -> np.ndarray:
    """R = T Phi, real (n_b, m), for orthonormal real functions Phi (n_b, m).

    Then T Phi Phi^H T^H = R R^T, so the projector off span(Phi) is real
    in the cos/sin basis.  Raises as `real_cos_sin` when a column of Phi
    is not a real function.
    """
    return np.ascontiguousarray(real_cos_sin(phi.T).T)


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
