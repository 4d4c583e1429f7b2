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
on cos/sin rows.  They run a half-spectrum `irfft`/`rfft` along x, and
between the (ky, kz) plane and the lines that hold sphere points of the
half spectrum kx >= 0 one small complex matrix product.

A coordinate mirror i_a -> -i_a, an exchange i_a <-> i_b of two axes
(the mirror through the plane i_a = i_b) and the product of two
coordinate mirrors (a two-fold rotation), when it maps the sphere onto
itself with |G| unchanged, is a signed permutation of the cos/sin
indices (`Mirror`).  `SectorBasis` is the real basis adapted to a set of
such operations that commute with each other: an operator that commutes
with them is block-diagonal there, one block per sector.
`FourierGrids.sector_basis` picks, among the pairwise-commuting sets of
the operations a potential has, the one whose blocks hold the fewest
entries.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InvariantViolationError

TWO_PI = 2.0 * np.pi
_DIFFERENCE_ROWS = 64       # rows per block of `sphere_difference_index`
_SQRT_HALF = np.sqrt(0.5)


class Mirror(NamedTuple):
    """An involution i -> R i of integer coordinates on cos/sin coefficients: e_i -> sign[i] e_perm[i].

    R is a signed permutation matrix equal to its inverse: a coordinate
    mirror (label "-y"), the product of two ("-y-z") or the exchange of
    two axes ("y<->z").  It acts on a function as f(r) -> f(R r) and on
    Fourier coefficients as c_G -> c_RG, so grid values and a full
    spectrum move by the same index map (`FourierGrids.mirror_change`).
    """

    label: str
    matrix: np.ndarray      # (3, 3) int, R
    perm: np.ndarray        # (n_b,) int
    sign: np.ndarray        # (n_b,) +-1.0
    cube: np.ndarray        # (n_g,) int: flat cube index of R n (mod N) for every point n


class PairSupport(NamedTuple):
    """The half-spectrum points a product of two sphere functions reaches (`FourierGrids.pair_support`)."""

    half: np.ndarray            # (s,) int: flat index into the half spectrum (Nz, Ny, Nx//2 + 1)
    multiplicity: np.ndarray    # (s,): full-spectrum points each stands for, 1 on kx = 0 and Nx/2
    plane_h: np.ndarray         # (l, Ny Nz) complex: forward DFT from the plane to the support's lines
    at: np.ndarray              # (s,) int: flat index of each point in (line, kx)
    n_x: int                    # kx of every point lies below it


_AXES = "xyz"


def _operations():
    """Groups of candidate involutions (label, R): each mirror alone, then per pair of axes
    their exchange and, with it, the product of their mirrors."""
    for a in range(3):
        r = np.eye(3, dtype=int)
        r[a, a] = -1
        yield [(f"-{_AXES[a]}", r)]
    for a, b in itertools.combinations(range(3), 2):
        swap, product = np.eye(3, dtype=int), np.eye(3, dtype=int)
        swap[[a, b]] = swap[[b, a]]
        product[a, a] = product[b, b] = -1
        yield [(f"{_AXES[a]}<->{_AXES[b]}", swap), (f"-{_AXES[a]}-{_AXES[b]}", product)]


def _commuting_sets(mirrors) -> list:
    """Generators of each maximal group of pairwise-commuting `mirrors`, in a fixed order.

    Larger sets come first and, among sets of one size, those earlier in
    `mirrors`; a set whose group is contained in one already found is
    left out, so each group appears once, generated by its first set.
    """
    found = []
    for size in range(len(mirrors), 0, -1):
        for generators in itertools.combinations(mirrors, size):
            if any(np.any(a.matrix @ b.matrix != b.matrix @ a.matrix)
                   for a, b in itertools.combinations(generators, 2)):
                continue
            group = {np.eye(3, dtype=int).tobytes()}
            for m in generators:
                group |= {(np.frombuffer(g, dtype=int).reshape(3, 3) @ m.matrix).tobytes()
                          for g in group}
            if len(group) == 2 ** size and not any(group <= other for _, other in found):
                found.append((generators, group))
    return [generators for generators, _ in found] or [()]


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
    `pair_support` and the bases of `sector_basis`, which are built on
    first use; every stored array is read-only, and transforms are pure
    functions of the stored index tables.

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
        g2_half: (Nz, Ny, Nx//2 + 1) the same on the half spectrum of
            `cube_rfft`.
        coulomb_half: 4 pi / |G|^2 on that half spectrum, 0 at G = 0.
        mirrors: the coordinate mirrors, axis exchanges and mirror
            products (`Mirror`, in the order of `_operations`) that map the
            sphere onto itself with |G| unchanged; an exchange of two axes
            also needs equal cube dimensions along them.
        sphere_difference_index: (n_b, n_b) flat cube index of
            g_int[i] - g_int[j], read-only.
        pair_support: the half-spectrum points of the sumset sphere +
            sphere (`PairSupport`), where `pair_spectra` evaluates the DFT.
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
        # below nx / 2) holds all of them.  Its points lie on (ky, kz)
        # lines; the pair maps those lines to the whole (ky, kz) plane by
        # one matrix product, `_plane`, and runs one real FFT along x.
        h = self.n_b // 2
        wx, wy, wz = wrapped.T
        half = np.flatnonzero(wx < nx // 2)
        lines, line_of = np.unique(wy[half] + ny * wz[half], return_inverse=True)
        self._n_x = int(np.max(wx[half])) + 1
        self._half_at = line_of * self._n_x + wx[half]   # flat index in (line, kx)
        self._plane = self._plane_from(lines)
        self._plane_h = np.ascontiguousarray(self._plane.conj().T)
        # c_s = (a_s u[cos_s] + i b_s u[sin_s]) / sqrt|Omega| for the half's
        # points s, from T^H; G = 0 has a = 1, b = 0
        mirror = self.n_b - 1 - half
        self._half_cos, self._half_sin = np.minimum(half, mirror), np.maximum(half, mirror)
        self._half_re = np.where(half == h, 1.0, _SQRT_HALF) / np.sqrt(lattice.volume)
        self._half_im = np.sign(half - h) * _SQRT_HALF / np.sqrt(lattice.volume)
        # the sphere's upper half (index >= h, G = 0 first) in (line, kx)
        self._upper_at = self._half_at[np.searchsorted(half, np.arange(h, self.n_b))]

        # Signed integer coordinates of every cube point, x fastest.
        freqs = [np.fft.fftfreq(n, 1.0 / n).astype(int) for n in self.cube_dims]
        iz, iy, ix = np.meshgrid(*freqs[::-1], indexing="ij")
        cube_int = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        cube_cart = cube_int @ lattice.b
        self.g2_cube = np.einsum("ij,ij->i", cube_cart, cube_cart)
        self.g2_half = np.ascontiguousarray(
            self.g2_cube.reshape(self._cube_shape)[..., :nx // 2 + 1])
        self.coulomb_half = np.divide(4 * np.pi, self.g2_half, where=self.g2_half != 0,
                                      out=np.zeros_like(self.g2_half))

        # Involutions i -> R i that map the sphere onto itself with |G|
        # unchanged (every mirror of an orthorhombic cell, and the exchange of
        # two axes of equal length).  On cos/sin index i of pair j = min(i,
        # n_b - 1 - i) the operation sends G_j to G_q; cos(G_q r) is the cos
        # of pair q' = min(q, n_b - 1 - q), and sin(G_q r) is minus the sin
        # of q' when q lies past G = 0.
        span = 2 * np.max(np.abs(self.g_int), axis=0) + 1
        weights = np.array([span[1] * span[2], span[2], 1])
        keys = self.g_int @ weights                     # ascending, as g_int is lexicographic
        index = np.arange(self.n_b)
        pair, sin = np.minimum(index, self.n_b - 1 - index), index > h
        mirrors = []
        for group in _operations():
            found = []
            for label, r in group:
                moved = self.g_int @ r.T
                q = np.minimum(np.searchsorted(keys, moved @ weights), self.n_b - 1)
                if (not np.array_equal(self.g_int[q], moved)
                        or np.max(np.abs(self.g2_sphere[q] - self.g2_sphere))
                        > 1e-13 * np.max(self.g2_sphere)
                        or np.any(np.abs(r) @ self.cube_dims != self.cube_dims)):
                    break                       # an exchange that fails takes its product along
                q = q[pair]
                q_pair = np.minimum(q, self.n_b - 1 - q)
                found.append(Mirror(label, r, np.where(sin, self.n_b - 1 - q_pair, q_pair),
                                    np.where(sin & (q > h), -1.0, 1.0), self._moved_cube(r)))
            mirrors += found
        self.mirrors = tuple(mirrors)
        for mirror in self.mirrors:
            for table in mirror[1:]:
                table.flags.writeable = False

        self._to_fourier_scale = np.sqrt(lattice.volume) / self.n_g
        self._sector_bases = {}                # mirror labels -> SectorBasis, see `sector_basis`
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _plane_from(self, lines: np.ndarray) -> np.ndarray:
        """(Ny Nz, l) matrix exp(2 pi i (ky iy / ny + kz iz / nz)) at [iy + ny iz, line ky + ny kz].

        The inverse DFT of the (ky, kz) plane from each of the `lines`
        (wrapped ky, kz), phases reduced mod N.
        """
        nz, ny, _ = self._cube_shape
        phase_y = np.exp(2j * np.pi * (np.outer(np.arange(ny), lines % ny) % ny) / ny)
        phase_z = np.exp(2j * np.pi * (np.outer(np.arange(nz), lines // ny) % nz) / nz)
        return (phase_z[:, None] * phase_y[None]).reshape(ny * nz, len(lines))

    @cached_property
    def pair_support(self) -> "PairSupport":
        """Where the DFT of a product of two sphere functions can be nonzero, on the half spectrum.

        That is the sumset sphere + sphere mod N, G = 0 included: the
        points where the autocorrelation of the sphere's indicator on the
        cube, an integer count of sphere pairs, is positive (the sphere is
        symmetric, so its differences are its sums).  The cube holds twice
        every sphere vector, so the sumset does not wrap and never reaches
        the plane kx = Nx/2.  Depends on the grid alone; built on first use.
        """
        nx = self.cube_dims[0]
        n_half = nx // 2 + 1
        indicator = np.zeros(self.n_g)
        indicator[self.sphere_flat] = 1.0
        spectrum = self.cube_rfft(indicator)
        counts = self.cube_irfft(np.abs(spectrum) ** 2).reshape(self._cube_shape)
        half = np.flatnonzero(counts[..., :n_half].ravel() > 0.5)
        kx = half % n_half
        lines, line_of = np.unique(half // n_half, return_inverse=True)
        n_x = int(np.max(kx)) + 1
        support = PairSupport(
            half=half, multiplicity=np.where((kx == 0) | (kx == nx // 2), 1.0, 2.0),
            plane_h=np.ascontiguousarray(self._plane_from(lines).conj().T),
            at=line_of * n_x + kx, n_x=n_x)
        for table in support[:-1]:
            table.flags.writeable = False
        return support

    def pair_spectra(self, values: np.ndarray) -> np.ndarray:
        """`cube_rfft` of (k, n_g) real grid values at the points of `pair_support`, (k, s) complex.

        Exact, to round-off, for products of two sphere functions, whose
        DFT vanishes off the support.  One `rfft` along x, then the
        support's (ky, kz) lines from the plane by one matrix product, as
        in `to_fourier_many`.
        """
        nz, ny, nx = self._cube_shape
        support = self.pair_support
        spectrum = np.fft.rfft(values.reshape(len(values), ny * nz, nx), axis=2)
        lines = np.matmul(support.plane_h, spectrum[..., :support.n_x])
        return lines.reshape(len(values), -1)[:, support.at]

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

        w^-1 W^-1 Z T^H u for each row; the (ky, kz) plane from the
        sphere's lines by one matrix product, then one half-spectrum
        `irfft` along x.  Complex rows raise TypeError.
        """
        if np.iscomplexobj(rows):
            raise TypeError("to_real_many takes real cos/sin rows")
        k = len(rows)
        if rows.shape != (k, self.n_b):
            raise ValueError(f"expected (k, {self.n_b}) cos/sin rows, got {rows.shape}")
        nz, ny, nx = self._cube_shape
        lines = np.zeros((k, len(self._plane_h), self._n_x), dtype=np.complex128)
        flat = lines.reshape(k, -1)
        flat.real[:, self._half_at] = rows[:, self._half_cos] * self._half_re
        flat.imag[:, self._half_at] = rows[:, self._half_sin] * self._half_im
        spectrum = np.zeros((k, ny * nz, nx // 2 + 1), dtype=np.complex128)
        np.matmul(self._plane, lines, out=spectrum[..., :self._n_x])
        values = np.fft.irfft(spectrum, n=nx, axis=2, norm="forward")
        return values.reshape(k, self.n_g)

    def to_fourier_many(self, values: np.ndarray) -> np.ndarray:
        """Real cos/sin rows T c, (k, n_b), of the sphere projection of (k, n_g) real grid values.

        T w Z^T W of each row; one `rfft` along x, then the sphere's
        (ky, kz) lines from the plane by one matrix product.  Complex
        values raise TypeError rather than lose their imaginary part.
        """
        if np.iscomplexobj(values):
            raise TypeError("to_fourier_many takes real grid values")
        k = len(values)
        if values.shape != (k, self.n_g):
            raise ValueError(f"expected (k, {self.n_g}) grid values, got {values.shape}")
        nz, ny, nx = self._cube_shape
        spectrum = np.fft.rfft(values.reshape(k, ny * nz, nx), axis=2)
        lines = np.matmul(self._plane_h, spectrum[..., :self._n_x])
        upper = lines.reshape(k, -1)[:, self._upper_at]
        h = self.n_b // 2
        rows = np.empty((k, self.n_b))
        np.multiply(upper[:, 0].real, self._to_fourier_scale, out=rows[:, h])
        np.multiply(upper[:, :0:-1].real, self._to_fourier_scale / _SQRT_HALF, out=rows[:, :h])
        np.multiply(upper[:, 1:].imag, self._to_fourier_scale / _SQRT_HALF, out=rows[:, h + 1:])
        return rows

    # -- full-cube FFTs of real grid vectors (for Fourier-diagonal operators) --
    # On the C-order view x is the last axis, which numpy's n-dimensional
    # FFTs transform first.  The real pair keeps the half spectrum kx >= 0,
    # shaped (Nz, Ny, Nx//2 + 1) like `g2_half`.

    def cube_fft(self, values: np.ndarray) -> np.ndarray:
        """Plain forward DFT of a real flat grid vector, every G (no normalisation).

        One `rfftn` gives the half spectrum kx <= Nx/2, and the rest is
        filled as vhat(-G) = conj vhat(G).  The planes kx = 0 and Nx/2 hold
        both G and -G; each of their values is averaged with the conjugate
        of its partner's.  The symmetry then holds exactly, which makes
        `groundstate.real_hamiltonian` exactly symmetric.
        """
        nz, ny, nx = self._cube_shape
        half = self.cube_rfft(values)
        # partner[kz, ky, kx] = conj half[-kz, -ky, kx], indices mod N
        partner = np.roll(half[::-1, ::-1], 1, axis=(0, 1)).conj()
        full = np.empty(self._cube_shape, dtype=np.complex128)
        full[..., :nx // 2 + 1] = half
        full[..., nx // 2 + 1:] = partner[..., nx // 2 - 1:0:-1]
        for kx in (0, nx // 2):
            full[..., kx] = 0.5 * (half[..., kx] + partner[..., kx])
        return full.ravel()

    def cube_rfft(self, values: np.ndarray) -> np.ndarray:
        """Plain forward DFT of a real flat grid vector on the half spectrum (no normalisation)."""
        return np.fft.rfftn(values.reshape(self._cube_shape))

    def cube_irfft(self, half: np.ndarray) -> np.ndarray:
        """Real flat grid vector of a Hermitian half spectrum: the inverse DFT (1/N normalised)."""
        return np.fft.irfftn(half, s=self._cube_shape, axes=(0, 1, 2)).ravel()

    # -- mirrors, exchanges and rotations ------------------------------------

    def _moved_cube(self, r: np.ndarray) -> np.ndarray:
        """Flat index of R n (mod N) at every cube point n, for an involution R.

        Coordinate a of R n is s_a n_p(a), R's row a holding s_a at column
        p(a): a negated axis keeps n_a = 0 and reverses n_a >= 1, and an
        exchange transposes two axes of equal length.
        """
        cube = np.arange(self.n_g).reshape(self._cube_shape)    # coordinate a is C-order axis 2 - a
        for a in np.flatnonzero(np.sum(r, axis=1) < 0):
            cube = np.roll(np.flip(cube, 2 - a), 1, axis=2 - a)
        source = np.argmax(np.abs(r), axis=1)                   # p(a), equal to p^-1(a)
        return np.ascontiguousarray(np.transpose(cube, [2 - source[2 - i] for i in range(3)])).ravel()

    def mirror_change(self, values: np.ndarray, mirror: Mirror) -> float:
        """max |values o M - values| of a flat cube vector under M: n -> R n (mod N).

        The same index map moves grid values and a full spectrum such as
        `cube_fft`'s.
        """
        return float(np.max(np.abs(values[mirror.cube] - values), initial=0.0))

    def sector_basis(self, mirrors) -> "SectorBasis":
        """The `SectorBasis` of a pairwise-commuting subset of `mirrors` with the fewest block entries.

        Among the maximal such subsets (`_commuting_sets`) it keeps the
        one whose sectors have the smallest sum of squared sizes, the
        first on a tie, so coordinate mirrors win over exchanges that
        split no finer.  Each set of `mirrors` picks its basis once per
        grid.
        """
        labels = {m.label for m in mirrors}
        given = [m for m in self.mirrors if m.label in labels]
        key = tuple(m.label for m in given)
        if key not in self._sector_bases:
            self._sector_bases[key] = min(
                (SectorBasis(self.n_b, generators) for generators in _commuting_sets(given)),
                key=lambda basis: sum((s.stop - s.start) ** 2 for s in basis.sectors))
        return self._sector_bases[key]


class SectorBasis:
    """The real orthonormal basis S adapted to a set of pairwise-commuting `Mirror`s.

    Each `Mirror` (a coordinate mirror, a mirror product or an axis
    exchange) is a signed permutation of the cos/sin indices, and k
    commuting ones, none a product of the others, generate a group of 2^k
    involutions g: e_i -> s_g(i) e_g(i).
    Every column of S projects a cos/sin basis vector e_r onto one
    character chi of that group (chi(g) = +-1, one sign per generator):
    sum_g chi(g) s_g(r) e_g(r), normalised, which is (+-e_i +- e_j ...) /
    sqrt(o) over the orbit of r, o <= 8 entries.  The columns are grouped
    by character into sectors, `sectors` holding their slices in that
    order, and within a sector ordered by r.  An operator that commutes
    with every generator, such as the Hamiltonian of a real potential
    that they leave unchanged, is block-diagonal in S, and a function of
    |G| is diagonal there with the value of the orbit (`orbit_index`).
    `labels` names the generators.  With none S is the identity and there
    is one sector.

    S is never formed: `to_sectors` and `from_sectors` are gathers with
    signs, 2^k terms per coefficient, summed in a fixed order, and
    `commuting_blocks` forms the blocks of such an operator from its rows
    at the orbit representatives.
    """

    def __init__(self, n_b: int, mirrors=()):
        size = 2 ** len(mirrors)
        # perm[g, i], sign[g, i]: group element g, the product of the mirrors of its bits
        perm = np.empty((size, n_b), dtype=np.intp)
        sign = np.empty((size, n_b))
        perm[0], sign[0] = np.arange(n_b), 1.0
        for bit, mirror in enumerate(mirrors):
            low = slice(0, 1 << bit)
            perm[1 << bit: 2 << bit] = mirror.perm[perm[low]]
            sign[1 << bit: 2 << bit] = sign[low] * mirror.sign[perm[low]]
        # chi[c, g] = (-1)^(number of mirrors in both c and g), the character table
        chi = np.array([[(-1.0) ** bin(c & g).count("1") for g in range(size)]
                        for c in range(size)])

        rep = perm.min(axis=0)                     # lowest index of each orbit
        reps = np.flatnonzero(rep == np.arange(n_b))
        amp = chi[:, :, None] * sign[:, reps]      # [character, g, orbit]
        fixed = perm[:, reps] == reps              # g in the stabiliser of the orbit's rep
        n_fixed = fixed.sum(axis=0)
        # a character gives a column when it agrees with the signs of the stabiliser
        valid = (amp * fixed).sum(axis=1) == n_fixed
        chars, orbits = np.nonzero(valid)          # character-major: sector order
        if len(chars) != n_b:
            raise InvariantViolationError(f"mirror-adapted basis has {len(chars)} columns, "
                                          f"expected {n_b}")
        # column (chi, r) = sum_g chi(g) s_g(r) sqrt(o) / 2^k e_g(r); repeated
        # indices (the stabiliser) add up to the normalised entry
        self._index = np.ascontiguousarray(perm[:, reps[orbits]].T)
        self._coef = amp[chars, :, orbits] / np.sqrt(size * n_fixed[orbits])[:, None]
        self.orbit_index = self._index[:, 0]
        self._orbit_scale = np.sqrt(size / n_fixed[orbits])     # sqrt(o), o the orbit size
        # row i of S: for each character, the column of i's orbit and its entry
        # chi(g) s_g(rep) / sqrt(o), g any element taking rep to i
        orbit_of = np.searchsorted(reps, rep)
        column = np.zeros((size, len(reps)), dtype=np.intp)
        column[chars, orbits] = np.arange(n_b)
        g = np.argmax(perm[:, rep] == np.arange(n_b), axis=0)
        self._row_index = np.ascontiguousarray(column[:, orbit_of].T)
        self._row_coef = np.ascontiguousarray(np.where(
            valid[:, orbit_of], chi[:, g] * sign[g, rep] * np.sqrt(n_fixed[orbit_of] / size),
            0.0).T)
        bounds = np.cumsum(np.bincount(chars, minlength=size))
        self.sectors = tuple(slice(int(a), int(b)) for a, b in zip(np.r_[0, bounds[:-1]], bounds)
                             if b > a)
        self.mirrors = tuple(mirrors)
        self.labels = tuple(m.label for m in mirrors)

    def to_sectors(self, rows: np.ndarray) -> np.ndarray:
        """rows S: (k, n_b) cos/sin rows in the adapted basis, sector by sector."""
        return np.einsum("...it,it->...i", rows[..., self._index], self._coef)

    def from_sectors(self, rows: np.ndarray) -> np.ndarray:
        """rows S^T: (k, n_b) rows of the adapted basis back to cos/sin rows."""
        return np.einsum("...it,it->...i", rows[..., self._row_index], self._row_coef)

    def commuting_blocks(self, a: np.ndarray) -> tuple:
        """S_c^T A S_c for every sector c of a symmetric (n_b, n_b) A commuting with the mirrors.

        Column b of S is sqrt(o) P e_r: r the lowest index of its orbit
        (`orbit_index`), o the orbit's size and P the symmetric projector
        onto b's character.  An A that commutes with every mirror commutes
        with P, so (S^T A S)_ab = sqrt(o_a) e_r(a)^T A S_b: each block reads
        only the rows of A at its representatives.  For any other A the
        blocks are wrong, so the caller bounds A's commutation defect.
        """
        out = []
        for s in self.sectors:
            rows = a[self.orbit_index[s]]
            rows *= self._orbit_scale[s, None]
            index, coef = self._index[s], self._coef[s]
            # one (size, size) gather at a time; `take` gives C order, A's
            # layout, so products with a block round as with A
            block = np.take(rows, index[:, 0], axis=1)
            block *= coef[:, 0]
            for t in range(1, index.shape[1]):
                term = np.take(rows, index[:, t], axis=1)
                term *= coef[:, t]
                block += term
            out.append(block)
        return tuple(out)


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
