"""Toy-solid Hamiltonian, dense diagonalisation, smearing and the SCF loop.

The model is a reduced Hartree-Fock solid: kinetic energy, a lattice-summed
sum of Gaussian wells as the external potential, the Hartree potential of
the electron density, and optionally a local LDA exchange term.  At desk
scale (n_b up to a couple thousand) the eigenproblem is solved densely,
which keeps every downstream test exact, one block per sector of the
potential's symmetries (`sector_hamiltonian`).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantViolationError, NonConvergenceError
from .kernels import KerkerSpec, apply_kerker, hartree_potential
from .pwbasis import FourierGrids, Lattice, SectorBasis, build_grids


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

_erfc = np.frompyfunc(math.erfc, 1, 1)


def smearing_function(kind: str):
    """Occupation f(x) on [0, 2) and its derivative f'(x), both monotone.

    Fermi-Dirac: f = 2 / (1 + e^x), which is 0 once e^x overflows, and
    f' = -2 e^-|x| / (1 + e^-|x|)^2, which loses no digits to 1 - f/2.
    Gaussian: f = erfc(x), `math.erfc` element by element (eigenvalue
    arrays are short).
    """
    if kind == "fermi_dirac":
        def f(x):
            with np.errstate(over="ignore"):
                return 2.0 / (1.0 + np.exp(np.asarray(x, dtype=float)))

        def fprime(x):
            e = np.exp(-np.abs(np.asarray(x, dtype=float)))
            return -2.0 * e / (1.0 + e) ** 2
    elif kind == "gaussian":
        def f(x):
            return np.asarray(_erfc(np.asarray(x, dtype=float)), dtype=float)

        def fprime(x):
            x = np.asarray(x, dtype=float)
            return -2.0 / np.sqrt(np.pi) * np.exp(-x * x)
    else:
        raise ConfigurationError(f"unknown smearing {kind!r}")
    return f, fprime


def fermi_and_occupations(eps, n_electrons, temperature, smearing="fermi_dirac"):
    """Fermi level by bisection and the resulting occupations.

    Bisects sum_n f((eps_n - mu)/T) = N down to float resolution in mu;
    the smearing functions are strictly monotone so the level is unique.
    The count runs on Python floats: `math.erfc` for Gaussian smearing,
    and for Fermi-Dirac 2 / (1 + e^x), written 2 e^-x / (1 + e^-x) for
    x > 0 so that `math.exp` cannot overflow.  The occupations returned
    are `smearing_function`'s f at the level found.

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
    levels = eps.tolist()

    def fermi_dirac(x):
        if x > 0:
            e = math.exp(-x)
            return 2.0 * e / (1.0 + e)
        return 2.0 / (1.0 + math.exp(x))

    term = math.erfc if smearing == "gaussian" else fermi_dirac

    def count(mu):
        return math.fsum(term((e - mu) / temperature) for e in levels)

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


def _image_box(grids: FourierGrids, well: GaussianWell) -> np.ndarray:
    """m: every image n of `well` nearer than its tail r_tail to the cell has |n_k| <= m_k.

    The component of (df + n) @ a along b_k is (df_k + n_k) 2 pi / |b_k|,
    with df in [-1/2, 1/2] the minimum-image fractional offset, so an image
    nearer than r_tail has |n_k| <= r_tail |b_k| / 2 pi + 1/2; the plane
    spacing makes this hold for non-orthogonal cells too.
    """
    reach = well.width * _TAIL_WIDTHS * np.linalg.norm(grids.lattice.b, axis=1) / (2 * np.pi)
    return np.floor(reach + 0.5).astype(int)


def _orthogonal(lattice: Lattice) -> bool:
    """Whether a a^T has exactly zero off-diagonal entries: lattice sums factorise by axis."""
    gram = lattice.a @ lattice.a.T
    return not np.any(gram - np.diag(np.diag(gram)))


def _image_displacements(grids: FourierGrids, well: GaussianWell):
    """Yield r - (c + R) on the grid for every image of `well` in its `_image_box`.

    Fractional offsets are reduced to the minimum image, df in [-1/2, 1/2].
    """
    a = grids.lattice.a
    df = grids.real_space_points() @ np.linalg.inv(a) - np.asarray(well.center, dtype=float)
    df -= np.round(df)
    base = df @ a
    for n in itertools.product(*(range(-m, m + 1) for m in _image_box(grids, well))):
        yield base + np.asarray(n, dtype=float) @ a


def _axis_sum(grids: FourierGrids, well: GaussianWell, direction) -> np.ndarray:
    """`_lattice_sum` on an orthogonal cell: the same image box, factorised by axis.

    With a a^T diagonal, d = r - (c + R) has the component x_k = (df_k +
    n_k) |a_k| along a_k, |d|^2 = sum_k x_k^2 and df_k depends on the
    grid's plane index along a_k alone.  The box is a product of ranges,
    so the sum of e(d) is exactly the outer product of the three per-axis
    sums s_k = sum_{n_k} exp(-x_k^2 / 2 w^2), each (N_k,).  With a
    direction, d . direction = sum_k x_k (a_k / |a_k|) . direction, and
    term k puts t_k = sum_{n_k} x_k exp(-x_k^2 / 2 w^2) in place of s_k.
    """
    lengths = np.linalg.norm(grids.lattice.a, axis=1)
    s, t = [], []
    for n_k, c, length, m in zip(grids.cube_dims, well.center, lengths, _image_box(grids, well)):
        df = np.arange(n_k) / n_k - c
        df -= np.round(df)
        x = (df[:, None] + np.arange(-m, m + 1)) * length
        gauss = np.exp(-x * x / (2 * well.width**2))
        s.append(gauss.sum(axis=1))
        t.append((x * gauss).sum(axis=1))

    def outer(f):
        """f_x (x) f_y (x) f_z, flat x-fastest."""
        return np.multiply.outer(np.multiply.outer(f[2], f[1]), f[0]).ravel()

    if direction is None:
        return outer(s)
    along = grids.lattice.a @ direction / lengths
    return sum(along[k] * outer([t[j] if j == k else s[j] for j in range(3)]) for k in range(3))


def _lattice_sum(grids: FourierGrids, well: GaussianWell, direction=None) -> np.ndarray:
    """sum_R e(d) on the grid, or sum_R e(d) (d . direction) given a unit direction.

    e(d) = exp(-|d|^2 / 2 w^2) with d = r - (c + R), R over the images of
    `_image_box`.  On an orthogonal cell the sum is taken per axis
    (`_axis_sum`), else image by image.
    """
    if _orthogonal(grids.lattice):
        return _axis_sum(grids, well, direction)
    total = np.zeros(grids.n_g)
    for d in _image_displacements(grids, well):
        gauss = np.exp(-np.einsum("ij,ij->i", d, d) / (2 * well.width**2))
        total += gauss if direction is None else gauss * (d @ direction)
    return total


def external_potential(model: ModelSpec, grids: FourierGrids) -> np.ndarray:
    """Lattice-summed Gaussian wells on the cube grid, one `_lattice_sum` per well."""
    v = np.zeros(grids.n_g)
    for g in model.gaussians:
        v += g.amplitude * _lattice_sum(grids, g)
    return v


def gaussian_well(model: ModelSpec, index: int) -> GaussianWell:
    """The model's well `index`; negative or too large indices raise."""
    if not 0 <= index < len(model.gaussians):
        raise ConfigurationError(f"gaussian index {index} out of range")
    return model.gaussians[index]


def external_potential_derivative(model: ModelSpec, grids: FourierGrids,
                                  index: int, direction: np.ndarray) -> np.ndarray:
    """d/dc [lattice-summed well `index`] contracted with a unit direction.

    A / w^2 times `_lattice_sum` with the direction, sum_R e(d) (d . direction).
    """
    g = gaussian_well(model, index)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0 or not np.all(np.isfinite(direction)):
        raise ConfigurationError("perturbation direction must be a nonzero vector")
    return (g.amplitude / g.width**2) * _lattice_sum(grids, g, direction / norm)


# -- Hamiltonian ------------------------------------------------------------

_REAL_H_ROWS = 64           # rows of V per block in `_hamiltonian_of_vhat`


def real_hamiltonian(grids: FourierGrids, v_local: np.ndarray) -> np.ndarray:
    """H_r = T H T^H, the dense Hamiltonian in the cos/sin basis (see `pwbasis`).

    For a real v_local H_r is real symmetric, exactly so, since
    `FourierGrids.cube_fft` makes vhat(-G) = conj vhat(G) exact.  Built
    from vhat by `_hamiltonian_of_vhat`.  The SCF and the Sternheimer CG
    use H_r through `sector_hamiltonian`: its blocks in the sectors of
    v_local's symmetries, or H_r itself when v_local has none.

    Raises:
        InvariantViolationError: the sphere is not symmetric under G -> -G
            in the index order that T assumes.
    """
    return _hamiltonian_of_vhat(grids, grids.cube_fft(v_local) / grids.n_g)


def _hamiltonian_of_vhat(grids: FourierGrids, vhat: np.ndarray) -> np.ndarray:
    """H_r of the potential whose normalised DFT is vhat = `cube_fft`(v_local) / n_g.

    Its blocks are sums and differences of the real and imaginary parts
    of the first n_b // 2 rows of V_{G,G'} = vhat(G - G'), which hold
    every vhat(G_i - G_j), vhat(G_i + G_j) and vhat(G_i) of the pairs.
    Those rows are gathered from Re vhat and Im vhat separately, in blocks
    of _REAL_H_ROWS, and H_r is written in place.
    """
    if not np.array_equal(grids.g_int[::-1], -grids.g_int):
        raise InvariantViolationError("sphere is not reversal-symmetric: -G of index j "
                                      "must be index n_b - 1 - j")
    n_b, h = grids.n_b, grids.n_b // 2
    hr = np.empty((n_b, n_b))
    v_re, v_im = vhat.real.copy(), vhat.imag.copy()
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


MIRROR_RTOL = 1e-13          # max |v - v o M| / max |v| of an operation M taken as a symmetry
SECTOR_DEFECT_LIMIT = 1e-12  # bound on the blocks' error / max |H_r| allowed of those operations


@dataclass(frozen=True)
class SectorHamiltonian:
    """H_r as one dense block per sector: S_c^T H_r S_c (see `pwbasis.SectorBasis`).

    Rows handed to `apply` are in the adapted basis, sector by sector
    (`basis.to_sectors`).  `defect` is `mirror_defect` over max |H_r|: a
    bound, from vhat, on twice the largest entry of S^T H_r S that the
    blocks drop and on twice the error of the representative-row blocks.
    """

    basis: SectorBasis
    blocks: tuple
    defect: float

    def apply(self, rows: np.ndarray, out: np.ndarray = None, sectors=None) -> np.ndarray:
        """rows H (H symmetric) for (k, n_b) rows in the adapted basis: one GEMM per sector.

        Given the indices of some `sectors`, in ascending order, the rows
        hold only those sectors' coefficients, one sector after another,
        and only their blocks are applied.
        """
        if out is None:
            out = np.empty_like(rows)
        start = 0
        for c in range(len(self.blocks)) if sectors is None else sectors:
            block = self.blocks[c]
            s = slice(start, start + len(block))
            np.matmul(rows[:, s], block, out=out[:, s])
            start = s.stop
        return out


def mirror_defect(grids: FourierGrids, vhat: np.ndarray, mirrors) -> float:
    """2^k k max_M (2 max |vhat o M - vhat| + max |g2 o M - g2| / 2) over k generators M.

    M is any `pwbasis.Mirror`: a coordinate mirror, a mirror product or an
    axis exchange, which moves vhat by the index map of the grid
    (`FourierGrids.mirror_change`).  The bracket bounds delta = max_M
    max |M H_r M - H_r|: a potential entry of H_r combines two values of
    vhat, and the kinetic diagonal is |G|^2 / 2.  A group element, a
    product of j <= k generators, moves H_r by at most j delta, so the
    projector P of a character, the mean of the 2^k signed elements, has
    max |[H_r, P]| <= k delta / 2.  An adapted column holds o <= 2^k
    entries of 1 / sqrt(o), so each entry that
    `SectorBasis.commuting_blocks` gets wrong, and each entry of S^T H_r S
    outside the blocks, is off by at most 2^(k-1) k delta: the value
    returned is twice that.  Zero with no generator.
    """
    return _group_bound([_commutation_change(grids, vhat, m) for m in mirrors])


def _commutation_change(grids: FourierGrids, vhat: np.ndarray, mirror) -> float:
    """2 max |vhat o M - vhat| + max |g2 o M - g2| / 2: a bound on max |M H_r M - H_r|."""
    g2 = grids.g2_sphere
    return 2.0 * grids.mirror_change(vhat, mirror) + 0.5 * float(np.max(np.abs(g2[mirror.perm] - g2)))


def _group_bound(changes) -> float:
    """`mirror_defect` from the `_commutation_change` of each of its k generators."""
    return 2.0 ** len(changes) * len(changes) * max(changes, default=0.0)


def sector_hamiltonian(grids: FourierGrids, v_local: np.ndarray) -> SectorHamiltonian:
    """`real_hamiltonian` in the basis adapted to symmetries of v_local, as per-sector blocks.

    The candidates are the operations of `grids.mirrors` (mirrors, mirror
    products, axis exchanges) that leave v_local unchanged to
    MIRROR_RTOL.  They are taken in the order of their own bound from
    vhat, and each is accepted only if `mirror_defect` of the set that
    `grids.sector_basis` then picks from the accepted ones stays within
    SECTOR_DEFECT_LIMIT of max |H_r|: so a potential whose candidates
    pass the first test but break the second loses an operation instead
    of stopping the run.  The blocks are formed from H_r's rows at the
    orbit representatives (`SectorBasis.commuting_blocks`), exact only for
    an H_r that commutes with the set, and every entry outside them is
    dropped; the guard checks the bound of the set once more.  vhat is
    computed once and feeds both H_r and the bounds.  With no operation
    there is one block, H_r itself, and the identity map.

    Raises:
        InvariantViolationError: the set of the basis does not commute
            with H_r (a basis forced past the acceptance).
    """
    vhat = grids.cube_fft(v_local) / grids.n_g
    h_r = _hamiltonian_of_vhat(grids, vhat)
    scale = float(np.max(np.abs(h_r)))
    limit = MIRROR_RTOL * np.max(np.abs(v_local), initial=0.0)
    change = {m.label: _commutation_change(grids, vhat, m) for m in grids.mirrors}
    found = [m for m in grids.mirrors if grids.mirror_change(v_local, m) <= limit]
    accepted = []
    for m in sorted(found, key=lambda m: change[m.label]):
        trial = grids.sector_basis(accepted + [m])
        if _group_bound([change[g.label] for g in trial.mirrors]) <= SECTOR_DEFECT_LIMIT * scale:
            accepted.append(m)
    basis = grids.sector_basis(accepted)
    defect = mirror_defect(grids, vhat, basis.mirrors) / scale
    if defect > SECTOR_DEFECT_LIMIT:
        raise InvariantViolationError(
            f"operations of v_local ({', '.join(basis.labels)}) do not commute with H_r: "
            f"defect {defect:.2e} > {SECTOR_DEFECT_LIMIT:.0e}")
    blocks = basis.commuting_blocks(h_r)
    for block in blocks:
        block.flags.writeable = False
    return SectorHamiltonian(basis=basis, blocks=blocks, defect=defect)


def diagonalize_dense(grids: FourierGrids, v_local: np.ndarray, n_states: int):
    """Lowest n_states eigenpairs (eps, u) of the discretised Hamiltonian.

    One full real symmetric `eigh` per sector block of
    `sector_hamiltonian` gives each sector's lowest n_states; a stable
    sort of their eigenvalues keeps the lowest n_states overall, ties in
    sector order.
    The eigenvectors, mapped back, are u, (n_b, n_states), orthonormal
    real coefficients in the cos/sin basis: every orbital is a real
    function, and each lies in one sector.
    """
    if n_states > grids.n_b:
        raise ConfigurationError(f"n_states={n_states} exceeds basis size {grids.n_b}")
    ham = sector_hamiltonian(grids, v_local)
    eps, rows = [], []
    for s, block in zip(ham.basis.sectors, ham.blocks):
        e, y = np.linalg.eigh(block)
        vectors = np.zeros((min(n_states, len(e)), grids.n_b))
        vectors[:, s] = y[:, :n_states].T
        eps.append(e[:n_states])
        rows.append(vectors)
    keep = np.argsort(np.concatenate(eps), kind="stable")[:n_states]
    return np.concatenate(eps)[keep], ham.basis.from_sectors(np.concatenate(rows)[keep]).T


# -- density and potentials ---------------------------------------------------

def compute_density(grids: FourierGrids, u: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """rho(r) = sum_n f_n psi_n(r)^2 for the real orbitals with cos/sin coefficients u (n_b, k).

    psi_n = `to_real_many` of column n: real grid values, so the density
    is a sum of squares with no imaginary part to discard.
    """
    psi_r = grids.to_real_many(u.T)
    psi_r *= psi_r
    return np.asarray(occ, dtype=float) @ psi_r


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
    stop test; v_local is its potential and u/eps/occ are the
    eigenstates of H[v_local].  They cover the occupied bands plus
    n_extra unoccupied eigenstates, as many more as it takes to end
    between two levels (DEGENERACY_RTOL): eps[n_occ] (the lowest retained
    unoccupied level) feeds the response error bounds, and `apply_chi0`
    takes the response in these states by a sum over states instead of a
    Sternheimer solve.

    The orbitals are real functions, and u, their real coefficients in
    the cos/sin basis of `pwbasis`, is their only representation: the
    SCF's `eigh` returns it, the Sternheimer CG projects against it,
    chi0 transforms it to the grid and the archive writes it.

    Quantities derived for a response solve are cached until
    `drop_derived`, which `run_response` calls when it ends: the kept
    orbitals on the grid (`psi_kept_real`, whose first n_occ rows are
    `psi_occ_real`), the Sternheimer operator
    (`sternheimer.hamiltonian`), the kept bands and the preconditioner
    in its sectors (`sternheimer.sector_constants`) and their cuts for each
    set of kept sectors a CG group meets (`sternheimer._group_constants`),
    the bands' kinetic energies (`sternheimer.kinetic_energies`), the
    occupied pair weights (`response._occupied_pair_weights`), the row
    norm (`response._cached_row_norm`), the kept sum over states
    (`response.kept_sum_over_states`) and the Woodbury matrix of the
    Dyson preconditioner (`response.dyson_preconditioner`).
    """

    model: ModelSpec
    grids: FourierGrids
    u: np.ndarray            # (n_b, n_kept) real orthonormal columns
    eps: np.ndarray          # (n_kept,) ascending
    occ: np.ndarray          # (n_kept,) in [0, 2)
    fermi_level: float
    rho: np.ndarray          # (n_g,) electrons / Bohr^3 on the grid
    n_occ: int
    v_local: np.ndarray      # (n_g,) total local potential defining u/eps
    scf_residual: float = 0.0
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_kept(self) -> int:
        return self.u.shape[1]

    @property
    def u_occ(self) -> np.ndarray:
        return self.u[:, : self.n_occ]

    @property
    def psi_kept_real(self) -> np.ndarray:
        """Every kept orbital on the grid, real (n_kept, n_g) float64, computed once."""
        return self.derived("psi_kept_real", lambda: self.grids.to_real_many(self.u.T))

    @property
    def psi_occ_real(self) -> np.ndarray:
        """The occupied orbitals on the grid: the first n_occ rows of `psi_kept_real`."""
        return self.psi_kept_real[: self.n_occ]

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
DEGENERACY_RTOL = 1e-8      # |eps_a - eps_b| <= this max(1, |eps|): one level


def _choose_n_extra(n_occ: int) -> int:
    return max(3, int(np.ceil(0.1 * n_occ)))


def run_scf(model: ModelSpec, tol: float, max_iter: int = 200, *,
            mixing: str = "kerker", kerker_alpha: float = 0.8,
            damping: float = 0.8) -> GroundState:
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
    if not tol > 0:
        raise ConfigurationError("scf tolerance must be positive")
    if mixing not in ("kerker", "identity"):
        raise ConfigurationError(f"unknown mixing {mixing!r}")

    grids = build_grids(model.lattice, model.e_cut)
    v_ext = external_potential(model, grids)
    kerker = KerkerSpec(alpha=kerker_alpha) if mixing == "kerker" else None

    rho = np.full(grids.n_g, model.n_electrons / model.lattice.volume)
    n_states = min(grids.n_b, model.n_electrons // 2 + max(6, model.n_electrons // 4))
    weight = np.sqrt(model.lattice.volume / grids.n_g)
    # rows [0, slot]: rho_{j+1} - rho_j, rows [1, slot]: f_{j+1} - f_j, a ring
    history = np.empty((2, ANDERSON_DEPTH, grids.n_g))
    stored, previous, res_norm = 0, None, np.nan

    for _ in range(max_iter):
        v_loc = total_local_potential(model, grids, v_ext, rho)
        eps, u = diagonalize_dense(grids, v_loc, n_states)
        fermi, occ = fermi_and_occupations(eps, model.n_electrons,
                                           model.temperature, model.smearing)
        n_occ = int(np.max(np.nonzero(occ > model.occupation_threshold)[0])) + 1
        n_kept = n_occ + _choose_n_extra(n_occ)
        while (n_kept < n_states
               and eps[n_kept] - eps[n_kept - 1] <= DEGENERACY_RTOL * max(1.0, abs(eps[n_kept]))):
            n_kept += 1                 # the kept set ends between two levels
        if n_kept > grids.n_b:
            raise NonConvergenceError(f"basis too small: need {n_kept} states, have {grids.n_b}")
        if n_kept >= n_states and n_states < grids.n_b:     # eps[n_kept] not seen
            n_states = min(grids.n_b, n_kept + 4)
            continue

        residual = compute_density(grids, u, occ) - rho
        res_norm = np.linalg.norm(residual) * weight
        if res_norm <= tol:
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
        # rcond eps: numpy's default, eps n_g, would drop nearly dependent history
        gamma = np.linalg.lstsq(d_f.T, f, rcond=np.finfo(float).eps)[0] if stored else np.zeros(0)
        rho = rho - gamma @ d_rho + damping * (f - gamma @ d_f)

    raise NonConvergenceError(
        f"SCF did not reach {tol:.1e} in {max_iter} iterations", residual=res_norm
    )
