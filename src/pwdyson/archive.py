"""Ground-state archive: meta.json plus raw little-endian float64 blobs.

Layout of an archive directory:

    meta.json     lattice, cutoff, grid dims, spectrum, occupations,
                  model parameters, format version, endianness tag
    u.bin         the real orbitals u in the cos/sin basis, column-major
                  n_b x n_kept
    rho.bin       density on the cube grid, x fastest
    v_local.bin   total local potential, same layout (so the Hamiltonian
                  that u/eps diagonalise is reconstructed bit-exactly)

Write-read round trips are bit-exact.  All writes go through a temp file
plus atomic rename, and meta.json is the commit marker: a save removes
the old one first and writes the new one last, so a save that stops
part way leaves no meta.json, and no archive that mixes the new model
with the old blobs.  Format 1 stored the complex phi as two blobs,
phi_re.bin and phi_im.bin; it is no longer read, and a save deletes
those blobs.
"""

import json
import os
import tempfile

import numpy as np

from .config import model_from_dict, model_to_dict
from .errors import ArchiveError, ConfigurationError
from .groundstate import GroundState
from .pwbasis import build_grids

FORMAT_VERSION = 2
_FORMAT_1_BLOBS = ("phi_re.bin", "phi_im.bin")


def atomic_write(path: str, data: bytes):
    """Write `data` to `path` through a temp file plus atomic rename.

    The file gets the mode a plain open() would give it (0666 masked by
    the umask), not mkstemp's private 0600, so archives and reports in a
    shared directory stay readable by the other users it is shared with.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)       # the umask is read by setting it; restore at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_blob(path: str, expected_count: int) -> np.ndarray:
    if not os.path.exists(path):
        raise ArchiveError(f"missing blob {os.path.basename(path)}")
    data = np.fromfile(path, dtype="<f8")
    if len(data) != expected_count:
        raise ArchiveError(
            f"{os.path.basename(path)}: expected {expected_count} float64 values, "
            f"found {len(data)}"
        )
    return data


def save_ground_state(path: str, gs: GroundState):
    """Write `gs` to the archive directory `path`, replacing any archive there.

    The old meta.json goes first and the new one is written after every
    blob, so an interrupted save leaves a directory `load_ground_state`
    rejects rather than a new meta.json over old blobs.
    """
    os.makedirs(path, exist_ok=True)
    for name in ("meta.json",) + _FORMAT_1_BLOBS:
        if os.path.exists(os.path.join(path, name)):
            os.unlink(os.path.join(path, name))
    meta = {
        "format_version": FORMAT_VERSION,
        "endianness": "little",
        "model": model_to_dict(gs.model),
        "cube_dims": list(gs.grids.cube_dims),
        "n_b": gs.grids.n_b,
        "n_g": gs.grids.n_g,
        "n_occ": gs.n_occ,
        "n_kept": gs.n_kept,
        "eps": gs.eps.tolist(),
        "occ": gs.occ.tolist(),
        "fermi_level": gs.fermi_level,
        "scf_residual": gs.scf_residual,
    }
    atomic_write(os.path.join(path, "u.bin"),
                 np.asarray(gs.u, dtype="<f8").tobytes(order="F"))
    atomic_write(os.path.join(path, "rho.bin"),
                 np.asarray(gs.rho, dtype="<f8").tobytes())
    atomic_write(os.path.join(path, "v_local.bin"),
                 np.asarray(gs.v_local, dtype="<f8").tobytes())
    atomic_write(os.path.join(path, "meta.json"),
                 json.dumps(meta, indent=1).encode())


def _read_meta(path: str) -> dict:
    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):
        raise ArchiveError(f"no meta.json under {path}")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except ValueError as err:           # a decoding error included
            raise ArchiveError(f"{meta_path}: not valid JSON ({err})") from None
    if not isinstance(meta, dict):
        raise ArchiveError(f"{meta_path}: not a JSON object")
    return meta


def is_older_format(path: str) -> bool:
    """Whether the archive at `path` was written in a format before FORMAT_VERSION."""
    version = _read_meta(path).get("format_version")
    return type(version) is int and version < FORMAT_VERSION


_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_NUMBERS = (lambda v: type(v) is list and all(map(_NUMBER[0], v)), "a list of numbers")
# the JSON type of each meta.json key that `load_ground_state` reads (true and false are no numbers)
_META_KEYS = {"model": (lambda v: type(v) is dict, "an object"), "n_b": _INTEGER,
              "cube_dims": (lambda v: type(v) is list, "a list"), "n_occ": _INTEGER,
              "n_kept": _INTEGER, "eps": _NUMBERS, "occ": _NUMBERS, "fermi_level": _NUMBER,
              "scf_residual": _NUMBER}


def load_ground_state(path: str) -> GroundState:
    """The archived ground state; ArchiveError, naming meta.json's key, where it is malformed."""
    meta = _read_meta(path)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"archive format version {version!r}, expected {FORMAT_VERSION}")
    if meta.get("endianness") != "little":
        raise ArchiveError(f"unsupported endianness tag {meta.get('endianness')!r}")
    for key, (accepts, what) in _META_KEYS.items():
        if not accepts(meta.get(key)):
            raise ArchiveError(f"meta.json key {key!r} must be {what}, got "
                               + (f"{meta[key]!r:.60}" if key in meta else "no such key"))
    n_occ, n_kept = meta["n_occ"], meta["n_kept"]
    if not 1 <= n_occ < n_kept:
        raise ArchiveError(f"meta.json key 'n_occ' must lie in [1, n_kept = {n_kept}), "
                           f"got {n_occ}")

    try:
        model = model_from_dict(meta["model"])
    except ConfigurationError as err:
        raise ArchiveError(f"meta.json key 'model': {err}") from None
    grids = build_grids(model.lattice, model.e_cut)
    if grids.n_b != meta["n_b"] or list(grids.cube_dims) != meta["cube_dims"]:
        raise ArchiveError(
            f"grid rebuild disagrees with archive: n_b {grids.n_b} vs {meta['n_b']}, "
            f"dims {grids.cube_dims} vs {meta['cube_dims']}"
        )

    u = _read_blob(os.path.join(path, "u.bin"), grids.n_b * n_kept)
    u = np.ascontiguousarray(u.reshape((grids.n_b, n_kept), order="F"))
    rho = _read_blob(os.path.join(path, "rho.bin"), grids.n_g)
    v_local = _read_blob(os.path.join(path, "v_local.bin"), grids.n_g)

    eps = np.asarray(meta["eps"], dtype=float)
    occ = np.asarray(meta["occ"], dtype=float)
    if len(eps) != n_kept or len(occ) != n_kept:
        raise ArchiveError("eps/occ length disagrees with n_kept")

    return GroundState(
        model=model, grids=grids, u=u, eps=eps, occ=occ,
        fermi_level=float(meta["fermi_level"]), rho=rho,
        n_occ=n_occ, v_local=v_local, scf_residual=float(meta["scf_residual"]),
    )
