"""Hartree (+ optional LDA exchange) kernel and the Kerker preconditioner.

Both act on real grid vectors and are diagonal in Fourier space (the
exchange part is pointwise in real space), so applications are one real
FFT round trip on the half spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pwbasis import FourierGrids

LDA_X_DENSITY_FLOOR = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Linear response kernel: Hartree always, plus optional LDA exchange."""

    xc: str = "none"

    def __post_init__(self):
        if self.xc not in ("none", "lda_x"):
            raise ConfigurationError(f"unknown xc kernel {self.xc!r}")


@dataclass(frozen=True)
class KerkerSpec:
    """Charge-conserving Fourier damping |G|^2 / (|G|^2 + alpha^2)."""

    alpha: float = 0.8

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ConfigurationError(f"kerker alpha must be >= 0, got {self.alpha}")


def hartree_potential(grids: FourierGrids, rho: np.ndarray) -> np.ndarray:
    """Zero-mean solution of -Laplacian v = 4 pi (rho - mean rho).

    4 pi / |G|^2 in Fourier space with the G = 0 entry zero
    (compensating background charge): `grids.coulomb_half`.
    """
    rhof = grids.cube_rfft(rho)
    rhof *= grids.coulomb_half
    return grids.cube_irfft(rhof)


def apply_kernel(spec: KernelSpec, grids: FourierGrids, rho_ref: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """Apply K = K_Hartree (+ K_x) to a real grid vector.

    The Hartree part is `hartree_potential`; the exchange part is the
    pointwise derivative of the LDA exchange potential at rho_ref, with
    the density floored to keep rho^(-2/3) bounded.
    """
    out = hartree_potential(grids, v)
    if spec.xc == "lda_x":
        rho = np.clip(rho_ref, LDA_X_DENSITY_FLOOR, None)
        out = out - (1.0 / 3.0) * (3.0 / np.pi) ** (1.0 / 3.0) * rho ** (-2.0 / 3.0) * v
    return out


def apply_kerker(spec: KerkerSpec, grids: FourierGrids, v: np.ndarray) -> np.ndarray:
    """Apply T = W^-1 D W with D = |G|^2/(|G|^2 + alpha^2), D(0) set to 1.

    Setting the G = 0 entry to one is the charge-conserving modification:
    the mean of the input passes through unchanged.
    """
    if spec.alpha == 0.0:
        return np.array(v, dtype=float, copy=True)
    damp = grids.g2_half / (grids.g2_half + spec.alpha**2)
    damp[grids.g2_half == 0] = 1.0
    return grids.cube_irfft(grids.cube_rfft(v) * damp)

