"""Per-band Sternheimer tolerance selection.

Implements the three adaptive prefactors (guaranteed / balanced /
aggressive) and the static baselines.  The adaptive strategies scale the
error budget granted for the application at hand: tau/3 for the
right-hand-side build, and inside the solve the budget
(s / 3m) target / ||r~_{i-1}|| that `igmres_solve` hands the operator,
its target 1e3 tau in the solver's first stage and tau after it.  So
honoured tolerances translate directly into an honoured operator budget.
grt inverts `response.dielectric_error_bound`: its tolerances make that
bound equal the granted budget, up to round-off and the tolerance floor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

ADAPTIVE_KINDS = ("grt", "bal", "agr")
BASELINE_KINDS = ("d10", "d100", "d10n")
TOLERANCE_FLOOR = 1e-16


@dataclass(frozen=True)
class StrategySpec:
    """A named tolerance rule plus the outer-solver parameters it needs."""

    kind: str
    preconditioned: bool
    tau: float
    m: int

    def __post_init__(self):
        if self.kind not in ADAPTIVE_KINDS + BASELINE_KINDS:
            raise ConfigurationError(f"unknown strategy kind {self.kind!r}")
        if not self.tau > 0:
            raise ConfigurationError("tau must be positive")
        if self.m < 1:
            raise ConfigurationError("restart size m must be >= 1")

    @property
    def adaptive(self) -> bool:
        return self.kind in ADAPTIVE_KINDS

    @property
    def name(self) -> str:
        return ("p" if self.preconditioned else "") + self.kind


def parse_strategy(name: str, tau: float, m: int) -> StrategySpec:
    """Parse a CLI strategy name; a leading 'p' selects Kerker preconditioning."""
    key = name.strip().lower()
    preconditioned = key.startswith("p")
    if preconditioned:
        key = key[1:]
    return StrategySpec(kind=key, preconditioned=preconditioned, tau=tau, m=m)


@dataclass(frozen=True)
class ToleranceContext:
    """What the prefactors read from the ground state, fixed for one solve.

    `occ` holds the occupations of the occupied bands and `gap` their
    distances eps_{N_occ+1} - eps_n to the lowest retained unoccupied
    level, read only by grt; `rhs_norm` is ||chi0 dV0||, read only by d10n.
    """

    occ: np.ndarray
    gap: np.ndarray
    volume: float
    n_g: int
    row_norm: float
    rhs_norm: float

    @property
    def n_occ(self) -> int:
        return len(self.occ)


def _require(value, name, strategy):
    if value is None or not np.all(np.isfinite(value)) or not np.all(np.asarray(value) > 0):
        raise ConfigurationError(f"strategy {strategy!r} needs positive finite {name}, got {value}")
    return value


def select_tolerances(spec: StrategySpec, ctx: ToleranceContext, budget: float,
                      kv_norm: float) -> np.ndarray:
    """Per-band CG tolerances tau_{i,n} for one application, clamped below at 1e-16.

    `budget` is the error allowance granted for the application and
    `kv_norm` the norm of the potential chi0 is applied to; the static
    baselines read neither.
    """
    occ = np.asarray(_require(ctx.occ, "occupations", spec.kind), dtype=float)
    if spec.adaptive:
        shared = float(_require(budget, "budget", spec.kind))
        if spec.kind == "agr":
            prefactor = np.ones(ctx.n_occ)
        else:
            _require(ctx.volume, "volume", spec.kind)
            _require(ctx.n_g, "n_g", spec.kind)
            band = np.sqrt(ctx.volume) / (2.0 * occ * np.sqrt(ctx.n_g * ctx.n_occ))
            if spec.kind == "grt":
                _require(kv_norm, "kv_norm", spec.kind)
                _require(ctx.row_norm, "row_norm", spec.kind)
                gap = np.asarray(_require(ctx.gap, "gap", spec.kind), dtype=float)
                prefactor = band * gap / (kv_norm * ctx.row_norm)
            else:  # bal
                prefactor = band * np.sqrt(ctx.volume) / np.sqrt(ctx.n_occ)
        tol = prefactor * shared
    elif spec.kind == "d10":
        tol = np.full(ctx.n_occ, spec.tau / 10.0)
    elif spec.kind == "d100":
        tol = np.full(ctx.n_occ, spec.tau / 100.0)
    else:  # d10n
        _require(ctx.rhs_norm, "rhs_norm", spec.kind)
        tol = np.full(ctx.n_occ, spec.tau / (10.0 * ctx.rhs_norm))
    return np.maximum(tol, TOLERANCE_FLOOR)
