"""Restarted inexact GMRES with on-the-fly smallest-singular-value tracking.

The operator is only available as a budgeted black box: given a vector v
and an error allowance tau', it returns some w with ||A v - w|| <= tau'
plus the cost it spent.  Per iteration i the solver grants the budget

    (s / (3 m)) * target / ||r~_{i-1}||,

where s is a running lower-bound estimate of the smallest singular value
of the final Hessenberg matrix.  The solve runs in two stages, one
loop whose target switches once.

Stage 1 runs only from a zero initial guess with ||b|| > STAGE_FACTOR tau.
Its target is STAGE_FACTOR tau: while the residual is that far above
tau, a product need only match the residual the stage aims at
(relaxation; van den Eshof and Sleijpen, SIAM J. Matrix Anal. Appl. 26,
125 (2004)).  An exhausted cycle restarts from its implicit residual
V_{m+1} (beta e1 - H y), with no operator application, and updates s to
sigma_m(H_m).  The first time the estimate is <= STAGE_FACTOR tau, even
mid-cycle, the iterate is assembled and the solve hands over.

Stage 2, the whole solve when stage 1 does not run, is the certified
solve.  Its budgets use the target tau, and each of its cycles starts
from b itself (a zero guess, first cycle only) or from a refresh
r0 = b - A~x granted tau/3: the true residual is recomputed only where
the certificate needs it (residual replacement; van der Vorst and Ye,
SIAM J. Sci. Comput. 22, 835 (2000)).  When
convergence is flagged by the estimated residual (<= tau/3) but s turns
out to overestimate sigma_i(H_i), the estimate is corrected and one more
(usually very short) restart is performed; on an exhausted cycle s is
likewise refreshed.  Only such a cycle certifies: at termination the
true residual is below tau, provided every budget of that cycle and its
refresh was honoured, whatever stage 1 did to x.

STAGE_FACTOR = 1e3 makes stage 1's budgets 1e3 times looser, and leaves
stage 2 about 3.5 decades to cover from its refresh, over which the
tau-budget cycles finish in a few restarts.  Measured `n_ham` of the two
benchmark workloads at seed 0 (metal pbal + pd10; chain, two pgrt
solves; Kerker on the right), against 25,823 and 6,680 without stage 1:
21,705 and 5,706 at a factor of 30, 21,508 and 5,538 at 100, 21,330 and
5,489 at 300, 20,660 and 5,280 at 1e3, 21,225 and 5,207 at 3e3, 20,871
and 5,263 at 1e4.  pbal, which carries no guarantee, ended the metal
solve at 0.87-0.98 tau at every factor, and at 0.95 tau at 1e3.

Vectors are real; the Dyson system this was built for is real
non-symmetric.  Arnoldi uses modified Gram-Schmidt with one
reorthogonalisation pass, since the basis orthonormality is what the
whole error accounting rests on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError

BUDGET_FLOOR_REL = 1e-16
STAGE_FACTOR = 1e3


@dataclass
class BudgetRecord:
    """One granted operator application and its bookkeeping."""

    iteration: int          # global Arnoldi step (1-based), 0 for x0 refreshes
    cycle: int
    target: float           # tau, or STAGE_FACTOR tau in stage 1
    s: float
    est_res_prev: float
    budget_raw: float       # the formula value (s/(3m)) target / ||r~_{i-1}||; tau/3 for x0
    budget: float           # after the relative floor clamp
    clamped: bool
    cost: int


@dataclass
class RestartRecord:
    cycle: int
    reason: str             # "cycle-full" | "s-violation" | "implicit" | "hand-over"
    s_before: float
    s_after: float
    est_res: float


@dataclass
class IGmresState:
    """Arnoldi basis, Hessenberg factorisation and Givens machinery."""

    max_dim: int

    def __post_init__(self):
        self.v = []                                       # basis vectors
        self.h = np.zeros((self.max_dim + 1, self.max_dim))   # raw Hessenberg
        self.r = np.zeros((self.max_dim + 1, self.max_dim))   # Givens-rotated
        self.cs = np.zeros(self.max_dim)
        self.sn = np.zeros(self.max_dim)
        self.g = np.zeros(self.max_dim + 1)               # rotated beta e1
        self.size = 0
        self.beta = 0.0
        self.est_res_history = []                         # ||r~_0||, ||r~_1||, ...

    def start(self, r0: np.ndarray):
        self.beta = float(np.linalg.norm(r0))
        self.v = [r0 / self.beta]
        self.g[:] = 0.0
        self.g[0] = self.beta
        self.size = 0
        self.est_res_history = [self.beta]

    def hessenberg(self) -> np.ndarray:
        """The raw (i+1) x i Hessenberg of the current cycle."""
        return self.h[: self.size + 1, : self.size].copy()

    def arnoldi_step(self, w: np.ndarray) -> np.ndarray:
        """Orthogonalise w against the basis; returns the new H column."""
        i = self.size
        hcol = np.zeros(i + 2)
        for j in range(i + 1):
            hj = float(np.dot(self.v[j], w))
            w = w - hj * self.v[j]
            hcol[j] = hj
        for j in range(i + 1):                            # one reorth pass
            c = float(np.dot(self.v[j], w))
            w = w - c * self.v[j]
            hcol[j] += c
        hcol[i + 1] = float(np.linalg.norm(w))
        if hcol[i + 1] > 0:
            self.v.append(w / hcol[i + 1])
        else:
            self.v.append(np.zeros_like(w))               # lucky breakdown
        return hcol

    def solution_coefficients(self) -> np.ndarray:
        """y minimising ||beta e1 - H y|| via the triangularised system."""
        i = self.size
        return np.linalg.solve(self.r[:i, :i], self.g[:i])    # R upper triangular: LU is R itself

    def implicit_residual(self, y: np.ndarray) -> np.ndarray:
        """V_{i+1} (beta e1 - H_i y): the residual the cycle's recurrences track."""
        z = -self.h[: self.size + 1, : self.size] @ y
        z[0] += self.beta
        return self.assemble(np.zeros_like(self.v[0]), z)

    def assemble(self, x0: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x0.copy()
        for j, yj in enumerate(y):
            x = x + yj * self.v[j]
        return x


def estimated_residual_update(state: IGmresState, hcol: np.ndarray) -> float:
    """Fold a new Hessenberg column into the Givens QR; return ||r~_i||.

    Equals the dense least-squares residual ||beta e1 - H_i y_i|| of the
    growing Hessenberg system, computed in O(i) per step.
    """
    i = state.size
    col = np.array(hcol, dtype=float)
    state.h[: i + 2, i] = col[: i + 2]
    for j in range(i):
        t = state.cs[j] * col[j] + state.sn[j] * col[j + 1]
        col[j + 1] = -state.sn[j] * col[j] + state.cs[j] * col[j + 1]
        col[j] = t
    denom = np.hypot(col[i], col[i + 1])
    if denom == 0.0:
        state.cs[i], state.sn[i] = 1.0, 0.0
    else:
        state.cs[i] = col[i] / denom
        state.sn[i] = col[i + 1] / denom
    col[i] = denom
    col[i + 1] = 0.0
    state.r[: i + 2, i] = col[: i + 2]
    state.g[i + 1] = -state.sn[i] * state.g[i]
    state.g[i] = state.cs[i] * state.g[i]
    state.size = i + 1
    est = abs(float(state.g[i + 1]))
    state.est_res_history.append(est)
    return est


def hessenberg_min_singular(h: np.ndarray) -> float:
    """Smallest singular value of a rectangular Hessenberg matrix."""
    if h.size == 0:
        raise ConfigurationError("empty Hessenberg matrix")
    return float(np.linalg.svd(h, compute_uv=False)[-1])


@dataclass
class SolveReport:
    solution: np.ndarray
    converged: bool
    iterations: int                     # total Arnoldi steps across cycles
    total_cost: int
    cycle_est_res: list                 # per converged/aborted cycle
    budgets: list                       # BudgetRecord
    restarts: list                      # RestartRecord
    s_final: float
    sigma_final: float
    y_final: np.ndarray = None
    final_est_res: float = np.inf


def igmres_solve(op, b: np.ndarray, x0: np.ndarray = None, m: int = 10,
                 tau: float = 1e-9, s_init: float = 1.0,
                 max_total_iterations: int = None,
                 monitor=None) -> SolveReport:
    """Inexact GMRES(m) with budgeted operator applications.

    Args:
        op: callable (v, budget) -> (w, cost) with ||A v - w|| <= budget.
        b: right-hand side.
        x0: initial guess; an exactly-zero guess skips the initial
            application (its residual is b at zero cost, leaving the
            tau/3 share of the error budget simply unspent).
        m: restart length.
        tau: target accuracy for the true residual.
        s_init: initial estimate of sigma_m(H_m).
        max_total_iterations: cap on Arnoldi steps over all cycles
            (default 100 m).
        monitor: optional callable({iteration, est_res, total_cost, get_x})
            invoked after every step and after a refresh that finds x
            exact; `total_cost` is the cost so far, x0 refreshes included.

    Raises:
        NonConvergenceError: iteration cap reached; carries the report.
    """
    if tau <= 0 or m < 1 or s_init <= 0:
        raise ConfigurationError("need tau > 0, m >= 1, s_init > 0")
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float, copy=True)
    if max_total_iterations is None:
        max_total_iterations = 100 * m

    norm_b = float(np.linalg.norm(b))
    floor = BUDGET_FLOOR_REL * norm_b
    s = float(s_init)
    budgets = []
    restarts = []
    cycle_est_res = []
    total_cost = 0
    total_iters = 0
    cycle = 0

    def make_report(solution, converged, sigma=np.nan, y=None, est=np.inf):
        return SolveReport(
            solution=solution, converged=converged, iterations=total_iters,
            total_cost=total_cost, cycle_est_res=cycle_est_res, budgets=budgets,
            restarts=restarts, s_final=s, sigma_final=sigma, y_final=y, final_est_res=est,
        )

    def notify(est, get_x):
        if monitor is not None:
            monitor({"iteration": total_iters, "est_res": est, "total_cost": total_cost,
                     "get_x": get_x})

    # stage 1 (target STAGE_FACTOR tau) only for a zero initial guess and a far target
    target = tau
    if not np.any(x) and norm_b > STAGE_FACTOR * tau:
        target = STAGE_FACTOR * tau
    r0 = None                           # set when a cycle continues from an implicit residual
    state = IGmresState(max_dim=m)
    while True:
        cycle += 1
        if r0 is None and np.any(x):
            budget0 = max(tau / 3.0, floor)
            w0, cost0 = op(x, budget0)
            total_cost += cost0
            budgets.append(BudgetRecord(iteration=0, cycle=cycle, target=tau, s=s,
                                        est_res_prev=np.nan, budget_raw=tau / 3.0,
                                        budget=budget0, clamped=budget0 > tau / 3.0,
                                        cost=cost0))
            r0 = b - w0
        elif r0 is None:
            r0 = b.copy()
        if np.linalg.norm(r0) == 0.0:
            # x solves the system exactly: a cycle of no step and no coefficient
            if budgets and budgets[-1].cycle == cycle:        # found by this cycle's refresh
                notify(0.0, lambda: x)
            cycle_est_res.append([0.0])
            return make_report(x, True, y=np.zeros(0), est=0.0)
        state.start(r0)
        r0 = None
        est = state.beta

        for _ in range(m):
            est_prev = est
            raw = (s / (3.0 * m)) * target / est_prev
            budget = max(raw, floor)
            v_i = state.v[state.size]
            w, cost = op(v_i, budget)
            total_cost += cost
            total_iters += 1
            budgets.append(BudgetRecord(iteration=total_iters, cycle=cycle, target=target,
                                        s=s, est_res_prev=est_prev, budget_raw=raw,
                                        budget=budget, clamped=budget > raw, cost=cost))
            hcol = state.arnoldi_step(w)
            est = estimated_residual_update(state, hcol)
            notify(est, lambda: state.assemble(x, state.solution_coefficients()))

            if target > tau and est <= target:
                # hand-over: the next cycle refreshes at tau/3 and runs at tau
                x = state.assemble(x, state.solution_coefficients())
                restarts.append(RestartRecord(cycle=cycle, reason="hand-over",
                                              s_before=s, s_after=s, est_res=est))
                target = tau
                break
            if est <= tau / 3.0:
                sigma = hessenberg_min_singular(state.hessenberg())
                y = state.solution_coefficients()
                x_new = state.assemble(x, y)
                if s <= sigma:
                    cycle_est_res.append(list(state.est_res_history))
                    return make_report(x_new, True, sigma=sigma, y=y, est=est)
                restarts.append(RestartRecord(cycle=cycle, reason="s-violation",
                                              s_before=s, s_after=sigma, est_res=est))
                s = sigma
                x = x_new
                break
            if total_iters >= max_total_iterations:
                y = state.solution_coefficients()
                x_new = state.assemble(x, y)
                report = make_report(x_new, False,
                                     sigma=hessenberg_min_singular(state.hessenberg()),
                                     y=y, est=est)
                raise NonConvergenceError(
                    f"inexact GMRES: {total_iters} iterations without reaching "
                    f"tau/3 = {tau / 3.0:.3e} (estimated residual {est:.3e})",
                    residual=est, report=report)
        else:
            # cycle exhausted with ||r~_m|| above its target: in stage 1 the next
            # cycle starts from the implicit residual, in stage 2 from a refresh
            sigma = hessenberg_min_singular(state.hessenberg())
            y = state.solution_coefficients()
            x = state.assemble(x, y)
            if target > tau:
                r0 = state.implicit_residual(y)
            restarts.append(RestartRecord(cycle=cycle,
                                          reason="implicit" if target > tau else "cycle-full",
                                          s_before=s, s_after=sigma, est_res=est))
            s = sigma
        cycle_est_res.append(list(state.est_res_history))
