"""Maximum-entropy dual solver: minimize log Z + beta*<lambda, e_hat> over a box.

The feasible set is the coefficient box |lambda_l| <= radius (radius 1 is the
normalisation |mu_l| <= 1 that `HamiltonianModel` enforces).  The dual
objective is convex (its Hessian is the filtered covariance matrix, which is
PSD, and strongly convex on the box by the paper's main theorem), so the
boxed minimizer is unique up to degeneracy of the marginal map, and with
exact marginals it sits at the true coefficient vector.  `solve` runs Newton
steps on a kept quadratic model; every dual evaluation is one
diagonalization, and on open n = 7 chains at beta = 1 a solve takes 10-11
and builds 4-5 Hessians, each worth several diagonalizations.
"""

from __future__ import annotations

import reprlib
import time
from dataclasses import dataclass, field

import numpy as np

from .gibbs import diagonalize, gibbs, marginals
from .lattice import OperatorBasis, PauliTable, basis_stack
from .measure import MarginalEstimates
from .qbp import _hessian_core
from .reporting import ANY, COUNT, POSITIVE, check_config

__all__ = [
    "SOLVER_KEYS", "SolverConfig", "SolverTrace", "solve", "error_bound", "alpha_secant",
    "alpha_along_segment",
]

NEWTON_ARMIJO_C = 1e-4  # sufficient decrease along a Newton step, of f and of the box QP's model
REFRESH_RATIO = 4.0  # a step that cuts pg by less than this is followed by an exact Hessian
ENDGAME = 100.0  # below ENDGAME * tol_grad every Newton step is on an exact Hessian
QP_MAX_STEPS = 100  # projected Newton steps of one box QP
ALPHA_POINTS = 11  # Hessians sampled along the alpha segment


@dataclass(frozen=True)
class SolverConfig:
    tol_grad: float = 1e-7  # on the projected-gradient norm
    radius: float = 1.0  # half-width of the box |lambda_l| <= radius
    lambda0: np.ndarray | None = None
    polish_max_iters: int = 60  # Newton steps

    def __post_init__(self) -> None:
        check_config("solver config", {key: getattr(self, key) for key in SOLVER_KEYS}, SOLVER_KEYS)

    def start_point(self, m: int) -> np.ndarray:
        """lambda0 as a fresh float vector, zeros if unset; ValueError unless m finite reals."""
        if self.lambda0 is None:
            return np.zeros(m)
        try:
            x = np.asarray(self.lambda0)
        except ValueError:  # ragged nesting
            x = None
        if x is None or x.shape != (m,) or x.dtype.kind not in "iuf" or not np.all(np.isfinite(x)):
            raise ValueError(
                f"lambda0 must be m = {m} finite reals, got {reprlib.repr(self.lambda0)}"
            )
        return x.astype(float)


# SolverConfig's fields as (kind, default): the one rule for each, which
# `check_config` reads here and in the cli's `solver` block.  lambda0's length
# needs the basis, so `start_point` checks it
SOLVER_KEYS = {
    "tol_grad": (POSITIVE, SolverConfig.tol_grad),
    "radius": (POSITIVE, SolverConfig.radius),
    "lambda0": (ANY, SolverConfig.lambda0),
    "polish_max_iters": (COUNT, SolverConfig.polish_max_iters),
}


@dataclass(eq=False)
class SolverTrace:
    """Per-iteration record of the descent, plus the outcome summary.

    Row 0 is the start point and row k the point after Newton step k;
    `steps` holds the step length along the projection arc, 0 on row 0, and
    `evals` counts dual evaluations so far, the initial one included, and
    `hessians` the exact Hessians the solve built.
    `pg_final` is the projected-gradient norm at the returned point, and
    `grad_final` the gradient of the dual objective there,
    beta * (e_hat - e(mu_hat)).
    """

    iterations: list[int] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    evals: list[int] = field(default_factory=list)
    dual_evals: int = 0
    hessians: int = 0
    pg_final: float = 0.0
    converged: bool = False
    wall_time: float = 0.0
    grad_final: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def record(self, objective: float, grad_norm: float, step: float) -> None:
        self.iterations.append(self.n_iterations)
        self.objectives.append(objective)
        self.grad_norms.append(grad_norm)
        self.steps.append(step)
        self.evals.append(self.dual_evals)

    def csv_rows(self):
        yield from zip(self.iterations, self.objectives, self.grad_norms, self.steps, self.evals)


def _dual_eval(lam: np.ndarray, target: np.ndarray, beta: float, table: PauliTable):
    """(objective, gradient, eigensystem of H(lam)) from one diagonalization."""
    spectral = diagonalize(table.combine(lam))
    ensemble = gibbs(spectral, beta)
    obj = ensemble.log_z + beta * float(np.dot(lam, target))
    grad = beta * (target - marginals(table, ensemble))
    return obj, grad, spectral


def solve(
    e_hat, beta: float, basis: OperatorBasis, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, SolverTrace]:
    """Minimize the dual objective f over the box |lam_l| <= cfg.radius.

    Newton steps on a kept quadratic model from the start point.  Each step
    is the exact minimiser z of the model g.(z - x) + (z - x).B(z - x)/2
    over the box (`_box_qp`; Lin and More, SIAM J. Optim. 9, 1999).  It
    backtracks along x + s (z - x) until it makes an Armijo sufficient
    decrease larger than the rounding of f, or, near the float floor where f
    resolves none, until the gradient norm drops while f stays within
    rounding.  B starts as the exact Hessian, beta^2 I at the origin, and
    takes the BFGS update of each accepted step's pair (Delta x, Delta g); an
    exact Hessian replaces it after a step that backtracked, cut pg by less
    than REFRESH_RATIO or broke the curvature condition, and at every point
    with pg below ENDGAME * tol_grad, so that the step that certifies
    convergence is exact Newton and converges quadratically (Doikov, Chayti
    and Jaggi, ICML 2023, keep a Hessian between refreshes).  `spectral`,
    the eigensystem of H(x), lives until the Hessian at x reads it, or goes
    at once when none is due there; a failed trial's goes before the next
    trial diagonalizes, and B before a Hessian is built.

    Every iterate is a clip onto the box, so a bound coordinate sits exactly
    at +-cfg.radius.  Returns (mu_hat, trace); trace.converged reports
    whether the projected gradient dropped below cfg.tol_grad within
    cfg.polish_max_iters Newton steps.
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()
    beta, radius, table = float(beta), cfg.radius, basis_stack(basis)
    target = e_hat.e_hat if isinstance(e_hat, MarginalEstimates) else np.asarray(e_hat, float)
    if target.shape != (basis.m,):
        raise ValueError(f"marginal vector has shape {target.shape}, expected ({basis.m},)")

    def pg(x: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(x - np.clip(x - g, -radius, radius)))

    trace = SolverTrace(dual_evals=1)
    x = np.clip(cfg.start_point(basis.m), -radius, radius)
    f, g, spectral = _dual_eval(x, target, beta, table)
    pg_x = pg(x, g)
    trace.record(f, pg_x, 0.0)
    refresh, B = bool(x.any()), None
    if not refresh:
        spectral, B = None, beta**2 * np.eye(x.size)
    for _ in range(cfg.polish_max_iters):
        if pg_x <= cfg.tol_grad:
            break
        if refresh:
            B = None  # the old model goes before the kernel's peak
            trace.hessians += 1
            B = _hessian_core(basis, x, beta, spectral).matrix
            spectral = None
        try:
            z = _box_qp(B, g, x, radius)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(z)):
            break
        # the rounding allowance on a rise of f = log Z + beta <x, e_hat>: the two
        # terms cancel, so f carries rounding that |f| can understate many times over
        linear = beta * float(np.dot(x, target))
        allowance = 4e-16 * max(1.0, abs(f - linear) + abs(linear))
        s, found = 1.0, False
        for _ in range(40):
            cand = np.clip((1 - s) * x + s * z, -radius, radius)  # z itself at s = 1
            if np.array_equal(cand, x):
                break  # below float resolution: no step left
            trace.dual_evals += 1
            f_cand, g_cand, spectral = _dual_eval(cand, target, beta, table)
            decrease = f - f_cand
            # a decrease within the rounding of f is noise: there only a
            # falling gradient norm tells progress from a wander
            found = (
                decrease > allowance and decrease >= NEWTON_ARMIJO_C * float(np.dot(g, x - cand))
            ) or (decrease >= -allowance and pg(cand, g_cand) < pg_x)
            if found:
                break
            s *= 0.5
            spectral = None  # before the next trial diagonalizes
        if not found:
            break
        step, dg = cand - x, g_cand - g
        x, f, g = cand, f_cand, g_cand
        last, pg_x = pg_x, pg(x, g)
        trace.record(f, pg_x, s)
        curvature = float(np.dot(step, dg))
        refresh = (
            s < 1 or pg_x > last / REFRESH_RATIO or curvature <= 0 or pg_x <= ENDGAME * cfg.tol_grad
        )
        if not refresh:
            spectral = None  # no Hessian reads it
            Bs = B @ step
            B += np.outer(dg, dg / curvature) - np.outer(Bs, Bs / float(np.dot(step, Bs)))
    trace.grad_final, trace.pg_final = g, pg_x
    trace.converged = pg_x <= cfg.tol_grad
    trace.wall_time = time.perf_counter() - started
    return x, trace


def _box_qp(B: np.ndarray, g: np.ndarray, x: np.ndarray, radius) -> np.ndarray:
    """The minimiser z of g.(z - x) + (z - x).B(z - x)/2 over the box |z| <= radius.

    B must be positive definite and x inside the box.  Projected Newton on
    the quadratic itself: a coordinate on a bound whose model gradient
    points out of the box is held there, and the rest move to the exact
    minimiser of their block, backtracking along the projection arc with an
    Armijo rule on the model when that point leaves the box.  The minimiser
    is reached when a step that left the box untouched leaves the held set
    as it was: the free gradient is then zero and every held coordinate's
    multiplier has the sign of its bound.  Raises LinAlgError on a singular
    free block.
    """
    z = x.copy()
    held = inside = None
    for _ in range(QP_MAX_STEPS):
        r = g + B @ (z - x)
        was = held
        held = ((z <= -radius) & (r > 0)) | ((z >= radius) & (r < 0))
        if inside and np.array_equal(held, was):
            break
        free = np.flatnonzero(~held)
        target = z.copy()
        # the free block's minimiser solved whole, not as a step from z, so
        # that the final point carries the rounding of one solve
        rhs = g[free] + B[free] @ np.where(held, z - x, 0.0)
        target[free] = x[free] - np.linalg.solve(B[np.ix_(free, free)], rhs)
        inside = np.all(np.abs(target) <= radius)
        if inside:
            z = target
            continue
        p, t = target - z, 1.0
        for _ in range(60):
            trial = np.clip(z + t * p, -radius, radius)
            step = trial - z
            slope = float(np.dot(r, step))
            if slope < 0 and slope + 0.5 * float(step @ B @ step) <= NEWTON_ARMIJO_C * slope:
                break
            t *= 0.5
        else:
            break  # no descent left within rounding
        z = trial
    return z


def error_bound(delta: float, alpha: float, beta: float, m: int) -> float:
    """Parameter-error guarantee 2*beta*sqrt(m)*delta/alpha from marginal accuracy delta."""
    if alpha <= 0:
        raise ValueError(
            f"non-strongly-convex regime: alpha={alpha} must be positive"
        )
    if delta < 0 or beta <= 0 or m < 1:
        raise ValueError("need delta >= 0, beta > 0, m >= 1")
    return 2.0 * beta * np.sqrt(m) * delta / alpha


def alpha_secant(basis: OperatorBasis, a, b, beta: float, grad_a, grad_b) -> float:
    """Mean curvature of log Z along the segment [a, b]: at least its lambda_min.

    The dual objective's gradients grad_a and grad_b at the ends differ by
    the integral of H u over the segment, u = b - a, so
    <grad_b - grad_a, u> / |u|^2 is the exact mean of u^T H u / |u|^2 there,
    with no Hessian formed.  When u is zero, or rounding leaves the quotient
    non-positive, it falls back to the min Hessian eigenvalue at b.
    """
    u = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    uu = float(np.dot(u, u))
    if uu > 0:
        alpha = float(np.dot(np.asarray(grad_b) - np.asarray(grad_a), u)) / uu
        if alpha > 0:
            return alpha
    return _hessian_core(basis, b, float(beta)).min_eigenvalue


def alpha_along_segment(basis: OperatorBasis, a, b, beta: float) -> float:
    """Min Hessian eigenvalue over ALPHA_POINTS equispaced points of the segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.inf
    for t in np.linspace(0.0, 1.0, ALPHA_POINTS):
        lo = min(lo, _hessian_core(basis, (1 - t) * a + t * b, float(beta)).min_eigenvalue)
    return float(lo)
