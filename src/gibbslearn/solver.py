"""Maximum-entropy dual solver: projected gradient descent on log Z + beta*<lambda, e_hat>.

The dual objective is convex (its Hessian is the filtered covariance matrix,
which is PSD), so the constrained minimizer is unique up to degeneracy of the
marginal map, and with exact marginals it sits at the true coefficient vector.
Backtracking is the default step rule; Nesterov extrapolation with a monotone
restart is enabled by default because low-temperature instances are badly
conditioned, and is safeguarded so accepted objective values never increase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gibbs import diagonalize, gibbs, marginals
from .lattice import OperatorBasis, basis_stack
from .measure import MarginalEstimates

__all__ = [
    "SolverConfig",
    "SolverTrace",
    "objective",
    "gradient",
    "solve",
    "error_bound",
    "alpha_along_segment",
    "hessian_at",
]

CONSTRAINTS = ("linf", "l2", "none")


@dataclass(frozen=True)
class SolverConfig:
    step_rule: str = "backtracking"  # "backtracking" | "fixed"
    eta: float = 1.0  # fixed step size, or the initial backtracking trial
    armijo_c: float = 0.5
    shrink: float = 0.5
    tol_grad: float = 1e-7  # on the projected-gradient norm
    max_iters: int = 100_000
    constraint: str = "linf"
    radius: float = 1.0
    lambda0: np.ndarray | None = None
    momentum: bool = True  # Nesterov extrapolation with monotone restart
    # Damped Newton refinement once the projected gradient is small.  Needed
    # at large beta where the dual Hessian spectrum spans ~5 decades and a
    # first-order method cannot certify tight gradient norms in float64.
    polish: bool = True
    polish_trigger: float = 1e-3
    polish_max_iters: int = 60

    def __post_init__(self) -> None:
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(
                f"unknown constraint {self.constraint!r}, expected one of {CONSTRAINTS}"
            )
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.constraint != "none" and self.radius <= 0:
            raise ValueError("constraint radius must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0 < self.shrink < 1 or not 0 < self.armijo_c < 1:
            raise ValueError("backtracking parameters must lie in (0, 1)")
        if self.polish_trigger <= 0 or self.polish_max_iters < 0:
            raise ValueError("polish parameters must be positive")


@dataclass(eq=False)
class SolverTrace:
    """Per-iteration record of the descent, plus the outcome summary."""

    iterations: list[int] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    mu_hat: np.ndarray | None = None
    converged: bool = False
    wall_time: float = 0.0

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def csv_rows(self):
        for row in zip(self.iterations, self.objectives, self.grad_norms, self.steps):
            yield row


def _project(x: np.ndarray, constraint: str, radius: float) -> np.ndarray:
    if constraint == "linf":
        return np.clip(x, -radius, radius)
    if constraint == "l2":
        norm = float(np.linalg.norm(x))
        return x if norm <= radius else x * (radius / norm)
    return x


def _e_hat_vector(e_hat, m: int) -> np.ndarray:
    vec = e_hat.e_hat if isinstance(e_hat, MarginalEstimates) else np.asarray(e_hat, float)
    if vec.shape != (m,):
        raise ValueError(f"marginal vector has shape {vec.shape}, expected ({m},)")
    return vec


def _dual_eval(lam: np.ndarray, target: np.ndarray, beta: float, stack: np.ndarray):
    """(objective, gradient) from one diagonalization of H(lam)."""
    ensemble = gibbs(diagonalize(np.tensordot(lam, stack, axes=1)), beta)
    obj = ensemble.log_z + beta * float(np.dot(lam, target))
    grad = beta * (target - marginals(stack, ensemble))
    return obj, grad


def objective(lam, e_hat, beta: float, basis: OperatorBasis) -> float:
    """Dual objective log Z(lam) + beta * <lam, e_hat>."""
    stack = basis_stack(basis)
    lam = np.asarray(lam, dtype=float)
    target = _e_hat_vector(e_hat, basis.m)
    obj, _ = _dual_eval(lam, target, float(beta), stack)
    return obj


def gradient(lam, e_hat, beta: float, basis: OperatorBasis) -> np.ndarray:
    """Dual gradient: component l is beta * (e_hat_l - e_l(lam))."""
    stack = basis_stack(basis)
    lam = np.asarray(lam, dtype=float)
    target = _e_hat_vector(e_hat, basis.m)
    _, grad = _dual_eval(lam, target, float(beta), stack)
    return grad


def solve(
    e_hat,
    beta: float,
    basis: OperatorBasis,
    cfg: SolverConfig | None = None,
) -> tuple[np.ndarray, SolverTrace]:
    """Minimize the dual objective over the configured constraint set.

    Returns (mu_hat, trace); trace.converged reports whether the projected
    gradient dropped below cfg.tol_grad within the iteration budget.
    """
    cfg = cfg or SolverConfig()
    stack = basis_stack(basis)
    beta = float(beta)
    target = _e_hat_vector(e_hat, basis.m)

    def project(x):
        return _project(x, cfg.constraint, cfg.radius)

    started = time.perf_counter()
    trace = SolverTrace()

    x = np.zeros(basis.m) if cfg.lambda0 is None else np.asarray(cfg.lambda0, float).copy()
    x = project(x)
    fx, gx = _dual_eval(x, target, beta, stack)

    polish = cfg.polish and cfg.step_rule == "backtracking"
    tol = max(cfg.tol_grad, cfg.polish_trigger) if polish else cfg.tol_grad
    try:
        if cfg.step_rule == "fixed":
            x, fx, gx = _fixed_step_loop(x, fx, gx, target, beta, stack, cfg, project, trace)
        else:
            x, fx, gx = _backtracking_loop(
                x, fx, gx, target, beta, stack, cfg, project, trace, tol
            )
        if polish:
            x, fx, gx = _newton_polish(x, fx, gx, target, beta, stack, basis, cfg, project, trace)
    except RuntimeError as err:
        # hand callers the partial history so failures can be archived
        trace.wall_time = time.perf_counter() - started
        err.trace = trace
        raise

    trace.converged = _pg_norm(x, gx, project) <= cfg.tol_grad
    trace.mu_hat = x
    trace.wall_time = time.perf_counter() - started
    return x, trace


def _pg_norm(x, g, project) -> float:
    return float(np.linalg.norm(x - project(x - g)))


def _fixed_step_loop(x, fx, gx, target, beta, stack, cfg, project, trace):
    increases = 0
    last_step = 0.0
    for it in range(cfg.max_iters):
        pg = _pg_norm(x, gx, project)
        trace.iterations.append(it)
        trace.objectives.append(fx)
        trace.grad_norms.append(pg)
        trace.steps.append(last_step)
        if pg <= cfg.tol_grad:
            trace.converged = True
            return x, fx, gx
        x_new = project(x - cfg.eta * gx)
        f_new, g_new = _dual_eval(x_new, target, beta, stack)
        increases = increases + 1 if f_new > fx else 0
        if increases >= 10:
            raise RuntimeError(
                "descent failure: objective increased for 10 consecutive steps "
                f"(eta={cfg.eta}); reduce the step size"
            )
        x, fx, gx = x_new, f_new, g_new
        last_step = cfg.eta
    return x, fx, gx


def _backtracking_loop(x, fx, gx, target, beta, stack, cfg, project, trace, tol):
    eta = cfg.eta
    t_momentum = 1.0
    x_prev = x
    y, fy, gy = x, fx, gx  # line-search source point
    last_step = 0.0
    it = 0
    while it < cfg.max_iters:
        pg = _pg_norm(x, gx, project)
        trace.iterations.append(it)
        trace.objectives.append(fx)
        trace.grad_norms.append(pg)
        trace.steps.append(last_step)
        if pg <= tol:
            return x, fx, gx
        it += 1

        # Armijo line search along the projection arc from y.  When y is the
        # last accepted iterate the step must also keep the trace monotone.
        extrapolated = not np.array_equal(y, x)
        slack = 4e-16 * max(1.0, abs(fy))
        while True:
            cand = project(y - eta * gy)
            f_cand, g_cand = _dual_eval(cand, target, beta, stack)
            decrease = cfg.armijo_c * float(np.dot(gy, y - cand))
            if f_cand <= fy - decrease + slack and (extrapolated or f_cand <= fx):
                break
            eta *= cfg.shrink
            if eta < 1e-16:
                # no representable step makes progress; stop here
                return x, fx, gx
        last_step = eta
        eta /= cfg.shrink  # allow the next trial step to grow back

        if extrapolated and f_cand > fx:
            # extrapolated step overshot: restart momentum from the last
            # accepted iterate so the objective stays monotone
            t_momentum = 1.0
            y, fy, gy = x, fx, gx
            continue

        x_prev, x = x, cand
        fx, gx = f_cand, g_cand
        if cfg.momentum:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            # keep the extrapolation feasible so the line search can succeed
            y = project(x + ((t_momentum - 1.0) / t_next) * (x - x_prev))
            t_momentum = t_next
            if np.array_equal(y, x):
                fy, gy = fx, gx
            else:
                fy, gy = _dual_eval(y, target, beta, stack)
        else:
            y, fy, gy = x, fx, gx
    return x, fx, gx


def _newton_polish(x, fx, gx, target, beta, stack, basis, cfg, project, trace):
    """Damped Newton refinement entered once the projected gradient is small.

    Each step solves H(x) d = g exactly and backtracks along the projection
    arc until the gradient norm drops while the objective stays monotone to
    float64 resolution.  Quadratic local convergence reaches gradient norms
    near the 1e-14 evaluation floor, which a first-order method cannot certify
    when the Hessian spectrum spans several decades.
    """
    from .qbp import _hessian_core

    it = trace.n_iterations  # continue the iteration numbering
    for _ in range(cfg.polish_max_iters):
        pg = _pg_norm(x, gx, project)
        if pg <= cfg.tol_grad:
            return x, fx, gx
        # coordinates pinned on the box boundary with an outward gradient are
        # binding: the Newton system is solved on the free block only, or the
        # clipped step would chase the unconstrained optimum outside the box
        if cfg.constraint == "linf":
            binding = ((x >= cfg.radius - 1e-12) & (gx <= 0)) | (
                (x <= -cfg.radius + 1e-12) & (gx >= 0)
            )
        else:
            binding = np.zeros(x.shape, dtype=bool)
        free = np.where(~binding)[0]
        if free.size == 0:
            return x, fx, gx
        H = _hessian_core(basis, x, beta).matrix[np.ix_(free, free)]
        try:
            d = np.zeros_like(x)
            d[free] = np.linalg.solve(H + 1e-14 * np.eye(free.size), gx[free])
        except np.linalg.LinAlgError:
            return x, fx, gx
        if not np.all(np.isfinite(d)):
            return x, fx, gx
        s = 1.0
        accepted = False
        slack = 4e-16 * max(1.0, abs(fx))
        for _ in range(40):
            cand = project(x - s * d)
            f_cand, g_cand = _dual_eval(cand, target, beta, stack)
            if f_cand <= fx + slack and _pg_norm(cand, g_cand, project) < pg:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            return x, fx, gx
        x, fx, gx = cand, f_cand, g_cand
        trace.iterations.append(it)
        trace.objectives.append(fx)
        trace.grad_norms.append(_pg_norm(x, gx, project))
        trace.steps.append(s)
        it += 1
    return x, fx, gx


def error_bound(delta: float, alpha: float, beta: float, m: int) -> float:
    """Parameter-error guarantee 2*beta*sqrt(m)*delta/alpha from marginal accuracy delta."""
    if alpha <= 0:
        raise ValueError(
            f"non-strongly-convex regime: alpha={alpha} must be positive"
        )
    if delta < 0 or beta <= 0 or m < 1:
        raise ValueError("need delta >= 0, beta > 0, m >= 1")
    return 2.0 * beta * np.sqrt(m) * delta / alpha


def hessian_at(basis: OperatorBasis, lam, beta: float):
    """HessianReport of log Z at an arbitrary coefficient point (no unit-ball cap)."""
    from .qbp import _hessian_core

    return _hessian_core(basis, np.asarray(lam, dtype=float), float(beta))


def alpha_along_segment(
    basis: OperatorBasis, a, b, beta: float, n_points: int = 11
) -> float:
    """Min Hessian eigenvalue over equispaced points of the segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.inf
    for t in np.linspace(0.0, 1.0, n_points):
        report = hessian_at(basis, (1 - t) * a + t * b, beta)
        lo = min(lo, report.min_eigenvalue)
    return float(lo)
