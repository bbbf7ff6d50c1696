"""Maximum-entropy dual solver: minimize log Z + beta*<lambda, e_hat> over a box.

The feasible set is the coefficient box |lambda_l| <= radius (radius 1 is the
normalisation |mu_l| <= 1 that `HamiltonianModel` enforces).  The dual
objective is convex (its Hessian is the filtered covariance matrix, which is
PSD, and strongly convex on the box by the paper's main theorem), so the
boxed minimizer is unique up to degeneracy of the marginal map, and with
exact marginals it sits at the true coefficient vector.  The method is
projected Newton (Bertsekas 1982) from the start point down to the gradient
tolerance: an eps-active set of coordinates at the box takes gradient steps,
the rest a Newton step on their Hessian block, with an Armijo rule along the
projection arc.  At the origin the Hessian of log Z is exactly beta^2 I (the
Pauli strings are orthonormal and every marginal is 0 there), so the first
step from the default start builds no Hessian.  Every dual evaluation is one
diagonalization, and a solve takes about a dozen.  The loop moves one
`_Iterate`, which keeps the eigensystem at its point only until the Newton
Hessian reads it.
"""

from __future__ import annotations

import reprlib
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .gibbs import diagonalize, gibbs, marginals
from .lattice import OperatorBasis, PauliTable, basis_stack
from .measure import MarginalEstimates
from .qbp import _hessian_core

__all__ = [
    "SolverConfig", "SolverTrace", "solve", "error_bound", "alpha_secant", "alpha_along_segment"
]

NEWTON_ARMIJO_C = 1e-4  # sufficient decrease along the Newton projection arc
ALPHA_POINTS = 11  # Hessians sampled along the alpha segment


@dataclass(frozen=True)
class SolverConfig:
    tol_grad: float = 1e-7  # on the projected-gradient norm
    radius: float = 1.0  # half-width of the box |lambda_l| <= radius
    lambda0: np.ndarray | None = None
    polish_max_iters: int = 60  # projected Newton steps

    def __post_init__(self) -> None:
        kinds = dict(polish_max_iters=Integral, tol_grad=Real, radius=Real)
        for name, kind in kinds.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(
                    f"bad solver config: {name} must be {kind.__name__.lower()}, got {value!r}"
                )
        if self.polish_max_iters < 0:
            raise ValueError("bad solver config: polish_max_iters must be non-negative")
        if not self.tol_grad > 0:
            raise ValueError("bad solver config: tol_grad must be positive")
        if not self.radius > 0:
            raise ValueError("bad solver config: radius must be positive")

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


@dataclass(eq=False)
class SolverTrace:
    """Per-iteration record of the descent, plus the outcome summary.

    Row 0 is the start point and row k the point after Newton step k;
    `steps` holds the step length along the projection arc, 0 on row 0, and
    `evals` counts dual evaluations so far, the initial one included.
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


class _Iterate:
    """The solve's one owner of its point x, f(x), g = grad f(x) and `spectral`,
    the eigensystem of H(x), which lives until the Newton Hessian at x reads it.
    `trial` evaluates a candidate, dropping the last one before it diagonalizes,
    and `accept` moves to it.
    """

    def __init__(self, e_hat, beta: float, basis: OperatorBasis, cfg: SolverConfig):
        self.basis, self.table, self.beta = basis, basis_stack(basis), beta
        target = e_hat.e_hat if isinstance(e_hat, MarginalEstimates) else np.asarray(e_hat, float)
        if target.shape != (basis.m,):
            raise ValueError(f"marginal vector has shape {target.shape}, expected ({basis.m},)")
        self.target, self.radius, self.trace = target, cfg.radius, SolverTrace()
        self.trial(self.project(cfg.start_point(basis.m)))
        self.accept()
        self.trace.record(self.f, self.pg(self.x, self.g), 0.0)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, -self.radius, self.radius)

    def pg(self, x: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(x - self.project(x - g)))

    def slack(self) -> float:
        # the rounding allowance on a rise of f = log Z + beta <x, e_hat>: the two
        # terms cancel, so f carries rounding that |f| can understate many times over
        linear = self.beta * float(np.dot(self.x, self.target))
        return 4e-16 * max(1.0, abs(self.f - linear) + abs(linear))

    def trial(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        self.trace.dual_evals += 1
        self.candidate = None
        f, g, spectral = _dual_eval(lam, self.target, self.beta, self.table)
        self.candidate = (lam, f, g, spectral)
        return f, g

    def accept(self) -> None:
        self.x, self.f, self.g, self.spectral = self.candidate


def solve(
    e_hat, beta: float, basis: OperatorBasis, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, SolverTrace]:
    """Minimize the dual objective over the box |lam_l| <= cfg.radius.

    Every iterate is a clip onto the box, so a bound coordinate sits exactly
    at +-cfg.radius.  Returns (mu_hat, trace); trace.converged reports
    whether the projected gradient dropped below cfg.tol_grad within
    cfg.polish_max_iters Newton steps.
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()
    it = _Iterate(e_hat, float(beta), basis, cfg)
    _projected_newton(it, cfg)
    trace = it.trace
    trace.grad_final = it.g
    trace.pg_final = it.pg(it.x, it.g)
    trace.converged = trace.pg_final <= cfg.tol_grad
    trace.wall_time = time.perf_counter() - started
    return it.x, trace


def _projected_newton(it: _Iterate, cfg: SolverConfig) -> None:
    """Projected Newton (Bertsekas, SIAM J. Control Optim. 20, 1982) from the current iterate.

    A coordinate within eps = min(0.1 * radius, pg) of a bound whose gradient
    points out of the box is binding and takes the plain gradient step; the
    free block takes the Newton step H_ff d_f = g_f.  The step backtracks along
    the projection arc until it makes an Armijo sufficient decrease larger
    than the rounding of f, or, near the float floor where f resolves none,
    until the gradient norm drops while f stays within rounding.  Quadratic
    local convergence reaches gradient norms near the 1e-14 evaluation floor,
    which a first-order method cannot certify at large beta, where the
    Hessian spectrum spans several decades.
    """
    for _ in range(cfg.polish_max_iters):
        x, g = it.x, it.g
        pg = it.pg(x, g)
        if pg <= cfg.tol_grad:
            return
        eps = min(0.1 * cfg.radius, pg)
        binding = ((x >= cfg.radius - eps) & (g < 0)) | ((x <= eps - cfg.radius) & (g > 0))
        free = np.flatnonzero(~binding)
        d = g.copy()
        if free.size:
            if x.any():
                H = _hessian_core(it.basis, x, it.beta, it.spectral).matrix[np.ix_(free, free)]
            else:  # the exact Hessian of log Z at the origin
                H = it.beta**2 * np.eye(free.size)
            it.spectral = None  # no later Hessian reads it
            try:
                d[free] = np.linalg.solve(H + 1e-14 * np.eye(free.size), g[free])
            except np.linalg.LinAlgError:
                return
            del H  # nor does the next step's Hessian read this one
        if not np.all(np.isfinite(d)):
            return
        s = 1.0
        allowance = it.slack()
        for _ in range(40):
            cand = it.project(x - s * d)
            if np.array_equal(cand, x):
                # below float resolution, or clipped back onto the box: no step left
                return
            f_cand, g_cand = it.trial(cand)
            decrease = it.f - f_cand
            # a decrease within the rounding of f is noise: there only a
            # falling gradient norm tells progress from a wander
            if decrease > allowance and decrease >= NEWTON_ARMIJO_C * float(np.dot(g, x - cand)):
                break
            if decrease >= -allowance and it.pg(cand, g_cand) < pg:
                break
            s *= 0.5
        else:
            return
        it.accept()
        it.trace.record(it.f, it.pg(it.x, it.g), s)


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
