"""Maximum-entropy dual solver: minimize log Z + beta*<lambda, e_hat> over a box.

The feasible set is the coefficient box |lambda_l| <= radius (radius 1 is the
normalisation |mu_l| <= 1 that `HamiltonianModel` enforces).  The dual
objective is convex (its Hessian is the filtered covariance matrix, which is
PSD, and strongly convex on the box by the paper's main theorem), so the
boxed minimizer is unique up to degeneracy of the marginal map, and with
exact marginals it sits at the true coefficient vector.  `solve` runs Newton
steps on a kept quadratic model; every dual evaluation is one
diagonalization, and on open n = 7 chains at beta = 1 a solve takes 10-11
and builds 4-5 Hessians, each worth several diagonalizations.  `learn` runs
the whole pipeline on a model: its Gibbs state, the measurement, the solve,
alpha and the error bound.  `sweep` repeats `learn` over N, beta or system
size with per-trial seeds, on worker processes, and summarizes the trials.
"""

from __future__ import annotations

import functools
import math
import os
import reprlib
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .gibbs import diagonalize, gibbs, marginals
from .lattice import (
    HamiltonianModel,
    LatticeSpec,
    OperatorBasis,
    PauliTable,
    assemble_hamiltonian,
    basis_stack,
    check_dense_budget,
    enumerate_basis,
    instance_model,
)
from .measure import MarginalEstimates, build_plan, sample_outcomes
from .qbp import _hessian_core, hessian_matrices, min_eigenvalue
from .reporting import ANY, COUNT, POSITIVE, THREAD_VARS, check_config, trial_seed

__all__ = [
    "SOLVER_KEYS", "SolverConfig", "SolverTrace", "solve", "error_bound", "alpha_secant",
    "alpha_along_segment", "learn", "sweep",
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
    `evals` counts dual evaluations so far, the initial one included,
    `hessians` the exact Hessians the solve built, and `hessian_s` the wall
    seconds it spent building them.
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
    hessian_s: float = 0.0
    pg_final: float = 0.0
    converged: bool = False
    wall_time: float = 0.0
    grad_final: np.ndarray | None = field(default=None, repr=False)

    CSV_HEADER = ("iteration", "objective", "grad_norm", "step", "evals")  # of `csv_rows`

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
    and Jaggi, ICML 2023, keep a Hessian between refreshes).  An exact
    Hessian is due exactly when B is unset, and `spectral`, the eigensystem
    of H(x), is dropped before the next dual evaluation diagonalizes.

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
    B = None if x.any() else beta**2 * np.eye(x.size)
    for _ in range(cfg.polish_max_iters):
        if pg_x <= cfg.tol_grad:
            break
        if B is None:
            trace.hessians += 1
            built = time.perf_counter()
            B = _hessian_core(basis, x, beta, spectral)
            trace.hessian_s += time.perf_counter() - built
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
            spectral = None  # before this trial diagonalizes
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
        if not found:
            break
        step, dg = cand - x, g_cand - g
        x, f, g = cand, f_cand, g_cand
        last, pg_x = pg_x, pg(x, g)
        trace.record(f, pg_x, s)
        curvature = float(np.dot(step, dg))
        if s < 1 or pg_x > last / REFRESH_RATIO or curvature <= 0 or pg_x <= ENDGAME * cfg.tol_grad:
            B = None  # the old model goes before the kernel's peak
        else:
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
    return min_eigenvalue(_hessian_core(basis, b, float(beta)))


def alpha_along_segment(basis: OperatorBasis, a, b, beta: float) -> float:
    """Min Hessian eigenvalue over ALPHA_POINTS equispaced points of the segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.inf
    for t in np.linspace(0.0, 1.0, ALPHA_POINTS):
        lo = min(lo, min_eigenvalue(_hessian_core(basis, (1 - t) * a + t * b, float(beta))))
    return float(lo)


def _lap(stages: list, name: str, started: float) -> float:
    """Append stage `name`, begun at `started`, with its wall seconds and the
    process's peak RSS so far (Linux counts ru_maxrss in KiB); returns now."""
    now = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stages.append({"stage": name, "wall_s": now - started, "peak_rss_mb": peak})
    return now


def learn(
    model: HamiltonianModel,
    beta: float,
    n_copies: int,
    scheme: str,
    delta_fail: float,
    seed: int,
    cfg: SolverConfig,
) -> dict:
    """Measure, fit, and compare against the stored truth.

    Refuses before any allocation when the learn's peak, a Hessian, does not
    fit in memory.  Returns the `result.json` record, plus the `estimates`,
    the solver `trace` and the `timings` that the `learn` command writes
    beside it.
    """
    basis = model.basis
    check_dense_budget(hessian_matrices(basis), basis.lattice.n_sites)
    stages = []
    t = time.perf_counter()
    # diagonalized here, not through the `spectrum` cache, so that the
    # eigensystem and rho at mu die with the ensemble once e(mu) is read
    ensemble = gibbs(diagonalize(assemble_hamiltonian(model)), beta)
    t = _lap(stages, "gibbs", t)
    plan = build_plan(basis, scheme, n_copies)
    t = _lap(stages, "plan", t)
    estimates = sample_outcomes(plan, ensemble, seed=seed, delta_fail=delta_fail)
    e_mu = marginals(basis_stack(basis), ensemble)
    del ensemble
    t = _lap(stages, "sample", t)
    mu_hat, trace = solve(estimates.e_hat, beta, basis, cfg)
    t = _lap(stages, "solve", t)

    # the dual gradient at mu, beta * (e_hat - e(mu)); the solver's last
    # gradient is the one at mu_hat
    grad_mu = beta * (estimates.e_hat - e_mu)
    alpha = alpha_secant(basis, model.mu, mu_hat, beta, grad_mu, trace.grad_final)
    t = _lap(stages, "alpha", t)

    m = basis.m
    l2_error = float(np.linalg.norm(mu_hat - model.mu))
    delta_max = float(np.max(estimates.delta)) if m else 0.0
    # fold the solver residual into an effective marginal error so the bound
    # stays meaningful when measurement noise is zero (exact scheme)
    effective_delta = max(delta_max, trace.pg_final / (2.0 * beta * math.sqrt(m)))
    bound = error_bound(effective_delta, alpha, beta, m) if alpha > 0 else math.inf
    _lap(stages, "bound", t)
    return {
        "estimates": estimates,
        "trace": trace,
        "timings": {
            "stages": stages,
            "dual_evals": trace.dual_evals,
            "hessians": trace.hessians,
            "hessian_s": trace.hessian_s,
            # the one at mu, then one per dual evaluation
            "diagonalizations": trace.dual_evals + 1,
        },
        "mu_hat": mu_hat,
        "l2_error": l2_error,
        "delta_max": delta_max,
        "iterations": len(trace.iterations),
        "converged": bool(trace.converged),
        "alpha_secant": alpha,
        "bound_value": bound,
        "bound_holds": bool(l2_error <= bound),
        "pg_final": trace.pg_final,
        "wall_time_s": trace.wall_time,
        "dual_evals": trace.dual_evals,
        "hessians": trace.hessians,
        "m": m,
        "n": basis.lattice.n_sites,
    }


SWEEP_HEADER = (  # the columns of sweep.csv
    "trial", "n", "m", "beta", "N", "delta_observed", "alpha_secant", "l2_error", "bound_value",
    "bound_holds",
)
CELLS_HEADER = ("cell", "axis_value", "n_trials", "n_failed", "median_error")  # of cells.csv
SWEEP_AXES = {"N": "N", "beta": "beta", "size": "n"}  # axis -> the key it sweeps


def _sweep_basis(params: dict, n: int) -> OperatorBasis:
    """The basis of a sweep cell of size n: the open n-site chain, params' kappa."""
    return enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), params["kappa"])


def _trial_worker(params: dict, cfg: SolverConfig, seed: int, trial: int) -> dict:
    """Sweep trial number `trial`: its row of SWEEP_HEADER fields, timings and any error text.

    The trial's cell is trial // trials: its value sets the swept key, the
    checked config `params` the other two.  Its seed draws the coefficients,
    unless the config lists them, and then the measurement seed.
    """
    t0 = time.perf_counter()
    point = {**params, SWEEP_AXES[params["axis"]]: params["values"][trial // params["trials"]]}
    row = {
        **dict.fromkeys(SWEEP_HEADER, math.nan),
        "trial": trial,
        "n": point["n"],
        "m": -1,
        "beta": float(point["beta"]),
        "N": point["N"],
        "bound_holds": False,
    }
    timings = dict.fromkeys(("stages", "dual_evals", "hessians", "hessian_s", "diagonalizations"))
    try:
        rng = np.random.default_rng(trial_seed(seed, trial))
        model = instance_model("sweep config", params["mu"], _sweep_basis(params, row["n"]), rng)
        measure_seed = int(rng.integers(2**63))  # decouple shot noise from mu
        scheme, delta_fail = params["scheme"], float(params["delta_fail"])
        record = learn(model, row["beta"], row["N"], scheme, delta_fail, measure_seed, cfg)
        row.update({field: record[field] for field in SWEEP_HEADER if field in record})
        row["delta_observed"] = record["delta_max"]
        timings = record["timings"]
        error = None
    except Exception as exc:  # per-trial failures recorded, sweep continues
        error = f"{type(exc).__name__}: {exc}"
    timings = {"runtime_s": time.perf_counter() - t0, **timings}
    return {"trial": trial, "row": row, "timings": timings, "error": error}


@contextmanager
def _trial_pool(workers: int):
    """Spawned worker processes that share the cores instead of each claiming all.

    Every worker gets cpu_count // workers BLAS/OpenMP threads, unless the
    user set one of THREAD_VARS, which then governs.  The variables are in
    the environment while the pool spawns its processes, so each worker sees
    them before it imports numpy.
    """
    import multiprocessing  # imported here: a learn, which starts no pool, skips them
    from concurrent.futures import ProcessPoolExecutor

    added = {}
    if not any(var in os.environ for var in THREAD_VARS):
        threads = str(max(1, (os.cpu_count() or 1) // workers))
        added = dict.fromkeys(THREAD_VARS, threads)
    os.environ.update(added)
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            yield pool
    finally:
        for var in added:
            os.environ.pop(var, None)


def sweep(params: dict, cfg: SolverConfig, seed: int, jobs: int) -> dict:
    """Run every trial of the checked sweep config `params` on up to `jobs` processes.

    Refuses before any trial runs when jobs < 1, when a size's learns, one
    per worker, do not fit in memory, or when mu or lambda0 does not fit a
    size's basis.  Returns the `rows` of `sweep.csv` and the `cells` of
    `cells.csv`, the `summary` and `timings` JSON records and the manifest's
    `trial_seeds`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    axis = params["axis"]
    trials = range(len(params["values"]) * params["trials"])
    workers = min(jobs, len(trials))
    for n in params["values"] if axis == "size" else [params["n"]]:
        try:
            basis = _sweep_basis(params, n)
        except ValueError:
            continue  # the trials of this size fail and are recorded as such
        # every worker runs one learn at a time, whose peak is a Hessian
        check_dense_budget(hessian_matrices(basis) * workers, basis.lattice.n_sites)
        # the rules every trial applies, once before any runs
        instance_model("sweep config", params["mu"], basis, np.random.default_rng(seed))
        cfg.start_point(basis.m)

    worker = functools.partial(_trial_worker, params, cfg, seed)
    if workers > 1:
        with _trial_pool(workers) as pool:
            results = list(pool.map(worker, trials))
    else:
        results = list(map(worker, trials))

    per_cell = params["trials"]
    cells = []
    medians = []
    for c, value in enumerate(params["values"]):
        errs = [
            res["row"]["l2_error"]
            for res in results[c * per_cell : (c + 1) * per_cell]
            if res["error"] is None
        ]
        median = float(np.median(errs)) if errs else math.nan
        medians.append(median)
        cells.append((c, value, per_cell, per_cell - len(errs), median))

    slope = None
    if axis == "N":
        live = [(v, m_) for v, m_ in zip(params["values"], medians) if m_ > 0]
        if len(live) >= 2:
            slope = float(
                np.polyfit(np.log([v for v, _ in live]), np.log([m_ for _, m_ in live]), 1)[0]
            )
    failures = [
        {"trial": res["trial"], "error": res["error"]} for res in results if res["error"]
    ]
    violations = [
        res["trial"] for res in results if res["error"] is None and not res["row"]["bound_holds"]
    ]
    return {
        "rows": [[res["row"][field] for field in SWEEP_HEADER] for res in results],
        "cells": cells,
        "summary": {
            "axis": axis,
            "values": params["values"],
            "median_errors": medians,
            "slope_log_error_vs_log_N": slope,
            "n_trials": len(results),
            "failures": failures,
            "bound_violations": violations,
            "pass": not failures and not violations,
        },
        "timings": {
            "trials": {str(res["trial"]): res["timings"] for res in results},
            "total_s": sum(res["timings"]["runtime_s"] for res in results),
        },
        "trial_seeds": [trial_seed(seed, trial) for trial in trials],
    }
