"""Structural checks on exact small systems.

Every operation here verifies one inequality or decay profile numerically:
strong convexity of the dual objective against the filtered-operator variance,
variance floors at infinite temperature, local reductions of global operators,
spectral concentration of local perturbations, the delta_gamma weight-outside-
window machinery, Lieb-Robinson truncation decay, analytic series bounds, and
the product family used for the copy-count lower bound.

Checks with explicit constants assert; checks whose constants are only known
to exist record measured curves and a calibrated floor instead.  Every check
returns a CheckReport (rows for CSV, a JSON-ready summary) rather than
raising, so sweeps can tabulate failures.  Only this module builds reports:
`SUITES`, at the end, fixes the instances, grids and pass tolerances that
`gibbslearn lab <suite>` runs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .gibbs import GibbsEnsemble, density_matrix, gibbs, spectrum, variance
from .lattice import (
    HamiltonianModel,
    LatticeSpec,
    LocalBasisOp,
    basis_stack,
    enumerate_basis,
    random_chain,
    to_dense,
)
from .qbp import FilterKernel, _hessian_core, qbp_transform, quasilocal_W, verify_fourier_pair
from .reporting import POSITIVE_INT, check_config, nonempty_list_of, trial_seed

__all__ = [
    "SUITES",
    "Suite",
    "CheckReport",
    "SpectralConcentration",
    "QuasiLocalProfile",
    "ising_chain",
    "random_direction",
    "partial_trace",
    "embed_on_sites",
    "strong_convexity_probe",
    "infinite_temp_variance_check",
    "local_reduce",
    "global_to_local_check",
    "akl_concentration_check",
    "delta_gamma",
    "local_unitary_probe",
    "local_variance_floor",
    "lieb_robinson_decay",
    "verify_sum_bounds",
    "lower_bound_family",
]

SERIES_TAIL_TOL = 1e-12
SERIES_MAX_TERMS = 10_000_000  # per series; the `points` check refuses points that need more
R_MIN = 0.01  # calibrated floor on the infinite-temperature variance ratio


@dataclass(eq=False)
class CheckReport:
    """Uniform result record: tabular rows plus a JSON-ready summary."""

    check: str
    passed: bool
    min_slack: float
    header: tuple[str, ...]
    rows: list[tuple]
    grid: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": bool(self.passed),
            "min_slack": float(self.min_slack),
            "grid": self.grid,
        }


def random_direction(m: int, rng: np.random.Generator) -> np.ndarray:
    """A unit vector in coefficient space: m standard normals, normalized."""
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Dense partial-trace helpers.


def partial_trace(M: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """Trace out all qubit sites except `keep` (ascending site indices)."""
    keep = tuple(keep)
    if any(not 0 <= s < n for s in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"bad site subset {keep} for n={n}")
    T = M.reshape((2,) * (2 * n))
    traced = [s for s in range(n) if s not in keep]
    for offset, s in enumerate(traced):
        ax = s - offset  # axes shift left after each trace
        T = np.trace(T, axis1=ax, axis2=ax + (n - offset))
        # row axes before col axes; removing one of each keeps that layout
    k = len(keep)
    return T.reshape(2**k, 2**k)


def embed_on_sites(M: np.ndarray, sites: tuple[int, ...], n: int) -> np.ndarray:
    """Tensor M (on `sites`, ascending) with identities into the n-site space."""
    sites = tuple(sites)
    k = len(sites)
    if M.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {M.shape} does not match {k} sites")
    rest = [s for s in range(n) if s not in sites]
    full = np.kron(M, np.eye(2 ** len(rest), dtype=M.dtype))
    # kron ordering is sites + rest; permute tensor legs back to 0..n-1
    order = list(sites) + rest
    perm = [order.index(s) for s in range(n)]
    T = full.reshape((2,) * (2 * n))
    T = T.transpose(perm + [p + n for p in perm])
    return T.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# Strong convexity and variance floors.


def strong_convexity_probe(
    model: HamiltonianModel, beta: float, trials: int, seed
) -> CheckReport:
    """Check v'Hv >= beta^2 Var[W~_v] on random unit directions.

    The quadratic form comes from the slab-Gram Hessian; the variance is the
    thermal variance of the filtered operator qbp_transform(W_v) itself, so
    the two sides follow genuinely different routes.  Also records the
    smallest q(v)*m seen, the empirical strong-convexity scale.
    """
    beta = float(beta)
    m = model.basis.m
    spectral = spectrum(model)
    ensemble = gibbs(spectral, beta)
    table = basis_stack(model.basis)
    hess = _hessian_core(model.basis, model.mu, beta, spectral).matrix

    rng = np.random.default_rng(seed)
    rows = []
    min_slack = math.inf
    min_qm = math.inf
    for trial in range(trials):
        v = random_direction(m, rng)
        q = float(v @ hess @ v)
        var = variance(qbp_transform(table.combine(v), spectral, beta), ensemble)
        slack = q - beta**2 * var
        rows.append((trial, q, beta**2 * var, slack))
        min_slack = min(min_slack, slack)
        min_qm = min(min_qm, q * m)
    return CheckReport(
        check="strong-convexity",
        passed=min_slack >= -1e-8,
        min_slack=min_slack,
        header=("trial", "quadratic_form", "beta2_var", "slack"),
        rows=rows,
        grid={"beta": beta, "trials": trials, "m": m, "min_q_times_m": min_qm},
    )


def infinite_temp_variance_check(model: HamiltonianModel, beta: float, v) -> CheckReport:
    """Variance of W~_v in the maximally mixed state against its envelope.

    The reference shape is sum(v^2) / (beta log m + 1)^2; the hidden constant
    is calibrated as the floor R_MIN on the ratio rather than asserted.
    """
    beta = float(beta)
    vec = np.asarray(v, dtype=float)
    m = model.basis.m
    var = variance(quasilocal_W(vec, model, beta), gibbs(spectrum(model), 0.0))
    envelope = float(np.dot(vec, vec)) / (beta * math.log(m) + 1.0) ** 2
    ratio = var / envelope if envelope > 0 else math.inf
    return CheckReport(
        check="infinite-temp",
        passed=ratio >= R_MIN,
        min_slack=ratio - R_MIN,
        header=("beta", "variance", "envelope", "ratio"),
        rows=[(beta, var, envelope, ratio)],
        grid={"beta": beta, "m": m, "r_min": R_MIN},
    )


# ---------------------------------------------------------------------------
# Local reductions.


def local_reduce(O: np.ndarray, i: int, n: int) -> np.ndarray:
    """O minus its site-i partial trace re-tensored with identity/2.

    Keeps exactly the Pauli components of O that act nontrivially on site i.
    """
    if O.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {O.shape} does not match n={n} sites")
    if not 0 <= i < n:
        raise ValueError(f"site {i} out of range for n={n}")
    keep = tuple(s for s in range(n) if s != i)
    return O - embed_on_sites(partial_trace(O, keep, n) / 2.0, keep, n)


def global_to_local_check(O: np.ndarray, Z: tuple[int, ...], n: int) -> CheckReport:
    """Frobenius mass of local reductions against the total.

    Checks sum_i ||O_(i)||_F^2 >= ||O||_F^2 and max_i >= mean over Z.  Both
    hold for operators with no identity component, so O is centered first
    (the identity part is invisible to every local reduction).
    """
    dim = 2**n
    O = O - (np.trace(O) / dim) * np.eye(dim, dtype=O.dtype)
    total = float(np.real(np.vdot(O, O)))
    norms = []
    for i in Z:
        red = local_reduce(O, i, n)
        norms.append(float(np.real(np.vdot(red, red))))
    sum_norms = float(sum(norms))
    max_norm = max(norms) if norms else 0.0
    mean_norm = sum_norms / len(Z) if Z else 0.0
    tol = 1e-10 * max(total, 1e-300)
    slack_sum = sum_norms - total
    slack_max = max_norm - mean_norm
    passed = slack_sum >= -tol and slack_max >= -tol
    return CheckReport(
        check="global-to-local",
        passed=passed,
        min_slack=min(slack_sum, slack_max),
        header=("total_frob2", "sum_local_frob2", "max_local_frob2", "mean_local_frob2"),
        rows=[(total, sum_norms, max_norm, mean_norm)],
        grid={"sites": list(Z), "n": n},
    )


# ---------------------------------------------------------------------------
# Spectral concentration (energy-shell suppression of local operators).


def akl_concentration_check(
    model: HamiltonianModel,
    O_X: np.ndarray,
    X: tuple[int, ...],
    x: float,
    y: float,
) -> CheckReport:
    """Norm of the high-low energy block of a local operator vs its bound.

    O_X acts on the sites X.  lhs = ||P_{>=y} O_X P_{<=x}||; the bound uses
    g = max number of Hamiltonian terms (nonzero coefficients) touching any
    one site, taken from the instance rather than assumed.
    """
    lattice = model.basis.lattice
    n = lattice.n_sites
    kappa = model.basis.kappa
    touching = np.zeros(n, dtype=int)
    for op, coeff in zip(model.basis.ops, model.mu):
        if coeff != 0.0:
            for s in op.support:
                touching[s] += 1
    g = int(touching.max()) if n else 0
    spectral = spectrum(model)
    low = spectral.energies <= x
    high = spectral.energies >= y
    V = spectral.vectors
    block = V[:, high].conj().T @ embed_on_sites(O_X, tuple(X), n) @ V[:, low]
    lhs = float(np.linalg.norm(block, ord=2)) if block.size else 0.0
    norm_O = float(np.linalg.norm(O_X, ord=2))
    bound = norm_O * math.exp(-(y - x - 2.0 * g * len(X)) / (2.0 * g * kappa))
    return CheckReport(
        check="akl",
        passed=lhs <= bound,
        min_slack=bound - lhs,
        header=("x", "y", "g", "support_size", "lhs", "bound"),
        rows=[(x, y, g, len(X), lhs, bound)],
        grid={"kappa": kappa, "n": n},
    )


# ---------------------------------------------------------------------------
# delta_gamma machinery and local-unitary probes.


@dataclass(frozen=True, eq=False)
class SpectralConcentration:
    """Gibbs weight outside the [-gamma, gamma] eigenvalue window of A."""

    gamma: float
    delta_gamma: float
    mean_square: float  # <A^2> for the centered operator

    @property
    def slack(self) -> float:
        return self.mean_square - self.gamma**2 * self.delta_gamma


def _centered(A: np.ndarray, ensemble: GibbsEnsemble):
    """(rho, A_c, eigenvalues, eigenvectors) for A_c = A - Tr[A rho]."""
    rho = density_matrix(ensemble)
    shift = float(np.real(np.trace(A @ rho)))
    A_c = A - shift * np.eye(rho.shape[0], dtype=A.dtype)
    evals, U = np.linalg.eigh(A_c)
    return rho, A_c, evals, U


def delta_gamma(A: np.ndarray, ensemble: GibbsEnsemble, gamma: float) -> SpectralConcentration:
    """Weight of the Gibbs state outside A's [-gamma, gamma] eigenvalue window.

    A is centered to Tr[A rho] = 0 first; delta_gamma = 1 - Tr[P_gamma rho]
    and the variance bound <A^2> >= gamma^2 * delta_gamma follows pointwise.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    rho, A_c, evals, U = _centered(A, ensemble)
    inside = np.abs(evals) <= gamma
    P = U[:, inside] @ U[:, inside].conj().T
    d_gamma = 1.0 - float(np.real(np.trace(P @ rho)))
    d_gamma = min(max(d_gamma, 0.0), 1.0)
    mean_square = float(np.real(np.trace(A_c @ A_c @ rho)))
    return SpectralConcentration(gamma=float(gamma), delta_gamma=d_gamma, mean_square=mean_square)


def local_unitary_probe(
    A: np.ndarray,
    ensemble: GibbsEnsemble,
    X: tuple[int, ...],
    n: int,
    trials: int,
    seed,
) -> CheckReport:
    """Scatter of outside-window norms under random local unitaries.

    Records ||Q_gamma U_X sqrt(rho)||_F^2 and ||A Q_gamma U_X sqrt(rho)||_F^2
    along 22 gammas from 0 to 1.05 ||A||.  The claimed suppression constants
    are unknown, so only the constant-free tail fact is asserted: at the
    largest gamma with delta_gamma < 1e-8, both norms fall below 1e-6 (the
    window then swallows the whole spectrum and Q_gamma is numerically empty).
    """
    if len(X) > 2:
        raise ValueError("local unitary probe expects |X| <= 2 sites")
    rho, A_c, evals, U_A = _centered(A, ensemble)
    dim = rho.shape[0]
    norm_A = float(np.max(np.abs(evals)))
    gammas = np.linspace(0.0, 1.05 * norm_A, 22)
    sqrt_rho = (ensemble.spectral.vectors * np.sqrt(ensemble.weights)) @ (
        ensemble.spectral.vectors.conj().T
    )

    rng = np.random.default_rng(seed)
    unitaries = [np.eye(dim)]
    for _ in range(max(trials - 1, 0)):
        k = len(X)
        z = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
        q, _ = np.linalg.qr(z)
        unitaries.append(embed_on_sites(q, tuple(X), n))

    rows = []
    tail_values = {}
    for gamma in gammas:
        inside = np.abs(evals) <= gamma
        Q = np.eye(dim) - U_A[:, inside] @ U_A[:, inside].conj().T
        d_gamma = float(np.real(np.trace(Q @ rho)))
        for trial, U in enumerate(unitaries):
            M = Q @ U @ sqrt_rho
            q_norm = float(np.real(np.vdot(M, M)))
            AM = A_c @ M
            aq_norm = float(np.real(np.vdot(AM, AM)))
            rows.append((float(gamma), trial, d_gamma, q_norm, aq_norm))
            if d_gamma < 1e-8:
                key = float(gamma)
                tail_values.setdefault(key, []).append(max(q_norm, aq_norm))
    if tail_values:
        top_gamma = max(tail_values)
        worst_tail = max(tail_values[top_gamma])
        passed = worst_tail < 1e-6
        min_slack = 1e-6 - worst_tail
    else:
        passed = False  # sweep never emptied the window; grid too short
        min_slack = -math.inf
    return CheckReport(
        check="local-unitary",
        passed=passed,
        min_slack=min_slack,
        header=("gamma", "trial", "delta_gamma", "q_norm2", "aq_norm2"),
        rows=rows,
        grid={"sites": list(X), "trials": trials, "norm_A": norm_A},
    )


def local_variance_floor(v, model: HamiltonianModel, beta: float) -> CheckReport:
    """Max over sites of Tr[(W~_(i))^2 eta] against its temperature envelope.

    The envelope shape is (max v_l^2) / (beta log beta + 1)^(2D+2); only
    positivity is asserted since the prefactor is an unspecified constant.
    """
    beta = float(beta)
    vec = np.asarray(v, dtype=float)
    lattice = model.basis.lattice
    n = lattice.n_sites
    dim = 2**n
    W_t = quasilocal_W(vec, model, beta)
    rows = []
    best = 0.0
    for i in range(n):
        red = local_reduce(W_t, i, n)
        val = float(np.real(np.vdot(red, red))) / dim
        rows.append((i, val))
        best = max(best, val)
    x = beta * math.log(beta) if beta > 0 else 0.0
    envelope = float(np.max(vec**2)) / (x + 1.0) ** (2 * lattice.dimension + 2)
    ratio = best / envelope if envelope > 0 else math.inf
    return CheckReport(
        check="local-variance-floor",
        passed=best > 0.0,
        min_slack=best,
        header=("site", "local_variance"),
        rows=rows,
        grid={"beta": beta, "envelope": envelope, "ratio": ratio},
    )


# ---------------------------------------------------------------------------
# Lieb-Robinson truncation decay.


@dataclass(eq=False)
class QuasiLocalProfile:
    """Per-radius truncation norms of a time-evolved local operator."""

    radii: list[int]
    norms: list[float]
    a1: float
    a2: float

    @property
    def nonincreasing(self) -> bool:
        return all(b <= a + 1e-12 for a, b in zip(self.norms, self.norms[1:]))

    @property
    def final_norm(self) -> float:
        return self.norms[-1] if self.norms else 0.0


def lieb_robinson_decay(
    E: LocalBasisOp, model: HamiltonianModel, t: float, radii
) -> QuasiLocalProfile:
    """Operator-norm error of ball truncations of an evolved one-site basis operator.

    E(t) = exp(-iHt) E exp(iHt) is truncated to the balls `LatticeSpec.ball`
    of growing radius around E's site; the tail outside the ball is replaced
    by the normalized identity.  Fits log(norm) vs radius for the decay rate.
    """
    if E.weight != 1:
        raise ValueError(f"expected a one-site basis element, got support {E.support}")
    lattice = model.basis.lattice
    n = lattice.n_sites
    spectral = spectrum(model)
    V = spectral.vectors
    phases = np.exp(-1j * spectral.energies * t)
    in_energy = V.conj().T @ to_dense(E, lattice) @ V
    E_t = V @ (np.outer(phases, phases.conj()) * in_energy) @ V.conj().T

    norms = []
    for r in radii:
        keep = lattice.ball(r, E.support[0])
        if len(keep) == n:
            truncated = E_t
        else:
            traced = partial_trace(E_t, keep, n)
            truncated = embed_on_sites(traced / 2 ** (n - len(keep)), keep, n)
        norms.append(float(np.linalg.norm(E_t - truncated, ord=2)))

    live = [(r, v) for r, v in zip(radii, norms) if v > 1e-14]
    if len(live) >= 2:
        rs = np.array([r for r, _ in live], dtype=float)
        logs = np.log([v for _, v in live])
        slope, intercept = np.polyfit(rs, logs, 1)
        a1, a2 = float(np.exp(intercept)), float(max(-slope, 0.0))
    else:
        a1, a2 = (norms[0] if norms else 0.0), 0.0
    return QuasiLocalProfile(radii=list(radii), norms=norms, a1=a1, a2=a2)


# ---------------------------------------------------------------------------
# Analytic series bounds.


def _sum_until(term, tail_bound) -> float:
    """Sum term(j) from 0 until the analytic tail bound drops below tol."""
    total = 0.0
    for j in range(1, SERIES_MAX_TERMS + 1):
        total += term(j - 1)
        if j > 10 and tail_bound(j) < SERIES_TAIL_TOL:
            return total
    raise RuntimeError(f"series failed to converge within {SERIES_MAX_TERMS:,} terms")


def _log_gamma_tail(s: float, z: float) -> float:
    """log Gamma(s, z), the upper incomplete gamma function, or an upper bound on it.

    Where gammaincc underflows to 0, z lies far above s, and the bound
    Gamma(s, z) <= z^(s-1) e^(-z) / (1 - r/z), r = max(s - 1, 0) < z, stands
    in: for t >= z, t^(s-1) <= z^(s-1) e^(r (t-z)/z).  Below that range it
    reads inf, so a tail never reads 0 where the true tail is large.
    """
    from scipy.special import gammaincc, gammaln  # 0.3 s to import; only the lab needs it

    q = float(gammaincc(s, z))
    if q > 0.0:
        return float(gammaln(s)) + math.log(q)
    r = max(s - 1.0, 0.0)
    return (s - 1.0) * math.log(z) - z - math.log1p(-r / z) if z > r else math.inf


def _tail(log_scale: float, s: float, z: float) -> float:
    """exp(log_scale) Gamma(s, z), summed in logs; inf where it overflows."""
    log_tail = log_scale + _log_gamma_tail(s, z)
    return math.exp(log_tail) if log_tail < 709.0 else math.inf


def _series(a, b, c, p) -> list[tuple]:
    """(term, tail bound, closed-form bound) of each of the three sums at one point.

    The tail bound at j bounds the sum of the terms from j on.  Each is
    non-increasing in j from j = 11 on, wherever it is finite.
    """
    mode2 = (b / (c * p)) ** (1.0 / p)  # term peak; integral bound valid beyond

    def tail2(j):  # (1/p) c^(-s) Gamma(s, c (j - 1)^p), s = (b + 1)/p
        if j <= mode2 + 1:
            return math.inf
        s = (b + 1.0) / p
        return _tail(-math.log(p) - s * math.log(c), s, c * (j - 1.0) ** p)

    def tail3(j):  # (1/p) c^(-s) Gamma(s, c (a + j - 1)^p), s = 1/p
        s = 1.0 / p
        return _tail(-math.log(p) - s * math.log(c), s, c * (a + j - 1.0) ** p)

    return [
        (
            lambda j: math.exp(-c * j),
            lambda j: math.exp(-c * j) / -math.expm1(-c),
            math.exp(c) / c,
        ),
        (
            lambda j: j**b * math.exp(-c * j**p) if j > 0 else 0.0,
            tail2,
            (2.0 / p) * ((b + 1.0) / (c * p)) ** ((b + 1.0) / p),
        ),
        (
            lambda j: math.exp(-c * (a + j) ** p),
            tail3,
            math.exp(-(c / 2.0) * a**p) * (1.0 + (1.0 / p) * (2.0 / (c * p)) ** (1.0 / p)),
        ),
    ]


def _series_converge(a, b, c, p) -> bool:
    """Whether verify_sum_bounds can run at (a, b, c, p) within SERIES_MAX_TERMS terms.

    The tail bounds do not increase from j = 11 on, so probing j = 11, 22,
    44, ... and the cap tells, in a few dozen evaluations, whether each drops
    below the tolerance in time.  A tail that overflows reads inf and never
    does, and a point whose bounds overflow is refused.
    """
    doublings = int(math.log2(SERIES_MAX_TERMS / 11)) + 1
    probes = [*(11 * 2**k for k in range(doublings)), SERIES_MAX_TERMS]
    try:
        return all(
            any(tail(j) < SERIES_TAIL_TOL for j in probes) for _, tail, _ in _series(a, b, c, p)
        )
    except OverflowError:
        return False


def verify_sum_bounds(points=None) -> CheckReport:
    """Three series bounds on a 27-point (a, b, c, p) grid, tails below 1e-12.

    1) sum e^{-cj} <= e^c / c
    2) sum j^b e^{-c j^p} <= (2/p) ((b+1)/(cp))^{(b+1)/p}
    3) sum e^{-c(a+j)^p} <= e^{-(c/2) a^p} (1 + (1/p)(2/(cp))^{1/p})
    Tails are controlled by geometric (1) or incomplete-gamma integral
    comparisons (2, 3) for the monotone-decreasing part of each series.
    """
    if points is None:
        pair = {0.5: 1, 1.0: 2, 2.0: 3}
        points = [
            (x, pair[x], c, p)
            for x in (0.5, 1.0, 2.0)
            for c in (0.5, 1.0, 2.0)
            for p in (0.5, 1.0, 2.0)
        ]
    rows = []
    min_slack = math.inf
    passed = True
    for a, b, c, p in points:
        sums = [(_sum_until(term, tail), bound) for term, tail, bound in _series(a, b, c, p)]
        (s1, b1), (s2, b2), (s3, b3) = sums
        slack = min(bound - total for total, bound in sums)
        rows.append((a, b, c, p, s1, b1, s2, b2, s3, b3, slack))
        min_slack = min(min_slack, slack)
        passed = passed and all(total <= bound for total, bound in sums)
    return CheckReport(
        check="sum-bounds",
        passed=passed,
        min_slack=min_slack,
        header=("a", "b", "c", "p", "sum1", "bound1", "sum2", "bound2", "sum3", "bound3", "slack"),
        rows=rows,
        grid={"points": len(points), "tail_tol": SERIES_TAIL_TOL},
    )


# ---------------------------------------------------------------------------
# Copy-count lower-bound family.


def lower_bound_family(m: int, beta: float, epsilon: float, mu) -> CheckReport:
    """Scaled norm of the product-state family behind the copy-count bound.

    2^m ||rho_beta(mu)|| for H(mu) = sum_i mu_i |1><1|_i, computed in closed
    form and (for m <= 10) by direct tensor construction; the closed form
    must stay below the packing envelope e^{10 beta eps sqrt(m)}.
    """
    mu = np.asarray(mu, dtype=float)
    beta = float(beta)
    if mu.shape != (m,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({m},)")
    if np.any(mu < 0):
        raise ValueError("infeasible family point: mu components must be nonnegative")
    budget = 100.0 * epsilon**2
    if float(np.dot(mu, mu)) > budget * (1 + 1e-12):
        raise ValueError(
            f"infeasible family point: sum(mu^2)={float(np.dot(mu, mu)):.6g} "
            f"exceeds 100*eps^2={budget:.6g}"
        )
    # closed form: prod_i 2 e^{beta mu_i} / (e^{beta mu_i} + 1), in log space
    log_closed = float(np.sum(np.log(2.0) - np.log1p(np.exp(-beta * mu))))
    closed = math.exp(log_closed)
    envelope = math.exp(10.0 * beta * epsilon * math.sqrt(m))

    passed = closed <= envelope
    agreement = math.nan
    if m <= 10:
        diag = np.zeros(1)
        for mu_i in mu:
            diag = np.concatenate([diag, diag + mu_i])  # bit i set costs mu_i
        w = np.exp(-beta * diag)
        tensor_value = 2**m * float(w.max() / w.sum())
        agreement = abs(tensor_value - closed)
        passed = passed and agreement <= 1e-10
    return CheckReport(
        check="lower-bound",
        passed=passed,
        min_slack=envelope - closed,
        header=("m", "beta", "epsilon", "closed_form", "envelope", "tensor_gap"),
        rows=[(m, beta, epsilon, closed, envelope, agreement)],
        grid={"m": m, "beta": beta, "epsilon": epsilon},
    )


# ---------------------------------------------------------------------------
# Suites: the instances, grids and pass tolerances behind `gibbslearn lab`.
# Each builder takes the master seed and the suite's config keys, and returns
# its reports in output order; `SUITES` declares the keys and their defaults.


def ising_chain(n: int, coupling: float, field: float) -> HamiltonianModel:
    """Sparse open chain: nearest-neighbour ZZ plus on-site X, nothing else."""
    basis = enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), 2)
    mu = np.zeros(basis.m)
    for i, op in enumerate(basis.ops):
        if op.letters == "ZZ":
            mu[i] = coupling
        elif op.letters == "X":
            mu[i] = field
    return HamiltonianModel(basis=basis, mu=mu)


def _suite_strong_convexity(seed: int, betas, trials) -> list[CheckReport]:
    reports = []
    for k, (n, inst) in enumerate([(2, 0), (2, 1), (3, 0), (3, 1)]):
        model = random_chain(n, 2, trial_seed(seed, k))
        for beta in betas:
            rep = strong_convexity_probe(model, float(beta), trials, trial_seed(seed, 50 + k))
            rep.grid.update(n=n, instance=inst)
            reports.append(rep)
    return reports


def _suite_infinite_temp(seed: int, betas, directions) -> list[CheckReport]:
    reports = []
    for k, n in enumerate((2, 3)):
        model = random_chain(n, 2, trial_seed(seed, k))
        rng = np.random.default_rng(trial_seed(seed, 100 + k))
        for beta in betas:
            beta = float(beta)
            v = None
            for _ in range(directions):
                v = random_direction(model.basis.m, rng)
                rep = infinite_temp_variance_check(model, beta, v)
                rep.grid.update(n=n)
                reports.append(rep)
            W_t = quasilocal_W(v, model, beta)
            rep = global_to_local_check(W_t, tuple(range(n)), n)
            rep.grid.update(n=n, beta=beta)
            reports.append(rep)
            rep = local_variance_floor(v, model, beta)
            rep.grid.update(n=n)
            reports.append(rep)
    return reports


def _suite_akl(seed: int, window_fractions) -> list[CheckReport]:
    instances = [("dense", random_chain(3, 2, trial_seed(seed, k), 0.5)) for k in range(3)]
    instances += [("sparse", ising_chain(n, 0.4, 0.3)) for n in (4, 5)]
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    reports = []
    for tag, model in instances:
        energies = spectrum(model).energies
        width = float(energies[-1] - energies[0])
        X = (model.basis.lattice.n_sites // 2,)
        for frac in window_fractions:
            x = float(energies[0] + frac * width)
            y = float(energies[-1] - frac * width)
            if y <= x:
                continue
            rep = akl_concentration_check(model, sigma_x, X, x, y)
            rep.grid.update(instance=tag)
            reports.append(rep)
    return reports


def _suite_delta_gamma(seed: int, betas) -> list[CheckReport]:
    model = random_chain(3, 2, trial_seed(seed, 0), 0.7)
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    observables = {
        "Z0": embed_on_sites(z, (0,), 3),
        "X1": embed_on_sites(x, (1,), 3),
        "Z0Z1": embed_on_sites(np.kron(z, z), (0, 1), 3),
    }
    reports = []
    for beta in betas:
        ensemble = gibbs(spectrum(model), float(beta))
        for name, A in observables.items():
            top = 1.1 * float(np.max(np.abs(np.linalg.eigvalsh(A))))
            rows = []
            min_slack = math.inf
            for gamma in np.linspace(0.0, top, 12):
                sc = delta_gamma(A, ensemble, float(gamma))
                rows.append(
                    (name, float(beta), float(gamma), sc.delta_gamma, sc.mean_square, sc.slack)
                )
                min_slack = min(min_slack, sc.slack)
            reports.append(
                CheckReport(
                    check="delta-gamma",
                    passed=min_slack >= -1e-10,
                    min_slack=min_slack,
                    header=("observable", "beta", "gamma", "delta_gamma", "mean_square", "slack"),
                    rows=rows,
                    grid={"observable": name, "beta": float(beta)},
                )
            )
    return reports


def _suite_local_unitary(seed: int, trials, beta) -> list[CheckReport]:
    model = random_chain(3, 2, trial_seed(seed, 0), 0.7)
    ensemble = gibbs(spectrum(model), float(beta))
    z = np.diag([1.0, -1.0])
    observables = {
        "Z0": embed_on_sites(z, (0,), 3),
        "Z1Z2": embed_on_sites(np.kron(z, z), (1, 2), 3),
    }
    reports = []
    for k, (name, A) in enumerate(observables.items()):
        for X in ((0,), (1,)):
            rep = local_unitary_probe(A, ensemble, X, 3, trials, trial_seed(seed, 10 + k))
            rep.grid.update(observable=name)
            reports.append(rep)
    return reports


def _suite_lr_decay(seed: int, times) -> list[CheckReport]:
    reports = []
    for n in (5, 6):
        model = ising_chain(n, 0.5, 0.4)
        targets = [
            op
            for op in model.basis.ops
            if op.support == (n // 2,) and op.letters in ("Z", "X")
        ]
        for t in times:
            for op in targets:
                profile = lieb_robinson_decay(op, model, float(t), range(0, n))
                rows = [
                    (float(t), op.letters, op.support[0], r, norm)
                    for r, norm in zip(profile.radii, profile.norms)
                ]
                passed = profile.nonincreasing and profile.final_norm <= 1e-10
                reports.append(
                    CheckReport(
                        check="lr-decay",
                        passed=passed,
                        min_slack=1e-10 - profile.final_norm,
                        header=("t", "letters", "site", "radius", "truncation_norm"),
                        rows=rows,
                        grid={
                            "n": n,
                            "t": float(t),
                            "decay_rate": profile.a2,
                            "prefactor": profile.a1,
                        },
                    )
                )
    return reports


def _suite_sum_bounds(seed: int, points) -> list[CheckReport]:
    return [verify_sum_bounds(points)]


def _suite_lower_bound(seed: int, sizes, betas, epsilons) -> list[CheckReport]:
    rng = np.random.default_rng(trial_seed(seed, 0))
    reports = []
    for m in sizes:
        for beta in betas:
            for eps in epsilons:
                mu_zero = np.zeros(m)
                raw = np.abs(rng.standard_normal(m))
                norm = float(np.linalg.norm(raw))
                mu_edge = raw * (10.0 * eps / norm) if norm else mu_zero
                for mu in (mu_zero, mu_edge):
                    reports.append(lower_bound_family(m, float(beta), float(eps), mu))
    return reports


def _suite_fourier(seed: int, betas, omegas) -> list[CheckReport]:
    omegas = np.asarray(omegas, dtype=float)
    reports = []
    for beta in betas:
        pair = verify_fourier_pair(FilterKernel(float(beta)), omegas)
        rows = [
            (float(beta), w, nu, ex, abs(nu - ex))
            for w, nu, ex in zip(pair.omegas, pair.numeric, pair.exact)
        ]
        reports.append(
            CheckReport(
                check="fourier",
                passed=pair.max_abs_error < 1e-4,
                min_slack=1e-4 - pair.max_abs_error,
                header=("beta", "omega", "numeric", "exact", "abs_error"),
                rows=rows,
                grid={
                    "beta": float(beta),
                    "max_abs_error": pair.max_abs_error,
                    "quad_error_estimate": pair.quad_error_estimate,
                },
            )
        )
    return reports


def _finite(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _series_point(v) -> bool:
    # c = 0 or p = 0 divides by zero, and a negative a or b raises a negative
    # base to a fractional power
    if not (isinstance(v, list) and len(v) == 4 and all(map(_finite, v))):
        return False
    a, b, c, p = v
    return a >= 0 and b >= 0 and c > 0 and p > 0 and _series_converge(a, b, c, p)


# The kinds of value a suite key takes, as (predicate, hint).
GRID = (nonempty_list_of(_finite), "a nonempty list of finite numbers")
COUNT = (POSITIVE_INT[0], "an int >= 1")
SIZES = (nonempty_list_of(POSITIVE_INT[0]), "a nonempty list of ints >= 1")
BETA = (lambda v: _finite(v) and v >= 0, "a finite number >= 0")
BETAS = (nonempty_list_of(BETA[0]), "a nonempty list of finite numbers >= 0")
POINTS = (
    nonempty_list_of(_series_point),
    "a nonempty list of [a, b, c, p] lists of finite numbers with a, b >= 0, c, p > 0, "
    f"whose three series converge within {SERIES_MAX_TERMS:,} terms",
)


@dataclass(frozen=True, eq=False)
class Suite:
    """A `gibbslearn lab` suite: its builder and the config keys it reads.

    `keys` maps each key to its (kind, default), as `check_config` reads
    them.  Calling the suite checks the whole config, `suite` aside (manifests
    record it), before any check runs.
    """

    build: Callable[..., list[CheckReport]]
    keys: dict

    def __call__(self, config: dict, seed: int) -> list[CheckReport]:
        config = {key: value for key, value in config.items() if key != "suite"}
        return self.build(seed, **check_config("lab config", config, self.keys))


SUITES = {
    "strong-convexity": Suite(
        _suite_strong_convexity, {"betas": (BETAS, [0.2, 1.0, 3.0]), "trials": (COUNT, 10)}
    ),
    "infinite-temp": Suite(
        _suite_infinite_temp, {"betas": (BETAS, [0.5, 1.0, 2.0]), "directions": (COUNT, 3)}
    ),
    "akl": Suite(_suite_akl, {"window_fractions": (GRID, [0.15, 0.25, 0.35])}),
    "delta-gamma": Suite(_suite_delta_gamma, {"betas": (BETAS, [0.5, 2.0])}),
    "local-unitary": Suite(_suite_local_unitary, {"trials": (COUNT, 6), "beta": (BETA, 1.0)}),
    "lr-decay": Suite(_suite_lr_decay, {"times": (GRID, [0.25, 0.75])}),
    # None: verify_sum_bounds' own 27-point grid
    "sum-bounds": Suite(_suite_sum_bounds, {"points": (POINTS, None)}),
    "lower-bound": Suite(
        _suite_lower_bound,
        {
            "sizes": (SIZES, [1, 2, 4, 8]),
            "betas": (BETAS, [0.5, 1.0]),
            "epsilons": (GRID, [0.1, 0.5]),
        },
    ),
    "fourier": Suite(
        _suite_fourier,
        {
            "betas": (  # FilterKernel takes beta > 0 only
                (
                    nonempty_list_of(lambda v: _finite(v) and v > 0),
                    "a nonempty list of finite numbers > 0",
                ),
                [0.5, 1.0, 2.0],
            ),
            "omegas": (GRID, [*np.linspace(-8.0, 8.0, 33), 1e-9, 1e-6, 1e-3]),
        },
    ),
}
