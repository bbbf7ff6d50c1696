"""Structural checks on exact small systems.

Every operation here verifies one inequality or decay profile numerically:
strong convexity of the dual objective against the filtered-operator variance,
variance floors at infinite temperature, local reductions of global operators,
spectral concentration of local perturbations, the variance bound on the Gibbs
weight outside an observable's eigenvalue window, Lieb-Robinson truncation
decay, analytic series bounds, the product family used for the copy-count
lower bound, and the filter pair of `qbp`: the quadrature transform of its
time-domain form, `f_time`, against the spectral form that a learn runs.
Beside that pair sit the filtered operators the checks read: `qbp_transform`
filters an operator by f_tilde of its energy gaps, and `quasilocal_W` filters
a direction's operator W = sum_l v_l E_l.

Checks with explicit constants assert; checks whose constants are only known
to exist record measured curves and a calibrated floor instead.  Every check
returns a CheckReport (rows for CSV, a JSON-ready summary) rather than
raising, so sweeps can tabulate failures.  Only this module builds reports:
`SUITES`, at the end, fixes the instances, grids and pass tolerances that
`gibbslearn lab <suite>` runs.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .gibbs import GibbsEnsemble, SpectralDecomposition, diagonalize, gibbs, spectrum, variance
from .lattice import (
    HamiltonianModel,
    LatticeSpec,
    LocalBasisOp,
    basis_stack,
    enumerate_basis,
    random_chain,
    to_dense,
)
from .qbp import _hessian_core, f_tilde, gap_filter
from .reporting import BETA as POSITIVE_BETA  # > 0; the lab's own BETA admits 0
from .reporting import BETA_MAX, POSITIVE_INT, check_config, nonempty_list_of, trial_seed

__all__ = [
    "SUITES",
    "Suite",
    "CheckReport",
    "ising_chain",
    "random_direction",
    "embed_on_sites",
    "strong_convexity_probe",
    "infinite_temp_variance_check",
    "local_reduce",
    "global_to_local_check",
    "akl_concentration_check",
    "local_unitary_probe",
    "local_variance_floor",
    "lieb_robinson_decay",
    "verify_sum_bounds",
    "lower_bound_family",
    "qbp_transform",
    "quasilocal_W",
    "f_time",
    "verify_fourier_pair",
]

SERIES_TAIL_TOL = 1e-12
SERIES_MAX_TERMS = 10_000_000  # per series; the `points` check refuses points that need more
R_MIN = 0.01  # calibrated floor on the infinite-temperature variance ratio
# on |Tr[U rho U^+] - 1| in `local_unitary_probe`, and relative on each row's spectrum bounds
WEIGHT_SUM_TOL = 1e-12
LOG_MAX = 2 * math.log(BETA_MAX)  # the largest x whose e^x is finite


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


def _power(x: float, k: float) -> float:
    """float(x) ** k for x >= 0, reading inf where it leaves the float range."""
    try:
        return float(x) ** k
    except OverflowError:
        return math.inf


def random_direction(m: int, rng: np.random.Generator) -> np.ndarray:
    """A unit vector in coefficient space: m standard normals, normalized."""
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Restriction to sites.


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


def _depolarize(M: np.ndarray, sites, n: int) -> np.ndarray:
    """M with each site s of `sites` depolarized: its 2x2 block becomes half its trace times I.

    Halving is exact, so this is M's normalised partial trace over `sites`
    tensored back with identities, bit for bit.
    """
    for s in sites:
        T = M.reshape(2**s, 2, 2 ** (n - s - 1), 2**s, 2, 2 ** (n - s - 1))
        half = (T[:, :1, :, :, :1] + T[:, 1:, :, :, 1:]) / 2
        M = (half * np.eye(2).reshape(2, 1, 1, 2, 1)).reshape(2**n, 2**n)
    return M


# ---------------------------------------------------------------------------
# Strong convexity and variance floors.


def strong_convexity_probe(
    model: HamiltonianModel, beta: float, trials: int, seed
) -> CheckReport:
    """Check v'Hv >= beta^2 Var[W~_v] on random unit directions.

    The quadratic form comes from the slab-Gram Hessian; the variance is the
    thermal variance of the filtered operator quasilocal_W(v) itself, so
    the two sides follow genuinely different routes.  Also records the
    smallest q(v)*m seen, the empirical strong-convexity scale.
    """
    beta = float(beta)
    m = model.basis.m
    spectral = spectrum(model)
    ensemble = gibbs(spectral, beta)
    hess = _hessian_core(model.basis, model.mu, beta, spectral)

    rng = np.random.default_rng(seed)
    rows = []
    min_slack = math.inf
    min_qm = math.inf
    for trial in range(trials):
        v = random_direction(m, rng)
        q = float(v @ hess @ v)
        var = variance(quasilocal_W(v, model, beta), ensemble)
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
    envelope = float(np.dot(vec, vec)) / _power(beta * math.log(m) + 1.0, 2)
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
    """O_(i) = O - (I/2) (x) Tr_i O.

    Keeps exactly the Pauli components of O that act nontrivially on site i.
    """
    if O.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {O.shape} does not match n={n} sites")
    if not 0 <= i < n:
        raise ValueError(f"site {i} out of range for n={n}")
    return O - _depolarize(O, (i,), n)


def _local_masses(O: np.ndarray, sites, n: int) -> list[float]:
    """The Frobenius mass ||O_(i)||_F^2 of each site's local reduction."""
    return [float(np.real(np.vdot(red, red))) for red in (local_reduce(O, i, n) for i in sites)]


def global_to_local_check(O: np.ndarray, Z: tuple[int, ...], n: int) -> CheckReport:
    """Frobenius mass of local reductions against the total.

    Checks sum_i ||O_(i)||_F^2 >= ||O||_F^2 and max_i >= mean over Z.  Both
    hold for operators with no identity component, so O is centered first
    (the identity part is invisible to every local reduction).
    """
    dim = 2**n
    O = O - (np.trace(O) / dim) * np.eye(dim, dtype=O.dtype)
    total = float(np.real(np.vdot(O, O)))
    norms = _local_masses(O, Z, n)
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
# Outside-window weights and local-unitary probes.


def _weights(vectors: np.ndarray, ensemble: GibbsEnsemble, W=None) -> np.ndarray:
    """w_i = <u_i|W rho W^+|u_i> = sum_j |<u_i|W|v_j>|^2 r_j on the columns u_i of `vectors`.

    (v_j, r_j) are the ensemble's eigenpairs, and W = None reads rho's own weights.
    """
    V = ensemble.spectral.vectors if W is None else W @ ensemble.spectral.vectors
    overlap = vectors.conj().T @ V
    return (overlap.real**2 + overlap.imag**2) @ ensemble.weights


def _centered(eigen: SpectralDecomposition, ensemble: GibbsEnsemble):
    """(eigenvalues of A_c = A - Tr[A rho], rho's weights w on A's eigenvectors) from A's
    eigensystem `eigen`; A_c shares its eigenvectors, and Tr[A rho] = w @ eigen.energies."""
    weights = _weights(eigen.vectors, ensemble)
    return eigen.energies - float(weights @ eigen.energies), weights


def local_unitary_probe(
    eigen: SpectralDecomposition,
    ensemble: GibbsEnsemble,
    X: tuple[int, ...],
    trials: int,
    seed,
) -> CheckReport:
    """Scatter of an observable A's outside-window norms under random local unitaries.

    `eigen` is A's eigensystem, whose dimension 2^n gives the site count n.
    Records ||Q_gamma U_X sqrt(rho)||_F^2 and ||A_c Q_gamma U_X sqrt(rho)||_F^2
    along 22 gammas from 0 to 1.05 ||A_c||.  Both are sums over w_U, the weight
    of U rho U^+ on A's eigenvectors u_i: Q_gamma = sum_outside |u_i><u_i|
    commutes with A_c, so they read sum_outside w_U,i and sum_outside
    lambda_i^2 w_U,i.  Trial 0 takes U = I, so its q_norm2 is the row's
    delta_gamma bit for bit: the sum that the `delta-gamma` suite reads as
    its delta_gamma at the same gamma, before its clip to 1.  The claimed
    suppression constants are unknown, so only constant-free facts are
    asserted: each trial's weights sum to Tr[U rho U^+] = 1 within
    WEIGHT_SUM_TOL, which fails when U is not unitary, and every row lies
    inside the spectrum, gamma^2 q_norm2 <= aq_norm2 <= norm_A^2 q_norm2 to
    WEIGHT_SUM_TOL relative, which a negative weight can break.  `min_slack`
    is the weight-sum tolerance less the worst deviation.
    """
    if len(X) > 2:
        raise ValueError("local unitary probe expects |X| <= 2 sites")
    n = eigen.dim.bit_length() - 1
    evals, weights = _centered(eigen, ensemble)
    norm_A = float(np.max(np.abs(evals)))
    gammas = np.linspace(0.0, 1.05 * norm_A, 22)

    rng = np.random.default_rng(seed)
    trial_weights = [weights]
    k = len(X)
    for _ in range(max(trials - 1, 0)):
        z = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
        q, _ = np.linalg.qr(z)
        trial_weights.append(_weights(eigen.vectors, ensemble, embed_on_sites(q, tuple(X), n)))

    rows = []
    inside = True
    for gamma in gammas:
        outside = np.abs(evals) > gamma
        d_gamma = float(weights[outside].sum())
        for trial, w in enumerate(trial_weights):
            q_norm, aq_norm = float(w[outside].sum()), float(w[outside] @ evals[outside] ** 2)
            rows.append((float(gamma), trial, d_gamma, q_norm, aq_norm))
            # every eigenvalue outside the window has gamma < |lambda| <= norm_A
            lo, hi, tol = gamma**2 * q_norm, norm_A**2 * q_norm, WEIGHT_SUM_TOL
            inside &= bool(lo - tol * abs(lo) <= aq_norm <= hi + tol * abs(hi))
    worst = max(abs(float(w.sum()) - 1.0) for w in trial_weights)
    return CheckReport(
        check="local-unitary",
        passed=worst <= WEIGHT_SUM_TOL and inside,
        min_slack=WEIGHT_SUM_TOL - worst,
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
    masses = _local_masses(quasilocal_W(vec, model, beta), range(n), n)
    rows = [(i, mass / 2**n) for i, mass in enumerate(masses)]
    best = max(val for _, val in rows)
    x = beta * math.log(beta) if beta > 0 else 0.0
    envelope = float(np.max(vec**2)) / _power(x + 1.0, 2 * lattice.dimension + 2)
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


def lieb_robinson_decay(
    E: LocalBasisOp, model: HamiltonianModel, t: float, radii
) -> CheckReport:
    """Operator-norm error of ball truncations of an evolved one-site basis operator.

    E(t) = exp(-iHt) E exp(iHt) is truncated to the balls `LatticeSpec.ball`
    of growing radius around E's site; the tail outside the ball is replaced
    by the normalized identity.  Passes when the norms do not increase (to
    1e-12) and the last one is at most 1e-10; fits log(norm) vs radius for
    the decay rate and prefactor.
    """
    if E.weight != 1:
        raise ValueError(f"expected a one-site basis element, got support {E.support}")
    t = float(t)
    lattice = model.basis.lattice
    n = lattice.n_sites
    spectral = spectrum(model)
    V = spectral.vectors
    phases = np.exp(-1j * spectral.energies * t)
    in_energy = V.conj().T @ to_dense(E, lattice) @ V
    E_t = V @ (np.outer(phases, phases.conj()) * in_energy) @ V.conj().T

    norms = []
    for r in radii:
        ball = lattice.ball(r, E.support[0])
        truncated = _depolarize(E_t, [s for s in range(n) if s not in ball], n)
        norms.append(float(np.linalg.norm(E_t - truncated, ord=2)))

    live = [(r, v) for r, v in zip(radii, norms) if v > 1e-14]
    if len(live) >= 2:
        rs = np.array([r for r, _ in live], dtype=float)
        logs = np.log([v for _, v in live])
        slope, intercept = np.polyfit(rs, logs, 1)
        a1, a2 = float(np.exp(intercept)), float(max(-slope, 0.0))
    else:
        a1, a2 = (norms[0] if norms else 0.0), 0.0
    final = norms[-1] if norms else 0.0
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    return CheckReport(
        check="lr-decay",
        passed=nonincreasing and final <= 1e-10,
        min_slack=1e-10 - final,
        header=("t", "letters", "site", "radius", "truncation_norm"),
        rows=[(t, E.letters, E.support[0], r, norm) for r, norm in zip(radii, norms)],
        grid={"n": n, "t": t, "decay_rate": a2, "prefactor": a1},
    )


# ---------------------------------------------------------------------------
# Analytic series bounds.


def _log_gamma_tail(s: float, z: float) -> float:
    """An upper bound on log Gamma(s, z), the upper incomplete gamma function.

    Gamma(s, z) <= z^(s-1) e^(-z) / (1 - r/z), r = max(s - 1, 0) < z: for
    t >= z, t^(s-1) <= z^(s-1) e^(r (t-z)/z).  Below that range it reads inf,
    so a tail never reads 0 where the true tail is large.
    """
    r = max(s - 1.0, 0.0)
    return (s - 1.0) * math.log(z) - z - math.log1p(-r / z) if z > r else math.inf


def _tail(log_scale: float, s: float, z: float) -> float:
    """exp(log_scale) Gamma(s, z), summed in logs; inf where it overflows, 0 where z does."""
    if z == math.inf:
        return 0.0
    log_tail = log_scale + _log_gamma_tail(s, z)
    return math.exp(log_tail) if log_tail < 709.0 else math.inf


def _series(a, b, c, p) -> list[tuple]:
    """(term, tail bound, closed-form bound) of each of the three sums at one point.

    The tail bound at j bounds the sum of the terms from j on: a geometric
    sum for series 1, and for series 2 and 3 an integral (1/p) c^(-s)
    Gamma(s, z), with Gamma(s, z) bounded in closed form by `_log_gamma_tail`.
    Each is non-increasing in j from j = 11 on, wherever it is finite.
    """
    mode2 = (b / (c * p)) ** (1.0 / p)  # term peak; integral bound valid beyond

    def tail2(j):  # (1/p) c^(-s) Gamma(s, c (j - 1)^p), s = (b + 1)/p
        if j <= mode2 + 1:
            return math.inf
        s = (b + 1.0) / p
        return _tail(-math.log(p) - s * math.log(c), s, c * _power(j - 1.0, p))

    def tail3(j):  # (1/p) c^(-s) Gamma(s, c (a + j - 1)^p), s = 1/p
        s = 1.0 / p
        return _tail(-math.log(p) - s * math.log(c), s, c * _power(a + j - 1.0, p))

    return [
        (
            lambda j: math.exp(-c * j),
            lambda j: math.exp(-c * j) / -math.expm1(-c),
            math.exp(c) / c,
        ),
        (
            lambda j: j**b * math.exp(-c * _power(j, p)) if j > 0 else 0.0,
            tail2,
            (2.0 / p) * ((b + 1.0) / (c * p)) ** ((b + 1.0) / p),
        ),
        (
            lambda j: math.exp(-c * _power(a + j, p)),
            tail3,
            math.exp(-(c / 2.0) * a**p) * (1.0 + (1.0 / p) * (2.0 / (c * p)) ** (1.0 / p)),
        ),
    ]


def _series_terms(a, b, c, p) -> list[tuple]:
    """(terms to sum, term, closed-form bound) of each of the three sums at one point.

    A sum runs to the first j >= 11 whose tail bound is below SERIES_TAIL_TOL:
    the bounds do not increase from j = 11 on (an overflow reads inf), so one
    bisection over [11, SERIES_MAX_TERMS] finds it.  A point that needs more
    than SERIES_MAX_TERMS terms raises a ValueError naming it.
    """
    counts = []
    for term, tail, bound in _series(a, b, c, p):
        if not tail(SERIES_MAX_TERMS) < SERIES_TAIL_TOL:
            raise ValueError(
                f"sum-bounds point {[a, b, c, p]} needs more than {SERIES_MAX_TERMS:,} terms"
            )
        js = range(11, SERIES_MAX_TERMS + 1)
        first = bisect.bisect_left(js, True, key=lambda j: tail(j) < SERIES_TAIL_TOL)
        counts.append((js[first], term, bound))
    return counts


def verify_sum_bounds(points=None) -> CheckReport:
    """Three series bounds on a 27-point (a, b, c, p) grid, tails below 1e-12.

    1) sum e^{-cj} <= e^c / c
    2) sum j^b e^{-c j^p} <= (2/p) ((b+1)/(cp))^{(b+1)/p}
    3) sum e^{-c(a+j)^p} <= e^{-(c/2) a^p} (1 + (1/p)(2/(cp))^{1/p})
    Tails are controlled by geometric (1) or incomplete-gamma integral
    comparisons (2, 3) for the monotone-decreasing part of each series; the
    incomplete gamma function is bounded by an elementary expression, so the
    check needs no special function.
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
        sums = []
        for count, term, bound in _series_terms(a, b, c, p):
            total = 0.0
            for j in range(count):
                total += term(j)
            sums.append((total, bound))
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
    must stay below the packing envelope e^{10 beta eps sqrt(m)}.  The two
    are compared in log space, so a value past the float range reads inf.
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
    log_env = 10.0 * beta * epsilon * math.sqrt(m)
    closed, envelope = (math.exp(a) if a <= LOG_MAX else math.inf for a in (log_closed, log_env))
    passed = log_closed <= log_env
    # inf - inf is nan: past the float range the comparison gives the slack's sign
    slack = envelope - closed if closed < math.inf else (math.inf if passed else -math.inf)
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
        min_slack=slack,
        header=("m", "beta", "epsilon", "closed_form", "envelope", "tensor_gap"),
        rows=[(m, beta, epsilon, closed, envelope, agreement)],
        grid={"m": m, "beta": beta, "epsilon": epsilon},
    )


# ---------------------------------------------------------------------------
# Filtered operators and the time/frequency filter pair.


def qbp_transform(O: np.ndarray, spectral: SpectralDecomposition, beta: float) -> np.ndarray:
    """Filter an operator by f_tilde of the energy gap, in the energy basis.

    Degenerate eigenspaces need no care: every intra-block gap is 0 and
    f_tilde(0) = 1, so the block is passed through unchanged whatever
    eigenvector basis eigh picked.
    """
    O = np.asarray(O)
    V = spectral.vectors
    if O.shape != (spectral.dim, spectral.dim):
        raise ValueError(
            f"operator shape {O.shape} does not match spectral dimension {spectral.dim}"
        )
    A = V.conj().T @ O @ V
    out = V @ (A * gap_filter(spectral, beta)) @ V.conj().T
    return 0.5 * (out + out.conj().T)


def quasilocal_W(v, model: HamiltonianModel, beta: float) -> np.ndarray:
    """Filtered direction operator: qbp_transform of W = sum_l v_l E_l."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.basis.m,):
        raise ValueError(f"direction has shape {v.shape}, expected ({model.basis.m},)")
    W = basis_stack(model.basis).combine(v)
    return qbp_transform(W, spectrum(model), beta)


def f_time(t, beta: float) -> np.ndarray | float:
    """Time-domain QBP filter (2/(beta*pi)) * log((e^x+1)/(e^x-1)), x = pi|t|/beta.

    Its Fourier transform is `qbp.f_tilde`.  Log-singular (but integrable) at
    t = 0, and evaluated as (2/(beta*pi)) * log1p(2/expm1(x)), which stays
    finite all the way to the overflow range of exp.  It divides by beta, so
    a beta that is not finite and > 0 is refused.
    """
    if not (beta > 0 and np.isfinite(beta)):
        raise ValueError(f"time-domain filter beta must be finite and > 0, got {beta}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr == 0.0):
        raise ValueError("kernel singular at origin: f_time is undefined at t=0")
    x = np.pi * np.abs(t_arr) / beta
    with np.errstate(over="ignore"):  # expm1 overflow -> inf -> log1p(0) = 0
        out = (2.0 / (beta * np.pi)) * np.log1p(2.0 / np.expm1(x))
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


# Quadrature layout of the Fourier-pair check.  The integrand is even, so the
# integral over [-T, T] is twice the integral over [0, T].  The log singularity
# at t = 0 is excised on (0, QUAD_EPS) and replaced by the analytic integral of
# the local expansion f(t) ~ (2/(beta*pi)) * (log(2*beta/(pi*t)) + (pi*t/beta)^2 / 12).
QUAD_T_MAX = 40.0
QUAD_STEP = 1e-3
QUAD_EPS = 1e-2
QUAD_TOL = 1e-4


def _near_zero_correction(omegas: np.ndarray, beta: float, eps: float) -> np.ndarray:
    """integral_0^eps f(t) cos(omega t) dt from the local log expansion."""
    L = np.log(2.0 * beta / (np.pi * eps))
    a2 = np.pi**2 / (12.0 * beta**2)  # t^2 coefficient of the bracket
    w2 = omegas**2
    bracket = (
        eps * (L + 1.0)
        + a2 * eps**3 / 3.0
        - (w2 / 2.0) * (eps**3 / 3.0) * (L + 1.0 / 3.0)
    )
    return (2.0 / (beta * np.pi)) * bracket


def verify_fourier_pair(beta: float, omegas) -> CheckReport:
    """Compare the quadrature transform of f_time against f_tilde on a grid.

    Passes when the worst error is below 1e-4.  Raises if the quadrature's
    own error estimate (step-halving comparison plus tail and cutoff bounds)
    exceeds QUAD_TOL -- a failed estimate means the reported errors would be
    meaningless, not that the pair is wrong.  Refuses the beta that `f_time`
    refuses.  The tail and cutoff bounds read inf past the float range, and
    are checked before `f_time` is sampled, so a beta too small or too large
    for the grid is refused by name.
    """
    beta = float(beta)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    w_max = np.max(np.abs(omegas))
    f_time(np.empty(0), beta)  # refuses the beta that f_time refuses, and samples nothing

    def refuse_above(estimate):
        if estimate > QUAD_TOL:
            raise ValueError(
                f"quadrature did not converge at beta = {beta:g}, max|omega| = {w_max:g}: "
                f"error estimate {estimate:.3e} exceeds tolerance {QUAD_TOL:.0e}"
            )

    # Error budget: Richardson step-halving difference, exponential tail
    # beyond t_max, and the dropped O(eps^5) terms of the cutoff correction.
    tail = (4.0 / np.pi**2) * float(np.exp(-np.pi * QUAD_T_MAX / beta))
    cutoff = (2.0 / (beta * np.pi)) * (_power(w_max, 4) / 24.0 + _power(np.pi / beta, 4) / 80.0)
    cutoff = cutoff * QUAD_EPS**5 * (abs(np.log(QUAD_EPS)) + 2.0)
    refuse_above(2.0 * (tail + cutoff))  # a huge omega or a beta out of range reads inf

    n_steps = int(np.ceil((QUAD_T_MAX - QUAD_EPS) / QUAD_STEP))
    n_steps += n_steps % 2  # even count so the half-resolution grid shares endpoints
    ts = QUAD_EPS + QUAD_STEP * np.arange(n_steps + 1)
    f_ts = f_time(ts, beta)

    phases = np.cos(np.outer(omegas, ts))
    integrand = phases * f_ts
    body = np.trapezoid(integrand, dx=QUAD_STEP, axis=1)
    numeric = 2.0 * (body + _near_zero_correction(omegas, beta, QUAD_EPS))
    coarse = np.trapezoid(integrand[:, ::2], dx=2 * QUAD_STEP, axis=1)
    richardson = float(np.max(np.abs(body - coarse))) / 3.0
    estimate = 2.0 * (richardson + tail + cutoff)
    refuse_above(estimate)

    exact = f_tilde(omegas, beta)
    max_err = float(np.max(np.abs(numeric - exact)))
    return CheckReport(
        check="fourier",
        passed=max_err < 1e-4,
        min_slack=1e-4 - max_err,
        header=("beta", "omega", "numeric", "exact", "abs_error"),
        rows=[(beta, w, nu, ex, abs(nu - ex)) for w, nu, ex in zip(omegas, numeric, exact)],
        grid={"beta": beta, "max_abs_error": max_err, "quad_error_estimate": estimate},
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
    # an observable's eigensystem, and so its gamma grid, moves with neither gamma nor beta
    systems = {name: diagonalize(A) for name, A in observables.items()}
    reports = []
    for beta in betas:
        ensemble = gibbs(spectrum(model), float(beta))
        for name, eigen in systems.items():
            evals, weights = _centered(eigen, ensemble)
            top = 1.1 * float(np.max(np.abs(eigen.energies)))
            rows = []
            min_slack = math.inf
            # <A_c^2> >= gamma^2 delta_gamma, where delta_gamma = Tr[Q_gamma rho] is rho's
            # weight outside A_c's [-gamma, gamma] eigenvalue window, clipped to 1
            mean_square = float(weights @ evals**2)
            for gamma in np.linspace(0.0, top, 12):
                d_gamma = min(float(weights[np.abs(evals) > gamma].sum()), 1.0)
                slack = mean_square - float(gamma) ** 2 * d_gamma
                rows.append((name, float(beta), float(gamma), d_gamma, mean_square, slack))
                min_slack = min(min_slack, slack)
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
        eigen = diagonalize(A)  # read by both site sets
        for X in ((0,), (1,)):
            rep = local_unitary_probe(eigen, ensemble, X, trials, trial_seed(seed, 10 + k))
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
            reports += [lieb_robinson_decay(op, model, t, range(n)) for op in targets]
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
    return [verify_fourier_pair(beta, omegas) for beta in betas]


def _finite(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _series_point(v) -> bool:
    # c = 0 or p = 0 divides by zero, and a negative a or b raises a negative
    # base to a fractional power
    if not (isinstance(v, list) and len(v) == 4 and all(map(_finite, v))):
        return False
    a, b, c, p = v
    try:  # a point whose bounds overflow, or that needs too many terms, is refused
        return a >= 0 and b >= 0 and c > 0 and p > 0 and bool(_series_terms(a, b, c, p))
    except (OverflowError, ValueError):
        return False


# The kinds of value a suite key takes, as (predicate, hint); a list's kind is
# built from its entries' kind.
GRID = nonempty_list_of((_finite, "finite number"))
BETA = (lambda v: _finite(v) and 0 <= v <= BETA_MAX, "finite number >= 0 with a finite square")
BETAS = nonempty_list_of(BETA)
# keeps the family's budget 100 eps^2, and beta * mu with it, far inside the float range
EPSILONS = nonempty_list_of((lambda v: _finite(v) and 0 < v <= 1e152, "number in (0, 1e152]"))
# both energy windows are nonempty, and y > x, only below half the spectral width
FRACTIONS = nonempty_list_of((lambda v: _finite(v) and 0 <= v < 0.5, "finite number in [0, 0.5)"))
POINT = (
    _series_point,
    "[a, b, c, p] list of finite numbers with a, b >= 0, c, p > 0, "
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
        _suite_strong_convexity, {"betas": (BETAS, [0.2, 1.0, 3.0]), "trials": (POSITIVE_INT, 10)}
    ),
    "infinite-temp": Suite(
        _suite_infinite_temp, {"betas": (BETAS, [0.5, 1.0, 2.0]), "directions": (POSITIVE_INT, 3)}
    ),
    "akl": Suite(_suite_akl, {"window_fractions": (FRACTIONS, [0.15, 0.25, 0.35])}),
    "delta-gamma": Suite(_suite_delta_gamma, {"betas": (BETAS, [0.5, 2.0])}),
    "local-unitary": Suite(
        _suite_local_unitary, {"trials": (POSITIVE_INT, 6), "beta": (BETA, 1.0)}
    ),
    "lr-decay": Suite(_suite_lr_decay, {"times": (GRID, [0.25, 0.75])}),
    # None: verify_sum_bounds' own 27-point grid
    "sum-bounds": Suite(_suite_sum_bounds, {"points": (nonempty_list_of(POINT), None)}),
    "lower-bound": Suite(
        _suite_lower_bound,
        {
            "sizes": (nonempty_list_of(POSITIVE_INT), [1, 2, 4, 8]),
            "betas": (BETAS, [0.5, 1.0]),
            "epsilons": (EPSILONS, [0.1, 0.5]),
        },
    ),
    "fourier": Suite(
        _suite_fourier,
        {
            "betas": (nonempty_list_of(POSITIVE_BETA), [0.5, 1.0, 2.0]),  # f_time divides by beta
            "omegas": (GRID, [*np.linspace(-8.0, 8.0, 33), 1e-9, 1e-6, 1e-3]),
        },
    ),
}
