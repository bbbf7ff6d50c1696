"""Energy-basis filtering transform and exact derivatives of log Z.

The central object is the filter pair

    spectral domain:  f_tilde(omega) = tanh(beta*omega/2) / (beta*omega/2)
    time domain:      f_time(t) = (2/(beta*pi)) * log((e^x+1)/(e^x-1)),  x = pi|t|/beta

`qbp_transform` multiplies an operator's energy-basis matrix elements by
f_tilde of the energy gap.  That one transform yields both the derivative of
the matrix exponential (hence the Hessian of log Z) and the filtered direction
operator whose thermal variance lower-bounds the Hessian quadratic form; the
two uses coincide because f_tilde is even.

All gap arithmetic happens in the energy basis; the time-domain form exists
only so the Fourier pair can be verified by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gibbs import SpectralDecomposition, diagonalize, gibbs, log_sum_exp, marginals
from .lattice import (
    HamiltonianModel,
    assemble_hamiltonian,
    basis_stack,
    check_dense_budget,
)

__all__ = [
    "FilterKernel",
    "HessianReport",
    "FourierPairReport",
    "QuadratureConfig",
    "f_tilde",
    "f_time",
    "gap_filter",
    "hessian_matrices",
    "verify_fourier_pair",
    "qbp_transform",
    "grad_logZ",
    "hessian_logZ",
    "quasilocal_W",
    "log_partition",
]


@dataclass(frozen=True)
class FilterKernel:
    """Inverse-temperature parameter of the filter pair."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"kernel beta must be positive and finite, got {self.beta}")


def _beta_of(kernel) -> float:
    return float(kernel.beta) if isinstance(kernel, FilterKernel) else float(kernel)


def f_tilde(omega, kernel) -> np.ndarray | float:
    """Spectral filter tanh(x)/x at x = beta*omega/2; even, values in (0, 1].

    Below |beta*omega| = 1e-6 the two-term series 1 - (beta*omega)^2/12 is used
    to avoid 0/0.
    """
    beta = _beta_of(kernel)
    bw = beta * np.asarray(omega, dtype=float)
    small = np.abs(bw) < 1e-6
    x = np.where(small, 1.0, bw / 2.0)  # dummy 1.0 avoids a 0/0 warning
    out = np.where(small, 1.0 - bw * bw / 12.0, np.tanh(x) / x)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def f_time(t, kernel) -> np.ndarray | float:
    """Time-domain filter; log-singular (but integrable) at t = 0.

    Evaluated as (2/(beta*pi)) * log1p(2/expm1(pi|t|/beta)), which stays finite
    all the way to the overflow range of exp.
    """
    beta = _beta_of(kernel)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr == 0.0):
        raise ValueError("kernel singular at origin: f_time is undefined at t=0")
    x = np.pi * np.abs(t_arr) / beta
    with np.errstate(over="ignore"):  # expm1 overflow -> inf -> log1p(0) = 0
        out = (2.0 / (beta * np.pi)) * np.log1p(2.0 / np.expm1(x))
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class QuadratureConfig:
    """Symmetric quadrature layout for the Fourier-pair check.

    The integrand is even, so the integral over [-T, T] is twice the integral
    over [0, T].  The log singularity at t=0 is excised on (0, eps) and
    replaced by the analytic integral of the local expansion
    f(t) ~ (2/(beta*pi)) * (log(2*beta/(pi*t)) + (pi*t/beta)^2 / 12).
    """

    t_max: float = 40.0
    step: float = 1e-3
    eps: float = 1e-2
    tol: float = 1e-4

    def __post_init__(self) -> None:
        if not (0 < self.step < self.eps < self.t_max):
            raise ValueError(
                f"require 0 < step < eps < t_max, got step={self.step}, "
                f"eps={self.eps}, t_max={self.t_max}"
            )


@dataclass(frozen=True, eq=False)
class FourierPairReport:
    beta: float
    omegas: np.ndarray = field(repr=False)
    numeric: np.ndarray = field(repr=False)
    exact: np.ndarray = field(repr=False)
    max_abs_error: float = 0.0
    quad_error_estimate: float = 0.0


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


def verify_fourier_pair(
    kernel, omegas, quad: QuadratureConfig | None = None
) -> FourierPairReport:
    """Compare the quadrature transform of f_time against f_tilde on a grid.

    Raises if the quadrature's own error estimate (step-halving comparison
    plus tail and cutoff bounds) exceeds quad.tol -- a failed estimate means
    the reported errors would be meaningless, not that the pair is wrong.
    """
    beta = _beta_of(kernel)
    quad = quad or QuadratureConfig()
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))

    n_steps = int(np.ceil((quad.t_max - quad.eps) / quad.step))
    n_steps += n_steps % 2  # even count so the half-resolution grid shares endpoints
    ts = quad.eps + quad.step * np.arange(n_steps + 1)
    f_ts = f_time(ts, kernel)

    phases = np.cos(np.outer(omegas, ts))
    integrand = phases * f_ts
    body = np.trapezoid(integrand, dx=quad.step, axis=1)
    correction = _near_zero_correction(omegas, beta, quad.eps)
    numeric = 2.0 * (body + correction)

    # Error budget: Richardson step-halving difference, exponential tail
    # beyond t_max, and the dropped O(eps^5) terms of the cutoff correction.
    coarse = np.trapezoid(integrand[:, ::2], dx=2 * quad.step, axis=1)
    richardson = float(np.max(np.abs(body - coarse))) / 3.0
    tail = (4.0 / np.pi**2) * float(np.exp(-np.pi * quad.t_max / beta))
    cutoff = (
        (2.0 / (beta * np.pi))
        * (np.max(omegas) ** 4 / 24.0 + (np.pi / beta) ** 4 / 80.0)
        * quad.eps**5
        * (abs(np.log(quad.eps)) + 2.0)
    )
    estimate = 2.0 * (richardson + tail + cutoff)
    if estimate > quad.tol:
        raise ValueError(
            f"quadrature did not converge: error estimate {estimate:.3e} "
            f"exceeds tolerance {quad.tol:.0e}"
        )

    exact = f_tilde(omegas, kernel)
    max_err = float(np.max(np.abs(numeric - exact)))
    return FourierPairReport(
        beta=beta,
        omegas=omegas,
        numeric=numeric,
        exact=np.atleast_1d(exact),
        max_abs_error=max_err,
        quad_error_estimate=estimate,
    )


def gap_filter(spectral: SpectralDecomposition, beta: float) -> np.ndarray:
    """Matrix f_tilde(E_j - E_k) over every pair of energies; all ones at beta = 0."""
    gaps = spectral.energies[:, None] - spectral.energies[None, :]
    return f_tilde(gaps, FilterKernel(beta)) if beta > 0 else np.ones_like(gaps)


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


def log_partition(model: HamiltonianModel, beta: float) -> float:
    """log Z at H(mu); cheap standalone evaluation for finite-difference oracles."""
    energies = np.linalg.eigvalsh(assemble_hamiltonian(model))
    return log_sum_exp(-beta * energies)


def grad_logZ(model: HamiltonianModel, beta: float) -> np.ndarray:
    """Gradient of log Z in the coefficients: component l is -beta * Tr[E_l rho]."""
    ensemble = gibbs(_spectral_of(model), beta)
    return -beta * marginals(basis_stack(model.basis), ensemble)


@dataclass(frozen=True, eq=False)
class HessianReport:
    """Hessian of log Z at a coefficient point, with its extreme eigenvalue."""

    lam: np.ndarray = field(repr=False)
    beta: float = 0.0
    matrix: np.ndarray = field(repr=False, default=None)
    min_eigenvalue: float = 0.0

    def to_dict(self, include_matrix: bool = False) -> dict:
        payload = {
            "lambda": [float(x) for x in self.lam],
            "beta": float(self.beta),
            "min_eig": float(self.min_eigenvalue),
        }
        if include_matrix:
            payload["matrix"] = [[float(x) for x in row] for row in self.matrix]
        return payload


def hessian_matrices(m: int) -> int:
    """Dense matrices `_hessian_core` holds at once.

    At its peak it holds m + 3.5: the energy-basis stack (m), V, V^dag, one
    product buffer and the real weight root.  The rest covers the table's
    (m, 2^n) index arrays and numpy's ufunc buffers; diagonalising H before
    the stack exists takes about 4.
    """
    return m + 5


def _hessian_core(basis, lam: np.ndarray, beta: float) -> HessianReport:
    lam = np.asarray(lam, dtype=float)
    m = basis.m
    check_dense_budget(hessian_matrices(m), basis.lattice.n_sites)
    table = basis_stack(basis)
    spectral = diagonalize(table.combine(lam))
    ensemble = gibbs(spectral, beta)
    r = ensemble.weights
    # sqrt(f(E_j - E_k) * (r_j + r_k)): symmetric in j and k, never negative
    root = gap_filter(spectral, beta)
    root *= r[:, None] + r[None, :]
    np.sqrt(root, out=root)
    V = spectral.vectors
    Vh = V.conj().T
    # energy-basis forms A_l = V^dag E_l V, built in place in one m-stack
    A = table.times(V)
    for block in A:
        block[...] = Vh @ block
    e = np.einsum("ljj,j->l", A, r).real
    # sum_jk A_l[j,k] A_m[k,j] w[j,k] = Re sum_jk (root A_l)[j,k] conj(root A_m)[j,k]
    # by Hermiticity, so the whole sum is one real Gram matrix (a syrk)
    A *= root
    B = A.reshape(m, -1).view(float)
    matrix = 0.5 * beta**2 * (B @ B.T)
    matrix -= beta**2 * np.outer(e, e)
    min_eig = float(np.linalg.eigvalsh(matrix)[0]) if matrix.size else 0.0
    return HessianReport(lam=lam.copy(), beta=float(beta), matrix=matrix, min_eigenvalue=min_eig)


def hessian_logZ(model: HamiltonianModel, beta: float) -> HessianReport:
    """Exact Hessian of log Z via the filtered anticommutator identity.

    Entry (j, k) is (beta^2/2) Tr[{E_j, Phi(E_k)} rho] - beta^2 e_j e_k, which
    in the energy basis reduces to a weighted elementwise product of the two
    operators' matrix elements.
    """
    return _hessian_core(model.basis, model.mu, float(beta))


def quasilocal_W(v, model: HamiltonianModel, beta: float) -> np.ndarray:
    """Filtered direction operator: qbp_transform of W = sum_l v_l E_l."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.basis.m,):
        raise ValueError(f"direction has shape {v.shape}, expected ({model.basis.m},)")
    W = basis_stack(model.basis).combine(v)
    return qbp_transform(W, _spectral_of(model), beta)


def _spectral_of(model: HamiltonianModel) -> SpectralDecomposition:
    return diagonalize(assemble_hamiltonian(model))
