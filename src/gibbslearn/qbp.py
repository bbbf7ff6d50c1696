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
from functools import cached_property

import numpy as np

from .gibbs import (
    DIAGONALIZE_MATRICES,
    SpectralDecomposition,
    diagonalize,
    gibbs,
    spectrum,
)
from .lattice import HamiltonianModel, OperatorBasis, basis_stack, check_dense_budget

__all__ = [
    "FilterKernel",
    "HessianReport",
    "FourierPairReport",
    "f_tilde",
    "f_time",
    "gap_filter",
    "hessian_matrices",
    "verify_fourier_pair",
    "qbp_transform",
    "hessian_logZ",
    "quasilocal_W",
]


@dataclass(frozen=True)
class FilterKernel:
    """Inverse-temperature parameter of the filter pair."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"kernel beta must be positive and finite, got {self.beta}")


def f_tilde(omega, kernel: FilterKernel) -> np.ndarray | float:
    """Spectral filter tanh(x)/x at x = beta*omega/2; even, values in (0, 1].

    Below |beta*omega| = 1e-6 the two-term series 1 - (beta*omega)^2/12 is used
    to avoid 0/0.
    """
    bw = kernel.beta * np.asarray(omega, dtype=float)
    small = np.abs(bw) < 1e-6
    x = np.where(small, 1.0, bw / 2.0)  # dummy 1.0 avoids a 0/0 warning
    out = np.where(small, 1.0 - bw * bw / 12.0, np.tanh(x) / x)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def f_time(t, kernel: FilterKernel) -> np.ndarray | float:
    """Time-domain filter; log-singular (but integrable) at t = 0.

    Evaluated as (2/(beta*pi)) * log1p(2/expm1(pi|t|/beta)), which stays finite
    all the way to the overflow range of exp.
    """
    beta = kernel.beta
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


def verify_fourier_pair(kernel: FilterKernel, omegas) -> FourierPairReport:
    """Compare the quadrature transform of f_time against f_tilde on a grid.

    Raises if the quadrature's own error estimate (step-halving comparison
    plus tail and cutoff bounds) exceeds QUAD_TOL -- a failed estimate means
    the reported errors would be meaningless, not that the pair is wrong.
    """
    beta = kernel.beta
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))

    n_steps = int(np.ceil((QUAD_T_MAX - QUAD_EPS) / QUAD_STEP))
    n_steps += n_steps % 2  # even count so the half-resolution grid shares endpoints
    ts = QUAD_EPS + QUAD_STEP * np.arange(n_steps + 1)
    f_ts = f_time(ts, kernel)

    phases = np.cos(np.outer(omegas, ts))
    integrand = phases * f_ts
    body = np.trapezoid(integrand, dx=QUAD_STEP, axis=1)
    correction = _near_zero_correction(omegas, beta, QUAD_EPS)
    numeric = 2.0 * (body + correction)

    # Error budget: Richardson step-halving difference, exponential tail
    # beyond t_max, and the dropped O(eps^5) terms of the cutoff correction.
    coarse = np.trapezoid(integrand[:, ::2], dx=2 * QUAD_STEP, axis=1)
    richardson = float(np.max(np.abs(body - coarse))) / 3.0
    tail = (4.0 / np.pi**2) * float(np.exp(-np.pi * QUAD_T_MAX / beta))
    cutoff = (
        (2.0 / (beta * np.pi))
        * (np.max(omegas) ** 4 / 24.0 + (np.pi / beta) ** 4 / 80.0)
        * QUAD_EPS**5
        * (abs(np.log(QUAD_EPS)) + 2.0)
    )
    estimate = 2.0 * (richardson + tail + cutoff)
    if estimate > QUAD_TOL:
        raise ValueError(
            f"quadrature did not converge: error estimate {estimate:.3e} "
            f"exceeds tolerance {QUAD_TOL:.0e}"
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


def gap_filter(
    spectral: SpectralDecomposition, beta: float, rows=slice(None), cols=slice(None)
) -> np.ndarray:
    """Matrix f_tilde(E_j - E_k) over energies j in `rows`, k in `cols`; all ones at beta = 0.

    Any other beta goes to FilterKernel, which refuses a negative or NaN one.
    """
    energies = spectral.energies
    gaps = energies[rows, None] - energies[None, cols]
    return np.ones_like(gaps) if beta == 0 else f_tilde(gaps, FilterKernel(beta))


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


@dataclass(frozen=True, eq=False)
class HessianReport:
    """Hessian of log Z at a coefficient point, with its extreme eigenvalue."""

    beta: float
    matrix: np.ndarray = field(repr=False)

    @cached_property
    def min_eigenvalue(self) -> float:
        """Least eigenvalue, from one `eigvalsh` on first read: a Newton step never reads it."""
        return float(np.linalg.eigvalsh(self.matrix)[0]) if self.matrix.size else 0.0


SLAB_BUDGET = 16  # entries per slab of the Hessian kernel, in full rows of 2^n


def hessian_matrices(basis: OperatorBasis) -> int:
    """Dense 2^n x 2^n matrices `_hessian_core` holds at once on a basis.

    Its peak is one slab, A_l[J, lo:] for every l.  Each slab takes as many
    rows as keep it within b 2^n complex entries per element, b =
    min(SLAB_BUDGET, 2^n), so the slabs widen as the columns narrow.  Next to
    it sit three real m x m Gram matrices (the running sum, the last slab's
    and the new one's).  Counted in bytes, they take
    ceil((16 m b 2^n + 24 m^2) / (16 * 4^n)) matrices.  To these come
    DIAGONALIZE_MATRICES, for the `eigh` of H before the first slab exists,
    and the basis table's own `matrices`.  DIAGONALIZE_MATRICES also covers
    V, the slab's row block, the rows of V that `PauliTable.sandwich`
    gathers for a cell (at most one matrix), a cell's parts (at most
    2^CELL_SITES b 2^n <= 128 * 2^n entries, one matrix from n = 7 on), and
    numpy's buffers.  Builds the table, which `basis_stack` checks first.
    """
    m, dim = basis.m, 2**basis.lattice.n_sites
    held = 16 * m * min(SLAB_BUDGET, dim) * dim + 3 * 8 * m * m  # bytes
    return DIAGONALIZE_MATRICES + -(-held // (16 * dim * dim)) + basis_stack(basis).matrices


def _hessian_core(
    basis, lam: np.ndarray, beta: float, spectral: SpectralDecomposition | None = None
) -> HessianReport:
    """Hessian of log Z at lam; `spectral`, when given, is the eigensystem of H(lam)."""
    lam = np.asarray(lam, dtype=float)
    m = basis.m
    table = basis_stack(basis)
    check_dense_budget(hessian_matrices(basis), basis.lattice.n_sites)
    if spectral is None:
        spectral = diagonalize(table.combine(lam))
    r = gibbs(spectral, beta).weights
    gram = np.zeros((m, m))
    e = np.zeros(m)
    # one slab of energy rows alive at a time, of at most SLAB_BUDGET * dim
    # entries of each A_l[J, lo:]: the rows widen as the columns narrow
    dim, lo = spectral.dim, 0
    while lo < dim:
        hi = lo + max(1, SLAB_BUDGET * dim // (dim - lo))
        slab_gram, slab_e = _slab(table, spectral, r, beta, slice(lo, hi))
        gram += slab_gram
        e += slab_e
        lo = hi
    matrix = 0.5 * beta**2 * gram
    matrix -= beta**2 * np.outer(e, e)
    return HessianReport(beta=float(beta), matrix=matrix)


def _slab(table, spectral, r, beta, J: slice) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and e_l contributions of energy rows J of every A_l = V^dag E_l V.

    Entry (k, l) of the Gram matrix is sum_ij w[i,j] Re A_k[i,j] conj(A_l[i,j])
    with w = f(E_i - E_j) (r_i + r_j), which is symmetric in i and j.  A_l is
    Hermitian, so the columns right of the diagonal block J x J stand in for
    their mirror below it at twice the weight, and only columns >= J.start
    are formed.  Scaled by sqrt(w), the slab's contribution is one real syrk.
    """
    V = spectral.vectors
    A = table.sandwich(V[:, J].conj().T, V[:, J.start :])
    rows = A.shape[1]
    e = A[:, np.arange(rows), np.arange(rows)].real @ r[J]
    root = gap_filter(spectral, beta, J, slice(J.start, None))
    root *= r[J, None] + r[None, J.start :]
    root[:, rows:] *= 2.0
    np.sqrt(root, out=root)
    A *= root
    B = A.reshape(A.shape[0], -1).view(float)
    return B @ B.T, e


def hessian_logZ(model: HamiltonianModel, beta: float) -> HessianReport:
    """Exact Hessian of log Z via the filtered anticommutator identity.

    Entry (j, k) is (beta^2/2) Tr[{E_j, Phi(E_k)} rho] - beta^2 e_j e_k, which
    in the energy basis reduces to a weighted elementwise product of the two
    operators' matrix elements.  It does not read `spectrum(model)`: the
    kernel diagonalizes only once the memory budget has admitted the Hessian.
    """
    return _hessian_core(model.basis, model.mu, float(beta))


def quasilocal_W(v, model: HamiltonianModel, beta: float) -> np.ndarray:
    """Filtered direction operator: qbp_transform of W = sum_l v_l E_l."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.basis.m,):
        raise ValueError(f"direction has shape {v.shape}, expected ({model.basis.m},)")
    W = basis_stack(model.basis).combine(v)
    return qbp_transform(W, spectrum(model), beta)
