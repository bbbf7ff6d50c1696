"""The quantum belief propagation filter and the exact Hessian of log Z.

The central object is the filter

    f_tilde(omega) = tanh(beta*omega/2) / (beta*omega/2)

`gap_filter` evaluates it on every energy gap of a spectrum.  Weighted by the
Gibbs weights, that matrix turns the energy-basis elements of the basis
operators into the Hessian of log Z, which is what a learn's dual solve runs.
`min_eigenvalue` reads its least eigenvalue.

All gap arithmetic happens in the energy basis.  The filtered operators, the
filter's time-domain form and the quadrature that checks the pair live in
`lab`.
"""

from __future__ import annotations

import numpy as np

from .gibbs import DIAGONALIZE_MATRICES, SpectralDecomposition, gibbs, spectrum
from .lattice import HamiltonianModel, OperatorBasis, basis_stack, check_dense_budget

__all__ = [
    "f_tilde",
    "gap_filter",
    "hessian_matrices",
    "hessian_logZ",
    "min_eigenvalue",
]


def f_tilde(omega, beta: float) -> np.ndarray | float:
    """Spectral filter tanh(x)/x at x = beta*omega/2; even, values in (0, 1].

    Below |beta*omega| = 1e-6 the two-term series 1 - (beta*omega)^2/12 is used
    to avoid 0/0, so beta = 0 gives exactly 1; each formula reads its own gaps
    only, so a large gap never overflows the series.  A negative, NaN or
    infinite beta is refused.
    """
    if not (beta >= 0 and np.isfinite(beta)):
        raise ValueError(f"filter beta must be finite and >= 0, got {beta}")
    bw = beta * np.asarray(omega, dtype=float)
    small = np.abs(bw) < 1e-6
    # dummies: 1.0 avoids a 0/0 in tanh(x)/x, and 0.0 an overflow in the series
    x = np.where(small, 1.0, bw / 2.0)
    series = np.where(small, bw, 0.0)
    out = np.where(small, 1.0 - series * series / 12.0, np.tanh(x) / x)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def gap_filter(
    spectral: SpectralDecomposition, beta: float, rows=slice(None), cols=slice(None)
) -> np.ndarray:
    """Matrix f_tilde(E_j - E_k) over energies j in `rows`, k in `cols`."""
    energies = spectral.energies
    return f_tilde(energies[rows, None] - energies[None, cols], beta)


def min_eigenvalue(H: np.ndarray) -> float:
    """Least eigenvalue of a symmetric m x m matrix, from one `eigvalsh`; 0 when m = 0."""
    return float(np.linalg.eigvalsh(H)[0]) if H.size else 0.0


SLAB_BUDGET = 16  # entries per slab of the Hessian kernel, in full rows of 2^n


def hessian_matrices(basis: OperatorBasis) -> int:
    """Dense 2^n x 2^n matrices `_hessian_core` holds at once on a basis.

    Its peak is one slab, A_l[J, lo:] for every l.  Each slab takes as many
    rows as keep it within b 2^n complex entries per element, b =
    min(SLAB_BUDGET, 2^n), so the slabs widen as the columns narrow.  Next to
    it sit three real m x m Gram matrices (the running sum, the last slab's
    and the new one's).  Counted in bytes, they take
    ceil((16 m b 2^n + 24 m^2) / (16 * 4^n)) matrices.  To these come
    DIAGONALIZE_MATRICES, for the caller's `eigh` of H, and the basis table's
    own `matrices`.  DIAGONALIZE_MATRICES also covers the caller's V, which
    the kernel reads, the slab's row block, the rows of V that `PauliTable.sandwich`
    gathers for a cell (at most one matrix), a cell's parts (at most
    2^CELL_SITES b 2^n <= 128 * 2^n entries, one matrix from n = 7 on), and
    numpy's buffers.  Builds the table, which `basis_stack` checks first.
    """
    m, dim = basis.m, 2**basis.lattice.n_sites
    held = 16 * m * min(SLAB_BUDGET, dim) * dim + 3 * 8 * m * m  # bytes
    return DIAGONALIZE_MATRICES + -(-held // (16 * dim * dim)) + basis_stack(basis).matrices


def _hessian_core(basis, spectral: SpectralDecomposition, beta: float) -> np.ndarray:
    """Hessian of log Z at the point lam whose H(lam) has the eigensystem `spectral`."""
    m = basis.m
    table = basis_stack(basis)
    check_dense_budget(hessian_matrices(basis), basis.lattice.n_sites)
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
    return matrix


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


def hessian_logZ(model: HamiltonianModel, beta: float) -> np.ndarray:
    """Exact Hessian of log Z via the filtered anticommutator identity.

    Entry (j, k) is (beta^2/2) Tr[{E_j, Phi(E_k)} rho] - beta^2 e_j e_k, with
    Phi the gap filter of `lab.qbp_transform`.  In the energy basis it reduces
    to a weighted elementwise product of the two operators' matrix elements, read from
    `spectrum(model)` once the memory budget has admitted the Hessian.
    """
    check_dense_budget(hessian_matrices(model.basis), model.n_sites)
    return _hessian_core(model.basis, spectrum(model), float(beta))
