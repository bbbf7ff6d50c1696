"""Exact thermal states: spectral decomposition, weights, marginals, variances.

Everything downstream consumes the eigensystems and states built here:
`diagonalize` is the package's one `eigh`, and `GibbsEnsemble.rho` forms a
dense thermal state, once per ensemble.  `spectrum(model)` builds a model's
eigensystem once for the callers that share it; `diagonalize` is for the
matrices no model names (the solver's iterates, a caller's H or observable)
and for a caller that must let its eigensystem go early (`learn`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import HamiltonianModel, PauliTable, basis_stack, check_dense_budget

__all__ = [
    "DIAGONALIZE_MATRICES",
    "SpectralDecomposition",
    "GibbsEnsemble",
    "diagonalize",
    "spectrum",
    "gibbs",
    "gibbs_state",
    "log_sum_exp",
    "marginals",
    "variance",
]

HERMITICITY_TOL = 1e-8
VARIANCE_CLAMP = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of H."""

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.energies.flags.writeable = False
        self.vectors.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """Normalized thermal weights r_j = exp(-beta*E_j - log_Z) over an eigensystem."""

    spectral: SpectralDecomposition
    beta: float
    log_z: float
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.weights.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.spectral.dim

    @cached_property
    def rho(self) -> np.ndarray:
        """Dense rho = sum_j r_j |j><j|, formed on first read and kept, read-only."""
        V = self.spectral.vectors
        rho = (V * self.weights) @ V.conj().T
        rho.flags.writeable = False
        return rho


# Dense 2^n x 2^n matrices alive while `diagonalize` runs: H, eigh's copy of
# it, V, and LAPACK's complex and real workspaces (zheevd's N^2 and 2N^2).
DIAGONALIZE_MATRICES = 5


def diagonalize(H: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, the package's one `eigh`.

    Only the lower triangle of H is read: callers hand in matrices that are
    Hermitian by construction (`PauliTable.combine`), and `gibbs_state`
    checks the ones that come from outside.
    """
    energies, vectors = np.linalg.eigh(_square(H))
    return SpectralDecomposition(energies, vectors)


# The last model spectrum() built, held weakly, and its eigensystem.
_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def spectrum(model: HamiltonianModel) -> SpectralDecomposition:
    """The eigensystem of H(mu), shared by the callers that ask for one model.

    Cached: a model is frozen and hashed by identity, so the callers that ask
    for the same model in a row share one (read-only) diagonalization.  The
    cache keeps one entry, keyed weakly, so an eigensystem is dropped when
    its model dies or before the next model is diagonalized, whichever comes
    first.  It checks the memory budget before it assembles H: the table
    and DIAGONALIZE_MATRICES, which also cover rho's 4 (`GibbsEnsemble.rho`).
    """
    cached = _SPECTRA.get(model)
    if cached is None:
        _SPECTRA.clear()
        table = basis_stack(model.basis)
        check_dense_budget(DIAGONALIZE_MATRICES + table.matrices, model.n_sites)
        cached = _SPECTRA[model] = diagonalize(table.combine(model.mu))
    return cached


def _square(H) -> np.ndarray:
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    return H


def log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a nonempty real vector, shifted by its maximum.

    The maxima are taken out of the sum and added back through log1p and the
    log of their count (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41,
    2021), so the result does not overflow and keeps full precision when one
    term dominates.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    top = a == a_max
    count = float(np.count_nonzero(top))
    shifted = np.exp(a - a_max)
    shifted[top] = 0.0
    return float(np.log1p(shifted.sum() / count) + np.log(count) + a_max)


def gibbs(spectral: SpectralDecomposition, beta: float) -> GibbsEnsemble:
    """Thermal ensemble at inverse temperature beta >= 0.

    Weights come from log-sum-exp-shifted exponentials, so large beta*||H||
    does not overflow.
    """
    beta = float(beta)
    if not np.isfinite(beta):
        raise ValueError(f"inverse temperature must be finite, got {beta}")
    if beta < 0:
        raise ValueError(f"negative inverse temperature: beta={beta}")
    exponents = -beta * spectral.energies
    log_z = log_sum_exp(exponents)
    weights = np.exp(exponents - log_z)
    return GibbsEnsemble(spectral, beta, log_z, weights)


def gibbs_state(H: np.ndarray, beta: float) -> GibbsEnsemble:
    """Thermal ensemble of a caller's matrix; rejects non-Hermitian input."""
    H = _square(H)
    if H.size:
        scale = max(1.0, float(np.max(np.abs(H))))
        defect = float(np.max(np.abs(H - H.conj().T)))
        if defect > HERMITICITY_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max|H - H^dag| = {defect:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e} * max|H|"
            )
    return gibbs(diagonalize(H), beta)


def marginals(stack: PauliTable, ensemble: GibbsEnsemble) -> np.ndarray:
    """Tr[E_l rho] for every element of a basis table (`lattice.basis_stack`)."""
    return stack.expectations(ensemble.rho)


def variance(O: np.ndarray, ensemble: GibbsEnsemble) -> float:
    """Var_rho[O] = Tr[O^2 rho] - Tr[O rho]^2 of a matrix O, clamped to 0 below 1e-10 noise."""
    V = ensemble.spectral.vectors
    A = V.conj().T @ O @ V  # energy basis
    mean = float(np.real(np.dot(ensemble.weights, np.diagonal(A))))
    second = float(np.real(np.dot(ensemble.weights, np.einsum("jk,kj->j", A, A))))
    var = second - mean * mean
    if var < -VARIANCE_CLAMP:
        raise ValueError(f"variance {var:.3e} is negative beyond numerical noise")
    return max(var, 0.0)
