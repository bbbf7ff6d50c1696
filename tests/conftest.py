import functools
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import logsumexp

from gibbslearn import lab
from gibbslearn.gibbs import GibbsEnsemble, diagonalize, gibbs, marginals, spectrum
from gibbslearn.lattice import LatticeSpec, basis_stack, enumerate_basis, random_chain, to_dense

# Hypothesis's pytest plugin imports this module when a test fails, and it
# imports libcst, which warns a DeprecationWarning from mypy_extensions; the
# error filter in pyproject.toml would turn that into an INTERNALERROR that
# ends the session.  Imported once here, the warning cannot recur.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors(monkeypatch):
    """The CLI processes a test starts, sweep workers included, treat a
    RuntimeWarning as an error, as pyproject.toml makes this process do."""
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")


# the memory-budget refusal names the bytes needed and the bytes available
BUDGET_MESSAGE = r"memory budget exceeded: .* need [\d.]+ GB, but this machine has [\d.]+ GB"


def chain_basis(n: int, kappa: int = 2):
    return enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), kappa)


def random_chain_model(n: int, seed: int, scale: float = 1.0, kappa: int = 2):
    return random_chain(n, kappa, seed, scale)


def raises_before_allocating(call):
    """Assert `call` fails the memory budget while allocating almost nothing."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=BUDGET_MESSAGE):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@st.composite
def small_bases(draw):
    """Bases of kappa <= 3 on open or periodic chains and 2D grids of at most 6 sites."""
    periodic = draw(st.booleans())
    if draw(st.booleans()):
        lattice = LatticeSpec(1, (draw(st.integers(2, 6)),), periodic)
    else:
        sides = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
        lattice = LatticeSpec(2, sides, periodic)
    return enumerate_basis(lattice, draw(st.integers(1, min(3, lattice.n_sites))))


# bases whose x = 0 group, or whose kappa = 3 z-masks, span more sites than one
# cell of PauliTable.sandwich covers, so that cells split; at kappa = 4, elements
# whose own z-mask covers 4 sites take the lone-element path
SPLIT_CELL_BASES = {
    "open-chain4-kappa4": enumerate_basis(LatticeSpec(1, (4,)), 4),
    "open-chain5-kappa3": enumerate_basis(LatticeSpec(1, (5,)), 3),
    "open-chain5-kappa2": enumerate_basis(LatticeSpec(1, (5,)), 2),
    "periodic-2x2": enumerate_basis(LatticeSpec(2, (2, 2), periodic=True), 2),
}


def dense_basis(basis):
    """The (m, 2^n, 2^n) oracle stack, one `to_dense` matrix per basis element."""
    return np.array([to_dense(op, basis.lattice) for op in basis.ops])


def dense_log_partition(model, beta: float) -> float:
    """log Z of H(mu) summed from the oracle stack, from its eigvalsh spectrum."""
    H = np.tensordot(model.mu, dense_basis(model.basis), axes=1)
    return float(logsumexp(-beta * np.linalg.eigvalsh(H)))


def grad_logZ(model, beta: float) -> np.ndarray:
    """Gradient of log Z in the coefficients: component l is -beta * Tr[E_l rho]."""
    ensemble = gibbs(spectrum(model), beta)
    return -beta * marginals(basis_stack(model.basis), ensemble)


def dense_marginal(E: np.ndarray, ensemble) -> float:
    """Tr[E rho] of a dense matrix E, with rho summed from the ensemble's eigenpairs."""
    V = ensemble.spectral.vectors
    rho = (V * ensemble.weights) @ V.conj().T
    return float(np.trace(E @ rho).real)


class SpectralConcentration(NamedTuple):
    """rho's weight outside A_c's [-gamma, gamma] eigenvalue window, and <A_c^2>."""

    delta_gamma: float
    mean_square: float
    slack: float  # mean_square - gamma^2 delta_gamma, >= 0 for every gamma


def delta_gamma(A: np.ndarray, ensemble, gamma: float) -> SpectralConcentration:
    """The `delta-gamma` suite's numbers for a caller's A at one gamma >= 0.

    A is centered to A_c = A - Tr[A rho] first; delta_gamma = Tr[Q_gamma rho],
    clipped to 1, is rho's weight outside the window, and <A_c^2> >=
    gamma^2 delta_gamma follows.  The arithmetic is the suite's, step for step.
    """
    evals, weights = lab._centered(diagonalize(A), ensemble)
    d_gamma = min(float(weights[np.abs(evals) > gamma].sum()), 1.0)
    mean_square = float(weights @ evals**2)
    return SpectralConcentration(d_gamma, mean_square, mean_square - float(gamma) ** 2 * d_gamma)


def random_state(dim: int, rank: int, rng) -> np.ndarray:
    """A density matrix of the given rank with Haar-like random eigenvectors."""
    G = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rho_formed(monkeypatch):
    """The ensembles whose dense rho is formed while the test runs, one entry per formation."""
    formed = []
    form = GibbsEnsemble.rho.func

    def counted(ensemble):
        formed.append(ensemble)
        return form(ensemble)

    rho = functools.cached_property(counted)
    rho.__set_name__(GibbsEnsemble, "rho")
    monkeypatch.setattr(GibbsEnsemble, "rho", rho)
    return formed


@pytest.fixture
def two_qubit_basis():
    return chain_basis(2)


@pytest.fixture
def three_qubit_basis():
    return chain_basis(3)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
