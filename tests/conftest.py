import tracemalloc

import numpy as np
import pytest

from gibbslearn.lattice import HamiltonianModel, LatticeSpec, enumerate_basis

ACCEPTANCE_LINES: list[str] = []

# the memory-budget refusal names the bytes needed and the bytes available
BUDGET_MESSAGE = r"memory budget exceeded: .* need [\d.]+ GB, but this machine has [\d.]+ GB"


def chain_basis(n: int, kappa: int = 2):
    return enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), kappa)


def random_chain_model(n: int, seed: int, scale: float = 1.0, kappa: int = 2):
    basis = chain_basis(n, kappa)
    mu = np.random.default_rng(seed).uniform(-1.0, 1.0, basis.m) * scale
    return HamiltonianModel(basis=basis, mu=mu)


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
