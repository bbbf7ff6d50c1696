import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from gibbslearn.gibbs import (
    diagonalize,
    gibbs,
    gibbs_state,
    log_sum_exp,
    marginals,
    spectrum,
    variance,
)
from gibbslearn.lattice import HamiltonianModel, assemble_hamiltonian, basis_stack, pauli_matrix

from conftest import dense_basis, dense_marginal, random_chain_model

Z = pauli_matrix("Z")
X = pauli_matrix("X")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 300),
    st.floats(0.0, 1e3),
    st.floats(-1e3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_log_sum_exp_matches_scipy(size, spread, shift, seed):
    # spreads up to beta*||H|| ~ 1e3; sizes down to one element
    a = shift + spread * np.random.default_rng(seed).uniform(-1.0, 0.0, size)
    ref = float(logsumexp(a))
    assert log_sum_exp(a) == pytest.approx(ref, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("size", [1, 2, 7, 1024])
@pytest.mark.parametrize("value", [-700.0, 0.0, 3.25, 800.0])
def test_log_sum_exp_of_equal_entries(size, value):
    a = np.full(size, value)
    assert log_sum_exp(a) == pytest.approx(float(logsumexp(a)), rel=1e-13)
    assert log_sum_exp(a) == pytest.approx(value + np.log(size), rel=1e-13)


def test_single_qubit_partition_function():
    # H = mu*Z has log Z = log(2 cosh(beta*mu))
    for mu in (0.3, -0.8, 1.0):
        for beta in (0.2, 1.0, 3.0):
            ens = gibbs_state(mu * Z, beta)
            assert ens.log_z == pytest.approx(
                np.log(2 * np.cosh(beta * mu)), rel=1e-14
            )


def test_single_qubit_marginal_is_minus_tanh():
    ens = gibbs_state(Z, 1.0)
    assert dense_marginal(Z, ens) == pytest.approx(-np.tanh(1.0), abs=1e-14)
    assert dense_marginal(Z, ens) == pytest.approx(-0.7615941559557649, abs=1e-15)
    # X has no diagonal part in the Z eigenbasis
    assert dense_marginal(X, ens) == pytest.approx(0.0, abs=1e-14)


def test_beta_zero_is_maximally_mixed():
    model = random_chain_model(3, seed=5)
    ens = gibbs_state(assemble_hamiltonian(model), 0.0)
    np.testing.assert_allclose(ens.weights, np.full(8, 1 / 8))
    np.testing.assert_allclose(ens.rho, np.eye(8) / 8, atol=1e-15)


def test_gibbs_rejects_bad_beta():
    spec = diagonalize(Z)
    with pytest.raises(ValueError):
        gibbs(spec, -0.5)
    with pytest.raises(ValueError):
        gibbs(spec, float("nan"))


def test_gibbs_state_rejects_non_hermitian():
    # a caller's matrix is checked; diagonalize reads one triangle of the
    # table-built H, which test_lattice pins Hermitian
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        gibbs_state(M, 1.0)
    for call in (diagonalize, lambda H: gibbs_state(H, 1.0)):
        with pytest.raises(ValueError, match="square"):
            call(np.zeros((2, 3)))


def test_spectral_reconstruction():
    model = random_chain_model(2, seed=1)
    H = assemble_hamiltonian(model)
    spec = diagonalize(H)
    V = spec.vectors
    np.testing.assert_allclose((V * spec.energies) @ V.conj().T, H, atol=1e-12)
    assert np.all(np.diff(spec.energies) >= 0)


def test_spectrum_is_built_once_per_model():
    model = random_chain_model(3, seed=4)
    first = spectrum(model)
    assert spectrum(model) is first
    # hashed by identity: an equal mu in a distinct model is a distinct model
    twin = HamiltonianModel(model.basis, model.mu)
    assert spectrum(twin) is not first
    reference = diagonalize(assemble_hamiltonian(model))
    for spec in (first, spectrum(twin)):
        np.testing.assert_array_equal(spec.energies, reference.energies)
        np.testing.assert_array_equal(spec.vectors, reference.vectors)


def test_spectrum_dies_with_its_model_and_keeps_one_entry():
    model = random_chain_model(3, seed=4)
    eigensystem = weakref.ref(spectrum(model))
    assert eigensystem() is not None
    del model
    assert eigensystem() is None
    # several live models hold at most the last one's eigensystem
    first, second = random_chain_model(3, seed=5), random_chain_model(3, seed=6)
    eigensystem = weakref.ref(spectrum(first))
    spectrum(second)
    assert eigensystem() is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 5.0))
def test_weights_normalized(seed, beta) -> None:
    model = random_chain_model(2, seed=seed)
    ens = gibbs_state(assemble_hamiltonian(model), beta)
    assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(ens.weights >= 0)


def test_density_matrix_is_a_state():
    model = random_chain_model(3, seed=9)
    ens = gibbs_state(assemble_hamiltonian(model), 1.3)
    rho = ens.rho
    assert ens.rho is rho and not rho.flags.writeable  # formed once, shared read-only
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-14


def test_marginals_stack_matches_loop():
    model = random_chain_model(3, seed=2)
    basis = model.basis
    ens = gibbs_state(assemble_hamiltonian(model), 0.7)
    stack = basis_stack(basis)
    vec = marginals(stack, ens)
    for E, value in zip(dense_basis(basis), vec):
        assert value == pytest.approx(dense_marginal(E, ens), abs=1e-12)
    assert np.all(np.abs(vec) <= 1 + 1e-12)


def test_variance_identity_is_zero():
    # Var of a multiple of the identity must clamp exactly to zero
    model = random_chain_model(2, seed=4)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    assert variance(3.0 * np.eye(4), ens) == 0.0


def test_variance_maximally_mixed_pauli():
    # at beta=0 every pauli string has mean 0 and second moment 1
    model = random_chain_model(2, seed=4)
    ens = gibbs_state(assemble_hamiltonian(model), 0.0)
    for E in dense_basis(model.basis):
        assert variance(E, ens) == pytest.approx(1.0, abs=1e-12)


def test_variance_large_beta_ground_state():
    # deep in the ground state of Z the variance of Z vanishes
    ens = gibbs_state(Z, 50.0)
    assert variance(Z, ens) == pytest.approx(0.0, abs=1e-12)
