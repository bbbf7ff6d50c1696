import dataclasses
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslearn import gibbs as gibbs_module
from gibbslearn import qbp
from gibbslearn.cli import main
from gibbslearn.gibbs import density_matrix, diagonalize, gibbs, gibbs_state, marginals
from gibbslearn.lattice import (
    HamiltonianModel,
    LatticeSpec,
    assemble_hamiltonian,
    basis_stack,
    check_dense_budget,
    enumerate_basis,
    pauli_matrix,
    save_model,
)
from gibbslearn.qbp import (
    FilterKernel,
    f_tilde,
    f_time,
    _hessian_core,
    grad_logZ,
    hessian_logZ,
    hessian_matrices,
    qbp_transform,
    quasilocal_W,
    verify_fourier_pair,
)

from conftest import (
    SPLIT_CELL_BASES,
    chain_basis,
    dense_basis,
    dense_log_partition,
    raises_before_allocating,
    random_chain_model,
)


def test_filter_kernel_validation():
    FilterKernel(beta=2.0)
    with pytest.raises(ValueError):
        FilterKernel(beta=0.0)
    with pytest.raises(ValueError):
        FilterKernel(beta=float("inf"))


def test_f_tilde_at_zero_and_parity():
    k = FilterKernel(beta=1.7)
    assert f_tilde(0.0, k) == 1.0
    for w in (0.3, 1.0, 4.0):
        assert f_tilde(w, k) == pytest.approx(f_tilde(-w, k), abs=0)
        x = 1.7 * w / 2
        assert f_tilde(w, k) == pytest.approx(np.tanh(x) / x, rel=1e-14)


@given(st.floats(-50, 50), st.floats(0.1, 5.0))
def test_f_tilde_range(omega, beta) -> None:
    val = f_tilde(omega, FilterKernel(beta=beta))
    assert 0 < val <= 1


def test_f_tilde_series_branch_is_continuous():
    # the series takes over below |beta*omega| = 1e-6; both branches must
    # agree there to machine precision
    k = FilterKernel(beta=1.0)
    below, above = 0.999999e-6, 1.000001e-6
    assert f_tilde(below, k) == pytest.approx(f_tilde(above, k), abs=1e-15)


def test_f_time_frozen_value_and_parity():
    k = FilterKernel(beta=1.0)
    assert f_time(1.0, k) == pytest.approx(0.05505595798253514, abs=1e-16)
    assert f_time(-2.3, k) == f_time(2.3, k)


def test_f_time_diverges_at_origin():
    with pytest.raises(ValueError):
        f_time(0.0, FilterKernel(beta=1.0))
    with pytest.raises(ValueError):
        f_time(np.array([0.5, 0.0]), FilterKernel(beta=1.0))


def test_f_time_positive_and_decaying():
    k = FilterKernel(beta=0.7)
    ts = np.geomspace(1e-4, 20, 50)
    vals = f_time(ts, k)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_fourier_pair_small_grid():
    report = verify_fourier_pair(FilterKernel(beta=1.0), np.linspace(-5, 5, 11))
    assert report.max_abs_error < 1e-4
    assert report.quad_error_estimate < 1e-4
    np.testing.assert_allclose(report.numeric, report.exact, atol=1e-4)


def test_fourier_pair_raises_on_large_omega():
    # at omega = 50 the step-halving and cutoff error terms exceed the
    # tolerance, so the check must refuse rather than report garbage errors
    with pytest.raises(ValueError, match="did not converge"):
        verify_fourier_pair(FilterKernel(beta=1.0), [0.0, 50.0])


def test_qbp_transform_identity_hamiltonian():
    # H = 0: all gaps vanish, filter is 1, operator passes through
    spec = diagonalize(np.zeros((4, 4)))
    rng = np.random.default_rng(12)
    O = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    O = O + O.conj().T
    np.testing.assert_allclose(qbp_transform(O, spec, 1.5), O, atol=1e-12)


def test_qbp_transform_scales_off_diagonals():
    # H = Z, O = X: X couples the two levels with gap 2
    spec = diagonalize(pauli_matrix("Z"))
    beta = 0.9
    out = qbp_transform(pauli_matrix("X"), spec, beta)
    expected = f_tilde(2.0, FilterKernel(beta=beta)) * pauli_matrix("X")
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("beta", [-1.0, float("nan")])
def test_qbp_transform_refuses_a_beta_that_is_neither_zero_nor_positive(beta):
    # only beta = 0 passes the operator through unfiltered
    spec = diagonalize(pauli_matrix("Z"))
    np.testing.assert_array_equal(qbp_transform(pauli_matrix("X"), spec, 0.0), pauli_matrix("X"))
    with pytest.raises(ValueError, match="kernel beta"):
        qbp_transform(pauli_matrix("X"), spec, beta)


def test_qbp_transform_preserves_hermiticity():
    model = random_chain_model(3, seed=8)
    spec = diagonalize(assemble_hamiltonian(model))
    rng = np.random.default_rng(0)
    O = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    O = O + O.conj().T
    out = qbp_transform(O, spec, 2.0)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_grad_is_minus_beta_marginals():
    model = random_chain_model(3, seed=3)
    beta = 1.4
    ens = gibbs_state(assemble_hamiltonian(model), beta)
    expected = -beta * marginals(basis_stack(model.basis), ens)
    np.testing.assert_allclose(grad_logZ(model, beta), expected, atol=1e-13)


def test_grad_matches_finite_differences():
    model = random_chain_model(2, seed=6)
    beta = 0.8
    g = grad_logZ(model, beta)
    h = 1e-6
    for j in (0, 4, 11):
        mu_p, mu_m = model.mu.copy(), model.mu.copy()
        mu_p[j] += h
        mu_m[j] -= h
        fd = (
            dense_log_partition(dataclasses.replace(model, mu=mu_p), beta)
            - dense_log_partition(dataclasses.replace(model, mu=mu_m), beta)
        ) / (2 * h)
        assert g[j] == pytest.approx(fd, abs=1e-8)


def test_hessian_at_zero_coupling_is_isotropic():
    model = random_chain_model(2, seed=0)
    zero = dataclasses.replace(model, mu=np.zeros(model.basis.m))
    for beta in (0.5, 2.0):
        report = hessian_logZ(zero, beta)
        np.testing.assert_allclose(
            report.matrix, beta**2 * np.eye(model.basis.m), atol=1e-12
        )
        assert report.min_eigenvalue == pytest.approx(beta**2, rel=1e-10)


@st.composite
def hessian_models(draw):
    """Open or periodic chains of n <= 4 and the 2x2 grid, kappa <= 2, mu in the unit box."""
    if draw(st.booleans()):
        lattice = LatticeSpec(1, (draw(st.integers(2, 4)),), draw(st.booleans()))
    else:
        lattice = LatticeSpec(2, (2, 2))
    basis = enumerate_basis(lattice, draw(st.integers(1, 2)))
    mu = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, basis.m)
    return HamiltonianModel(basis=basis, mu=mu)


@settings(max_examples=30, deadline=None)
@given(hessian_models(), st.floats(0.1, 3.0), st.sampled_from([1, 2, 3, 4, 32]))
def test_hessian_kernel_matches_dense_oracle(model, beta, slab_rows):
    # slabs of 1-4 rows split the n <= 4 spectra into several slabs, some ragged
    # entry (j, k) = (beta^2/2) Re Tr[{E_j, Phi(E_k)} rho] - beta^2 e_j e_k, from dense matrices
    dense = dense_basis(model.basis)
    spectral = diagonalize(np.tensordot(model.mu, dense, axes=1))
    rho = density_matrix(gibbs(spectral, beta))
    phi = np.array([qbp_transform(E, spectral, beta) for E in dense])
    e = np.einsum("lab,ba->l", dense, rho).real
    anti = np.einsum("jab,kba->jk", dense, phi @ rho) + np.einsum("kab,jba->jk", phi, dense @ rho)
    oracle = 0.5 * beta**2 * anti.real - beta**2 * np.outer(e, e)

    with mock.patch.object(qbp, "SLAB_ROWS", slab_rows):
        report = _hessian_core(model.basis, model.mu, beta)
    np.testing.assert_allclose(report.matrix, oracle, rtol=0, atol=1e-12)
    assert np.array_equal(report.matrix, report.matrix.T)
    assert abs(report.min_eigenvalue - np.linalg.eigvalsh(oracle)[0]) <= 1e-12


@pytest.mark.parametrize("slab_rows", [1, 3, 32])
@pytest.mark.parametrize("basis", SPLIT_CELL_BASES.values(), ids=SPLIT_CELL_BASES.keys())
def test_hessian_kernel_matches_dense_oracle_where_cells_split(basis, slab_rows):
    beta = 1.3
    mu = np.random.default_rng(11).uniform(-1.0, 1.0, basis.m)
    dense = dense_basis(basis)
    spectral = diagonalize(np.tensordot(mu, dense, axes=1))
    rho = density_matrix(gibbs(spectral, beta))
    phi = np.array([qbp_transform(E, spectral, beta) for E in dense])
    e = np.einsum("lab,ba->l", dense, rho).real
    anti = np.einsum("jab,kba->jk", dense, phi @ rho) + np.einsum("kab,jba->jk", phi, dense @ rho)
    oracle = 0.5 * beta**2 * anti.real - beta**2 * np.outer(e, e)

    with mock.patch.object(qbp, "SLAB_ROWS", slab_rows):
        report = _hessian_core(basis, mu, beta)
    np.testing.assert_allclose(report.matrix, oracle, rtol=0, atol=1e-12)


def test_hessian_kernel_peak_memory_within_its_count():
    # from n = 7 on, dense matrices outweigh numpy's fixed ufunc buffers;
    # one slab of energy rows is alive at a time, never the m-stack
    model = random_chain_model(7, seed=3)
    basis_stack(model.basis)  # the cached table is not the kernel's
    _hessian_core(model.basis, model.mu, 1.3)
    matrix_bytes = 4**7 * 16
    tracemalloc.start()
    try:
        _hessian_core(model.basis, model.mu, 1.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= hessian_matrices(model.basis.m, 7) * matrix_bytes
    assert peak < model.basis.m * matrix_bytes


def test_hessian_reuses_a_given_eigensystem():
    model = random_chain_model(6, seed=4)
    spectral = diagonalize(assemble_hamiltonian(model))
    own = _hessian_core(model.basis, model.mu, 0.9)
    reused = _hessian_core(model.basis, model.mu, 0.9, spectral)
    np.testing.assert_array_equal(reused.matrix, own.matrix)


def test_hessian_symmetric_and_positive():
    model = random_chain_model(3, seed=13)
    report = hessian_logZ(model, 1.2)
    H = report.matrix
    assert np.array_equal(H, H.T)
    assert report.min_eigenvalue > 0
    assert np.linalg.eigvalsh(H).min() == pytest.approx(
        report.min_eigenvalue, rel=1e-9, abs=1e-12
    )


def test_hessian_budget_refuses_before_allocating():
    # open n=20 chain: 6 matrices of 17.6 TB each
    model = random_chain_model(20, seed=1)
    raises_before_allocating(lambda: hessian_logZ(model, 1.0))


def test_hessian_refusal_comes_before_any_diagonalization(tmp_path, monkeypatch):
    # 4 MiB of memory: one n = 7 matrix (256 KiB) fits, the Hessian's 24 do not
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
    model = random_chain_model(7, seed=1)
    save_model(model, tmp_path / "model.json")
    cfg = tmp_path / "hessian.json"
    cfg.write_text(json.dumps({"model": str(tmp_path / "model.json"), "beta": 1.0}))
    calls = []

    def counted(H, original=gibbs_module.diagonalize):
        calls.append(1)
        return original(H)

    for module in (gibbs_module, qbp):
        monkeypatch.setattr(module, "diagonalize", counted)
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    check_dense_budget(1, 7)
    with pytest.raises(ValueError, match="memory budget exceeded"):
        hessian_logZ(model, 1.0)
    assert main(["hessian", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert calls == []


def test_hessian_budget_admits_a_12_site_chain():
    # 7 matrices of 268 MB: 1.9 GB, where the m-stack needed 37.6 GB
    basis = chain_basis(12)
    assert hessian_matrices(basis.m, 12) == 7
    check_dense_budget(hessian_matrices(basis.m, 12), 12)


def test_quasilocal_direction_shape_check():
    model = random_chain_model(2, seed=2)
    with pytest.raises(ValueError):
        quasilocal_W(np.ones(3), model, 1.0)


def test_quasilocal_w_hermitian_and_linear():
    model = random_chain_model(3, seed=4)
    rng = np.random.default_rng(5)
    u = rng.normal(size=model.basis.m)
    v = rng.normal(size=model.basis.m)
    Wu = quasilocal_W(u, model, 1.1)
    Wv = quasilocal_W(v, model, 1.1)
    Wsum = quasilocal_W(u + 2 * v, model, 1.1)
    np.testing.assert_allclose(Wu, Wu.conj().T, atol=1e-12)
    np.testing.assert_allclose(Wsum, Wu + 2 * Wv, atol=1e-11)


def test_quasilocal_w_at_zero_coupling_is_unfiltered():
    model = random_chain_model(2, seed=7)
    zero = dataclasses.replace(model, mu=np.zeros(model.basis.m))
    v = np.random.default_rng(9).normal(size=model.basis.m)
    W = np.tensordot(v, dense_basis(model.basis), axes=1)
    np.testing.assert_allclose(quasilocal_W(v, zero, 2.5), W, atol=1e-12)
