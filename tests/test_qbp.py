import dataclasses
import json
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslearn import gibbs as gibbs_module
from gibbslearn import qbp, solver
from gibbslearn.cli import main
from gibbslearn.gibbs import diagonalize, gibbs, gibbs_state, marginals
from gibbslearn.lab import f_time, qbp_transform, quasilocal_W, verify_fourier_pair
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
    f_tilde,
    _hessian_core,
    gap_filter,
    hessian_logZ,
    hessian_matrices,
    min_eigenvalue,
)

from conftest import (
    SPLIT_CELL_BASES,
    chain_basis,
    dense_basis,
    dense_log_partition,
    grad_logZ,
    raises_before_allocating,
    random_chain_model,
)


def test_filter_pair_beta_validation():
    # the spectral filter takes any finite beta >= 0 and is exactly 1 at
    # beta = 0; the time-domain form divides by beta, so it and the
    # quadrature check refuse 0 as well
    spectral = diagonalize(assemble_hamiltonian(random_chain_model(5, seed=1)))
    assert f_tilde(2.5, 0.0) == 1.0
    assert np.array_equal(gap_filter(spectral, 0.0), np.ones((32, 32)))
    for beta in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="beta"):
            f_tilde(1.0, beta)
    for beta in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="beta"):
            f_time(1.0, beta)
        with pytest.raises(ValueError, match="beta"):
            verify_fourier_pair(beta, [0.0, 1.0])


def test_f_tilde_at_zero_and_parity():
    assert f_tilde(0.0, 1.7) == 1.0
    for w in (0.3, 1.0, 4.0):
        assert f_tilde(w, 1.7) == pytest.approx(f_tilde(-w, 1.7), abs=0)
        x = 1.7 * w / 2
        assert f_tilde(w, 1.7) == pytest.approx(np.tanh(x) / x, rel=1e-14)


@given(st.floats(-50, 50), st.floats(0.1, 5.0))
def test_f_tilde_range(omega, beta) -> None:
    val = f_tilde(omega, beta)
    assert 0 < val <= 1


@given(st.floats(0, 1e150), st.floats(-1e300, 1e300))
def test_f_tilde_over_its_whole_range(beta, omega) -> None:
    # gaps far past the series' range must not reach it, where
    # (beta*omega)^2 overflows above |beta*omega| = 1.3e154
    omega /= max(beta, 1.0)  # |beta*omega| <= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = f_tilde(omega, beta)
        assert f_tilde(-omega, beta) == val
        # a gap matrix mixes both branches
        vals = f_tilde(np.array([omega, -omega, 0.0]), beta)
    assert np.isfinite(val) and 0 < val <= 1
    assert np.all(np.isfinite(vals) & (vals > 0) & (vals <= 1)) and vals[0] == vals[1]


def test_f_tilde_series_branch_is_continuous():
    # the series takes over below |beta*omega| = 1e-6; both branches must
    # agree there to machine precision
    below, above = 0.999999e-6, 1.000001e-6
    assert f_tilde(below, 1.0) == pytest.approx(f_tilde(above, 1.0), abs=1e-15)


def test_f_time_frozen_value_and_parity():
    assert f_time(1.0, 1.0) == pytest.approx(0.05505595798253514, abs=1e-16)
    assert f_time(-2.3, 1.0) == f_time(2.3, 1.0)


def test_f_time_diverges_at_origin():
    with pytest.raises(ValueError):
        f_time(0.0, 1.0)
    with pytest.raises(ValueError):
        f_time(np.array([0.5, 0.0]), 1.0)


def test_f_time_positive_and_decaying():
    ts = np.geomspace(1e-4, 20, 50)
    vals = f_time(ts, 0.7)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_fourier_pair_small_grid():
    report = verify_fourier_pair(1.0, np.linspace(-5, 5, 11))
    assert report.grid["max_abs_error"] < 1e-4
    assert report.grid["quad_error_estimate"] < 1e-4
    numeric, exact = np.array([row[2:4] for row in report.rows]).T
    np.testing.assert_allclose(numeric, exact, atol=1e-4)


def test_fourier_pair_raises_on_large_omega():
    # at omega = 50 the step-halving and cutoff error terms exceed the
    # tolerance, so the check must refuse rather than report garbage errors
    with pytest.raises(ValueError, match="did not converge"):
        verify_fourier_pair(1.0, [0.0, 50.0])


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
    expected = f_tilde(2.0, beta) * pauli_matrix("X")
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("beta", [-1.0, float("nan")])
def test_qbp_transform_refuses_a_beta_that_is_neither_zero_nor_positive(beta):
    # only beta = 0 passes the operator through unfiltered
    spec = diagonalize(pauli_matrix("Z"))
    np.testing.assert_array_equal(qbp_transform(pauli_matrix("X"), spec, 0.0), pauli_matrix("X"))
    with pytest.raises(ValueError, match="filter beta"):
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
        H = hessian_logZ(zero, beta)
        np.testing.assert_allclose(H, beta**2 * np.eye(model.basis.m), atol=1e-12)
        assert min_eigenvalue(H) == pytest.approx(beta**2, rel=1e-10)


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
def test_hessian_kernel_matches_dense_oracle(model, beta, slab_budget):
    # budgets of 1-4 full rows split the n <= 4 spectra into several slabs of
    # growing height, some ragged
    # entry (j, k) = (beta^2/2) Re Tr[{E_j, Phi(E_k)} rho] - beta^2 e_j e_k, from dense matrices
    dense = dense_basis(model.basis)
    spectral = diagonalize(np.tensordot(model.mu, dense, axes=1))
    rho = gibbs(spectral, beta).rho
    phi = np.array([qbp_transform(E, spectral, beta) for E in dense])
    e = np.einsum("lab,ba->l", dense, rho).real
    anti = np.einsum("jab,kba->jk", dense, phi @ rho) + np.einsum("kab,jba->jk", phi, dense @ rho)
    oracle = 0.5 * beta**2 * anti.real - beta**2 * np.outer(e, e)

    with mock.patch.object(qbp, "SLAB_BUDGET", slab_budget):
        H = _hessian_core(model.basis, model.mu, beta)
    np.testing.assert_allclose(H, oracle, rtol=0, atol=1e-12)
    assert np.array_equal(H, H.T)
    assert abs(min_eigenvalue(H) - np.linalg.eigvalsh(oracle)[0]) <= 1e-12


@pytest.mark.parametrize("slab_budget", [1, 3, 32])
@pytest.mark.parametrize("basis", SPLIT_CELL_BASES.values(), ids=SPLIT_CELL_BASES.keys())
def test_hessian_kernel_matches_dense_oracle_where_cells_split(basis, slab_budget):
    beta = 1.3
    mu = np.random.default_rng(11).uniform(-1.0, 1.0, basis.m)
    dense = dense_basis(basis)
    spectral = diagonalize(np.tensordot(mu, dense, axes=1))
    rho = gibbs(spectral, beta).rho
    phi = np.array([qbp_transform(E, spectral, beta) for E in dense])
    e = np.einsum("lab,ba->l", dense, rho).real
    anti = np.einsum("jab,kba->jk", dense, phi @ rho) + np.einsum("kab,jba->jk", phi, dense @ rho)
    oracle = 0.5 * beta**2 * anti.real - beta**2 * np.outer(e, e)

    with mock.patch.object(qbp, "SLAB_BUDGET", slab_budget):
        H = _hessian_core(basis, mu, beta)
    np.testing.assert_allclose(H, oracle, rtol=0, atol=1e-12)


def test_hessian_kernel_peak_memory_within_its_count():
    # from n = 7 on, dense matrices outweigh numpy's fixed ufunc buffers;
    # one slab of energy rows is alive at a time, never the m-stack
    # and the table the count holds is built inside the traced call
    model = random_chain_model(7, seed=3)
    _hessian_core(model.basis, model.mu, 1.3)
    basis_stack.cache_clear()
    matrix_bytes = 4**7 * 16
    tracemalloc.start()
    try:
        _hessian_core(model.basis, model.mu, 1.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= hessian_matrices(model.basis) * matrix_bytes
    assert peak < model.basis.m * matrix_bytes


@pytest.mark.parametrize(
    "lattice", [LatticeSpec(1, (7,)), LatticeSpec(2, (2, 3))], ids=["chain7", "grid2x3"]
)
def test_hessian_slabs_tile_the_rows_within_the_entry_budget(lattice):
    basis = enumerate_basis(lattice, 2)
    mu = np.random.default_rng(5).uniform(-1.0, 1.0, basis.m)
    dim = 2**lattice.n_sites
    shapes = []

    def spied(table, spectral, r, beta, J, original=qbp._slab):
        shapes.append((J.start, min(J.stop, dim)))
        return original(table, spectral, r, beta, J)

    with mock.patch.object(qbp, "_slab", spied):
        _hessian_core(basis, mu, 1.0)
    starts, stops = zip(*shapes)
    assert starts == (0, *stops[:-1]) and stops[-1] == dim
    # rows x columns of each A_l[J, lo:], against a flat budget of full rows
    assert all(0 < (hi - lo) * (dim - lo) <= qbp.SLAB_BUDGET * dim for lo, hi in shapes)


def test_hessian_reuses_a_given_eigensystem():
    model = random_chain_model(6, seed=4)
    spectral = diagonalize(assemble_hamiltonian(model))
    own = _hessian_core(model.basis, model.mu, 0.9)
    reused = _hessian_core(model.basis, model.mu, 0.9, spectral)
    np.testing.assert_array_equal(reused, own)


def test_hessian_symmetric_and_positive():
    model = random_chain_model(3, seed=13)
    H = hessian_logZ(model, 1.2)
    assert np.array_equal(H, H.T)
    assert min_eigenvalue(H) > 0
    assert np.linalg.eigvalsh(H).min() == pytest.approx(min_eigenvalue(H), rel=1e-9, abs=1e-12)


def test_hessian_budget_refuses_before_allocating():
    # open n=20 chain: its basis table alone needs 2 matrices of 17.6 TB each
    model = random_chain_model(20, seed=1)
    raises_before_allocating(lambda: hessian_logZ(model, 1.0))


def _budget_of(monkeypatch, matrices: int) -> list:
    """Patch physical memory to `matrices` dense n = 7 matrices (256 KiB, 64
    pages each); returns the list that gets one entry per `diagonalize` call."""
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64 * matrices}
    calls = []

    def counted(H, original=gibbs_module.diagonalize):
        calls.append(1)
        return original(H)

    for module in (gibbs_module, qbp, solver):
        monkeypatch.setattr(module, "diagonalize", counted)
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    return calls


def _model_config(tmp_path, model) -> str:
    save_model(model, tmp_path / "model.json")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": str(tmp_path / "model.json"), "beta": 1.0}))
    return str(cfg)


def test_hessian_refusal_comes_before_any_diagonalization(tmp_path, monkeypatch):
    # one n = 7 matrix fits, the Hessian's 16 do not; the 15 it counted
    # before it held the basis table let the kernel run
    model = random_chain_model(7, seed=1)
    assert hessian_matrices(model.basis) == 16
    cfg = _model_config(tmp_path, model)
    calls = _budget_of(monkeypatch, 15)
    check_dense_budget(1, 7)
    with pytest.raises(ValueError, match="memory budget exceeded"):
        hessian_logZ(model, 1.0)
    assert main(["hessian", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert calls == []


def test_learn_refusal_comes_before_any_diagonalization(monkeypatch):
    # a learn peaks in a Hessian, so one matrix short of it refuses the
    # learn before it diagonalizes at mu
    model = random_chain_model(7, seed=3)
    calls = _budget_of(monkeypatch, hessian_matrices(model.basis) - 1)
    with pytest.raises(ValueError, match="memory budget exceeded"):
        solver.learn(model, 1.0, 1000, "grouped", 0.05, 1, solver.SolverConfig())
    assert calls == []


def test_sweep_refusal_counts_one_learn_per_worker(monkeypatch):
    # every worker runs one learn at a time: memory for one n = 7 learn's
    # Hessian runs a serial sweep, and refuses two trials at once before
    # either diagonalizes
    calls = _budget_of(monkeypatch, hessian_matrices(chain_basis(7)))
    params = {
        "axis": "N", "values": [1000], "trials": 2, "n": 7, "beta": 1.0, "N": None, "kappa": 2,
        "mu": "random", "scheme": "grouped", "delta_fail": 0.05, "solver": {},
    }
    with pytest.raises(ValueError, match="memory budget exceeded"):
        solver.sweep(params, solver.SolverConfig(), 0, jobs=2)
    assert calls == []
    record = solver.sweep(params, solver.SolverConfig(), 0, jobs=1)
    assert record["summary"]["failures"] == [] and len(record["rows"]) == 2
    assert calls


def test_spectrum_refusal_comes_before_any_diagonalization(tmp_path, monkeypatch):
    # 5 n = 7 matrices hold the basis table's own estimate (2) and eigh's
    # matrices, but not both beside the built table
    model = random_chain_model(7, seed=2)
    cfg = _model_config(tmp_path, model)
    calls = _budget_of(monkeypatch, gibbs_module.DIAGONALIZE_MATRICES)
    basis_stack.cache_clear()
    assert basis_stack(model.basis).matrices == 1
    for call in (gibbs_module.spectrum, lambda model: grad_logZ(model, 1.0)):
        with pytest.raises(ValueError, match="memory budget exceeded"):
            call(model)
    assert main(["marginals", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert calls == []


def test_hessian_budget_admits_a_12_site_chain():
    # 7 matrices of 268 MB: 1.9 GB, where the m-stack needed 37.6 GB
    basis = chain_basis(12)
    assert hessian_matrices(basis) == 7
    check_dense_budget(hessian_matrices(basis), 12)


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
