import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslearn import gibbs, lab, qbp
from gibbslearn.gibbs import gibbs_state
from gibbslearn.lab import (
    SUITES,
    CheckReport,
    akl_concentration_check,
    embed_on_sites,
    global_to_local_check,
    infinite_temp_variance_check,
    lieb_robinson_decay,
    local_reduce,
    local_unitary_probe,
    local_variance_floor,
    lower_bound_family,
    random_direction,
    strong_convexity_probe,
    verify_sum_bounds,
)
from gibbslearn.lattice import (
    assemble_hamiltonian,
    pauli_matrix,
    to_dense,
)
from gibbslearn.reporting import trial_seed

from conftest import chain_basis, delta_gamma, random_chain_model


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return M + M.conj().T


def zero_coupling_model(n):
    basis = chain_basis(n)
    import dataclasses

    from gibbslearn.lattice import HamiltonianModel

    return HamiltonianModel(basis=basis, mu=np.zeros(basis.m))


# ---------------------------------------------------------------------------
# depolarizing sites / embedding


def random_operator(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_depolarize_of_a_kronecker_product():
    # A (x) B depolarized on B's sites is A (x) I Tr B / 2^k, and likewise for A's
    A = random_hermitian(2, 0)
    B = random_hermitian(4, 1)
    M = np.kron(A, B)
    np.testing.assert_allclose(
        lab._depolarize(M, (1, 2), 3), np.kron(A, np.eye(4)) * np.trace(B) / 4, atol=1e-12
    )
    np.testing.assert_allclose(
        lab._depolarize(M, (0,), 3), np.kron(np.eye(2), B) * np.trace(A) / 2, atol=1e-12
    )


def test_depolarize_fixes_an_operator_embedded_on_the_other_sites():
    full = embed_on_sites(random_hermitian(4, 2), (0, 2), 3)
    np.testing.assert_array_equal(lab._depolarize(full, (1,), 3), full)


def test_embed_is_multiplicative():
    A = random_hermitian(4, 3)
    B = random_hermitian(4, 4)
    sites, n = (1, 2), 3
    lhs = embed_on_sites(A, sites, n) @ embed_on_sites(B, sites, n)
    np.testing.assert_allclose(lhs, embed_on_sites(A @ B, sites, n), atol=1e-11)


def test_depolarize_is_idempotent_and_self_adjoint():
    # a projection in the Hilbert-Schmidt inner product: D(D(M)) = D(M) and
    # Tr[X^+ D(Y)] = Tr[D(X)^+ Y]
    rng = np.random.default_rng(5)
    X, Y = random_operator(8, rng), random_operator(8, rng)
    for sites in [(0,), (1,), (0, 2), (0, 1, 2)]:
        DY = lab._depolarize(Y, sites, 3)
        np.testing.assert_allclose(lab._depolarize(DY, sites, 3), DY, atol=1e-12)
        lhs = np.vdot(X, DY)
        assert lhs == pytest.approx(np.vdot(lab._depolarize(X, sites, 3), Y), abs=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_depolarize_matches_the_pauli_expansion(n):
    # the oracle drops every Pauli string with a non-identity letter on a depolarized site
    rng = np.random.default_rng(n)
    M = random_operator(2**n, rng)
    for k in range(n + 1):
        sites = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        expected = np.zeros_like(M)
        for word in itertools.product("IXYZ", repeat=n):
            if all(word[s] == "I" for s in sites):
                P = pauli_matrix(word)
                expected += (np.vdot(P, M) / 2**n) * P
        np.testing.assert_allclose(lab._depolarize(M, sites, n), expected, atol=1e-12)


def test_embed_matches_basis_densification():
    basis = chain_basis(3)
    op = next(o for o in basis.ops if o.support == (1,) and o.letters == "Y")
    np.testing.assert_allclose(
        embed_on_sites(pauli_matrix("Y"), (1,), 3), to_dense(op, basis.lattice)
    )


def test_embed_on_sites_rejects_a_shape_mismatch():
    with pytest.raises(ValueError, match="does not match 1 sites"):
        embed_on_sites(np.eye(4), (0,), 3)


# ---------------------------------------------------------------------------
# direction vectors and report plumbing


def test_random_direction_is_a_normalized_gaussian_draw():
    v = random_direction(12, np.random.default_rng(0))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    raw = np.random.default_rng(0).standard_normal(12)
    np.testing.assert_array_equal(v, raw / np.linalg.norm(raw))


def test_check_report_summary():
    rep = CheckReport(
        check="demo", passed=True, min_slack=0.5, header=("a",), rows=[(1,)]
    )
    summary = rep.summary_dict()
    assert summary == {"check": "demo", "pass": True, "min_slack": 0.5, "grid": {}}


# ---------------------------------------------------------------------------
# strong convexity and variance floors


def test_strong_convexity_equality_at_zero_coupling():
    # H = 0: the Hessian is beta^2 I and the filtered variance of a unit
    # direction is exactly 1, so every slack should be numerical zero
    model = zero_coupling_model(2)
    rep = strong_convexity_probe(model, 1.3, trials=20, seed=0)
    assert rep.passed
    assert abs(rep.min_slack) < 1e-10
    assert rep.grid["min_q_times_m"] == pytest.approx(
        1.3**2 * model.basis.m, rel=1e-10
    )


def test_strong_convexity_probe_diagonalizes_once(monkeypatch):
    # the probe hands its eigensystem of H(mu) to the Hessian kernel
    calls = []

    def counted(H, original=gibbs.diagonalize):
        calls.append(1)
        return original(H)

    for module in (gibbs, qbp):
        monkeypatch.setattr(module, "diagonalize", counted)
    strong_convexity_probe(random_chain_model(5, seed=2), 1.0, trials=3, seed=0)
    assert len(calls) == 1


# gibbs.diagonalize calls per default suite: one per model, however many
# reports read it (15 over the nine suites)
SUITE_DIAGONALIZATIONS = {
    "strong-convexity": 4,
    "infinite-temp": 2,
    "akl": 5,
    "delta-gamma": 1,
    "local-unitary": 1,
    "lr-decay": 2,
    "sum-bounds": 0,
    "lower-bound": 0,
    "fourier": 0,
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_diagonalizes_each_model_once(monkeypatch, suite):
    calls = []

    def counted(H, original=gibbs.diagonalize):
        calls.append(1)
        return original(H)

    for module in (gibbs, qbp):
        monkeypatch.setattr(module, "diagonalize", counted)
    SUITES[suite]({}, 0)
    assert len(calls) == SUITE_DIAGONALIZATIONS[suite]


# lab.diagonalize calls per default run: one per observable, however many
# gammas and betas (delta-gamma, 72 before) or site sets (local-unitary, 4 before) read it
@pytest.mark.parametrize("suite, expected", [("delta-gamma", 3), ("local-unitary", 2)])
def test_window_suites_diagonalize_each_observable_once(monkeypatch, suite, expected):
    calls = []

    def counted(A, original=lab.diagonalize):
        calls.append(1)
        return original(A)

    monkeypatch.setattr(lab, "diagonalize", counted)
    SUITES[suite]({}, 0)
    assert len(calls) == expected


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_returns_well_formed_check_reports(suite):
    reports = SUITES[suite]({}, 0)
    assert reports
    for rep in reports:
        assert isinstance(rep, CheckReport)
        assert all(len(row) == len(rep.header) for row in rep.rows)


def test_strong_convexity_random_instances():
    for seed in (0, 1):
        model = random_chain_model(3, seed=seed)
        for beta in (0.5, 2.0):
            rep = strong_convexity_probe(model, beta, trials=25, seed=seed)
            assert rep.passed, f"seed={seed} beta={beta} slack={rep.min_slack}"
            assert len(rep.rows) == 25


def test_infinite_temp_variance_at_zero_coupling():
    model = zero_coupling_model(2)
    v = np.random.default_rng(3).normal(size=model.basis.m)
    rep = infinite_temp_variance_check(model, 1.0, v)
    assert rep.passed
    var = rep.rows[0][1]
    assert var == pytest.approx(float(np.dot(v, v)), rel=1e-12)


def test_infinite_temp_variance_random_instance():
    model = random_chain_model(3, seed=19)
    v = random_direction(model.basis.m, np.random.default_rng(1))
    for beta in (0.5, 2.0):
        rep = infinite_temp_variance_check(model, beta, v)
        assert rep.passed
        assert rep.grid["r_min"] == 0.01


def test_local_variance_floor_beta_zero_envelope():
    model = random_chain_model(2, seed=7)
    v = np.random.default_rng(2).normal(size=model.basis.m)
    rep = local_variance_floor(v, model, 0.0)
    # at beta = 0 the envelope denominator collapses to 1
    assert rep.grid["envelope"] == pytest.approx(float(np.max(v**2)), rel=1e-12)
    assert rep.passed


def test_local_variance_floor_positive_at_finite_beta():
    model = random_chain_model(3, seed=11)
    v = np.random.default_rng(4).normal(size=model.basis.m)
    rep = local_variance_floor(v, model, 2.0)
    assert rep.passed
    assert rep.min_slack > 0
    assert len(rep.rows) == 3


# ---------------------------------------------------------------------------
# local reductions


def test_local_reduce_fixed_points():
    basis = chain_basis(2)
    z0 = to_dense(
        next(o for o in basis.ops if o.support == (0,) and o.letters == "Z"),
        basis.lattice,
    )
    # an operator acting only on site 0 survives reduction at site 0 ...
    np.testing.assert_allclose(local_reduce(z0, 0, 2), z0, atol=1e-12)
    # ... and vanishes under reduction at site 1
    np.testing.assert_allclose(local_reduce(z0, 1, 2), np.zeros((4, 4)), atol=1e-12)


def test_local_reduce_matches_pauli_expansion():
    # O_(i) must keep exactly the Pauli components with a non-identity letter
    # on site i; cross-check coefficient by coefficient
    basis = chain_basis(2)
    O = random_hermitian(4, 9)
    red = local_reduce(O, 0, 2)
    paulis = {"I": np.eye(2), **{c: pauli_matrix(c) for c in "XYZ"}}
    for a, Pa in paulis.items():
        for b, Pb in paulis.items():
            P = np.kron(Pa, Pb)
            coeff = np.trace(P @ red) / 4.0
            expected = np.trace(P @ O) / 4.0 if a != "I" else 0.0
            assert coeff == pytest.approx(expected, abs=1e-12)


def test_local_reduce_validation():
    with pytest.raises(ValueError, match="does not match"):
        local_reduce(np.eye(3), 0, 2)
    with pytest.raises(ValueError, match="does not match"):
        local_reduce(np.eye(4), 0, 3)
    with pytest.raises(ValueError, match="out of range"):
        local_reduce(np.eye(4), 2, 2)


def test_global_to_local_identity_component_invisible():
    rep = global_to_local_check(5.0 * np.eye(8), (0, 1, 2), 3)
    assert rep.passed
    total, sum_local, *_ = rep.rows[0]
    assert total == 0.0
    assert sum_local == 0.0


def test_global_to_local_random_operators():
    for seed in range(5):
        O = random_hermitian(8, 100 + seed)
        rep = global_to_local_check(O, (0, 1, 2), 3)
        assert rep.passed
        assert rep.min_slack >= -1e-10 * rep.rows[0][0]


def test_global_to_local_single_site_operator():
    # an operator on one site puts all its mass in that site's reduction
    z1 = embed_on_sites(pauli_matrix("Z"), (1,), 3)
    rep = global_to_local_check(z1, (0, 1, 2), 3)
    total, sum_local, max_local, _ = rep.rows[0]
    assert sum_local == pytest.approx(total, rel=1e-12)
    assert max_local == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral concentration


def test_akl_identity_block_vanishes():
    model = random_chain_model(3, seed=15, scale=0.5)
    rep = akl_concentration_check(model, np.eye(2), (1,), x=-0.2, y=0.2)
    # identity commutes with everything: the high-low block is exactly zero
    assert rep.rows[0][4] == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_akl_random_operator_respects_bound():
    model = random_chain_model(3, seed=15, scale=0.5)
    O = random_hermitian(2, 3)
    H = assemble_hamiltonian(model)
    mid = 0.0
    for gap in (1.0, 2.0, 4.0):
        rep = akl_concentration_check(model, O, (1,), x=mid - gap / 2, y=mid + gap / 2)
        assert rep.passed, f"gap={gap}: slack {rep.min_slack}"


def test_akl_g_counts_only_live_terms():
    # deterministic sparse chain: 2 edges + 3 fields, max 3 terms per site
    import dataclasses

    basis = chain_basis(3)
    mu = np.zeros(basis.m)
    for i, op in enumerate(basis.ops):
        if op.letters == "ZZ":
            mu[i] = 0.5
        elif op.letters == "X":
            mu[i] = 0.3
    from gibbslearn.lattice import HamiltonianModel

    model = HamiltonianModel(basis=basis, mu=mu)
    rep = akl_concentration_check(model, pauli_matrix("X"), (1,), x=-1.0, y=1.0)
    assert rep.rows[0][2] == 3  # g column


def test_delta_gamma_edges():
    model = random_chain_model(3, seed=25)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    A = random_hermitian(8, 6)
    wide = delta_gamma(A, ens, 100.0)
    assert wide.delta_gamma == pytest.approx(0.0, abs=1e-12)
    narrow = delta_gamma(A, ens, 0.0)
    assert 0.0 <= narrow.delta_gamma <= 1.0
    assert narrow.slack >= -1e-10


def test_delta_gamma_grid_never_violates():
    model = random_chain_model(3, seed=25)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    A = random_hermitian(8, 7)
    norm = np.linalg.norm(np.linalg.eigvalsh(A), np.inf)
    for gamma in np.linspace(0, 1.1 * norm, 12):
        out = delta_gamma(A, ens, float(gamma))
        assert out.slack >= -1e-10


@pytest.mark.parametrize("seed", [0, 7])
def test_delta_gamma_suite_matches_the_oracle(seed):
    # the suite sums its window weights in place; every row must be the
    # conftest oracle's numbers for the same observable, beta and gamma
    reports = SUITES["delta-gamma"]({}, seed)
    model = lab.random_chain(3, 2, trial_seed(seed, 0), 0.7)
    z = np.diag([1.0, -1.0])
    observables = {
        "Z0": embed_on_sites(z, (0,), 3),
        "X1": embed_on_sites(pauli_matrix("X"), (1,), 3),
        "Z0Z1": embed_on_sites(np.kron(z, z), (0, 1), 3),
    }
    assert [(rep.grid["beta"], rep.grid["observable"]) for rep in reports] == [
        (beta, name) for beta in (0.5, 2.0) for name in observables
    ]
    for rep in reports:
        ens = gibbs.gibbs(gibbs.spectrum(model), rep.grid["beta"])
        assert len(rep.rows) == 12
        for name, beta, gamma, *numbers in rep.rows:
            assert (name, beta) == (rep.grid["observable"], rep.grid["beta"])
            assert tuple(numbers) == delta_gamma(observables[name], ens, gamma)
        assert rep.min_slack == min(row[-1] for row in rep.rows)
        assert rep.passed


def test_local_unitary_probe_tail():
    model = random_chain_model(3, seed=33)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    A = embed_on_sites(pauli_matrix("Z"), (0,), 3)
    rep = local_unitary_probe(gibbs.diagonalize(A), ens, (1,), trials=4, seed=2)
    assert rep.passed
    assert rep.min_slack > 0
    with pytest.raises(ValueError, match="<= 2"):
        local_unitary_probe(gibbs.diagonalize(A), ens, (0, 1, 2), trials=2, seed=0)


def test_local_unitary_probe_fails_a_non_unitary_u(monkeypatch):
    # U scaled by 1.1 carries Tr[U rho U^+] = 1.21, which the weight sums show
    model = random_chain_model(3, seed=33)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    A = embed_on_sites(pauli_matrix("Z"), (0,), 3)

    def scaled(M, sites, n, original=lab.embed_on_sites):
        return 1.1 * original(M, sites, n)

    monkeypatch.setattr(lab, "embed_on_sites", scaled)
    rep = local_unitary_probe(gibbs.diagonalize(A), ens, (1,), trials=4, seed=2)
    assert not rep.passed
    assert rep.min_slack == pytest.approx(lab.WEIGHT_SUM_TOL - 0.21, abs=1e-12)


def test_local_unitary_probe_fails_a_row_outside_the_spectrum():
    # weights (1.5, -0.5) sum to 1, so every trial's weight sum passes, but on
    # A_c = diag(0.5, 1.5) they give aq_norm2 = 0.375 - 1.125 = -0.75 at gamma = 0,
    # below gamma^2 q_norm2 = 0
    spectral = gibbs.SpectralDecomposition(np.zeros(2), np.eye(2, dtype=complex))
    ens = gibbs.GibbsEnsemble(spectral, 1.0, 0.0, np.array([1.5, -0.5]))
    eigen = gibbs.diagonalize(np.diag([0.0, 1.0]))
    rep = local_unitary_probe(eigen, ens, (0,), trials=3, seed=0)
    assert not rep.passed
    assert rep.min_slack >= 0
    gamma, trial, _, q_norm, aq_norm = rep.rows[0]
    assert (gamma, trial) == (0.0, 0)
    assert q_norm == pytest.approx(1.0, abs=1e-15)
    assert aq_norm == pytest.approx(-0.75, abs=1e-15)


def test_local_unitary_identity_row_matches_delta_gamma():
    model = random_chain_model(2, seed=41)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    A = random_hermitian(4, 8)
    rep = local_unitary_probe(gibbs.diagonalize(A), ens, (0,), trials=3, seed=0)
    identity_rows = [row for row in rep.rows if row[1] == 0]
    assert len(identity_rows) == 22
    for gamma, _, d_gamma, q_norm, _ in identity_rows:
        # with U = I, ||Q sqrt(rho)||_F^2 = Tr[Q rho] = delta_gamma: the same sum of rho's weights
        assert q_norm == d_gamma
        assert min(d_gamma, 1.0) == delta_gamma(A, ens, gamma).delta_gamma


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(0, 10_000),
    st.floats(0.0, 3.0),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_local_unitary_norms_match_the_dense_oracle(n, seed, beta, size, probe_seed):
    # the probe sums U rho U^+'s weights on A's eigenvectors; the oracle forms
    # Q_gamma, sqrt(rho) and each local unitary as d x d matrices
    rng = np.random.default_rng(seed)
    dim = 2**n
    A = random_hermitian(dim, seed) / dim
    ens = gibbs_state(assemble_hamiltonian(random_chain_model(n, seed=seed)), beta)
    X = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    unitaries = [np.eye(dim)]

    def recorded(M, sites, n_sites, original=lab.embed_on_sites):
        unitaries.append(original(M, sites, n_sites))
        return unitaries[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "embed_on_sites", recorded)
        rep = local_unitary_probe(gibbs.diagonalize(A), ens, X, trials=4, seed=probe_seed)
    assert len(unitaries) == 4

    V = ens.spectral.vectors
    sqrt_rho = (V * np.sqrt(ens.weights)) @ V.conj().T
    A_c = A - np.trace(A @ sqrt_rho @ sqrt_rho).real * np.eye(dim)
    evals, U_A = np.linalg.eigh(A_c)
    # gamma = ||A_c|| (the grid's 21st point) puts the top eigenvalue on the
    # window's edge, where rounding picks its side; such rows are left out
    edge = [np.min(np.abs(np.abs(evals) - row[0])) < 1e-9 for row in rep.rows]
    assert sum(edge) <= 2 * 4
    for (gamma, trial, _, q_norm, aq_norm), on_edge in zip(rep.rows, edge):
        if on_edge:
            continue
        outside = U_A[:, np.abs(evals) > gamma]
        M = outside @ outside.conj().T @ unitaries[trial] @ sqrt_rho
        assert q_norm == pytest.approx(np.linalg.norm(M) ** 2, abs=1e-12)
        assert aq_norm == pytest.approx(np.linalg.norm(A_c @ M) ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# Lieb-Robinson truncation decay


def truncation_norms(report):
    """The norms of a `lieb_robinson_decay` report, by radius."""
    column = report.header.index("truncation_norm")
    return [row[column] for row in report.rows]


def test_lieb_robinson_zero_time_exact():
    model = random_chain_model(4, seed=3, scale=0.5)
    E = next(
        op
        for op in model.basis.ops
        if op.support == (1,) and op.letters == "Z"
    )
    report = lieb_robinson_decay(E, model, 0.0, range(4))
    norms = truncation_norms(report)
    assert all(v < 1e-12 for v in norms)
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_lieb_robinson_profile_decays():
    model = random_chain_model(4, seed=3, scale=0.5)
    E = next(
        op
        for op in model.basis.ops
        if op.support == (1,) and op.letters == "Z"
    )
    report = lieb_robinson_decay(E, model, 0.5, range(4))
    norms = truncation_norms(report)
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-10
    assert norms[0] > norms[-1]
    assert report.grid["prefactor"] >= 0 and report.grid["decay_rate"] >= 0


def test_lieb_robinson_takes_a_one_site_element():
    model = random_chain_model(4, seed=3, scale=0.5)
    E = next(op for op in model.basis.ops if op.support == (1, 2))
    with pytest.raises(ValueError, match="one-site"):
        lieb_robinson_decay(E, model, 0.5, range(4))


# ---------------------------------------------------------------------------
# series bounds and the lower-bound family


def test_sum_bounds_default_grid():
    rep = verify_sum_bounds()
    assert rep.passed
    assert rep.min_slack > 0
    assert len(rep.rows) == 27
    assert rep.grid["tail_tol"] == 1e-12


def test_sum_bounds_known_series_values():
    rep = verify_sum_bounds(points=[(1.0, 2, 1.0, 1.0)])
    a, b, c, p, s1, b1, s2, b2, s3, b3, slack = rep.rows[0]
    e = math.e
    # geometric series including j=0
    assert s1 == pytest.approx(e / (e - 1.0), abs=1e-12)
    # sum_{j>=1} j^2 e^{-j}
    assert s2 == pytest.approx(e * (e + 1.0) / (e - 1.0) ** 3, abs=1e-12)
    # shifted geometric sum_{j>=0} e^{-(1+j)}
    assert s3 == pytest.approx(1.0 / (e - 1.0), abs=1e-12)
    assert rep.passed


def test_series_terms_find_the_first_tail_below_tolerance():
    # the reference: scan j = 11, 12, ... as the series is summed; at p = 50,
    # c (j - 1)^p leaves the float range long before j = SERIES_MAX_TERMS
    for a, b, c, p, *_ in [*verify_sum_bounds().rows, (1.0, 1, 1.0, 50.0)]:
        counts = [count for count, _, _ in lab._series_terms(a, b, c, p)]
        firsts = [
            next(j for j in itertools.count(11) if tail(j) < lab.SERIES_TAIL_TOL)
            for _, tail, _ in lab._series(a, b, c, p)
        ]
        assert counts == firsts


def test_sum_bounds_refuses_a_point_that_needs_too_many_terms():
    # series 2 at c = 1e-3, p = 0.5 needs about 1.6e9 terms: the tail bound
    # tells so in a few dozen evaluations, before any of them is summed
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"point \[0.001, 0, 0.001, 0.5\] needs more than"):
        verify_sum_bounds([(1e-3, 0, 1e-3, 0.5)])
    assert time.perf_counter() - started < 5.0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gamma_tail_bound_against_gammaincc(data):
    # the bound log[z^(s-1) e^-z / (1 - r/z)], r = max(s - 1, 0), lies above
    # log Gamma(s, z), and below it plus -log(1 - r/z) + log(1 + max(1 - s, 0)/z):
    # Gamma(s, z) >= z^(s-1) e^-z for s >= 1, and z^s e^-z / (z + 1 - s) below
    from scipy.special import gammaincc, gammaln

    s = data.draw(st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False), label="s")
    r = max(s - 1.0, 0.0)
    z = data.draw(st.floats(r, 700.0, exclude_min=True), label="z")
    q = float(gammaincc(s, z))
    if q > 0.0:
        exact = float(gammaln(s)) + math.log(q)
        slack = 1e-12 * max(abs(exact), 1.0)  # gammaincc rounds to 1 as z falls to 0
        bound = lab._log_gamma_tail(s, z)
        excess = -math.log1p(-r / z) + math.log1p(max(1.0 - s, 0.0) / z)
        assert exact - slack <= bound <= exact + excess + slack


def test_gamma_tail_bound_where_gammaincc_underflows():
    # at z = 750..800 gammaincc underflows to 0; the bound must still bound
    # log Gamma(s, z) from above, closely, and never read -inf
    from scipy.special import gammaincc

    z = 800.0
    assert gammaincc(1.0, z) == gammaincc(5.0, z) == gammaincc(0.5, z) == 0.0
    # Gamma(1, z) = e^-z exactly
    assert lab._log_gamma_tail(1.0, z) == -z
    # Gamma(5, z) = 4! e^-z (1 + z + z^2/2 + z^3/6 + z^4/24)
    exact = math.log(24.0) - z + math.log(sum(z**k / math.factorial(k) for k in range(5)))
    assert exact <= lab._log_gamma_tail(5.0, z) <= exact + 0.01
    # Gamma(1/2, z) = sqrt(pi) erfc(sqrt(z)) > 2 e^-z / (sqrt(z) + sqrt(z + 2))
    lower = math.log(2.0) - z - math.log(math.sqrt(z) + math.sqrt(z + 2.0))
    assert lower <= lab._log_gamma_tail(0.5, z) <= lower + 0.01


def test_lower_bound_family_frozen_points():
    rep = lower_bound_family(1, 1.0, 0.5, np.array([1.0]))
    closed = rep.rows[0][3]
    assert closed == pytest.approx(2 * math.e / (math.e + 1.0), rel=1e-14)
    assert closed == pytest.approx(1.4621171572600098, abs=1e-14)
    assert rep.passed
    zero = lower_bound_family(4, 2.0, 0.1, np.zeros(4))
    assert zero.rows[0][3] == pytest.approx(1.0, abs=1e-14)
    assert zero.passed


def test_lower_bound_family_tensor_agreement():
    rng = np.random.default_rng(17)
    for m in (2, 5, 9):
        eps = 0.3
        raw = rng.uniform(0, 1, m)
        mu = raw * (10.0 * eps / np.linalg.norm(raw)) * 0.9
        rep = lower_bound_family(m, 1.0, eps, mu)
        assert rep.passed
        assert rep.rows[0][5] <= 1e-10  # tensor_gap column


def test_lower_bound_family_feasibility_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        lower_bound_family(2, 1.0, 0.5, np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="exceeds"):
        lower_bound_family(1, 1.0, 0.1, np.array([2.0]))
    with pytest.raises(ValueError, match="shape"):
        lower_bound_family(3, 1.0, 0.5, np.array([0.1, 0.1]))
