import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbslearn.gibbs import gibbs_state, marginals
from gibbslearn.lattice import assemble_hamiltonian, basis_stack
from gibbslearn.measure import (
    MarginalEstimates,
    MeasurementPlan,
    build_plan,
    hoeffding_radius,
    sample_outcomes,
)

from conftest import (
    chain_basis,
    dense_basis,
    random_chain_model,
    random_state,
    small_bases,
)


def test_anticommutation_against_dense_commutator():
    basis = chain_basis(2)
    dense = dense_basis(basis)
    anti = basis_stack(basis).anticommutation()
    for k in range(basis.m):
        for l in range(basis.m):
            comm = dense[k] @ dense[l] - dense[l] @ dense[k]
            assert anti[k, l] == (np.max(np.abs(comm)) > 1e-12)


def test_direct_plan_layout():
    basis = chain_basis(2)
    plan = build_plan(basis, "direct", 3000)
    assert len(plan.groups) == basis.m
    assert all(len(g) == 1 for g in plan.groups)
    assert plan.shots_per_group == 3000 // basis.m
    assert plan.copies_consumed <= 3000


def test_grouped_plan_actually_groups():
    basis = chain_basis(3)
    plan = build_plan(basis, "grouped", 10_000)
    assert 1 < len(plan.groups) < basis.m
    # constructor re-validates commutation and coverage; reaching here means
    # the coloring is a legal partition
    assert plan.shots_per_group > build_plan(basis, "direct", 10_000).shots_per_group


def test_exact_plan_consumes_nothing():
    plan = build_plan(chain_basis(2), "exact", 0)
    assert plan.groups == ()
    assert plan.n_total == 0


def test_build_plan_rejects_unknown_scheme_and_starvation():
    basis = chain_basis(2)
    # the scheme is checked first, also when the copies could not feed its groups
    for copies in (100, 1):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_plan(basis, "fancy", copies)
    with pytest.raises(ValueError, match="one shot"):
        build_plan(basis, "direct", basis.m - 1)


def test_plan_validation_catches_bad_partitions():
    basis = chain_basis(2, kappa=1)
    singletons = tuple((k,) for k in range(basis.m))
    with pytest.raises(ValueError, match="two groups"):
        MeasurementPlan(basis, "direct", singletons + ((0,),), 10, 60)
    with pytest.raises(ValueError, match="cover"):
        MeasurementPlan(basis, "direct", singletons[:-1], 10, 60)
    # X and Z on site 0 anticommute
    bad = ((0, 2),) + tuple((k,) for k in range(basis.m) if k not in (0, 2))
    with pytest.raises(ValueError, match="do not commute"):
        MeasurementPlan(basis, "grouped", bad, 10, 60)


def test_exact_scheme_returns_dense_marginals():
    model = random_chain_model(3, seed=21)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    est = sample_outcomes(build_plan(model.basis, "exact", 0), ens)
    np.testing.assert_allclose(
        est.e_hat, marginals(basis_stack(model.basis), ens), atol=1e-12
    )
    assert np.all(est.delta == 0)
    assert est.n_total == 0


@pytest.mark.parametrize("scheme", ["exact", "grouped"])
def test_sampling_builds_rho_once(rho_formed, scheme):
    # the shots and then the exact marginals read one rho of the ensemble
    model = random_chain_model(3, seed=21)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    sample_outcomes(build_plan(model.basis, scheme, 10_000), ens, seed=0)
    marginals(basis_stack(model.basis), ens)
    assert rho_formed == [ens]


def test_sampling_is_seed_deterministic():
    model = random_chain_model(2, seed=3)
    ens = gibbs_state(assemble_hamiltonian(model), 0.8)
    plan = build_plan(model.basis, "grouped", 5000)
    a = sample_outcomes(plan, ens, seed=42)
    b = sample_outcomes(plan, ens, seed=42)
    c = sample_outcomes(plan, ens, seed=43)
    np.testing.assert_array_equal(a.e_hat, b.e_hat)
    assert np.any(a.e_hat != c.e_hat)


def test_estimates_concentrate_on_truth():
    model = random_chain_model(3, seed=17)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    truth = marginals(basis_stack(model.basis), ens)
    est = sample_outcomes(build_plan(model.basis, "grouped", 200_000), ens, seed=7)
    # Hoeffding radius on the +/-1 scale is 2*delta
    assert np.all(np.abs(est.e_hat - truth) <= 2 * est.delta)


def test_coverage_over_repeated_trials():
    # with delta_fail = 0.05 per trial, 40 independent trials should very
    # rarely produce even two joint violations (Hoeffding is conservative)
    model = random_chain_model(2, seed=29)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    truth = marginals(basis_stack(model.basis), ens)
    plan = build_plan(model.basis, "grouped", 2000)
    bad = 0
    for trial in range(40):
        est = sample_outcomes(plan, ens, seed=1000 + trial)
        if np.any(np.abs(est.e_hat - truth) > 2 * est.delta):
            bad += 1
    assert bad <= 2


def test_direct_and_grouped_agree_statistically():
    model = random_chain_model(2, seed=5)
    ens = gibbs_state(assemble_hamiltonian(model), 0.5)
    truth = marginals(basis_stack(model.basis), ens)
    for scheme in ("direct", "grouped"):
        est = sample_outcomes(build_plan(model.basis, scheme, 150_000), ens, seed=11)
        assert np.all(np.abs(est.e_hat - truth) <= 2 * est.delta)


def test_dimension_mismatch_rejected():
    plan = build_plan(chain_basis(2), "grouped", 1000)
    big = gibbs_state(assemble_hamiltonian(random_chain_model(3, seed=0)), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        sample_outcomes(plan, big, seed=0)


def test_hoeffding_radius_values():
    np.testing.assert_array_equal(hoeffding_radius(5, 0.05, [0, 0]), [0.0, 0.0])
    r = hoeffding_radius(1, 0.05, [200])
    assert r[0] == pytest.approx(np.sqrt(np.log(2 / 0.05) / 400), rel=1e-14)
    # radius shrinks like 1/sqrt(shots)
    r4 = hoeffding_radius(1, 0.05, [800])
    assert r4[0] == pytest.approx(r[0] / 2, rel=1e-14)


def test_estimates_validation_and_serialization():
    with pytest.raises(ValueError, match="lie in"):
        MarginalEstimates(
            e_hat=np.array([1.5]),
            delta=np.zeros(1),
            shots=np.zeros(1, dtype=np.int64),
        )
    est = MarginalEstimates(
        e_hat=np.array([0.25, -1.0]),
        delta=np.array([0.1, 0.1]),
        shots=np.array([10, 10], dtype=np.int64),
        n_total=20,
        seed=3,
        scheme="direct",
    )
    assert est.m == 2
    assert est.manifest_dict() == {
        "seed": 3,
        "scheme": "direct",
        "N_total": 20,
        "delta_fail": 0.05,
    }
    rows = list(est.csv_rows())
    assert rows[0] == (0, 0.25, 0.1, 10)


@settings(max_examples=40, deadline=None)
@given(small_bases(), st.sampled_from(["grouped", "direct"]), st.integers(1, 3), st.integers(0, 2**32 - 1))
# the 3-chain's grouped plan has a member that is minus a product of generators
@example(chain_basis(3), "grouped", 1, 0)
def test_group_law_matches_dense_oracle(basis, scheme, rank, seed):
    table = basis_stack(basis)
    dense = dense_basis(basis)
    rho = random_state(dense.shape[1], rank, np.random.default_rng(seed))
    for group in build_plan(basis, scheme, basis.m).groups:
        probs, values = table.group_law(group, rho)
        assert probs.min() >= -1e-15
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        members = dense[list(group)]
        means = np.einsum("kab,ba->k", members, rho).real
        np.testing.assert_allclose(values @ probs, means, rtol=0, atol=1e-12)
        pairs = np.einsum("kab,lba->kl", members, members @ rho).real
        np.testing.assert_allclose((values * probs) @ values.T, pairs, rtol=0, atol=1e-12)
