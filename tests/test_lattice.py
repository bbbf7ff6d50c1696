import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslearn.lattice import (
    CELL_SITES,
    HamiltonianModel,
    LatticeSpec,
    LocalBasisOp,
    assemble_hamiltonian,
    basis_stack,
    enumerate_basis,
    instance_model,
    model_from_dict,
    model_to_dict,
    pauli_matrix,
    save_model,
    to_dense,
)
from gibbslearn.lattice import load_model
from gibbslearn.gibbs import diagonalize, gibbs, variance
from gibbslearn.lab import qbp_transform
from gibbslearn.measure import MeasurementPlan

from conftest import (
    SPLIT_CELL_BASES,
    chain_basis,
    dense_basis,
    raises_before_allocating,
    random_state,
    small_bases,
)


def test_basis_counts_small_chains():
    # frozen operator counts for the reference geometries
    assert chain_basis(2, kappa=1).m == 6
    assert chain_basis(2, kappa=2).m == 15
    assert chain_basis(3, kappa=2).m == 27
    assert chain_basis(4, kappa=2).m == 39


def test_basis_count_square_grid():
    lattice = LatticeSpec(dimension=2, side_lengths=(2, 2))
    basis = enumerate_basis(lattice, 2)
    # 4 single-site supports (3 letters each) plus 4 nearest-neighbour
    # edges (9 letter pairs each)
    assert basis.m == 4 * 3 + 4 * 9


def test_enumeration_is_deterministic():
    a = chain_basis(4)
    b = chain_basis(4)
    assert [(op.support, op.letters) for op in a.ops] == [
        (op.support, op.letters) for op in b.ops
    ]


def test_supports_sorted_and_within_range():
    basis = chain_basis(4)
    for op in basis.ops:
        assert list(op.support) == sorted(op.support)
        assert len(op.letters) == len(op.support)
        for a in op.support:
            for b in op.support:
                assert basis.lattice.distance(a, b) <= basis.kappa - 1


def test_local_op_validation():
    with pytest.raises(ValueError):
        LocalBasisOp(support=(1, 0), letters="XZ")
    with pytest.raises(ValueError):
        LocalBasisOp(support=(0,), letters="Q")
    with pytest.raises(ValueError):
        LocalBasisOp(support=(0, 1), letters="X")


def test_enumerate_basis_kappa_bounds():
    lattice = LatticeSpec(dimension=1, side_lengths=(3,))
    with pytest.raises(ValueError):
        enumerate_basis(lattice, 0)
    with pytest.raises(ValueError):
        enumerate_basis(lattice, 4)


@given(st.integers(2, 9), st.integers(0, 80), st.integers(0, 80))
def test_chain_distance_symmetry(n, a, b) -> None:
    lattice = LatticeSpec(dimension=1, side_lengths=(n,))
    i, j = a % n, b % n
    assert lattice.distance(i, j) == lattice.distance(j, i)
    assert lattice.distance(i, i) == 0


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 200))
def test_grid_coords_round_trip(rows, cols, raw) -> None:
    lattice = LatticeSpec(dimension=2, side_lengths=(rows, cols))
    site = raw % (rows * cols)
    row, col = lattice.site_coords(site)  # row-major over (rows, cols)
    assert 0 <= row < rows and 0 <= col < cols
    assert row * cols + col == site


def test_periodic_wrap_distance():
    ring = LatticeSpec(dimension=1, side_lengths=(5,), periodic=True)
    assert ring.distance(0, 4) == 1
    assert ring.distance(0, 2) == 2
    open_chain = LatticeSpec(dimension=1, side_lengths=(5,))
    assert open_chain.distance(0, 4) == 4


def test_ball_matches_distance_and_is_sorted():
    lattice = LatticeSpec(dimension=2, side_lengths=(3, 3))
    for center in range(9):
        for radius in range(4):
            ball = lattice.ball(radius, center)
            assert list(ball) == sorted(ball)
            expected = [
                s for s in range(9) if lattice.distance(center, s) <= radius
            ]
            assert list(ball) == expected


def test_to_dense_single_site():
    basis = chain_basis(2)
    op = next(o for o in basis.ops if o.support == (0,) and o.letters == "X")
    dense = to_dense(op, basis.lattice)
    np.testing.assert_allclose(dense, np.kron(pauli_matrix("X"), np.eye(2)))


def test_to_dense_two_site_product():
    basis = chain_basis(2)
    op = next(o for o in basis.ops if o.support == (0, 1) and o.letters == "ZY")
    expected = np.kron(pauli_matrix("Z"), pauli_matrix("Y"))
    np.testing.assert_allclose(to_dense(op, basis.lattice), expected)


def test_stack_rows_hermitian_traceless_unit_norm():
    basis = chain_basis(3)
    table = basis_stack(basis)
    dim = 2**3
    for op, unit in zip(basis.ops, np.eye(basis.m)):
        E = table.combine(unit)
        np.testing.assert_array_equal(E, to_dense(op, basis.lattice))
        np.testing.assert_allclose(E, E.conj().T)
        assert abs(np.trace(E)) < 1e-12
        # pauli strings square to the identity
        np.testing.assert_allclose(E @ E, np.eye(dim), atol=1e-12)


def test_stack_is_cached():
    basis = chain_basis(3)
    assert basis_stack(basis) is basis_stack(basis)


@settings(max_examples=40, deadline=None)
@given(small_bases(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_pauli_table_matches_dense_oracle(basis, rank, seed):
    table = basis_stack(basis)
    dense = dense_basis(basis)
    dim = dense.shape[1]
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, basis.m)
    np.testing.assert_allclose(
        table.combine(coeffs), np.tensordot(coeffs, dense, axes=1), rtol=0, atol=1e-12
    )
    rho = random_state(dim, rank, rng)
    np.testing.assert_allclose(
        table.expectations(rho), np.einsum("lab,ba->l", dense, rho).real, rtol=0, atol=1e-12
    )
    V = np.linalg.qr(random_state(dim, dim, rng))[0]
    lo = rng.integers(dim)
    W = V[:, lo : rng.integers(lo + 1, dim + 1)].conj().T
    right = V[:, rng.integers(dim) :]
    np.testing.assert_allclose(
        table.sandwich(W, right), W @ dense @ right, rtol=0, atol=1e-12
    )
    anti = table.anticommutation()
    for k, l in rng.integers(basis.m, size=(200, 2)):
        anticommutator = dense[k] @ dense[l] + dense[l] @ dense[k]
        assert anti[k, l] == (np.max(np.abs(anticommutator)) < 1e-12)


@pytest.mark.parametrize("basis", SPLIT_CELL_BASES.values(), ids=SPLIT_CELL_BASES.keys())
def test_cells_that_split_partition_the_basis_and_match_the_dense_oracle(basis):
    n = basis.lattice.n_sites
    table = basis_stack(basis)
    words = [op.word(n) for op in basis.ops]

    def sites(l, letters):
        return frozenset(s for s, letter in enumerate(words[l]) if letter in letters)

    cells = [np.atleast_1d(cell[0]).tolist() for cell in table._cells]
    assert sorted(l for cell in cells for l in cell) == list(range(basis.m))
    for cell in cells:
        assert len({sites(l, "XY") for l in cell}) == 1
        union = frozenset().union(*(sites(l, "YZ") for l in cell))
        assert len(union) <= CELL_SITES or len(cell) == 1
    assert sum(not sites(cell[0], "XY") for cell in cells) > 1  # the x = 0 group splits

    dense = dense_basis(basis)
    dim = dense.shape[1]
    V = np.linalg.qr(random_state(dim, dim, np.random.default_rng(7)))[0]
    # ragged row and column blocks, one of them a single row
    for lo, hi, left in ((0, dim, 0), (3, 8, 5), (1, dim - 2, dim - 3), (dim - 1, dim, dim - 1)):
        W = V[:, lo:hi].conj().T
        right = V[:, left:]
        np.testing.assert_allclose(
            table.sandwich(W, right), W @ dense @ right, rtol=0, atol=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(small_bases(), st.integers(0, 2**32 - 1))
def test_combine_is_exactly_hermitian(basis, seed):
    # gibbs.diagonalize reads only the lower triangle of the table-built H
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, basis.m)
    H = basis_stack(basis).combine(coeffs)
    np.testing.assert_array_equal(H, H.conj().T)


def test_assemble_matches_manual_sum():
    basis = chain_basis(2)
    rng = np.random.default_rng(3)
    mu = rng.uniform(-1, 1, basis.m)
    H = assemble_hamiltonian(HamiltonianModel(basis=basis, mu=mu))
    manual = sum(
        float(c) * to_dense(op, basis.lattice) for c, op in zip(mu, basis.ops)
    )
    np.testing.assert_allclose(H, manual, atol=1e-14)


def test_model_rejects_bad_mu():
    basis = chain_basis(2, kappa=1)
    with pytest.raises(ValueError):
        HamiltonianModel(basis=basis, mu=np.zeros(basis.m + 1))
    too_big = np.zeros(basis.m)
    too_big[0] = 1.5
    with pytest.raises(ValueError):
        HamiltonianModel(basis=basis, mu=too_big)


def test_model_mu_is_read_only():
    basis = chain_basis(2, kappa=1)
    model = HamiltonianModel(basis=basis, mu=np.zeros(basis.m))
    with pytest.raises(ValueError):
        model.mu[0] = 1.0


def test_model_json_round_trip(tmp_path):
    model = HamiltonianModel(
        basis=chain_basis(3),
        mu=np.random.default_rng(7).uniform(-1, 1, 27),
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.basis.m == model.basis.m
    np.testing.assert_allclose(loaded.mu, model.mu)
    # canonical text: LF endings, trailing newline
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_model_from_dict_missing_field():
    payload = model_to_dict(
        HamiltonianModel(basis=chain_basis(2), mu=np.zeros(15))
    )
    payload.pop("kappa")
    with pytest.raises(ValueError, match=r"kappa \(missing, expected int >= 1\)"):
        model_from_dict(payload)


def test_a_stored_mu_and_a_configured_mu_share_the_models_rule():
    # gen, sweep and model files all build their model through instance_model,
    # so they take HamiltonianModel's range, with its 1e-12 tolerance, and name mu
    basis = chain_basis(2)
    payload = model_to_dict(HamiltonianModel(basis=basis, mu=np.zeros(15)))
    rng = np.random.default_rng(0)
    inside, outside = [1.0 + 1e-13] + [0.0] * 14, [1.0 + 1e-11] + [0.0] * 14
    assert model_from_dict({**payload, "mu": inside}).mu[0] == inside[0]
    assert instance_model("gen config", inside, basis, rng).mu[0] == inside[0]
    with pytest.raises(ValueError, match=r"^invalid model file m.json: mu \(max\|mu\| = 1; "):
        model_from_dict({**payload, "mu": outside}, "model file m.json")
    with pytest.raises(ValueError, match=r"^invalid gen config: mu \(max\|mu\| = 1; "):
        instance_model("gen config", outside, basis, rng)
    with pytest.raises(ValueError, match=r"^invalid gen config: mu \(expected m = 15 coeff"):
        instance_model("gen config", [0.5, 0.5], basis, rng)


def test_model_dict_is_json_serializable():
    model = HamiltonianModel(basis=chain_basis(2), mu=np.zeros(15))
    text = json.dumps(model_to_dict(model))
    assert "lattice" in text


def test_dense_budget_refuses_basis_stack():
    # open n=20 chain, kappa=2: the table is small, but the one dense
    # 2^20 x 2^20 matrix each of its operations reads or writes is 17.6 TB
    basis = chain_basis(20)
    assert basis.m == 231
    raises_before_allocating(lambda: basis_stack(basis))
    model = HamiltonianModel(basis=basis, mu=np.zeros(basis.m))
    raises_before_allocating(lambda: assemble_hamiltonian(model))


def test_dense_budget_refuses_single_matrix():
    # one 2^20 x 2^20 complex matrix is 17.6 TB
    basis = chain_basis(20)
    raises_before_allocating(lambda: to_dense(basis.ops[0], basis.lattice))


CHAIN3 = LatticeSpec(dimension=1, side_lengths=(3,))


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: LatticeSpec(0, ()), "lattice dimension must be >= 1, got 0"),
        (lambda: LatticeSpec(1, (0,)), "side lengths must be positive, got (0,)"),
        (lambda: CHAIN3.site_coords(3), "site index 3 out of range for n=3"),
        (lambda: CHAIN3.ball(-1, 0), "radius must be >= 0, got -1"),
        (lambda: LocalBasisOp((), ""), "support must be nonempty (identity is not a basis"),
        (
            lambda: to_dense(LocalBasisOp((3,), "X"), CHAIN3),
            "support (3,) does not fit a lattice with n=3",
        ),
        (
            lambda: MeasurementPlan(chain_basis(2), "exact", ((0,),), 0, 0),
            "an exact plan must be empty",
        ),
        (
            lambda: qbp_transform(np.eye(3), diagonalize(np.eye(2)), 1.0),
            "operator shape (3, 3) does not match spectral dimension 2",
        ),
        (
            # an anti-Hermitian O reads Tr[O^2 rho] = -1
            lambda: variance(1j * np.eye(2), gibbs(diagonalize(np.zeros((2, 2))), 1.0)),
            "variance -1.000e+00 is negative beyond numerical noise",
        ),
    ],
    ids=["dimension", "side", "site-index", "ball-radius", "empty-support", "dense-support",
         "exact-plan", "qbp-shape", "anti-hermitian-variance"],
)
def test_refusals_of_outside_input_name_the_fault(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()
